"""The three workloads: the CLI commands of one pass, and the checks on their outputs.

A pass is a fixed list of `dyckrnn` commands issued one after another. Each
command is one operation; every report it produces (a `--json-report` entry,
the sampled corpus, a `mean_p` line) is one more. An operation fails when its
command exits non-zero or its output misses a check below.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Callable


@dataclass
class Outcome:
    """One report of a command, checked."""

    label: str
    ok: bool
    why: str = ""


@dataclass
class Command:
    """One CLI invocation and the check on what it printed and wrote."""

    label: str
    argv: list[str]
    check: Callable[["Command", str], list[Outcome]]  # (self, stdout) -> reports
    tokens: int = 0  # corpus tokens the command handled, set by its check
    checked: int = 0  # sum of `checked` over its verify reports, set by its check


@dataclass
class Workload:
    name: str
    default_seed: int
    make: Callable[[int, str], list[Command]]  # (seed, workdir) -> one pass


def is_member(text: str, k: int, m: int, window: tuple[int, int]) -> bool:
    """Bracket matching written apart from the package's automaton."""
    tokens = text.split()
    if not window[0] <= len(tokens) <= window[1] or tokens[-1] != "$":
        return False
    stack = []
    for tok in tokens[:-1]:
        kind, idx = tok[0], tok[1:]
        if not idx.isdigit() or not 1 <= int(idx) <= k:
            return False
        if kind == "(":
            stack.append(idx)
            if len(stack) > m:
                return False
        elif kind != ")" or not stack or stack.pop() != idx:
            return False
    return not stack


def _report_check(path: str, expected: Callable[[], list[dict]]):
    """Every entry passed and carries the expected fields, in order.

    Expected keys name a top-level field, an `instance` field or a `details`
    field of the entry.
    """

    def check(command: Command, _stdout: str) -> list[Outcome]:
        with open(path) as handle:
            entries = json.load(handle)
        want_all = expected()
        outcomes = []
        for i in range(max(len(want_all), len(entries))):
            label = f"report[{i}]"
            if i >= len(entries):
                outcomes.append(Outcome(label, False, "report entry missing"))
                continue
            if i >= len(want_all):
                outcomes.append(Outcome(label, False, "unexpected report entry"))
                continue
            got = entries[i]
            flat = {**got["details"], **got["instance"], **got}
            problems = [f"{key}={flat.get(key)!r}, expected {value!r}"
                        for key, value in {"passed": True, **want_all[i]}.items()
                        if flat.get(key) != value]
            outcomes.append(Outcome(label, not problems, "; ".join(problems)))
        command.checked = sum(e.get("checked", 0) for e in entries)
        return outcomes

    return check


# --------------------------------------------------------------- corpus-checks

CC_K, CC_M, CC_STRINGS = 8, 3, 1000
_CC_SUITES = {"stack": "stack_correspondence",
              "margins": "probability_margins",
              "saturation": "saturation_exactness"}


def _corpus_checked_counts(seed: int) -> dict[str, int]:
    """`checked` per corpus suite for the corpus `verify --seed` draws.

    Stack and saturation count every non-end token, margins every prefix up
    to and including the one before the end mark.  The corpus comes from the
    package sampler, whose draws per seed are its own contract; each string
    is checked with the independent matcher before it is counted.
    """
    from dyckrnn.automaton import DyckParams, format_string
    from dyckrnn.sampler import SamplerConfig, sample_strings

    cfg = SamplerConfig(DyckParams(CC_K, CC_M), seed=seed)
    corpus = [format_string(s) for s in sample_strings(cfg, CC_STRINGS)]
    bad = [s for s in corpus
           if not is_member(s, CC_K, CC_M, (cfg.min_len, cfg.max_len))]
    if bad:
        raise ValueError(f"sampled string is not a member: {bad[0]}")
    tokens = sum(len(s.split()) for s in corpus)
    return {"stack": tokens - len(corpus), "margins": tokens,
            "saturation": tokens - len(corpus)}


def corpus_checks(seed: int, work: str) -> list[Command]:
    counts: dict[str, int] = {}

    def expected(arch: str) -> list[dict]:
        if not counts:
            counts.update(_corpus_checked_counts(seed))
        return [{"suite": name, "architecture": arch, "encoding": enc,
                 "checked": counts[suite]}
                for suite, name in _CC_SUITES.items()
                for enc in ("onehot", "binary")]

    commands = []
    for arch in ("simple", "lstm"):
        report = os.path.join(work, f"corpus_{arch}.json")
        argv = ["verify", "-k", str(CC_K), "-m", str(CC_M)]
        for suite in _CC_SUITES:
            argv += ["--suite", suite]
        argv += ["--strings", str(CC_STRINGS), "--seed", str(seed),
                 "--arch", arch, "--json-report", report]
        commands.append(Command(f"verify-{arch}", argv, _report_check(
            report, lambda arch=arch: expected(arch))))
    return commands


# ------------------------------------------------------------------- enumerate

_ALL = [("simple", "onehot"), ("simple", "binary"), ("lstm", "onehot"),
        ("lstm", "binary"), ("naive", None)]


def _equivalence(constructions, checked: int, size: int) -> list[dict]:
    return [{"suite": "generation_equivalence", "architecture": arch,
             "encoding": enc, "checked": checked, "language_size": size,
             "support_size": size} for arch, enc in constructions]


def _cross(checked: int) -> list[dict]:
    return [{"suite": "cross_construction_agreement", "checked": checked,
             "agree_with_language": [True] * len(_ALL)}]


def _distinct(arch: str) -> list[dict]:
    return [{"suite": "full_depth_distinctness", "architecture": arch,
             "encoding": enc, "checked": 8**3} for enc in ("onehot", "binary")]


# (label, verify arguments, expected report entries).  The counts are those
# the package produced when this benchmark was written; they do not depend
# on any seed.
ENUMERATE_COMMANDS = [
    ("equiv-cross-k2m4",
     ["-k", "2", "-m", "4", "--suite", "equivalence", "--suite", "cross",
      "--max-len", "10"],
     _equivalence(_ALL, 349525, 275) + _cross(1747625)),
    ("equiv-cross-k3m3",
     ["-k", "3", "-m", "3", "--suite", "equivalence", "--suite", "cross",
      "--max-len", "8"],
     _equivalence(_ALL, 335923, 157) + _cross(1679615)),
    ("equiv-distinct-k8m3-simple",
     ["-k", "8", "-m", "3", "--suite", "equivalence", "--suite", "distinct",
      "--max-len", "5", "--arch", "simple"],
     _equivalence(_ALL[:2], 69905, 137) + _distinct("simple")),
    ("equiv-distinct-k8m3-lstm",
     ["-k", "8", "-m", "3", "--suite", "equivalence", "--suite", "distinct",
      "--max-len", "5", "--arch", "lstm"],
     _equivalence(_ALL[2:4], 69905, 137) + _distinct("lstm")),
]


def enumerate_(seed: int, work: str) -> list[Command]:
    commands = []
    for label, args, expected in ENUMERATE_COMMANDS:
        report = os.path.join(work, f"{label}.json")
        commands.append(Command(
            label, ["verify", *args, "--json-report", report],
            _report_check(report, lambda expected=expected: expected)))
    # One unit of one bit holds 2 states for the k^m = 4 full-depth strings,
    # so every random table collides, whatever the encoder seed.
    report = os.path.join(work, "collide.json")
    commands.append(Command(
        "collide",
        ["verify", "--suite", "collide", "-d", "1", "-p", "1", "-k", "2",
         "-m", "2", "--encoder-seed", str(seed), "--json-report", report],
        _report_check(report, lambda: [{"suite": "lower_bound_collision",
                                         "checked": 4}])))
    return commands


# --------------------------------------------------------------- sample-metric

SM_K, SM_M, SM_TOKENS, SM_MIN, SM_MAX = 128, 5, 100_000, 181, 360
SM_HIDDEN = 100  # 3*m*ceil(log2 k) - m units for LSTM/binary
_HEADER_FIELD = re.compile(r"(\w+)=(\S+)")


def _build_check(command: Command, stdout: str) -> list[Outcome]:
    if f"hidden_units: {SM_HIDDEN}" not in stdout.splitlines():
        raise ValueError(f"build did not print hidden_units: {SM_HIDDEN}")
    return []


def _corpus_check(path: str):
    def check(command: Command, _stdout: str) -> list[Outcome]:
        with open(path) as handle:
            lines = handle.read().splitlines()
        problems = []
        header = dict(_HEADER_FIELD.findall(lines[0])) if lines else {}
        want = {"k": str(SM_K), "m": str(SM_M), "min_len": str(SM_MIN),
                "max_len": str(SM_MAX)}
        if any(header.get(key) != value for key, value in want.items()):
            problems.append(f"header {lines[:1]} lacks {want}")
        strings = [line for line in lines[1:] if line.strip()]
        bad = [s for s in strings
               if not is_member(s, SM_K, SM_M, (SM_MIN, SM_MAX))]
        if bad:
            problems.append(f"{len(bad)} strings are not members inside the "
                            f"window, first: {bad[0][:80]!r}")
        command.tokens = sum(len(s.split()) for s in strings)
        if command.tokens < SM_TOKENS:
            problems.append(f"{command.tokens} tokens < {SM_TOKENS}")
        return [Outcome("corpus", not problems, "; ".join(problems))]

    return check


def _mean_p_check(value: str, sample: Command):
    def check(command: Command, stdout: str) -> list[Outcome]:
        command.tokens = sample.tokens
        printed = [ln for ln in stdout.splitlines() if ln.startswith("mean_p:")]
        ok = printed == [f"mean_p: {value}"]
        return [Outcome(command.label, ok, "" if ok else f"printed {printed}")]

    return check


def sample_metric(seed: int, work: str) -> list[Command]:
    weights = os.path.join(work, "lstm_binary_k128_m5.json")
    corpus = os.path.join(work, "corpus.txt")
    sample = Command("sample", ["sample", "-k", str(SM_K), "-m", str(SM_M),
                                "--tokens", str(SM_TOKENS), "--seed", str(seed),
                                "--min-len", str(SM_MIN), "--max-len",
                                str(SM_MAX), "-o", corpus], _corpus_check(corpus))
    metric = ["metric", "--weights", weights, "--corpus", corpus]
    return [
        Command("build", ["build", "--arch", "lstm", "--enc", "binary", "-k",
                          str(SM_K), "-m", str(SM_M), "-o", weights],
                _build_check),
        sample,
        Command("metric", metric, _mean_p_check("1.0", sample)),
        Command("baseline", metric + ["--uniform-baseline"],
                _mean_p_check("0.0", sample)),
    ]


WORKLOADS = {
    "corpus-checks": Workload("corpus-checks", 2026, corpus_checks),
    "enumerate": Workload("enumerate", 2026, enumerate_),
    "sample-metric": Workload("sample-metric", 2027, sample_metric),
}
