"""Outside-in tracer for the dyckrnn package.

The package has no spans of its own, so the tracer replaces functions at
every module attribute that binds them: `verify` calls `step` through its
own `from .runtime import step`, `runtime` calls `sat_sigmoid` through its
own name, and so on.  Each wrapped call records a span (name, start, end,
parent span, command index, construction tag) in flat arrays that stay in
memory until the pass ends.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import array
import functools
import sys
import time

import numpy as np

# Construction tags of `runtime.step` spans, keyed by (architecture, encoding).
CONSTRUCTIONS = {("simple", "onehot"): "simple_onehot",
                 ("simple", "binary"): "simple_binary",
                 ("lstm", "onehot"): "lstm_onehot",
                 ("lstm", "binary"): "lstm_binary",
                 ("naive", None): "naive"}
_TAG = {key: i for i, key in enumerate(CONSTRUCTIONS)}

# (module, attribute) -> span name.  Suites are named as `verify --suite`
# names them; the collide suite lives in the CLI.
SPANS = {
    ("cli", "cmd_build"): "cli", ("cli", "cmd_sample"): "cli",
    ("cli", "cmd_check"): "cli", ("cli", "cmd_verify"): "cli",
    ("cli", "cmd_metric"): "cli",
    ("cli", "_collision_report"): "verify.collide",
    ("builders", "build"): "builders.build",
    ("weightio", "save_weights"): "weightio.save_weights",
    ("weightio", "load_weights"): "weightio.load_weights",
    ("sampler", "sample_corpus"): "sampler.sample",
    ("sampler", "sample_strings"): "sampler.sample",
    ("sampler", "sample_string"): "sampler.sample",
    ("sampler", "parse_corpus"): "sampler.parse_corpus",
    ("sampler", "format_corpus"): "sampler.format_corpus",
    ("automaton", "transition"): "automaton.transition",
    ("automaton", "allowed_tokens"): "automaton.allowed_tokens",
    ("runtime", "initial_state"): "runtime.initial_state",
    ("runtime", "step"): "runtime.step",
    ("runtime", "next_distribution"): "runtime.next_distribution",
    ("runtime", "decode_stack"): "runtime.decode_stack",
    ("numerics", "softmax"): "numerics.softmax",
    ("numerics", "sat_sigmoid"): "numerics.sat_sigmoid",
    ("numerics", "sat_tanh"): "numerics.sat_tanh",
    ("verify", "allowed_row_mask"): "verify.allowed_row_mask",
    ("verify", "dfa_membership_set"): "verify.dfa_membership_set",
    ("verify", "net_membership_set"): "verify.net_membership_set",
    ("verify", "check_generation_equivalence"): "verify.equivalence",
    ("verify", "check_stack_correspondence"): "verify.stack",
    ("verify", "check_probability_margins"): "verify.margins",
    ("verify", "check_saturation_exactness"): "verify.saturation",
    ("verify", "check_full_depth_distinctness"): "verify.distinct",
    ("verify", "check_cross_construction_agreement"): "verify.cross",
    ("verify", "closing_metric"): "verify.closing_metric",
    ("verify", "closing_metric_uniform"): "verify.closing_metric_uniform",
}
# Suites that walk a corpus from the initial state, one walk per string.
CORPUS_SUITES = ("verify.stack", "verify.margins", "verify.saturation",
                 "verify.closing_metric")
SUITES = ("verify.equivalence", "verify.stack", "verify.margins",
          "verify.saturation", "verify.distinct", "verify.collide",
          "verify.cross", "verify.closing_metric",
          "verify.closing_metric_uniform")
CALLS_AND_SELF = ("runtime.next_distribution", "numerics.softmax",
                  "numerics.sat_sigmoid", "numerics.sat_tanh",
                  "runtime.decode_stack", "encodings.decode_slot",
                  "verify.allowed_row_mask", "automaton.allowed_tokens",
                  "automaton.transition", "verify.dfa_membership_set",
                  "verify.net_membership_set", "builders.build")
SELF_ONLY = ("sampler.sample", "weightio.save_weights", "weightio.load_weights",
             "sampler.parse_corpus", "sampler.format_corpus", "cli")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    out = [("runtime.step.calls", "count"), ("runtime.step.self_s", "s"),
           ("runtime.step.us_p50", "us"), ("runtime.step.us_p99", "us")]
    out += [(f"runtime.step.us_per_call.{c}", "us") for c in CONSTRUCTIONS.values()]
    for name in CALLS_AND_SELF:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.self_s", "s") for name in SUITES]
    out += [("verify.walks_per_string", "ratio"),
            ("sampler.attempts", "count"), ("sampler.accepted", "count"),
            ("sampler.attempts_per_accept", "ratio"),
            ("sampler.walked_per_accepted_token", "ratio")]
    out += [(f"{name}.self_s", "s") for name in SELF_ONLY]
    out += [("weightio.file_bytes", "bytes"), ("trace_overhead", "ratio")]
    return out


def _tag_of(paramset) -> int:
    enc = paramset.encoding
    return _TAG[(paramset.architecture, None if enc is None else enc.kind)]


class Tracer:
    """Spans in flat arrays; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("l")
        self.command = array.array("H")
        self.tag = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.corpus_size: dict[int, int] = {}  # corpus-suite span -> strings
        self.current_command = 0
        self.attempts = 0
        self.walked_tokens = 0
        self.accepted = 0
        self.accepted_tokens = 0
        self._open = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    def _span(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        opened, clock = self._open, time.perf_counter
        add_name, add_parent = self.name.append, self.parent.append
        add_command, add_tag = self.command.append, self.tag.append
        add_start, add_end, end = self.start.append, self.end.append, self.end
        tagged = name == "runtime.step"
        corpus = name in CORPUS_SUITES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            add_name(nid)
            add_parent(opened[-1])
            add_command(self.current_command)
            add_tag(_tag_of(args[0]) if tagged or corpus else -1)
            if corpus:
                self.corpus_size[idx] = len(args[1])
            add_end(0.0)
            opened.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                opened.pop()

        return wrapper

    def _count_attempt(self, fn):
        @functools.wraps(fn)
        def wrapper(k, m, max_len, rand):
            codes = fn(k, m, max_len, rand)
            self.attempts += 1
            # a walk that returns None has run max_len tokens without ending
            self.walked_tokens += max_len if codes is None else len(codes)
            return codes

        return wrapper

    def _count_accept(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            codes = fn(*args, **kwargs)
            self.accepted += 1
            self.accepted_tokens += len(codes)
            return codes

        return wrapper

    # --------------------------------------------------------------- patching

    def install(self):
        """Wrap every traced function wherever a package module binds it."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "dyckrnn" or name.startswith("dyckrnn.")]
        replacements = {}
        for (module, attr), span in SPANS.items():
            original = getattr(sys.modules[f"dyckrnn.{module}"], attr)
            replacements[id(original)] = (original, self._span(span, original))
        sampler = sys.modules["dyckrnn.sampler"]
        for attr, wrap in (("_attempt", self._count_attempt),
                           ("_sample_codes", self._count_accept)):
            original = getattr(sampler, attr)
            replacements[id(original)] = (original, wrap(original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        # decode_slot is a method: callers look it up on the class
        encoding = sys.modules["dyckrnn.encodings"].Encoding
        self._undo.append((encoding, "decode_slot", encoding.decode_slot))
        encoding.decode_slot = self._span("encodings.decode_slot",
                                          encoding.decode_slot)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ---------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name, dtype=np.uint16),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "command": np.frombuffer(self.command, dtype=np.uint16),
                "tag": np.frombuffer(self.tag, dtype=np.int8),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the file size and the overhead."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(name):
            return a["name"] == ids.get(name, -1)

        out: dict[str, float] = {}
        step = mask("runtime.step")
        step_us = dur[step] * 1e6
        out["runtime.step.calls"] = int(step.sum())
        out["runtime.step.self_s"] = float(self_time[step].sum())
        out["runtime.step.us_p50"] = _percentile(step_us, 50)
        out["runtime.step.us_p99"] = _percentile(step_us, 99)
        for tag, key in enumerate(CONSTRUCTIONS.values()):
            per = step_us[a["tag"][step] == tag]
            out[f"runtime.step.us_per_call.{key}"] = \
                float(per.mean()) if per.size else 0.0
        for name in CALLS_AND_SELF:
            m = mask(name)
            out[f"{name}.calls"] = int(m.sum())
            out[f"{name}.self_s"] = float(self_time[m].sum())
        for name in SUITES + SELF_ONLY:
            out[f"{name}.self_s"] = float(self_time[mask(name)].sum())

        # Walks per corpus string: initial_state calls made directly by a
        # corpus suite, over strings times constructions walked per command.
        corpus_ids = [ids[s] for s in CORPUS_SUITES if s in ids]
        init = mask("runtime.initial_state") & has_parent
        walks = int(np.isin(a["name"][a["parent"][init]], corpus_ids).sum())
        walked = {(a["command"][i], a["tag"][i]): size
                  for i, size in self.corpus_size.items()}
        strings = sum(walked.values())
        out["verify.walks_per_string"] = walks / strings if strings else 0.0

        out["sampler.attempts"] = self.attempts
        out["sampler.accepted"] = self.accepted
        out["sampler.attempts_per_accept"] = \
            self.attempts / self.accepted if self.accepted else 0.0
        out["sampler.walked_per_accepted_token"] = \
            self.walked_tokens / self.accepted_tokens if self.accepted_tokens else 0.0
        return out


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0
