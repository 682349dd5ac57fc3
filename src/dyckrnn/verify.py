"""Machine-checkable correctness suites.

Every claim about a built network is reduced to an executable check against
the automaton oracle: exhaustive support equality on short strings, stack
correspondence and probability margins on sampled corpora, saturation
exactness, full-depth state distinctness, the pigeonhole collision search
that witnesses the memory lower bound, and agreement across constructions.

The exhaustive suites count strings on a product graph instead of listing
them: one breadth-first walk pairs the automaton's stack with the states
of the networks, steps each distinct node once, and carries per node how
many prefixes reach it, so the language, each support, their common
strings and the first string they differ on are read off one walk.  The
walk lives in the product module.  An Enumeration walks the language
beside every construction a command hands it in one walk, so the
equivalence and cross suites of one command read the same counts, and
cross reads where two supports that both differ from the language differ
off that walk too.  The
distinctness suite walks the k^m all-open strings as one integer corpus
through runtime.walk; it and the collision search share one pigeonhole pass
over their full-depth state keys, which turns only the colliding pair into
Tokens.  The corpus suites and the closing metrics read a corpus as an
automaton.Corpus: the suites refuse a string that leaves the language from
its rejections array and walk the corpus over the product graph of the
network and the automaton stacks of its stacks array (product.walk_corpus),
checking each distinct (state, stack) node and each distinct edge once; the
metrics find each close bracket's open from its depth arrays, and the
closing metric reads out each distinct hidden row before a close once,
finding repeats by the row's bytes.

Counterexamples are the first string in length-then-lexicographic order
over symbol rows (opens 1..k, closes 1..k, end), so they are canonical.
Checks are deterministic given the instance, seed, and numeric
configuration.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .automaton import (ACCEPT, Corpus, DfaState, DyckParams, Token,
                        format_string, input_column, is_member, run,
                        vocabulary)
from .builders import DEFAULT_PARAMETER_BUDGET, ParameterBudgetError, build
from .encodings import ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE, BINARY, ONEHOT
from .numerics import NumericConfig, epsilon_for, softmax
from .product import (Graph, Language, Support, Walk, allowed_rows, members,
                      walk_corpus, walk_graph)
from .runtime import (BLOCK_ROWS, DECODE_TOL, StackDecodeError, decode_stack,
                      next_distribution, readout, run_prefix, walk)

DEFAULT_ENUMERATION_BUDGET = 10**6
REPORT_DIGITS = 4300  # CPython's default int_max_str_digits: `checked` must print


@dataclass
class VerificationReport:
    suite: str
    instance: dict
    checked: int
    passed: bool
    counterexample: str | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"suite": self.suite, "instance": self.instance,
                "checked": self.checked, "passed": self.passed,
                "counterexample": self.counterexample, "details": self.details}

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        inst = " ".join(f"{k}={v}" for k, v in self.instance.items())
        line = f"{verdict} {self.suite} [{inst}] checked={self.checked}"
        if self.counterexample:
            line += f" counterexample={self.counterexample!r}"
        return line


def _instance(paramset) -> dict:
    inst = {"architecture": paramset.architecture, "k": paramset.k, "m": paramset.m}
    if paramset.encoding is not None:
        inst["encoding"] = paramset.encoding.kind
    inst["beta"] = paramset.numeric.beta
    return inst


def allowed_row_mask(params: DyckParams, state: DfaState) -> np.ndarray:
    """Rows of allowed_tokens(params, state), read off the stack top and depth."""
    if state == ACCEPT:
        raise ValueError("no distribution is defined after end-of-string")
    k, stack = params.k, state.stack
    mask = np.zeros(2 * k + 1, dtype=bool)
    if state.is_stack:
        mask[:k] = len(stack) < params.m
        mask[k + stack[-1] - 1 if stack else 2 * k] = True
    return mask


def _epsilon(k: int, epsilon: float | None) -> float:
    """The support threshold: epsilon_for(k) by default; a given value must
    lie in (0, 1), or no probability could fall below it."""
    if epsilon is None:
        return epsilon_for(k)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return epsilon


def total_string_count(k: int, max_len: int) -> int:
    """Strings over the vocabulary ending in the end mark, length <= max_len:
    the geometric sum of (2k)^t over t < max_len."""
    return ((2 * k) ** max_len - 1) // (2 * k - 1)


def dfa_membership_set(params: DyckParams, max_len: int) -> set[tuple[Token, ...]]:
    """All member strings of total length <= max_len (end mark included),
    listed from the automaton's graph."""
    return members(Language(params), params.k, max_len,
                   DEFAULT_ENUMERATION_BUDGET)


def net_membership_set(paramset, max_len: int, epsilon: float | None = None,
                       node_budget: int = DEFAULT_ENUMERATION_BUDGET
                       ) -> set[tuple[Token, ...]]:
    """The epsilon-truncated support up to max_len, listed from the
    network's state graph.

    A string is in the support when every conditional token probability is
    at least epsilon; only above-threshold prefixes are stepped.  The graph
    walked, and the strings listed, must each fit node_budget.
    """
    eps = _epsilon(paramset.k, epsilon)
    return members(Support(paramset, eps), paramset.k, max_len, node_budget)


def _construction_name(arch: str, enc: str | None) -> str:
    return arch if enc is None else f"{arch}/{enc}"


class Enumeration:
    """The product graph of the automaton and constructions up to max_len:
    the language and every parameter set walked together in one walk, each
    at most once, so the equivalence and cross suites of one command read
    the same counts.  A walk is kept for the parameter objects it was
    walked from, so two constructions never share one."""

    def __init__(self, params: DyckParams, max_len: int = 8,
                 epsilon: float | None = None):
        if max_len < 1:
            raise ValueError(f"max_len must be at least 1 (the end mark), "
                             f"got {max_len}")
        # cross over all n constructions checks n((2k)^max_len - 1)/(2k - 1)
        base, n = 2 * params.k, len(applicable_constructions(params.k))
        digits = int(max_len * math.log10(base) + math.log10(n / (base - 1))) + 1
        if digits > REPORT_DIGITS:
            raise ValueError(f"max_len={max_len} is too large: the count of strings "
                             f"checked takes {digits} digits, over the "
                             f"{REPORT_DIGITS} a report can print")
        self.params, self.max_len = params, max_len
        self.eps = _epsilon(params.k, epsilon)
        # per (parameter set, node budget), its walk and side there; parameter
        # sets compare and hash by identity
        self._walks: dict[tuple[object, int], tuple[Walk, int]] = {}

    def walk(self, paramsets, node_budget: int = DEFAULT_ENUMERATION_BUDGET):
        """Walk the language beside every given parameter set not yet walked
        at node_budget, all in one product graph walk."""
        new = [ps for ps in dict.fromkeys(paramsets)
               if (ps, node_budget) not in self._walks]
        for paramset in new:
            if paramset.dyck_params != self.params:
                raise ValueError(f"parameter set for k={paramset.k}, m={paramset.m} "
                                 f"in an enumeration of k={self.params.k}, "
                                 f"m={self.params.m}")
        if new:
            sides = (Language(self.params),
                     *(Support(paramset, self.eps) for paramset in new))
            walk = walk_graph(sides, self.params.k, self.max_len, node_budget)
            for side, paramset in enumerate(new, start=1):
                self._walks[paramset, node_budget] = walk, side

    def _graph(self, paramset,
               node_budget: int = DEFAULT_ENUMERATION_BUDGET) -> Graph:
        """The automaton by network walk of one construction."""
        self.walk([paramset], node_budget)
        walk, side = self._walks[paramset, node_budget]
        return walk.graph(0, side)

    def _between(self, first, other) -> Graph:
        """The walk of two networks against each other: read from their
        walk when they were walked together, else walked for them."""
        (walk, a), (same, b) = (self._walks[ps, DEFAULT_ENUMERATION_BUDGET]
                                for ps in (first, other))
        if walk is same:
            return walk.graph(a, b)
        sides = (Support(first, self.eps), Support(other, self.eps))
        return walk_graph(sides, self.params.k, self.max_len,
                          DEFAULT_ENUMERATION_BUDGET).graph(0, 1)

    def equivalence(self, paramset,
                    node_budget: int = DEFAULT_ENUMERATION_BUDGET
                    ) -> VerificationReport:
        """The generation_equivalence report of one construction."""
        graph = self._graph(paramset, node_budget)
        counter = None
        if not graph.agree:
            side = "language-only" if graph.first_has_it else "support-only"
            counter = f"{format_string(graph.difference)} ({side})"
        return VerificationReport(
            suite="generation_equivalence", instance=_instance(paramset),
            checked=total_string_count(self.params.k, self.max_len),
            passed=graph.agree, counterexample=counter,
            details={"epsilon": self.eps, "max_len": self.max_len,
                     "language_size": graph.sizes[0],
                     "support_size": graph.sizes[1], "states": graph.states})

    def cross(self, paramsets, left_out: dict[str, str] | None = None
              ) -> VerificationReport:
        """The cross_construction_agreement report over the given parameter
        sets, taken one at a time from an iterable; `left_out` names each
        construction not compared, with the reason.  Those not walked yet
        are walked together.

        Two supports that both agree with the language are equal, and when
        one agrees, their first difference is the other's from the
        language.  Two supports that both differ from it are compared on
        their walk's nodes, and their `states` are the distinct pairs of
        their two states there, as if walked against each other alone."""
        kept = list(paramsets)
        self.walk(kept)
        names = [_construction_name(ps.architecture, ps.encoding and ps.encoding.kind)
                 for ps in kept]
        graphs = [self._graph(paramset) for paramset in kept]
        states = sum(graph.states for graph in graphs)
        counter = None
        for i in range(1, len(graphs)):
            first, other = graphs[0], graphs[i]
            if first.agree != other.agree:
                witness = (other if first.agree else first).difference
            elif first.agree:
                continue
            else:
                pair = self._between(kept[0], kept[i])
                states += pair.states
                witness = pair.difference
            if witness is not None:
                counter = f"{names[0]} vs {names[i]}: {format_string(witness)}"
                break
        k, m = self.params.k, self.params.m
        details = {"constructions": names, "epsilon": self.eps,
                   "agree_with_language": [graph.agree for graph in graphs],
                   "states": states}
        if left_out:
            details["left_out"] = dict(left_out)
        return VerificationReport(
            suite="cross_construction_agreement",
            instance={"k": k, "m": m, "max_len": self.max_len},
            checked=total_string_count(k, self.max_len) * len(names),
            passed=counter is None, counterexample=counter, details=details)


def check_generation_equivalence(paramset, max_len: int = 8,
                                 epsilon: float | None = None,
                                 node_budget: int = DEFAULT_ENUMERATION_BUDGET
                                 ) -> VerificationReport:
    """Support equality: epsilon-truncated membership == automaton membership
    for every string up to max_len."""
    return Enumeration(paramset.dyck_params, max_len, epsilon).equivalence(
        paramset, node_budget)


def _stack_predicate(paramset):
    """ok(h, c, stack, depth) per live row: decode_stack equals the
    automaton state, and for LSTMs the hidden state exposes exactly the top
    slot.

    Each slot must lie within decode_stack's tolerance of its expected
    codeword, or of zero above the top.  Distinct codewords differ by at
    least 1 in some coordinate, so this is the same test as decoding.
    """
    arch, m = paramset.architecture, paramset.m
    if arch == ARCH_NAIVE:
        return _naive_stack_predicate(paramset)
    w = paramset.encoding.width
    codewords = np.vstack([np.zeros(w), paramset.encoding.codebook.T])
    exposed = np.tanh(codewords)

    def ok(h, c, stack, depth):
        rows = len(h)
        if arch == ARCH_LSTM:
            vec, slots = c, stack  # bottom first
        else:
            vec = h[:, :m * w] + h[:, m * w:]
            below_top = depth[:, None] - 1 - np.arange(m)  # top first
            slots = np.where(below_top >= 0, np.take_along_axis(
                stack, np.maximum(below_top, 0), axis=1), 0)
        off = codewords[slots]
        off -= vec.reshape(rows, m, w)
        good = (np.abs(off, out=off) <= DECODE_TOL).all(axis=(1, 2))
        if arch == ARCH_LSTM:
            top = np.where(np.arange(m) == depth[:, None] - 1, stack, 0)
            good &= (h.reshape(rows, m, w) == exposed[top]).all(axis=(1, 2))
        return good

    return ok


def _naive_stack_predicate(paramset):
    """The naive network decodes to the empty stack from the zero state,
    otherwise from one unit at 1 (all others at 0) in its state's block."""
    states = paramset.states
    state_stacks = np.zeros((len(states), paramset.m), dtype=int)
    state_depths = np.full(len(states), -1)  # accept and reject match nothing
    for i, state in enumerate(states):
        if state.is_stack:
            state_stacks[i, :len(state.stack)] = state.stack
            state_depths[i] = len(state.stack)

    def ok(h, c, stack, depth):
        on = np.abs(h - 1.0) <= DECODE_TOL
        off = np.abs(h) <= DECODE_TOL
        unit_state = np.argmax(on, axis=1) // (2 * paramset.k)
        one_hot = (on.sum(axis=1) == 1) & (on | off).all(axis=1)
        matches = ((state_depths[unit_state] == depth)
                   & (state_stacks[unit_state] == stack).all(axis=1))
        return np.where(off.all(axis=1), depth == 0, one_hot & matches)

    return ok


def _saturated(values: np.ndarray, binary: int) -> np.ndarray:
    """Per row: the first `binary` values exactly 0 or 1, the others
    exactly -1, 0 or 1."""
    head, tail = values[:, :binary], values[:, binary:]
    return (((head == 0.0) | (head == 1.0)).all(axis=1)
            & ((tail == 0.0) | (np.abs(tail) == 1.0)).all(axis=1))


CORPUS_SUITES = {"stack": "stack_correspondence",
                 "margins": "probability_margins",
                 "saturation": "saturation_exactness"}

# A node's verdicts in the corpus suites: a fault per suite, and the margins
# extremes of its readout.
_NODE_VERDICT = np.dtype([("stack", bool), ("saturation", bool),
                          ("margins", bool), ("lo", float), ("hi", float)])


def check_corpus_suites(paramset, corpus, suites=tuple(CORPUS_SUITES),
                        epsilon: float | None = None) -> list[VerificationReport]:
    """Any of the corpus suites, one report each in `suites` order, over one
    walk of the corpus on the product graph of the network and the
    automaton (product.walk_corpus).

    The first string, in corpus order, that leaves the language before its
    first end mark is refused before any is walked.  The stack and
    saturation suites check the state after every consumed token, margins
    the distribution ahead of every token.  Each suite reports what it
    would report checking string by string in corpus order and stopping at
    its first counterexample: the checks up to that one, whose text is
    rebuilt from its prefix with the scalar helpers.

    A position's checks depend only on its node (the network state and the
    automaton stack) and, for the LSTM's gates, on the edge into it, so
    each distinct node is checked once: the stack against the automaton
    stack, h (c for the LSTM) for exact values, the readout against the
    allowed mask; each distinct LSTM edge has its gates checked once.  The
    walk gathers the verdicts back per position.  The readout runs once
    per batch of new nodes, so min_allowed and max_disallowed may differ in
    their last bits with the rows that share its product.
    """
    params = paramset.dyck_params
    k, d = params.k, paramset.hidden_size
    eps = _epsilon(k, epsilon)
    dis_bound = 1.0 / (10.0 * k)
    corpus = Corpus.of(k, corpus)
    n = len(corpus)
    # checks per string: the other suites at positions 1..consumed, margins
    # at positions 0..consumed but not past a string's last token
    consumed = corpus.consumed()
    counts = {"margins": np.minimum(consumed + 1, np.diff(corpus.offsets)),
              "other": consumed}
    rejected = corpus.rejections(params.m)
    bad = np.flatnonzero(rejected < consumed)
    if bad.size:
        raise ValueError(f"corpus string leaves the language at token "
                         f"{rejected[bad[0]] + 1}: {format_string(corpus[bad[0]])}")
    if not suites:
        return []
    first = {s: np.full(n, -1) for s in suites}  # first failing position
    lo_min, hi_max = np.ones(n), np.zeros(n)  # margins up to that position
    stack_ok = _stack_predicate(paramset) if "stack" in first else None
    lstm = paramset.architecture == ARCH_LSTM

    def check_nodes(h, c, stack):
        verdict = np.zeros(len(h), dtype=_NODE_VERDICT)
        stack = stack.astype(np.intp)  # holds symbol rows k + top - 1
        depth = np.count_nonzero(stack, axis=1)
        if stack_ok:
            verdict["stack"] = ~stack_ok(h, c, stack, depth)
        if "saturation" in first:
            verdict["saturation"] = ~(_saturated(c, 0) if lstm else _saturated(h, d))
        if "margins" in first:
            dist = readout(paramset, h)
            allowed = allowed_rows(params, stack, depth)
            verdict["lo"] = np.where(allowed, dist, np.inf).min(axis=1)
            verdict["hi"] = np.where(allowed, 0.0, dist).max(axis=1)
            # NaN fails: it is neither at least eps nor at most the bound
            verdict["margins"] = ~((verdict["lo"] >= eps)
                                   & (verdict["hi"] <= dis_bound))
        return verdict

    check_edges = None
    if lstm and "saturation" in first:
        # every gate unit is a byte-equal copy of one distinct unit
        sigmoids, inverse = paramset.packed[3:]
        gates = np.unique(inverse, return_index=True)[1]

        def check_edges(acts):
            return ~_saturated(acts[:, gates], sigmoids)

    for s, t, verdict, gate in walk_corpus(paramset, corpus, check_nodes,
                                           check_edges):
        stepped = t > 0
        faults = {}
        if "stack" in first:
            faults["stack"] = stepped & verdict["stack"]
        if "saturation" in first:  # the node, and the LSTM's gates on the way
            fault = verdict["saturation"]
            faults["saturation"] = stepped & (fault if gate is None else fault | gate)
        if "margins" in first:
            sel = np.flatnonzero(t < counts["margins"][s])
            lo, hi = verdict["lo"][sel], verdict["hi"][sel]
            faults["margins"] = np.zeros(s.size, dtype=bool)
            faults["margins"][sel] = verdict["margins"][sel]
        # each string's positions come in order, so its first fault first
        for suite, fault in faults.items():
            failed, row = np.unique(s[fault], return_index=True)
            fresh = first[suite][failed] < 0
            first[suite][failed[fresh]] = t[fault][row[fresh]]
        if "margins" in first:  # fold in positions up to a first failure
            limit = first["margins"][s[sel]]
            keep = (limit < 0) | (t[sel] <= limit)
            with np.errstate(invalid="ignore"):  # a NaN is kept, unflagged
                np.minimum.at(lo_min, s[sel][keep], lo[keep])
                np.maximum.at(hi_max, s[sel][keep], hi[keep])

    details = {"stack": {"strings": n}, "saturation": {},
               "margins": {"epsilon": eps, "disallowed_bound": dis_bound}}
    reports = []
    for suite in suites:
        per_string = counts["margins" if suite == "margins" else "other"]
        failed = np.flatnonzero(first[suite] >= 0)
        checked, counter, upto = int(per_string.sum()), None, n
        if failed.size:
            upto = failed[0] + 1
            string, pos = corpus[failed[0]], int(first[suite][failed[0]])
            checked = (int(per_string[:failed[0]].sum())
                       + (pos + 1 if suite == "margins" else pos))
            counter = (f"{format_string(string)} "
                       f"{_fault(paramset, suite, string, pos, eps, dis_bound)}")
        if suite == "margins":
            details[suite]["min_allowed"] = float(lo_min[:upto].min(initial=1.0))
            details[suite]["max_disallowed"] = float(hi_max[:upto].max(initial=0.0))
        reports.append(VerificationReport(
            suite=CORPUS_SUITES[suite], instance=_instance(paramset),
            checked=checked, passed=counter is None, counterexample=counter,
            details=details[suite]))
    return reports


def _fault(paramset, suite: str, string, pos: int, eps: float,
           dis_bound: float) -> str:
    """The counterexample text of a suite's failing check at `pos`, from
    the scalar helpers on that one prefix."""
    if suite == "saturation":
        return f"@ token {pos}"
    state, _ = run_prefix(paramset, string[:pos])
    dfa = run(paramset.dyck_params, string[:pos])
    if suite == "margins":
        dist = next_distribution(paramset, state)
        mask = allowed_row_mask(paramset.dyck_params, dfa)
        lo = dist[mask].min()
        hi = dist[~mask].max() if (~mask).any() else 0.0
        return (f"@ prefix length {pos}: min allowed {lo:.6g} (eps {eps:.6g}), "
                f"max disallowed {hi:.6g} (bound {dis_bound:.6g})")
    try:
        decoded = decode_stack(paramset, state)
    except StackDecodeError as exc:
        return f"@ token {pos}: decode failure: {exc}"
    if decoded != dfa:
        return f"@ token {pos}: decoded {decoded}, automaton {dfa}"
    return f"@ token {pos}: hidden state is not the exposed top slot"


def check_stack_correspondence(paramset, corpus) -> VerificationReport:
    """The stack suite of check_corpus_suites on its own."""
    return check_corpus_suites(paramset, corpus, ("stack",))[0]


def check_probability_margins(paramset, corpus,
                              epsilon: float | None = None) -> VerificationReport:
    """The margins suite of check_corpus_suites on its own."""
    return check_corpus_suites(paramset, corpus, ("margins",), epsilon)[0]


def check_saturation_exactness(paramset, corpus) -> VerificationReport:
    """The saturation suite of check_corpus_suites on its own."""
    return check_corpus_suites(paramset, corpus, ("saturation",))[0]


@dataclass
class ClosingMetricReport:
    value: float
    per_separation: dict[int, tuple[int, int]]  # separation -> (confident, total)
    missing_separations: list[int]
    readout_rows: int = field(default=0, compare=False)  # hidden rows read out

    @property
    def closes(self) -> int:
        """The number of close brackets scored."""
        return sum(total for _, total in self.per_separation.values())

    def table_lines(self) -> list[str]:
        lines = ["separation  confident  total  fraction"]
        for sep in sorted(self.per_separation):
            conf, total = self.per_separation[sep]
            lines.append(f"{sep:10d}  {conf:9d}  {total:5d}  {conf / total:.4f}")
        return lines


def _separations(corpus: Corpus) -> np.ndarray:
    """Per token of the corpus, the number of tokens strictly between a
    close bracket and the open it closes (always even), -1 at other tokens.
    Refuses the first close, in corpus order, that closes nothing open or
    an open of another index."""
    k, codes = corpus.k, corpus.codes
    _, match = corpus.nesting()
    closes = np.flatnonzero((codes >= k) & (codes < 2 * k))
    bad = closes[match[closes] < 0]
    if bad.size:
        i = np.searchsorted(corpus.offsets, bad[0], side="right") - 1
        raise ValueError(f"corpus string is not well nested at token "
                         f"{bad[0] - corpus.offsets[i] + 1}: "
                         f"{format_string(corpus[i])}")
    # 32 bits when they hold every position: the array outlives the walk
    separation = np.full(codes.size, -1,
                         dtype=np.int32 if codes.size < 2**31 else np.int64)
    separation[closes] = closes - match[closes] - 1
    return separation


def _check_threshold(threshold: float):
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")


# The bytes closing_metric may keep of distinct hidden rows (their bytes,
# the key) and their verdicts; a full table is emptied.
_READOUT_TABLE_BYTES = 1 << 21


def closing_metric(paramset, corpus, threshold: float = 0.8) -> ClosingMetricReport:
    """Mean over separations of the fraction of close brackets predicted
    confidently: renormalized close-bracket probability above the threshold.

    The readout runs only over the k close logits, whose softmax is
    exactly the renormalized close distribution, so it stays defined where
    the full (2k+1) softmax underflows every close to 0.  It runs once per
    distinct hidden row before a close, as exact networks repeat rows: the
    LSTM exposes only the top slot, so its h takes at most m*k + 1 values,
    and the simple RNN's h is set by the stack and by whether the last
    token pushed or popped.  A table keyed by each row's bytes (so 0.0 and
    -0.0 stay apart) holds the row's k verdicts.  Rows that never repeat
    (softened or random weights) fill it, and a full table is emptied, so
    the report does not depend on its size.  Each walk block's closes are
    laid out at t = 0 and their verdicts gathered after its last close, or
    before the table is emptied."""
    _check_threshold(threshold)
    k, d = paramset.k, paramset.hidden_size
    corpus = Corpus.of(k, corpus)
    separation = _separations(corpus)  # indexed by token position
    V, b_v = paramset.V[k:2 * k].T, paramset.b_v[k:2 * k]
    row_key = np.dtype((np.void, 8 * d))
    slot_of: dict[bytes, int] = {}  # a row's bytes -> its row of verdicts
    # at least one step's rows, so a step's new rows always fit
    capacity = max(_READOUT_TABLE_BYTES // (8 * d + k), BLOCK_ROWS)
    verdicts = np.empty((capacity, k), dtype=bool)
    readout_rows = 0
    # verdicts by token position; closes past a first end mark are not walked
    scored = np.zeros(separation.size, dtype=bool)
    confident = np.zeros(separation.size, dtype=bool)
    for rows, codes, t, h, _, _ in walk(paramset, corpus):
        if not t:  # the block's closes, by position, then by row
            at, row = np.nonzero(((codes >= k) & (codes < 2 * k)).T)
            bounds = np.searchsorted(at, np.arange(codes.shape[1] + 1)).tolist()
            closes = codes[row, at] - k
            where = corpus.offsets[rows[row]] + at
            del at  # not kept while the block is walked
            slot = np.empty(row.size, dtype=np.intp)
            done = 0  # the block's closes whose verdicts are written
        lo, hi = bounds[t], bounds[t + 1]
        if lo == hi:
            continue
        h = h[row[lo:hi]]
        keys = h.view(row_key).ravel().tolist()
        found = list(map(slot_of.get, keys))
        if None in found:
            new = {key: i for i, key in enumerate(keys) if found[i] is None}
            if len(slot_of) + len(new) > capacity:
                confident[where[done:lo]] = verdicts[slot[done:lo], closes[done:lo]]
                done = lo
                slot_of.clear()
                new = dict(zip(keys, range(len(keys))))
            size = len(slot_of)
            slot_of.update(zip(new, range(size, size + len(new))))
            verdicts[size:len(slot_of)] = softmax(
                h[list(new.values())] @ V + b_v) > threshold
            readout_rows += len(new)
            found = list(map(slot_of.get, keys))
        slot[lo:hi] = found
        if hi == row.size:  # the block's last close
            scored[where] = True
            confident[where[done:]] = verdicts[slot[done:], closes[done:]]
    report = _bucket_metric(separation[scored], confident[scored])
    report.readout_rows = readout_rows
    return report


def closing_metric_uniform(params: DyckParams, corpus,
                           threshold: float = 0.8) -> ClosingMetricReport:
    """Baseline scoring: every close bracket gets renormalized mass 1/k."""
    _check_threshold(threshold)
    separation = _separations(Corpus.of(params.k, corpus))
    seps = separation[separation >= 0]
    return _bucket_metric(seps, np.full(seps.size, (1.0 / params.k) > threshold))


def _bucket_metric(seps: np.ndarray, confident: np.ndarray) -> ClosingMetricReport:
    """Per-separation (confident, total) counts of close events in corpus
    order; buckets keep the order in which their separations first occur."""
    if not seps.size:
        return ClosingMetricReport(float("nan"), {}, [])
    total = np.bincount(seps)
    hits = np.bincount(seps[confident], minlength=total.size)
    present, first = np.unique(seps, return_index=True)
    per = {int(sep): (int(hits[sep]), int(total[sep]))
           for sep in present[np.argsort(first)]}
    fractions = [c / t for c, t in per.values()]
    missing = [sep for sep in range(0, max(per) + 1, 2) if sep not in per]
    return ClosingMetricReport(float(np.mean(fractions)), per, missing)


@dataclass(frozen=True)
class QuantizedEncoder:
    """An arbitrary deterministic state machine over 2^(d*p) states.

    d vector width, p bits per unit; step_fn maps (state, token) to the next
    state, key_fn makes states hashable for the collision search.
    """

    d: int
    p: int
    initial: object
    step_fn: Callable
    key_fn: Callable = lambda s: s

    @property
    def state_budget(self) -> int:
        return 2 ** (self.d * self.p)

    @classmethod
    def from_table(cls, d: int, p: int, k: int, seed: int = 0) -> "QuantizedEncoder":
        """A random transition table over all 2^(d*p) states.

        Each entry is drawn when read, from a generator seeded with (seed,
        state, input column), so the table is fixed by the seed and never
        stored."""
        if d < 0 or p < 0:
            raise ValueError(f"encoder width d and bits per unit p must be "
                             f"non-negative, got d={d}, p={p}")
        if d * p > 20:  # before the power: 2^(d*p) can be too long to print
            raise ValueError(f"table encoder with 2^{d * p} states is too "
                             f"large (at most 2^20)")
        n = 2 ** (d * p)

        def step_fn(state, token):
            col = input_column(token, k)
            return random.Random(f"{seed}:{state}:{col}").randrange(n)

        return cls(d=d, p=p, initial=0, step_fn=step_fn)


@dataclass
class Collision:
    """Two all-open strings with equal encoder states, plus the suffix on
    which the language distinguishes them (first::suffix is the member)."""

    first: tuple[Token, ...]
    second: tuple[Token, ...]
    suffix: tuple[Token, ...]

    def describe(self) -> str:
        return (f"{format_string(self.first)}  ~  {format_string(self.second)}"
                f"  suffix: {format_string(self.suffix)}")


def _all_open_codes(params: DyckParams, budget: int) -> np.ndarray:
    """The k^m all-open strings of length m as a (k^m, m) array of symbol
    rows in lexicographic order, refused before any is built when there are
    more than budget."""
    k, m = params.k, params.m
    if k**m > budget:
        raise RuntimeError(f"k^m = {k**m} exceeds the enumeration budget {budget}")
    return np.fromiter(itertools.product(range(k), repeat=m),
                       dtype=np.dtype((np.intp, m)), count=k**m)


def _pigeonhole(params: DyckParams, codes: np.ndarray, keys) -> Collision | None:
    """The first all-open string (a row of codes) whose key repeats an
    earlier one's, as a Collision with that earlier string,
    automaton-verified; None when all differ.  Keys arrive in row order."""
    seen: dict[object, int] = {}
    for row, key in enumerate(keys):
        earlier = seen.setdefault(key, row)
        if earlier == row:
            continue
        vocab = vocabulary(params.k)
        first, second = (tuple([vocab[code] for code in codes[i].tolist()])
                         for i in (earlier, row))
        suffix = tuple(Token("close", t.index) for t in reversed(first)) + (Token("end"),)
        if not is_member(params, first + suffix) or is_member(params, second + suffix):
            raise RuntimeError("collision failed automaton verification")
        return Collision(first=first, second=second, suffix=suffix)
    return None


def find_collision(encoder: QuantizedEncoder, params: DyckParams,
                   budget: int = DEFAULT_ENUMERATION_BUDGET) -> Collision | None:
    """Pigeonhole search over the k^m all-open strings of length m.

    Returns the first pair of distinct strings the encoder cannot tell apart,
    together with the distinguishing suffix (the first string's closes in
    reverse, then the end mark), automaton-verified: first::suffix is in the
    language, second::suffix is not.  When the encoder has at least k^m
    states, no collision may exist and None is returned.
    """
    codes = _all_open_codes(params, budget)

    def keys(state, depth):  # depth first, so in the strings' order
        if depth == params.m:
            yield encoder.key_fn(state)
            return
        for i in range(1, params.k + 1):
            yield from keys(encoder.step_fn(state, Token("open", i)), depth + 1)

    return _pigeonhole(params, codes, keys(encoder.initial, 0))


def check_full_depth_distinctness(paramset,
                                  budget: int = DEFAULT_ENUMERATION_BUDGET
                                  ) -> VerificationReport:
    """All k^m full-depth states are pairwise distinct (hidden vector for the
    simple RNN, cell vector for the LSTM).  The strings are walked as one
    corpus; being equally long, they keep their order in the walk."""
    params = paramset.dyck_params
    codes = _all_open_codes(params, budget)
    n, m = codes.shape
    strings = Corpus(params.k, codes.ravel(), np.arange(0, n * m + 1, m))
    vecs = (c if paramset.architecture == ARCH_LSTM else h
            for _, _, t, h, c, _ in walk(paramset, strings) if t == m)
    collision = _pigeonhole(params, codes,
                            (row.tobytes() for vec in vecs for row in vec))
    return VerificationReport(
        suite="full_depth_distinctness", instance=_instance(paramset),
        checked=n, passed=collision is None,
        counterexample=collision.describe() if collision else None)


def applicable_constructions(k: int) -> list[tuple[str, str | None]]:
    """(architecture, encoding) pairs defined at this k; binary needs k > 1."""
    pairs = [(ARCH_SIMPLE, ONEHOT), (ARCH_LSTM, ONEHOT), (ARCH_NAIVE, None)]
    if k > 1:
        pairs.insert(1, (ARCH_SIMPLE, BINARY))
        pairs.insert(3, (ARCH_LSTM, BINARY))
    return pairs


def cross_constructions(k: int, construct) -> tuple[list, dict[str, str]]:
    """The applicable constructions at k, each built by construct(arch, enc),
    and the name and refusal of each the parameter budget refuses."""
    built, left_out = [], {}
    for arch, enc in applicable_constructions(k):
        try:
            built.append(construct(arch, enc))
        except ParameterBudgetError as exc:
            left_out[_construction_name(arch, enc)] = str(exc)
    return built, left_out


def check_cross_construction_agreement(params: DyckParams, max_len: int = 8,
                                       epsilon: float | None = None,
                                       numeric: NumericConfig | None = None,
                                       parameter_budget: int = DEFAULT_PARAMETER_BUDGET
                                       ) -> VerificationReport:
    """All defined constructions carve out the same epsilon-truncated support;
    the naive network is built under `parameter_budget`, and left out when
    it is over it."""
    return Enumeration(params, max_len, epsilon).cross(*cross_constructions(
        params.k, lambda arch, enc: build(arch, params, enc, numeric,
                                          parameter_budget=parameter_budget)))
