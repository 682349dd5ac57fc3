"""Machine-checkable correctness suites.

Every claim about a built network is reduced to an executable check against
the automaton oracle: exhaustive support equality on short strings, stack
correspondence and probability margins on sampled corpora, saturation
exactness, full-depth state distinctness, the pigeonhole collision search
that witnesses the memory lower bound, and agreement across constructions.

The exhaustive suites walk a prefix tree, the automaton's and each
network's, depth first in blocks of at most TREE_BLOCK_ROWS prefixes: a
block of network states advances with one runtime.step_rows and one
readout, a block of automaton stacks with the stack arrays the corpus
suites use.  An Enumeration holds the language and each support it has
enumerated, so the equivalence and cross suites of one command read the
same sets.  The distinctness suite walks the k^m all-open strings as one
integer corpus through runtime.walk; it and the collision search share one
pigeonhole pass over their full-depth state keys, which turns only the
colliding pair into Tokens.  The corpus suites and the closing metrics read
a corpus as an automaton.Corpus: the suites refuse a string that leaves the
language from its rejections array and track the automaton stacks of a
walk block with the tree walk's stack arrays; the metrics find each close
bracket's open from its depth arrays, and the closing metric reads out each
distinct hidden row before a close once.

Counterexamples are the first string in length-then-lexicographic order
over symbol rows (opens 1..k, closes 1..k, end), so they are canonical.
Checks are deterministic given the instance, seed, and numeric
configuration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .automaton import (ACCEPT, Corpus, DfaState, DyckParams, Token,
                        format_string, input_column, is_member, run, vocabulary)
from .builders import DEFAULT_PARAMETER_BUDGET, build
from .encodings import ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE, BINARY, ONEHOT
from .numerics import NumericConfig, epsilon_for, softmax
from .runtime import (DECODE_TOL, StackDecodeError, decode_stack,
                      initial_state, next_distribution, readout, run_prefix,
                      step_rows, walk)

DEFAULT_ENUMERATION_BUDGET = 10**6


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
    """Strings over the vocabulary ending in the end mark, length <= max_len."""
    return sum((2 * k) ** t for t in range(max_len))


def _push_pop(k: int, stack: np.ndarray, depth: np.ndarray, cols: np.ndarray):
    """Apply one allowed token per row (symbol rows `cols`) to (rows, m)
    automaton stacks of bracket indices (bottom first, 0 above the top) and
    their depth vector, in place."""
    live = np.arange(cols.size)
    opens = cols < k
    stack[live[opens], depth[opens]] = cols[opens] + 1
    depth += np.where(opens, 1, -1)
    stack[live[~opens], depth[~opens]] = 0


def _allowed_rows(params: DyckParams, stack: np.ndarray,
                  depth: np.ndarray) -> np.ndarray:
    """allowed_row_mask of each (stack, depth) row, as a (rows, 2k+1) mask."""
    k, rows = params.k, np.arange(depth.size)
    mask = np.zeros((depth.size, 2 * k + 1), dtype=bool)
    mask[:, :k] = (depth < params.m)[:, None]
    top = stack[rows, np.maximum(depth - 1, 0)]
    mask[rows, np.where(depth > 0, k + top - 1, 2 * k)] = True
    return mask


# Prefixes per tree block.  Per-block overhead dominates at these hidden
# sizes, so larger blocks run faster, but every level of the walk keeps one
# block of states alive: in the enumerate benchmark (2-core Xeon) blocks of
# 16, 32, 64 and 128 rows ran at 10, 16, 22 and 25 M strings/s and read
# 39.3, 39.7, 40.4 and 42.0 MB peak RSS.
TREE_BLOCK_ROWS = 64


def _tree_members(k: int, max_len: int, root, advance,
                  node_budget: int | None = None) -> set[tuple[Token, ...]]:
    """The member strings of a prefix tree up to max_len, walked depth first
    in blocks of at most TREE_BLOCK_ROWS prefixes.

    root is the (state, allowed) pair of the one-row block holding the empty
    prefix; advance(state, parent_rows, cols) steps those rows of a block's
    state on the symbol rows `cols` and returns the children's (state,
    allowed), allowed being a (rows, 2k+1) mask.  A prefix of t tokens ends
    a member when its end mark is allowed and t + 1 <= max_len, and has a
    child for each allowed bracket while t + 2 <= max_len.  Each level keeps
    one parent block and the offset of its next child block, so the walk
    never holds a whole tree level.  Every prefix stepped, the empty one
    included, counts against node_budget.
    """
    vocab = vocabulary(k)
    members: set[tuple[Token, ...]] = set()
    levels = []  # [state, prefix codes, parent rows, cols, next offset]
    visited = 0

    def visit(state, allowed, codes):
        nonlocal visited
        visited += len(codes)
        if node_budget is not None and visited > node_budget:
            raise RuntimeError(f"support enumeration exceeded {node_budget} prefixes")
        t = codes.shape[1]
        if t + 1 <= max_len:
            for row in codes[allowed[:, 2 * k]].tolist():
                members.add(tuple([vocab[col] for col in row] + [vocab[2 * k]]))
        if t + 2 <= max_len:
            parents, cols = np.nonzero(allowed[:, :2 * k])
            if parents.size:
                levels.append([state, codes, parents, cols, 0])

    visit(*root, np.zeros((1, 0), dtype=int))
    while levels:
        level = levels[-1]
        state, codes, parents, cols, lo = level
        hi = level[4] = lo + TREE_BLOCK_ROWS
        if hi >= parents.size:
            levels.pop()
        rows, cols = parents[lo:hi], cols[lo:hi]
        visit(*advance(state, rows, cols), np.column_stack([codes[rows], cols]))
    return members


def dfa_membership_set(params: DyckParams, max_len: int) -> set[tuple[Token, ...]]:
    """All member strings of total length <= max_len (end mark included)."""

    def advance(state, rows, cols):
        stack, depth = state[0][rows], state[1][rows]
        _push_pop(params.k, stack, depth, cols)
        return (stack, depth), _allowed_rows(params, stack, depth)

    stack, depth = np.zeros((1, params.m), dtype=int), np.zeros(1, dtype=int)
    root = ((stack, depth), _allowed_rows(params, stack, depth))
    return _tree_members(params.k, max_len, root, advance)


def net_membership_set(paramset, max_len: int, epsilon: float | None = None,
                       node_budget: int = DEFAULT_ENUMERATION_BUDGET
                       ) -> set[tuple[Token, ...]]:
    """The epsilon-truncated support up to max_len.

    A string is in the support when every conditional token probability is at
    least epsilon; the walk short-circuits at the first violation, so only
    above-threshold prefixes are ever stepped.
    """
    eps = _epsilon(paramset.k, epsilon)

    def advance(state, rows, cols):
        h, c = state
        h, c, _ = step_rows(paramset, h[rows], None if c is None else c[rows], cols)
        return (h, c), readout(paramset, h) >= eps

    start = initial_state(paramset)
    h = start.h[None]
    c = None if start.c is None else start.c[None]
    root = ((h, c), readout(paramset, h) >= eps)
    return _tree_members(paramset.k, max_len, root, advance, node_budget)


_KIND_RANK = {"open": 0, "close": 1, "end": 2}


def _string_sort_key(string):
    return (len(string), [(_KIND_RANK[t.kind], t.index) for t in string])


def _first_difference(a: set, b: set) -> tuple[Token, ...]:
    return min(a.symmetric_difference(b), key=_string_sort_key)


class Enumeration:
    """The language and the epsilon-truncated supports up to max_len, each
    enumerated at most once: the equivalence and cross suites of one command
    read the same sets.  A support is kept for the parameter object it was
    enumerated from, so two constructions never share one."""

    def __init__(self, params: DyckParams, max_len: int = 8,
                 epsilon: float | None = None):
        if max_len < 1:
            raise ValueError(f"max_len must be at least 1 (the end mark), "
                             f"got {max_len}")
        self.params, self.max_len = params, max_len
        self.eps = _epsilon(params.k, epsilon)
        self._language: set[tuple[Token, ...]] | None = None
        # parameter sets compare and hash by identity
        self._supports: dict[tuple[object, int], set[tuple[Token, ...]]] = {}

    def language(self) -> set[tuple[Token, ...]]:
        if self._language is None:
            self._language = dfa_membership_set(self.params, self.max_len)
        return self._language

    def support(self, paramset,
                node_budget: int = DEFAULT_ENUMERATION_BUDGET) -> set[tuple[Token, ...]]:
        if paramset.dyck_params != self.params:
            raise ValueError(f"parameter set for k={paramset.k}, m={paramset.m} "
                             f"in an enumeration of k={self.params.k}, "
                             f"m={self.params.m}")
        key = (paramset, node_budget)
        if key not in self._supports:
            self._supports[key] = net_membership_set(
                paramset, self.max_len, self.eps, node_budget)
        return self._supports[key]

    def equivalence(self, paramset,
                    node_budget: int = DEFAULT_ENUMERATION_BUDGET
                    ) -> VerificationReport:
        """The generation_equivalence report of one construction."""
        k, max_len = self.params.k, self.max_len
        if total_string_count(k, max_len) > node_budget:
            raise RuntimeError(
                f"enumeration of all strings for k={k}, max_len={max_len} "
                f"({total_string_count(k, max_len)} strings) exceeds the "
                f"budget {node_budget}")
        lang = self.language()
        support = self.support(paramset, node_budget)
        passed = lang == support
        counter = None
        details = {"epsilon": self.eps, "max_len": max_len,
                   "language_size": len(lang), "support_size": len(support)}
        if not passed:
            witness = _first_difference(lang, support)
            side = "language-only" if witness in lang else "support-only"
            counter = f"{format_string(witness)} ({side})"
        return VerificationReport(
            suite="generation_equivalence", instance=_instance(paramset),
            checked=total_string_count(k, max_len), passed=passed,
            counterexample=counter, details=details)

    def cross(self, paramsets) -> VerificationReport:
        """The cross_construction_agreement report over the given parameter
        sets, taken one at a time from an iterable."""
        names, supports = [], []
        for paramset in paramsets:
            arch, enc = paramset.architecture, paramset.encoding
            names.append(arch if enc is None else f"{arch}/{enc.kind}")
            supports.append(self.support(paramset))
        lang = self.language()
        counter = None
        for name, support in zip(names[1:], supports[1:]):
            if support != supports[0]:
                witness = _first_difference(supports[0], support)
                counter = f"{names[0]} vs {name}: {format_string(witness)}"
                break
        k, m = self.params.k, self.params.m
        return VerificationReport(
            suite="cross_construction_agreement",
            instance={"k": k, "m": m, "max_len": self.max_len},
            checked=total_string_count(k, self.max_len) * len(names),
            passed=counter is None, counterexample=counter,
            details={"constructions": names, "epsilon": self.eps,
                     "agree_with_language": [s == lang for s in supports]})


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
        good = (np.abs(vec.reshape(rows, m, w) - codewords[slots])
                <= DECODE_TOL).all(axis=(1, 2))
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


def _saturated(paramset, h, c, acts) -> np.ndarray:
    """Per live row: gates (LSTM) or hidden values exactly 0 or 1; cell
    candidates and cell values exactly -1, 0 or 1."""
    if paramset.architecture != ARCH_LSTM:
        return ((h == 0.0) | (h == 1.0)).all(axis=1)
    d3 = 3 * paramset.hidden_size
    ternary = np.hstack([acts[:, d3:], c])
    return (((acts[:, :d3] == 0.0) | (acts[:, :d3] == 1.0)).all(axis=1)
            & ((ternary == 0.0) | (np.abs(ternary) == 1.0)).all(axis=1))


CORPUS_SUITES = {"stack": "stack_correspondence",
                 "margins": "probability_margins",
                 "saturation": "saturation_exactness"}


def check_corpus_suites(paramset, corpus, suites=tuple(CORPUS_SUITES),
                        epsilon: float | None = None) -> list[VerificationReport]:
    """Any of the corpus suites, one report each in `suites` order, over one
    block walk of the corpus.

    The first string, in corpus order, that leaves the language before its
    first end mark is refused before any is walked.  The stack and
    saturation suites check the state after every consumed token, margins
    the distribution ahead of every token.  Each suite reports what it
    would report checking string by string in corpus order and stopping at
    its first counterexample: the checks up to that one, whose text is
    rebuilt from its prefix with the scalar helpers.
    """
    params = paramset.dyck_params
    k = params.k
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
    first = {s: np.full(n, -1) for s in suites}  # first failing position
    lo_min, hi_max = np.ones(n), np.zeros(n)  # margins up to that position
    stack_ok = _stack_predicate(paramset) if "stack" in first else None
    for rows, codes, t, h, c, acts in walk(paramset, corpus):
        live = len(h)
        if t == 0:
            stack = np.zeros((rows.size, params.m), dtype=int)
            depth = np.zeros(rows.size, dtype=int)
        else:
            _push_pop(k, stack[:live], depth[:live], codes[:live, t - 1])
            faults = {}
            if "stack" in first:
                faults["stack"] = ~stack_ok(h, c, stack[:live], depth[:live])
            if "saturation" in first:
                faults["saturation"] = ~_saturated(paramset, h, c, acts)
            for suite, fault in faults.items():
                fresh = rows[:live][fault & (first[suite][rows[:live]] < 0)]
                first[suite][fresh] = t
        sel = np.flatnonzero(codes[:live, t] >= 0)
        if "margins" in first and sel.size:
            dist = readout(paramset, h[sel])
            allowed = _allowed_rows(params, stack[sel], depth[sel])
            lo = np.where(allowed, dist, np.inf).min(axis=1)
            hi = np.where(allowed, 0.0, dist).max(axis=1)
            pending = first["margins"][rows[sel]] < 0
            sel, lo, hi = rows[sel][pending], lo[pending], hi[pending]
            lo_min[sel] = np.minimum(lo_min[sel], lo)
            hi_max[sel] = np.maximum(hi_max[sel], hi)
            # NaN fails: it is neither at least eps nor at most the bound
            first["margins"][sel[~((lo >= eps) & (hi <= dis_bound))]] = t

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


# The bytes closing_metric may keep of distinct hidden rows and their
# verdicts; a row that finds the table full is read out directly.
_READOUT_TABLE_BYTES = 1 << 21


class _CloseVerdicts:
    """The close verdicts (renormalized probability above the threshold,
    per close bracket) of hidden rows, each distinct row read out once.

    A row's key is its dot product with cos(0), ..., cos(d - 1), which
    einsum sums in one fixed order; a BLAS product can round one row
    differently at another place in a block.  A key finds a stored row
    only when their bytes are equal, so 0.0 and -0.0 stay apart.  A row
    whose key holds another row, or that finds the table full, is read
    out directly."""

    def __init__(self, paramset, threshold: float):
        k, d = paramset.k, paramset.hidden_size
        self.V, self.b_v = paramset.V[k:2 * k].T, paramset.b_v[k:2 * k]
        self.threshold = threshold
        self.weights = np.cos(np.arange(d))
        self.capacity = _READOUT_TABLE_BYTES // (8 * d + k)
        self.slot_of: dict[float, int] = {}
        self.rows = np.empty((1, d))  # grown as rows are stored
        self.verdicts = np.empty((1, k), dtype=bool)
        self.size = 0
        self.computed = 0

    def read(self, h: np.ndarray) -> np.ndarray:
        """The (rows, k) verdicts of the rows of h."""
        self.computed += len(h)
        return softmax(h @ self.V + self.b_v) > self.threshold

    def slots(self, h: np.ndarray, closes: np.ndarray,
              confident: np.ndarray) -> np.ndarray:
        """Per row of h, its row of self.verdicts, storing the rows not seen
        before; -1 for a row read out directly, whose verdict on its close
        bracket (`closes`, 0-based) is written to `confident`."""
        keys = np.einsum("ij,j->i", h, self.weights).tolist()
        get = self.slot_of.get
        found = [get(key, -1) for key in keys]
        fresh = -1 in found
        if fresh:
            self._store(h, keys, found)
        slot = np.array(found)
        same = self.rows[slot].view(np.int64) == h.view(np.int64)
        if fresh:  # -1 reads an unused row
            same[slot < 0] = False
        if not same.all():
            direct = np.flatnonzero(~same.all(axis=1))
            slot[direct] = -1
            confident[direct] = self.read(h[direct])[np.arange(direct.size),
                                                     closes[direct]]
        return slot

    def _store(self, h, keys, found):
        """Store each row of h whose key no stored row holds, while the table
        has room, read out the rows stored, and point `found` at them."""
        size = self.size
        grown = min(self.capacity, size + len(keys))
        if grown > len(self.rows):  # the rows past `size` are left untouched
            rows, verdicts = self.rows, self.verdicts
            self.rows = np.empty((grown, rows.shape[1]))
            self.verdicts = np.empty((grown, verdicts.shape[1]), dtype=bool)
            self.rows[:size], self.verdicts[:size] = rows[:size], verdicts[:size]
        for i, key in enumerate(keys):
            if found[i] == -1:  # or stored from an earlier row of h
                found[i] = self.slot_of.get(key, -1)
            if found[i] == -1 and self.size < self.capacity:
                found[i] = self.slot_of[key] = self.size
                self.rows[self.size] = h[i]
                self.size += 1
        if self.size > size:
            self.verdicts[size:self.size] = self.read(self.rows[size:self.size])


def closing_metric(paramset, corpus, threshold: float = 0.8) -> ClosingMetricReport:
    """Mean over separations of the fraction of close brackets predicted
    confidently: renormalized close-bracket probability above the threshold.

    The readout runs only over the k close logits, whose softmax is
    exactly the renormalized close distribution, so it stays defined where
    the full (2k+1) softmax underflows every close to 0.  It runs once per
    distinct hidden row before a close, as exact networks repeat rows: the
    LSTM exposes only the top slot, so its h takes at most m*k + 1 values,
    and the simple RNN's h is set by the stack and by whether the last
    token pushed or popped.  Each reuse is checked byte for byte against
    the stored row.  Rows that never repeat (softened or random weights)
    fill a table of fixed size and are then read out directly, so the
    report does not depend on the table.  Each walk block's closes are
    laid out at t = 0 and their verdicts gathered after its last close."""
    _check_threshold(threshold)
    k = paramset.k
    corpus = Corpus.of(k, corpus)
    separation = _separations(corpus)  # indexed by token position
    table = _CloseVerdicts(paramset, threshold)
    # verdicts by token position; closes past a first end mark are not walked
    scored = np.zeros(separation.size, dtype=bool)
    confident = np.zeros(separation.size, dtype=bool)
    for rows, codes, t, h, _, _ in walk(paramset, corpus):
        if not t:  # the block's closes, by position, then by row
            at, row = np.nonzero(((codes >= k) & (codes < 2 * k)).T)
            bounds = np.searchsorted(at, np.arange(codes.shape[1] + 1))
            closes = codes[row, at] - k
            where = corpus.offsets[rows[row]] + at
            del at  # not kept while the block is walked
            slot = np.empty(row.size, dtype=np.intp)
            block = np.empty(row.size, dtype=bool)
        lo, hi = bounds[t], bounds[t + 1]
        if lo == hi:
            continue
        slot[lo:hi] = table.slots(h[row[lo:hi]], closes[lo:hi], block[lo:hi])
        if hi == row.size:  # the block's last close
            scored[where] = True
            confident[where] = np.where(slot >= 0, table.verdicts[slot, closes],
                                        block)
    report = _bucket_metric(separation[scored], confident[scored])
    report.readout_rows = table.computed
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


def check_cross_construction_agreement(params: DyckParams, max_len: int = 8,
                                       epsilon: float | None = None,
                                       numeric: NumericConfig | None = None,
                                       parameter_budget: int = DEFAULT_PARAMETER_BUDGET
                                       ) -> VerificationReport:
    """All defined constructions carve out the same epsilon-truncated support;
    the naive network is built under `parameter_budget`."""
    return Enumeration(params, max_len, epsilon).cross(
        build(arch, params, enc, numeric, parameter_budget=parameter_budget)
        for arch, enc in applicable_constructions(params.k))
