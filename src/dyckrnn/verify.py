"""Machine-checkable correctness suites.

Every claim about a built network is reduced to an executable check against
the automaton oracle: exhaustive support equality on short strings, stack
correspondence and probability margins on sampled corpora, saturation
exactness, full-depth state distinctness, the pigeonhole collision search
that witnesses the memory lower bound, and agreement across constructions.

Enumeration order is lexicographic over symbol rows (opens 1..k, closes
1..k, end), so counterexamples are canonical.  Checks are deterministic
given the instance, seed, and numeric configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .automaton import (ACCEPT, EMPTY, REJECT, DfaState, DyckParams, Token,
                        format_string, input_column, is_member, run,
                        symbol_row, transition, vocabulary)
from .builders import DEFAULT_PARAMETER_BUDGET, build
from .encodings import ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE, BINARY, ONEHOT
from .numerics import NumericConfig, epsilon_for
from .runtime import (DECODE_TOL, NetworkState, StackDecodeError,
                      decode_stack, initial_state, next_distribution, readout,
                      run_prefix, step, walk)

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


def total_string_count(k: int, max_len: int) -> int:
    """Strings over the vocabulary ending in the end mark, length <= max_len."""
    return sum((2 * k) ** t for t in range(max_len))


def dfa_membership_set(params: DyckParams, max_len: int) -> set[tuple[Token, ...]]:
    """All member strings of total length <= max_len (end mark included)."""
    members: set[tuple[Token, ...]] = set()
    opens_closes = vocabulary(params.k)[:-1]

    def rec(state: DfaState, prefix: tuple[Token, ...]):
        t = len(prefix)
        if t + 1 <= max_len and transition(params, state, Token("end")) == ACCEPT:
            members.add(prefix + (Token("end"),))
        if t + 2 > max_len:
            return
        for token in opens_closes:
            child = transition(params, state, token)
            if child != REJECT:
                rec(child, prefix + (token,))

    rec(EMPTY, ())
    return members


def net_membership_set(paramset, max_len: int, epsilon: float | None = None,
                       node_budget: int = DEFAULT_ENUMERATION_BUDGET
                       ) -> set[tuple[Token, ...]]:
    """The epsilon-truncated support up to max_len.

    A string is in the support when every conditional token probability is at
    least epsilon; the walk short-circuits at the first violation, so only
    above-threshold prefixes are ever stepped.
    """
    k = paramset.k
    eps = epsilon_for(k) if epsilon is None else epsilon
    members: set[tuple[Token, ...]] = set()
    tokens = vocabulary(k)
    visited = 0

    def rec(state: NetworkState, prefix: tuple[Token, ...]):
        nonlocal visited
        visited += 1
        if visited > node_budget:
            raise RuntimeError(f"support enumeration exceeded {node_budget} prefixes")
        t = len(prefix)
        dist = next_distribution(paramset, state)
        if t + 1 <= max_len and dist[2 * k] >= eps:
            members.add(prefix + (Token("end"),))
        if t + 2 > max_len:
            return
        for token in tokens[:-1]:
            if dist[symbol_row(token, k)] >= eps:
                child, _ = step(paramset, state, token)
                rec(child, prefix + (token,))

    rec(initial_state(paramset), ())
    return members


_KIND_RANK = {"open": 0, "close": 1, "end": 2}


def _string_sort_key(string):
    return (len(string), [(_KIND_RANK[t.kind], t.index) for t in string])


def _first_difference(a: set, b: set) -> tuple[Token, ...]:
    return min(a.symmetric_difference(b), key=_string_sort_key)


def check_generation_equivalence(paramset, max_len: int = 8,
                                 epsilon: float | None = None,
                                 node_budget: int = DEFAULT_ENUMERATION_BUDGET
                                 ) -> VerificationReport:
    """Support equality: epsilon-truncated membership == automaton membership
    for every string up to max_len."""
    params = paramset.dyck_params
    if total_string_count(params.k, max_len) > node_budget:
        raise RuntimeError(
            f"enumeration of all strings for k={params.k}, max_len={max_len} "
            f"({total_string_count(params.k, max_len)} strings) exceeds the "
            f"budget {node_budget}")
    eps = epsilon_for(params.k) if epsilon is None else epsilon
    lang = dfa_membership_set(params, max_len)
    support = net_membership_set(paramset, max_len, eps, node_budget)
    passed = lang == support
    counter = None
    details = {"epsilon": eps, "max_len": max_len,
               "language_size": len(lang), "support_size": len(support)}
    if not passed:
        witness = _first_difference(lang, support)
        side = "language-only" if witness in lang else "support-only"
        counter = f"{format_string(witness)} ({side})"
    return VerificationReport(
        suite="generation_equivalence", instance=_instance(paramset),
        checked=total_string_count(params.k, max_len), passed=passed,
        counterexample=counter, details=details)


class _StackTracker:
    """The automaton stacks of one block as a (rows, m) array of bracket
    indices (bottom first, 0 above the top) and a depth vector."""

    def __init__(self, params: DyckParams, corpus, rows: np.ndarray):
        self.params, self.corpus, self.rows = params, corpus, rows
        self.stack = np.zeros((rows.size, params.m), dtype=int)
        self.depth = np.zeros(rows.size, dtype=int)

    def consume(self, t: int, cols: np.ndarray):
        """Apply the t-th token (symbol rows `cols`) of the first len(cols)
        rows; a token the automaton rejects is a corpus error."""
        k, m = self.params.k, self.params.m
        stack, depth = self.stack[:cols.size], self.depth[:cols.size]
        live = np.arange(cols.size)
        opens = cols < k
        top = stack[live, np.maximum(depth - 1, 0)]
        bad = np.where(opens, depth == m, (depth == 0) | (top != cols - k + 1))
        if bad.any():
            string = self.corpus[self.rows[np.flatnonzero(bad)[0]]]
            raise ValueError(f"corpus string leaves the language at token "
                             f"{t}: {format_string(string)}")
        stack[live[opens], depth[opens]] = cols[opens] + 1
        depth += np.where(opens, 1, -1)
        stack[live[~opens], depth[~opens]] = 0

    def allowed(self, sel: np.ndarray) -> np.ndarray:
        """allowed_row_mask of each selected row, as a (rows, 2k+1) mask."""
        k = self.params.k
        stack, depth = self.stack[sel], self.depth[sel]
        mask = np.zeros((sel.size, 2 * k + 1), dtype=bool)
        mask[:, :k] = (depth < self.params.m)[:, None]
        top = stack[np.arange(sel.size), np.maximum(depth - 1, 0)]
        mask[np.arange(sel.size), np.where(depth > 0, k + top - 1, 2 * k)] = True
        return mask


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

    The stack and saturation suites check the state after every consumed
    token, margins the distribution ahead of every token.  Each suite
    reports what it would report checking string by string in corpus order
    and stopping at its first counterexample: the checks up to that one,
    whose text is rebuilt from its prefix with the scalar helpers.
    """
    params = paramset.dyck_params
    k = params.k
    eps = epsilon_for(k) if epsilon is None else epsilon
    dis_bound = 1.0 / (10.0 * k)
    n = len(corpus)
    first = {s: np.full(n, -1) for s in suites}  # first failing position
    lo_min, hi_max = np.ones(n), np.zeros(n)  # margins up to that position
    # checks per string: margins at positions 0..len-1, the other suites at
    # positions 1..consumed
    counts = {"margins": np.zeros(n, dtype=int), "other": np.zeros(n, dtype=int)}
    stack_ok = _stack_predicate(paramset) if "stack" in first else None
    for rows, codes, t, h, c, acts in walk(paramset, corpus):
        live = len(h)
        if t == 0:
            tracker = _StackTracker(params, corpus, rows)
            counts["margins"][rows] = (codes >= 0).sum(axis=1)
            counts["other"][rows] = ((codes >= 0) & (codes < 2 * k)).sum(axis=1)
        else:
            tracker.consume(t, codes[:live, t - 1])
            faults = {}
            if "stack" in first:
                faults["stack"] = ~stack_ok(h, c, tracker.stack[:live],
                                            tracker.depth[:live])
            if "saturation" in first:
                faults["saturation"] = ~_saturated(paramset, h, c, acts)
            for suite, fault in faults.items():
                fresh = rows[:live][fault & (first[suite][rows[:live]] < 0)]
                first[suite][fresh] = t
        sel = np.flatnonzero(codes[:live, t] >= 0)
        if "margins" in first and sel.size:
            dist = readout(paramset, h[sel])
            allowed = tracker.allowed(sel)
            lo = np.where(allowed, dist, np.inf).min(axis=1)
            hi = np.where(allowed, 0.0, dist).max(axis=1)
            pending = first["margins"][rows[sel]] < 0
            sel, lo, hi = rows[sel][pending], lo[pending], hi[pending]
            lo_min[sel] = np.minimum(lo_min[sel], lo)
            hi_max[sel] = np.maximum(hi_max[sel], hi)
            first["margins"][sel[(lo < eps) | (hi > dis_bound)]] = t

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

    def table_lines(self) -> list[str]:
        lines = ["separation  confident  total  fraction"]
        for sep in sorted(self.per_separation):
            conf, total = self.per_separation[sep]
            lines.append(f"{sep:10d}  {conf:9d}  {total:5d}  {conf / total:.4f}")
        return lines


def _closing_events(string):
    """Yield (prefix_position, separation) for each close bracket.

    Separation counts the tokens strictly between the open bracket and its
    matching close; it is always even.
    """
    opens: list[tuple[int, int]] = []
    for pos, token in enumerate(string):
        if token.kind == "open":
            opens.append((pos, token.index))
        elif token.kind == "close":
            if not opens or opens[-1][1] != token.index:
                raise ValueError(f"corpus string is not well nested at token "
                                 f"{pos + 1}: {format_string(string)}")
            yield pos, pos - opens.pop()[0] - 1


def closing_metric(paramset, corpus, threshold: float = 0.8) -> ClosingMetricReport:
    """Mean over separations of the fraction of close brackets predicted
    confidently: renormalized close-bracket probability above the threshold.

    The readout runs only on the rows whose next token is a close, one
    block position at a time."""
    k = paramset.k
    # separation of each close, indexed by token position in corpus order
    starts = np.cumsum([0] + [len(string) for string in corpus])
    separation = np.full(starts[-1], -1)
    for start, string in zip(starts, corpus):
        for pos, sep in _closing_events(string):
            separation[start + pos] = sep
    where, confident = [], []
    for rows, codes, t, h, _, _ in walk(paramset, corpus):
        cols = codes[:len(h), t]
        sel = np.flatnonzero((cols >= k) & (cols < 2 * k))
        if sel.size:
            dist = readout(paramset, h[sel])
            p_close = dist[:, k:2 * k].sum(axis=1)
            where.append(starts[rows[sel]] + t)
            confident.append(dist[np.arange(sel.size), cols[sel]] / p_close
                             > threshold)
    where = np.concatenate(where or [np.zeros(0, dtype=int)])
    confident = np.concatenate(confident or [np.zeros(0, dtype=bool)])
    order = np.argsort(where)
    return _bucket_metric(separation[where[order]], confident[order])


def closing_metric_uniform(params: DyckParams, corpus,
                           threshold: float = 0.8) -> ClosingMetricReport:
    """Baseline scoring: every close bracket gets renormalized mass 1/k."""
    seps = np.array([sep for string in corpus
                     for _, sep in _closing_events(string)], dtype=int)
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
        """A random transition table over all 2^(d*p) states."""
        n = 2 ** (d * p)
        if n > 2**20:
            raise ValueError(f"table encoder with {n} states is too large")
        rng = np.random.default_rng(seed)
        table = rng.integers(0, n, size=(n, 2 * k))

        def step_fn(state, token):
            return int(table[state, input_column(token, k)])

        return cls(d=d, p=p, initial=0, step_fn=step_fn)

    @classmethod
    def from_network(cls, paramset, p: int = 64) -> "QuantizedEncoder":
        """Wrap a built network; the encoder state is the stack-bearing vector."""

        def step_fn(state, token):
            new, _ = step(paramset, state, token)
            return new

        def key_fn(state):
            vec = state.c if paramset.architecture == ARCH_LSTM else state.h
            return vec.tobytes()

        return cls(d=paramset.hidden_size, p=p,
                   initial=initial_state(paramset), step_fn=step_fn, key_fn=key_fn)


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


def find_collision(encoder: QuantizedEncoder, params: DyckParams,
                   budget: int = DEFAULT_ENUMERATION_BUDGET) -> Collision | None:
    """Pigeonhole search over the k^m all-open strings of length m.

    Returns the first pair of distinct strings the encoder cannot tell apart,
    together with the distinguishing suffix (the first string's closes in
    reverse, then the end mark), automaton-verified: first::suffix is in the
    language, second::suffix is not.  When the encoder has at least k^m
    states, no collision may exist and None is returned.
    """
    k, m = params.k, params.m
    if k**m > budget:
        raise RuntimeError(f"k^m = {k**m} exceeds the enumeration budget {budget}")
    seen: dict[object, tuple[int, ...]] = {}
    hit: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(state, prefix: tuple[int, ...]):
        if hit:
            return
        if len(prefix) == m:
            key = encoder.key_fn(state)
            if key in seen:
                hit.append((seen[key], prefix))
            else:
                seen[key] = prefix
            return
        for i in range(1, k + 1):
            rec(encoder.step_fn(state, Token("open", i)), prefix + (i,))

    rec(encoder.initial, ())
    if not hit:
        return None
    first_idx, second_idx = hit[0]
    first = tuple(Token("open", i) for i in first_idx)
    second = tuple(Token("open", i) for i in second_idx)
    suffix = tuple(Token("close", i) for i in reversed(first_idx)) + (Token("end"),)
    if not is_member(params, first + suffix) or is_member(params, second + suffix):
        raise RuntimeError("collision failed automaton verification")
    return Collision(first=first, second=second, suffix=suffix)


def check_full_depth_distinctness(paramset,
                                  budget: int = DEFAULT_ENUMERATION_BUDGET
                                  ) -> VerificationReport:
    """All k^m full-depth states are pairwise distinct (hidden vector for the
    simple RNN, cell vector for the LSTM)."""
    params = paramset.dyck_params
    encoder = QuantizedEncoder.from_network(paramset)
    collision = find_collision(encoder, params, budget)
    counter = collision.describe() if collision else None
    return VerificationReport(
        suite="full_depth_distinctness", instance=_instance(paramset),
        checked=params.k**params.m, passed=collision is None,
        counterexample=counter)


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
    eps = epsilon_for(params.k) if epsilon is None else epsilon
    names, supports = [], []
    for arch, enc in applicable_constructions(params.k):
        paramset = build(arch, params, enc, numeric,
                         parameter_budget=parameter_budget)
        names.append(arch if enc is None else f"{arch}/{enc}")
        supports.append(net_membership_set(paramset, max_len, eps))
    lang = dfa_membership_set(params, max_len)
    counter = None
    for name, support in zip(names[1:], supports[1:]):
        if support != supports[0]:
            witness = _first_difference(supports[0], support)
            counter = f"{names[0]} vs {name}: {format_string(witness)}"
            break
    return VerificationReport(
        suite="cross_construction_agreement",
        instance={"k": params.k, "m": params.m, "max_len": max_len},
        checked=total_string_count(params.k, max_len) * len(names),
        passed=counter is None, counterexample=counter,
        details={"constructions": names, "epsilon": eps,
                 "agree_with_language": [s == lang for s in supports]})
