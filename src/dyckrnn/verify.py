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
                        format_string, input_column, is_member, symbol_row,
                        transition, vocabulary)
from .builders import build
from .encodings import ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE, BINARY, ONEHOT
from .numerics import NumericConfig, epsilon_for
from .runtime import (NetworkState, StackDecodeError, decode_stack,
                      initial_state, next_distribution, step)

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


def _lstm_hidden_ok(paramset, state: NetworkState, dfa_state: DfaState) -> bool:
    """Hidden-state sparsity: only the top slot is exposed, exactly
    tanh(codeword); all other slots are exactly zero."""
    w = paramset.encoding.width
    stack = dfa_state.stack
    expected = np.zeros(paramset.hidden_size)
    if stack:
        j = len(stack) - 1
        expected[j * w:(j + 1) * w] = np.tanh(paramset.encoding.codeword(stack[-1]))
    return np.array_equal(state.h, expected)


def walk(paramset, string, want_trace: bool = False):
    """Yield (position, state, trace, next_token) for every prefix of a string:
    the state after `position` tokens, the trace of the step into it (None at
    position 0), and the token after it (None past a string without an end
    mark).  The end mark is never consumed."""
    state, trace = initial_state(paramset), None
    for pos, token in enumerate(string):
        yield pos, state, trace, token
        if token.kind == "end":
            return
        state, trace = step(paramset, state, token, want_trace)
    yield len(string), state, trace, None


CORPUS_SUITES = {"stack": "stack_correspondence",
                 "margins": "probability_margins",
                 "saturation": "saturation_exactness"}


def check_corpus_suites(paramset, corpus, suites=tuple(CORPUS_SUITES),
                        epsilon: float | None = None) -> list[VerificationReport]:
    """Any of the corpus suites, one report each in `suites` order, over one
    walk per string.  Each suite counts its own checks and stops at its own
    first counterexample; the walk ends once every suite has one."""
    params = paramset.dyck_params
    k = params.k
    eps = epsilon_for(k) if epsilon is None else epsilon
    dis_bound = 1.0 / (10.0 * k)
    lstm = paramset.architecture == ARCH_LSTM
    details = {"stack": {"strings": len(corpus)}, "saturation": {},
               "margins": {"epsilon": eps, "disallowed_bound": dis_bound,
                           "min_allowed": 1.0, "max_disallowed": 0.0}}

    def stack(pos, state, trace, dfa):
        """decode_stack equals the automaton state; for LSTMs the hidden
        state exposes exactly the top slot."""
        try:
            decoded = decode_stack(paramset, state)
        except StackDecodeError as exc:
            return f"@ token {pos}: decode failure: {exc}"
        if decoded != dfa:
            return f"@ token {pos}: decoded {decoded}, automaton {dfa}"
        if lstm and not _lstm_hidden_ok(paramset, state, dfa):
            return f"@ token {pos}: hidden state is not the exposed top slot"
        return None

    def margins(pos, state, trace, dfa):
        """Allowed tokens >= epsilon, disallowed <= 1/(10k)."""
        dist = next_distribution(paramset, state)
        mask = allowed_row_mask(params, dfa)
        lo = dist[mask].min()
        hi = dist[~mask].max() if (~mask).any() else 0.0
        seen = details["margins"]
        seen["min_allowed"] = min(seen["min_allowed"], lo)
        seen["max_disallowed"] = max(seen["max_disallowed"], hi)
        if lo < eps or hi > dis_bound:
            return (f"@ prefix length {pos}: min allowed {lo:.6g} (eps {eps:.6g}), "
                    f"max disallowed {hi:.6g} (bound {dis_bound:.6g})")
        return None

    def saturation(pos, state, trace, dfa):
        """Gates (LSTM) or hidden values exactly 0 or 1; cell candidates and
        cell values exactly -1, 0 or 1."""
        binary = (trace.f, trace.i, trace.o) if lstm else (state.h,)
        ternary = (trace.c_tilde, state.c) if lstm else ()
        ok = (all(np.all((v == 0.0) | (v == 1.0)) for v in binary)
              and all(np.all(np.isin(v, (-1.0, 0.0, 1.0))) for v in ternary))
        return None if ok else f"@ token {pos}"

    checks = {"stack": stack, "margins": margins, "saturation": saturation}
    checked = dict.fromkeys(suites, 0)
    counter: dict[str, str] = {}
    pending = list(dict.fromkeys(suites))
    for string in corpus:
        if not pending:
            break
        for pos, state, trace, token in walk(paramset, string,
                                             "saturation" in pending):
            dfa = transition(params, dfa, string[pos - 1]) if pos else EMPTY
            # margins reads the distribution ahead of every token; the other
            # suites read the state after every consumed token
            for suite in [s for s in pending
                          if (token is not None if s == "margins" else pos)]:
                checked[suite] += 1
                fault = checks[suite](pos, state, trace, dfa)
                if fault:
                    counter[suite] = f"{format_string(string)} {fault}"
                    pending.remove(suite)
            if not pending:
                break
    return [VerificationReport(
        suite=CORPUS_SUITES[s], instance=_instance(paramset), checked=checked[s],
        passed=s not in counter, counterexample=counter.get(s),
        details=details[s]) for s in suites]


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
    confidently: renormalized close-bracket probability above the threshold."""
    k = paramset.k

    def close_confidence(string):
        events = dict(_closing_events(string))
        for pos, state, _, token in walk(paramset, string):
            if pos in events:
                dist = next_distribution(paramset, state)
                p_close = dist[k:2 * k].sum()
                yield events[pos], (dist[k + token.index - 1] / p_close) > threshold

    return _bucket_metric(
        (pair for string in corpus for pair in close_confidence(string)))


def closing_metric_uniform(params: DyckParams, corpus,
                           threshold: float = 0.8) -> ClosingMetricReport:
    """Baseline scoring: every close bracket gets renormalized mass 1/k."""
    confident = (1.0 / params.k) > threshold
    return _bucket_metric((sep, confident) for string in corpus
                          for _, sep in _closing_events(string))


def _bucket_metric(events) -> ClosingMetricReport:
    buckets: dict[int, list[int]] = {}
    for sep, confident in events:
        entry = buckets.setdefault(sep, [0, 0])
        entry[0] += int(confident)
        entry[1] += 1
    if not buckets:
        return ClosingMetricReport(float("nan"), {}, [])
    per = {sep: (c, t) for sep, (c, t) in buckets.items()}
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
                                       numeric: NumericConfig | None = None
                                       ) -> VerificationReport:
    """All defined constructions carve out the same epsilon-truncated support."""
    eps = epsilon_for(params.k) if epsilon is None else epsilon
    names, supports = [], []
    for arch, enc in applicable_constructions(params.k):
        paramset = build(arch, params, enc, numeric)
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
