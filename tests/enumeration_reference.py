"""Reference oracle for the block-stepped walks: the language and the
epsilon-truncated support enumerated one prefix at a time, recursively,
with the scalar helpers (transition, step, next_distribution), and the
full-depth distinctness check as a recursive search over step.  The tests
require dfa_membership_set, net_membership_set and
check_full_depth_distinctness to return what these return, and to refuse a
node budget exactly where net_membership_set does."""

from __future__ import annotations

from dyckrnn.automaton import (ACCEPT, EMPTY, REJECT, Token, is_member,
                               symbol_row, transition, vocabulary)
from dyckrnn.encodings import ARCH_LSTM
from dyckrnn.numerics import epsilon_for
from dyckrnn.runtime import initial_state, next_distribution, step
from dyckrnn.verify import (DEFAULT_ENUMERATION_BUDGET, Collision,
                            VerificationReport, _instance)


def dfa_membership_set(params, max_len: int) -> set[tuple[Token, ...]]:
    """All member strings of total length <= max_len (end mark included)."""
    members: set[tuple[Token, ...]] = set()
    opens_closes = vocabulary(params.k)[:-1]

    def rec(state, prefix):
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
    """The epsilon-truncated support up to max_len; every prefix visited
    counts against node_budget."""
    return _net_walk(paramset, max_len, epsilon, node_budget)[0]


def prefix_count(paramset, max_len: int, epsilon: float | None = None) -> int:
    """How many prefixes net_membership_set visits: the smallest node budget
    it accepts."""
    return _net_walk(paramset, max_len, epsilon, float("inf"))[1]


def _net_walk(paramset, max_len, epsilon, node_budget):
    k = paramset.k
    eps = epsilon_for(k) if epsilon is None else epsilon
    members: set[tuple[Token, ...]] = set()
    tokens = vocabulary(k)
    visited = 0

    def rec(state, prefix):
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
    return members, visited


def check_full_depth_distinctness(paramset,
                                  budget: int = DEFAULT_ENUMERATION_BUDGET
                                  ) -> VerificationReport:
    """Step every all-open prefix with the scalar step, depth first, and
    report the first full-depth state (cell vector for the LSTM, hidden
    vector otherwise) equal to an earlier one."""
    params = paramset.dyck_params
    k, m = params.k, params.m
    if k**m > budget:
        raise RuntimeError(f"k^m = {k**m} exceeds the enumeration budget {budget}")
    seen: dict[bytes, tuple[int, ...]] = {}
    hit = []

    def rec(state, prefix):
        if hit:
            return
        if len(prefix) == m:
            key = (state.c if paramset.architecture == ARCH_LSTM else state.h).tobytes()
            if key in seen:
                hit.append((seen[key], prefix))
            else:
                seen[key] = prefix
            return
        for i in range(1, k + 1):
            rec(step(paramset, state, Token("open", i))[0], prefix + (i,))

    rec(initial_state(paramset), ())
    counter = None
    if hit:
        first_idx, second_idx = hit[0]
        first = tuple(Token("open", i) for i in first_idx)
        second = tuple(Token("open", i) for i in second_idx)
        suffix = tuple(Token("close", i) for i in reversed(first_idx)) + (Token("end"),)
        assert is_member(params, first + suffix)
        assert not is_member(params, second + suffix)
        counter = Collision(first, second, suffix).describe()
    return VerificationReport(
        suite="full_depth_distinctness", instance=_instance(paramset),
        checked=k**m, passed=not hit, counterexample=counter)
