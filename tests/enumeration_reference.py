"""Reference oracle for the block-stepped walks: the language and the
epsilon-truncated support enumerated one prefix at a time, recursively,
with the scalar helpers (transition, step, next_distribution); the
equivalence and cross reports compared as sets of strings; and the
full-depth distinctness check as a recursive search over step.  The tests
require dfa_membership_set, net_membership_set, the equivalence and cross
reports (but for their `states` count) and check_full_depth_distinctness
to return what these return.  prefix_count counts the prefixes the
recursion visits, which the merged graph walk steps far fewer of.

walk_graph is the product graph walk that merges nodes only within one
depth and re-steps every node at every depth it is reached: the pair walk
whose Graph each side of the closed joint walk (product.walk_graph) must
report."""

from __future__ import annotations

import itertools

import numpy as np

from dyckrnn.automaton import (ACCEPT, EMPTY, REJECT, Token, format_string,
                               is_member, symbol_row, transition, vocabulary)
from dyckrnn.encodings import ARCH_LSTM
from dyckrnn.numerics import epsilon_for
from dyckrnn.product import Graph
from dyckrnn.runtime import initial_state, next_distribution, step
from dyckrnn.verify import (DEFAULT_ENUMERATION_BUDGET, Collision,
                            VerificationReport, _instance, total_string_count)


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


def net_membership_set(paramset, max_len: int, epsilon: float | None = None
                       ) -> set[tuple[Token, ...]]:
    """The epsilon-truncated support up to max_len."""
    return _net_walk(paramset, max_len, epsilon)[0]


def prefix_count(paramset, max_len: int, epsilon: float | None = None) -> int:
    """How many prefixes net_membership_set visits, the empty one included."""
    return _net_walk(paramset, max_len, epsilon)[1]


def _net_walk(paramset, max_len, epsilon):
    k = paramset.k
    eps = epsilon_for(k) if epsilon is None else epsilon
    members: set[tuple[Token, ...]] = set()
    tokens = vocabulary(k)
    visited = 0

    def rec(state, prefix):
        nonlocal visited
        visited += 1
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


def first_difference(a: set, b: set) -> tuple[Token, ...]:
    """The first string in one set but not the other, in
    length-then-lexicographic order over symbol rows."""
    rank = {"open": 0, "close": 1, "end": 2}
    return min(a ^ b, key=lambda s: (len(s), [(rank[t.kind], t.index) for t in s]))


def equivalence_report(paramset, max_len: int,
                       epsilon: float | None = None) -> VerificationReport:
    """The generation_equivalence report, from the two listed sets."""
    k = paramset.k
    eps = epsilon_for(k) if epsilon is None else epsilon
    lang = dfa_membership_set(paramset.dyck_params, max_len)
    support = net_membership_set(paramset, max_len, eps)
    counter = None
    if lang != support:
        witness = first_difference(lang, support)
        side = "language-only" if witness in lang else "support-only"
        counter = f"{format_string(witness)} ({side})"
    return VerificationReport(
        suite="generation_equivalence", instance=_instance(paramset),
        checked=total_string_count(k, max_len), passed=lang == support,
        counterexample=counter,
        details={"epsilon": eps, "max_len": max_len,
                 "language_size": len(lang), "support_size": len(support)})


def cross_report(params, paramsets, max_len: int,
                 epsilon: float | None = None) -> VerificationReport:
    """The cross_construction_agreement report, from the listed sets: the
    first support that differs from the first one's names their first
    difference."""
    eps = epsilon_for(params.k) if epsilon is None else epsilon
    lang = dfa_membership_set(params, max_len)
    names = [ps.architecture if ps.encoding is None
             else f"{ps.architecture}/{ps.encoding.kind}" for ps in paramsets]
    supports = [net_membership_set(ps, max_len, eps) for ps in paramsets]
    counter = None
    for name, support in zip(names[1:], supports[1:]):
        if support != supports[0]:
            witness = first_difference(supports[0], support)
            counter = f"{names[0]} vs {name}: {format_string(witness)}"
            break
    return VerificationReport(
        suite="cross_construction_agreement",
        instance={"k": params.k, "m": params.m, "max_len": max_len},
        checked=total_string_count(params.k, max_len) * len(names),
        passed=counter is None, counterexample=counter,
        details={"constructions": names, "epsilon": eps,
                 "agree_with_language": [s == lang for s in supports]})


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


# Children stepped per block of the reference walk.
BLOCK_ROWS = 64


def walk_graph(sides, k: int, max_len: int, node_budget: int):
    """Walk the product graph of `sides` breadth first up to max_len.

    A node holds each side's state and an alive flag: a side is alive while
    it allows every token of the prefix.  A dead side's state is zero and is
    never stepped.  Nodes of one depth are merged when all their bytes are
    equal; step_rows is deterministic, so merged nodes have equal futures,
    and each node counts, as a Python int, the prefixes that reach it.  A
    node at depth t ends a member of each alive side that allows the end
    mark, while t + 1 <= max_len, and has a child for each bracket an alive
    side allows, while t + 2 <= max_len.  Children are stepped through
    step_rows at most BLOCK_ROWS at a time, in (node, symbol row)
    order, and numbered by first arrival, so each node's first prefix is
    its least: the first node of the shallowest depth where the sides' end
    marks differ names the first differing string.  The walk refuses as
    soon as it has created more than node_budget nodes, the root included:
    the nodes and their edges are what it holds.

    Returns the Graph and, per depth, its (nodes, sides) mask of member
    ends and its (parents, symbol rows, children) edges to the next depth.
    """
    vocab, n_sides = vocabulary(k), len(sides)
    spans, at = [], 0  # per side: its flag byte, its state bytes
    for side in sides:
        size = side.width * side.dtype.itemsize
        spans.append((at, slice(at + 1, at + 1 + size)))
        at += 1 + size
    row_key = np.dtype((np.void, at))

    def refuse_over_budget(created):
        if created > node_budget:
            raise RuntimeError(f"the product graph walk up to max_len={max_len} "
                               f"exceeded the node budget of {node_budget}")

    def state_of(s, block, rows):
        return np.ascontiguousarray(block[rows, spans[s][1]]).view(sides[s].dtype)

    def nodes(alive, states):
        """The bytes of nodes with these alive flags and states."""
        key = np.zeros((alive[0].size, at), dtype=np.uint8)
        for (flag, span), live, state in zip(spans, alive, states):
            key[:, flag] = live
            if state is not None:
                key[live, span] = np.ascontiguousarray(state).view(np.uint8)
        return key

    def allowed_of(rows):
        """Per side, the symbols it allows at these nodes; none when dead."""
        masks = np.zeros((n_sides, len(rows), 2 * k + 1), dtype=bool)
        for s, (flag, _) in enumerate(spans):
            live = rows[:, flag] != 0
            if live.any():
                masks[s, live] = sides[s].allowed(state_of(s, rows, live))
        return masks

    refuse_over_budget(1)  # the root
    level = nodes([np.ones(1, dtype=bool)] * n_sides,
                  [side.root() for side in sides])
    allowed = allowed_of(level)
    counts, depths = [1], []
    graph = Graph([0] * n_sides)
    for t in itertools.count():
        graph.states += len(counts)
        ends = allowed[:, :, 2 * k].T & (t + 1 <= max_len)
        every = ends.all(axis=1)
        for s in range(n_sides):
            graph.sizes[s] += sum(itertools.compress(counts, ends[:, s].tolist()))
        graph.common += sum(itertools.compress(counts, every.tolist()))
        split = np.flatnonzero(ends.any(axis=1) & ~every)
        if graph.difference is None and split.size:
            graph.difference = _first_prefix(vocab, depths, split[0]) + (vocab[2 * k],)
            graph.first_has_it = bool(ends[split[0], 0])
        depths.append([ends, None])
        if t + 2 > max_len:
            return graph, depths
        parents, cols = np.nonzero(allowed[:, :, :2 * k].any(axis=0))
        children = np.empty(parents.size, dtype=np.intp)
        index: dict[bytes, int] = {}
        masks = []
        for lo in range(0, parents.size, BLOCK_ROWS):
            p, c = parents[lo:lo + BLOCK_ROWS], cols[lo:lo + BLOCK_ROWS]
            alive = allowed[:, p, c]
            states = [side.step(state_of(s, level, p[live]), c[live])
                      if live.any() else None
                      for s, (side, live) in enumerate(zip(sides, alive))]
            key = nodes(alive, states)
            known = len(index)
            ids = np.array([index.setdefault(row, len(index))
                            for row in key.view(row_key).ravel().tolist()])
            children[lo:lo + ids.size] = ids
            if len(index) > known:  # new ids arrive in order: take each first
                refuse_over_budget(graph.states + len(index))
                fresh = np.flatnonzero(
                    ids > np.maximum.accumulate(np.append(known - 1, ids[:-1])))
                masks.append(allowed_of(key[fresh]))
        if not index:
            return graph, depths
        depths[-1][1] = (parents, cols, children)
        # the index keeps each node's bytes in id order: the next level
        level = np.frombuffer(b"".join(index), dtype=np.uint8).reshape(-1, at)
        allowed = np.concatenate(masks, axis=1)
        reached = [0] * len(index)
        for parent, child in zip(parents.tolist(), children.tolist()):
            reached[child] += counts[parent]
        counts = reached


def _first_prefix(vocab, depths, node: int) -> tuple[Token, ...]:
    """The least prefix reaching `node` at the depth after `depths`: its
    first edge in, back to the root."""
    rows = []
    for _, (parents, cols, children) in reversed(depths):
        edge = int(np.argmax(children == node))
        rows.append(int(cols[edge]))
        node = parents[edge]
    return tuple(vocab[row] for row in reversed(rows))
