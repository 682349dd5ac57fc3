"""Breadth-first walks over product graphs of the automaton and networks.

A side is the automaton (Language) or one network's epsilon-truncated
support (Support).  A node of the product graph holds one state per side,
each with an alive flag; nodes of one depth whose bytes are equal are
merged, and each carries how many prefixes reach it.  One walk thus counts
every side's member strings up to a length, the strings all sides have,
and names the first string, in length-then-lexicographic order over symbol
rows (opens 1..k, closes 1..k, end), on which two sides differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .automaton import DyckParams, Token, vocabulary
from .encodings import ARCH_LSTM
from .runtime import initial_state, readout, step_rows


def push_pop(k: int, stack: np.ndarray, depth: np.ndarray, cols: np.ndarray):
    """Apply one allowed token per row (symbol rows `cols`) to (rows, m)
    automaton stacks of bracket indices (bottom first, 0 above the top) and
    their depth vector, in place: the automaton's step in the product graph
    walk.  A corpus reads its stacks from Corpus.stacks."""
    live = np.arange(cols.size)
    opens = cols < k
    stack[live[opens], depth[opens]] = cols[opens] + 1
    depth += np.where(opens, 1, -1)
    stack[live[~opens], depth[~opens]] = 0


def allowed_rows(params: DyckParams, stack: np.ndarray,
                 depth: np.ndarray) -> np.ndarray:
    """allowed_row_mask of each (stack, depth) row, as a (rows, 2k+1) mask."""
    k, rows = params.k, np.arange(depth.size)
    mask = np.zeros((depth.size, 2 * k + 1), dtype=bool)
    mask[:, :k] = (depth < params.m)[:, None]
    top = stack[rows, np.maximum(depth - 1, 0)]
    mask[rows, np.where(depth > 0, k + top - 1, 2 * k)] = True
    return mask


class Language:
    """The automaton as a side of the product graph: a state is a row of
    its stack, bracket indices bottom first, 0 above the top, then its
    depth."""

    dtype = np.dtype(np.intp)

    def __init__(self, params: DyckParams):
        self.params, self.width = params, params.m + 1

    def root(self) -> np.ndarray:
        return np.zeros((1, self.width), dtype=self.dtype)

    def step(self, state: np.ndarray, cols: np.ndarray) -> np.ndarray:
        push_pop(self.params.k, state[:, :-1], state[:, -1], cols)
        return state

    def allowed(self, state: np.ndarray) -> np.ndarray:
        return allowed_rows(self.params, state[:, :-1], state[:, -1])


class Support:
    """A network as a side of the product graph: a state is a row of h,
    then c for the LSTM, and a symbol is allowed at probability at least
    eps."""

    dtype = np.dtype(np.float64)

    def __init__(self, paramset, eps: float):
        self.paramset, self.eps = paramset, eps
        self.d = paramset.hidden_size
        self.lstm = paramset.architecture == ARCH_LSTM
        self.width = 2 * self.d if self.lstm else self.d

    def root(self) -> np.ndarray:
        start = initial_state(self.paramset)
        return np.hstack([start.h, start.c] if self.lstm else [start.h])[None]

    def step(self, state: np.ndarray, cols: np.ndarray) -> np.ndarray:
        h = np.ascontiguousarray(state[:, :self.d])
        h, c, _ = step_rows(self.paramset, h,
                            state[:, self.d:] if self.lstm else None, cols)
        return np.hstack([h, c]) if self.lstm else h

    def allowed(self, state: np.ndarray) -> np.ndarray:
        h = np.ascontiguousarray(state[:, :self.d])
        return readout(self.paramset, h) >= self.eps


# Children stepped per block of the graph walk.  A walk keeps one depth of
# nodes, so the block bounds only the transient step arrays, widest for the
# naive network (252 units at (3, 3)).  Over the enumerate benchmark's
# verify commands (2-core Xeon), blocks of 64, 128 and 256 rows took 49,
# 44 and 60 ms in process (a noisy host) and read 38.2, 38.9-39.1 and
# 39.3-39.4 MB one-pass peak RSS, against 38.4-38.6 MB for the tree walk.
TREE_BLOCK_ROWS = 64


@dataclass
class Graph:
    """What one product graph walk reads off: per side, its member strings
    up to max_len; the strings every side has; the nodes walked; and the
    first string, in length-then-lexicographic order, that some side has
    and another lacks, with whether the first side has it."""

    sizes: list[int]
    common: int = 0
    states: int = 0
    difference: tuple[Token, ...] | None = None
    first_has_it: bool = False

    @property
    def agree(self) -> bool:
        return all(size == self.common for size in self.sizes)


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
    step_rows at most TREE_BLOCK_ROWS at a time, in (node, symbol row)
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
        for lo in range(0, parents.size, TREE_BLOCK_ROWS):
            p, c = parents[lo:lo + TREE_BLOCK_ROWS], cols[lo:lo + TREE_BLOCK_ROWS]
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


def members(side, k: int, max_len: int,
            node_budget: int) -> set[tuple[Token, ...]]:
    """One side's member strings up to max_len, listed by expanding every
    path of its graph; refused when its walk, or the listing its size
    foretells, is over node_budget."""
    graph, depths = walk_graph((side,), k, max_len, node_budget)
    if graph.sizes[0] > node_budget:
        raise RuntimeError(f"listing {graph.sizes[0]} strings up to max_len="
                           f"{max_len} exceeds the node budget of {node_budget}")
    vocab = vocabulary(k)
    prefixes, listed = [[()]], set()
    for ends, edges in depths:
        listed.update(prefix + (vocab[2 * k],)
                       for node in np.flatnonzero(ends[:, 0]).tolist()
                       for prefix in prefixes[node])
        if edges is None:
            break
        parents, cols, children = (a.tolist() for a in edges)
        reached = [[] for _ in range(max(children) + 1)]
        for parent, col, child in zip(parents, cols, children):
            reached[child].extend(prefix + (vocab[col],)
                                  for prefix in prefixes[parent])
        prefixes = reached
    return listed
