"""Breadth-first walks over product graphs of the automaton and networks.

A side is the automaton (Language) or one network's epsilon-truncated
support (Support).  A node of the product graph holds one state per side,
each with an alive flag; nodes of one depth whose bytes are equal are
merged, and each carries how many prefixes reach it.  One walk thus counts
every side's member strings up to a length, the strings all sides have,
and names the first string, in length-then-lexicographic order over symbol
rows (opens 1..k, closes 1..k, end), on which two sides differ.

walk_corpus walks a given corpus instead of every string: its nodes pair a
network's state with the automaton stack after the same tokens, its edges
are the tokens the corpus strings consume, and each distinct node and edge
is stepped and checked once for the corpus suites, in a node table of
bounded bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .automaton import Corpus, DyckParams, Token, vocabulary
from .encodings import ARCH_LSTM
from .runtime import BLOCK_ROWS, initial_state, readout, step_rows


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


# The bytes walk_corpus may keep in its node table: per node its row (state
# and automaton stack, held once, as its dict key, with about 100 bytes of
# Python objects), half a row for the level it is made in, its verdicts and
# its row of the edge table.  A full table is emptied but for the root and
# the nodes the walked strings stand on.  Over the corpus suites of the
# (128, 5) CI instance, 300 strings (2-core Xeon, in process, against the
# slab walk it replaced), tables of 4, 8 and 16 MB took 1.00-1.05,
# 0.95-1.01 and 0.97-1.01 times as long; at (8, 3) over 1000 strings the
# table never fills.
CORPUS_TABLE_BYTES = 1 << 23

# The readout values walk_corpus's node checks hold at once.  At (8, 3) one
# check of a batch's nodes took 0.47-0.48 of the slab walk's time against
# 0.55 in checks of 128 nodes; at (128, 5) a check of 2,000 nodes raised the
# peak RSS of the suites by about 14 MB.
CHECK_BYTES = 1 << 18


def walk_corpus(paramset, corpus: Corpus, check_nodes, check_edges=None):
    """Walk a corpus over the product graph of a network and the automaton,
    checking each distinct node once and each distinct edge once.

    A node is the bytes of a network state (h, then c for the LSTM) and of
    the automaton stack after the same tokens (Corpus.stacks); an edge is a
    node and the symbol row of a consumed token.  The strings are taken as
    runtime.walk orders them, most consumed tokens first, and walked level
    by level: at level t every string with at least t consumed tokens moves
    along the edge of its t-th token.  An edge is stepped through step_rows
    only the first time a string reaches it, at most BLOCK_ROWS at a time,
    and its child is looked up by the child's bytes, so strings that reach
    equal bytes share one node from there on.  check_nodes(h, c, stack)
    returns one verdict record per new node, check_edges(acts) one verdict
    per new edge from the step's activations.

    The table holds as many nodes as fit CORPUS_TABLE_BYTES, but never
    fewer than 2 * BLOCK_ROWS + 1, and grows to that as nodes are made.
    The strings are walked in chunks of half that many, so the nodes a
    chunk stands on and the new nodes of its next level always fit beside
    the root: when they would not, the table is emptied but for those.
    New nodes are checked when their verdicts are next read, in pieces
    whose readout holds at most CHECK_BYTES.

    Yields, in batches, every position (string s after t tokens, t = 0 to
    its consumed count) as arrays (strings, t, node verdicts, edge
    verdicts); edge verdicts are None without check_edges, and False at
    t = 0, where no edge leads in.  Each string's positions come in order
    of t.  A batch is yielded before the table is emptied and once it holds
    as many positions as the table holds nodes.  A position's verdicts do
    not depend on the table's size, but for the last bits of readout sums,
    which may round with the nodes checked together.
    """
    k, d = paramset.k, paramset.hidden_size
    lstm = paramset.architecture == ARCH_LSTM
    width, cols = (2 * d if lstm else d), 2 * k  # an end mark is never consumed
    stacks = corpus.stacks(paramset.m)
    # a node is a row of `width` state values, then its stack's bytes padded
    # to a whole value; the row's bytes are its key, and the only copy kept
    stack_bytes = stacks.dtype.itemsize * paramset.m
    row = width + -(-stack_bytes // 8)
    row_key = np.dtype((np.void, 8 * row))

    def stack_of(block):
        return block.view(np.uint8)[:, 8 * width:8 * width + stack_bytes].view(
            stacks.dtype)

    def check(block):
        return check_nodes(block[:, :d], block[:, d:width] if lstm else None,
                           stack_of(block))

    def rows_of(ids):
        return np.frombuffer(b"".join(map(keys.__getitem__, ids)),
                             dtype=np.float64).reshape(-1, row)

    root = np.zeros((1, row))
    verdict = check(root)
    per_node = (3 * row_key.itemsize // 2 + 100 + verdict.itemsize
                + cols * (4 + (check_edges is not None)))
    capacity = max(CORPUS_TABLE_BYTES // per_node, 2 * BLOCK_ROWS + 1)
    chunk = (capacity - 1) // 2
    # per node: its verdicts, and per symbol row the child's id + 1 (0 not
    # yet stepped) and the edge's verdict; grown as nodes are made
    verdicts, child = verdict, np.zeros(cols, dtype=np.int32)
    gate = np.zeros(cols, dtype=bool) if check_edges else None
    keys = [root.tobytes()]  # by node id
    index = {keys[0]: 0}  # a node's key: its id
    checked = 1  # nodes with their verdicts

    def room(nodes):
        """Grow the tables to hold `nodes` nodes, at least doubling them."""
        nonlocal verdicts, child, gate
        if nodes > len(verdicts):
            grown = min(max(nodes, 2 * len(verdicts)), capacity) - len(verdicts)
            verdicts = np.concatenate([verdicts, np.empty(grown, verdicts.dtype)])
            child = np.concatenate([child, np.zeros(grown * cols, child.dtype)])
            if check_edges:
                gate = np.concatenate([gate, np.zeros(grown * cols, bool)])

    def check_made():
        """Check the nodes made since the last check, in pieces whose
        readout holds at most CHECK_BYTES, or BLOCK_ROWS rows."""
        nonlocal checked
        piece = max(CHECK_BYTES // (8 * (cols + 1)), BLOCK_ROWS)
        for lo in range(checked, len(keys), piece):
            hi = min(lo + piece, len(keys))
            verdicts[lo:hi] = check(rows_of(range(lo, hi)))
        checked = len(keys)

    def empty(keep):
        """Keep only the nodes `keep` (sorted, the root first, checked),
        renumbered 0, 1, ...; forget every edge."""
        nonlocal keys, checked
        child[:len(keys) * cols] = 0
        keys = list(map(keys.__getitem__, keep.tolist()))
        checked = len(keys)
        verdicts[:checked] = verdicts[keep]
        index.clear()
        index.update(zip(keys, range(checked)))

    pending, held = [], 0  # per level: (strings, t, nodes, edge verdicts)

    def batch():
        """The pending positions' verdicts, checking the nodes made since
        the last batch first."""
        nonlocal pending, held
        check_made()
        strings, ts, ids, gates = zip(*pending)
        out = (np.concatenate(strings),
               np.repeat(ts, [part.size for part in strings]),
               verdicts[np.concatenate(ids)],
               np.concatenate(gates) if check_edges else None)
        pending, held = [], 0
        return out

    consumed = corpus.consumed()
    order = np.argsort(-consumed, kind="stable")
    for lo in range(0, order.size, chunk):
        strings = order[lo:lo + chunk]
        starts, live_at = corpus.offsets[strings], consumed[strings]
        # strings still consuming at t = 1, 2, ... (they come most first)
        lives = np.searchsorted(-live_at, -np.arange(1, live_at[0] + 1),
                                side="right").tolist()
        node = np.zeros(strings.size, dtype=np.intp)  # all at the root
        pending.append((strings, 0, node,
                        np.zeros(node.size, dtype=bool) if check_edges else None))
        held += node.size
        for t, live in enumerate(lives, start=1):
            at = starts[:live] + (t - 1)  # the token consumed, in the corpus
            parent, col = node[:live], corpus.codes[at]
            edge = parent * cols + col
            node = child[edge]
            if not node.all():
                new = np.flatnonzero(node == 0)
                if len(keys) + new.size > capacity:
                    if pending:  # else a batch has just checked every node
                        yield batch()
                    kept = np.zeros(len(keys), dtype=bool)
                    kept[parent] = kept[0] = True
                    keep = np.flatnonzero(kept)
                    empty(keep)
                    parent = np.searchsorted(keep, parent)
                    edge = parent * cols + col
                    node, new = np.zeros(live, dtype=np.int32), np.arange(live)
                # each new edge is claimed in the edge table by the last row
                # on it, which steps it for all of them
                on = edge[new]
                child[on] = ~new
                lead = np.flatnonzero(~child[on] == new)
                fresh = on[lead]
                parent_of, sym = np.divmod(fresh, cols)
                room(len(keys) + lead.size)
                block = np.zeros((lead.size, row))  # zero padded
                for b in range(0, lead.size, BLOCK_ROWS):
                    rows = rows_of(parent_of[b:b + BLOCK_ROWS].tolist())
                    h, c, acts = step_rows(
                        paramset, rows[:, :d],
                        np.ascontiguousarray(rows[:, d:width].T).T if lstm else None,
                        sym[b:b + BLOCK_ROWS])
                    block[b:b + len(rows), :d] = h
                    if lstm:
                        block[b:b + len(rows), d:width] = c
                    if check_edges:
                        gate[fresh[b:b + len(rows)]] = check_edges(acts)
                stack_of(block)[:] = stacks[at[new[lead]]]
                found = block.view(row_key).ravel().tolist()
                ids = [index.setdefault(key, len(index)) for key in found]
                # a new node's id is the count of nodes before it
                keys += dict.fromkeys(itertools.compress(
                    found, [i >= len(keys) for i in ids]))
                child[fresh] = np.add(ids, 1)
                node[new] = child[on]
            node = np.subtract(node, 1, dtype=np.intp)
            pending.append((strings[:live], t, node,
                            gate[edge] if check_edges else None))
            held += live
            if held >= capacity:
                yield batch()
    if pending:
        yield batch()
