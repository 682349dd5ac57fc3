"""Breadth-first walks over product graphs of the automaton and networks.

A side is the automaton (Language) or one network's epsilon-truncated
support (Support).  A node of the product graph holds one state per side,
each with an alive flag.  walk_graph keeps one table of nodes across
depths: a node is stepped and read out the first time it is made, its
edges are stored, and once a depth makes no new node the graph is closed
and the remaining depths only carry each node's prefix count along stored
edges.  From one walk of the automaton beside many networks, Walk.graph
reads what a walk of any one or two sides alone would report: each side's
member strings up to a length, the strings both have, the distinct pairs
of their states per depth, and the first string, in
length-then-lexicographic order over symbol rows (opens 1..k, closes 1..k,
end), on which they differ.

The corpus suites read their verdicts per corpus position from one walk
whose nodes pair a network's state with the automaton stack after the same
tokens (walk_corpus): it walks the corpus along the tokens its strings
consume, stepping and checking each distinct node and edge once in a node
table of bounded bytes.  Where the corpus uses at least half the
automaton's edges (CLOSURE_SHARE), close_graph first fills that table with
every node the automaton's brackets reach from the root, stepping each edge
once, and the walk then only looks each position's node up in the child
table; a closure is given up past twice the automaton's edges
(CLOSURE_EDGES) or a full table, and the walk then starts from the root
alone.  Every walk keys its nodes by their bytes in a _Table.
"""

from __future__ import annotations

import bisect
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

    def least_level(self, t: int) -> int:
        """The stacks reachable after t tokens, each its own node of any
        walk with this side: the k^d stacks of each height d <= min(t, m)
        of t's parity."""
        k, m = self.params.k, self.params.m
        return sum(k**d for d in range(t % 2, min(t, m) + 1, 2))


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

    def least_level(self, t: int) -> int:
        """A network may die on any prefix: no depth holds a node for sure."""
        return 0


class _Table:
    """The node table of a walk: rows of `width` values of `dtype`, each
    numbered by the count of rows before it.  `keys` holds each row's bytes
    by id and `index` maps them to the id, sharing one bytes object per
    row, the only copy of the row kept."""

    def __init__(self, dtype, width: int):
        self.dtype, self.width = np.dtype(dtype), width
        self.key = np.dtype((np.void, self.dtype.itemsize * width))
        self.keys: list[bytes] = []
        self.index: dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, block) -> list[int]:
        """The ids of the rows of `block` (C-contiguous), numbering the new
        ones in order of first arrival, repeats within the block included."""
        found = block.view(self.key).ravel().tolist()
        ids = list(map(self.index.get, found))
        if None in ids:
            index, known = self.index, len(self.keys)
            ids = [index.setdefault(key, len(index)) for key in found]
            self.keys += dict.fromkeys(itertools.compress(
                found, [i >= known for i in ids]))
        return ids

    def of(self, ids) -> np.ndarray:
        """The rows `ids` (a range or list of ints), read-only."""
        return np.frombuffer(b"".join(map(self.keys.__getitem__, ids)),
                             dtype=self.dtype).reshape(-1, self.width)

    def empty(self, keep=()):
        """Keep only the rows `keep` (ids in ascending order), renumbered
        0, 1, ..."""
        self.keys = list(map(self.keys.__getitem__, keep))
        self.index = dict(zip(self.keys, range(len(self.keys))))


# Children stepped per block of the graph walk.  The block bounds only the
# transient step arrays, widest for the naive network (252 units at (3, 3)).
# Over the enumerate benchmark's verify commands (2-core Xeon, in process,
# median CPU time of 40 passes, three rounds), blocks of 64, 128 and 256
# rows took 53-63, 48-58 and 44-57 ms a pass, and read 38.9-39.0, 39.5 and
# 39.5-39.7 MB one-pass peak RSS (perfbench/run.py --seconds 0): larger
# blocks are faster, but their step transients raise the peak by over half
# a megabyte.
TREE_BLOCK_ROWS = 64


@dataclass
class Graph:
    """What the walk of some sides reads off: per side, its member strings
    up to max_len; the strings every side has; their distinct states at
    each depth, summed; and the first string, in length-then-lexicographic
    order, that some side has and another lacks, with whether the first
    side has it."""

    sizes: list[int]
    common: int = 0
    states: int = 0
    difference: tuple[Token, ...] | None = None
    first_has_it: bool = False

    @property
    def agree(self) -> bool:
        return all(size == self.common for size in self.sizes)


class Walk:
    """A product graph walked up to max_len, from which the walk of any of
    its sides, alone or beside others, is read (graph).

    Node ids number the nodes in order of creation: depth by depth, and
    within a depth in order of each node's least prefix.  Per node, `sides`
    holds each side's state number (0 where the side is dead), `ends` per
    side whether the side is alive and allows the end mark, and `reached`
    the prefixes that reach the node, summed over the depths where an end
    mark fits.  `children` holds, per stepped node and bracket row, the
    child's id or -1; `levels`, per depth, the ids of the nodes there in
    order of their least prefix; `made`, the first id made at each depth up
    to the last that made any.
    """

    def __init__(self, vocab, sides, ends, children, levels, made, reached):
        self.vocab, self.sides, self.ends = vocab, sides, ends
        self.children, self.levels = children, levels
        self.made, self.reached = made, reached
        self._graphs: dict[tuple[int, ...], Graph] = {}

    def graph(self, *of: int) -> Graph:
        """What a walk of the sides `of` (one or two) alone reports, the
        first listed first: their sizes and common strings, the first
        string on which they differ, and, per depth, the distinct states of
        those sides among nodes where one of them is alive."""
        if of not in self._graphs:
            ends = self.ends[:, of]
            every = ends.all(axis=1)
            graph = Graph([int(self.reached[ends[:, i]].sum()) for i in range(len(of))],
                          int(self.reached[every].sum()), self._states(of))
            split = np.flatnonzero(ends.any(axis=1) & ~every)
            if split.size:
                node = int(split[0])
                graph.difference = self._least_prefix(node) + (self.vocab[-1],)
                graph.first_has_it = bool(ends[node, 0])
            self._graphs[of] = graph
        return self._graphs[of]

    def _states(self, of) -> int:
        """Per depth, the distinct states of the sides `of` at its nodes,
        leaving out nodes where all of them are dead, summed."""
        code = np.zeros(len(self.sides), dtype=np.int64)  # 0: all dead
        for side in of:  # state numbers stay below 2^31: two sides fit
            number = self.sides[:, side]
            code = code * (int(number.max()) + 1) + number
        counted: dict[int, int] = {}
        for level in self.levels:  # after closure, levels recur
            if id(level) not in counted:
                counted[id(level)] = len(set(code[level].tolist()) - {0})
        return sum(counted[id(level)] for level in self.levels)

    def _least_prefix(self, node: int) -> tuple[Token, ...]:
        """The least prefix reaching `node` at the depth it was made: its
        first edge in from the depth before, back to the root."""
        rows, width = [], self.children.shape[1]
        depth = bisect.bisect_right(self.made, node) - 1
        for level in reversed(self.levels[:depth]):
            edge = int(np.argmax(self.children[level].ravel() == node))
            row, col = divmod(edge, width)
            rows.append(col)
            node = level[row]
        return tuple(self.vocab[col] for col in reversed(rows))


def walk_graph(sides, k: int, max_len: int, node_budget: int) -> Walk:
    """Walk the product graph of `sides` breadth first up to max_len.

    A node holds each side's state and an alive flag: a side is alive while
    it allows every token of the prefix.  A dead side's state is zero and is
    never stepped.  Nodes whose bytes are equal are one node, at whatever
    depth they are reached; step_rows is deterministic, so a node's
    children do not depend on the prefix that reaches it.  A node at depth
    t ends a member of each alive side that allows the end mark, while
    t + 1 <= max_len, and has a child for each bracket an alive side
    allows, while t + 2 <= max_len.

    The walk keeps one table of nodes across depths, indexed by their
    bytes.  A node is stepped and read out the first time it is made: its
    children through step_rows at most TREE_BLOCK_ROWS at a time, in
    (node, symbol row) order, stored as edges.  The next depth's nodes are
    the children of this depth's, ordered by first arrival, so each node's
    first prefix is its least.  Once a depth holds no node made there,
    every node has been stepped and the graph is closed: the remaining
    depths only move the prefix counts along stored edges, and since every
    node was read out at its shallowest depth, no new difference can
    appear.

    The walk's states are its nodes at each depth, summed: for one side,
    or two sides that are never both dead, those a walk of them alone
    counts.  It refuses as soon as its states so far, with the nodes made
    for the next depth or the fewest a side says that depth holds
    (Language.least_level), exceed node_budget: the table and its edges
    are what it holds.  Walk.graph reads each side's, or pair of sides',
    own report off the table.
    """
    vocab, n_sides, width = vocabulary(k), len(sides), 2 * k
    spans, at = [], 0  # per side: its flag byte, its state bytes
    for side in sides:
        size = side.width * side.dtype.itemsize
        spans.append((at, slice(at + 1, at + 1 + size)))
        at += 1 + size

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
        masks = np.zeros((n_sides, len(rows), width + 1), dtype=bool)
        for s, (flag, _) in enumerate(spans):
            live = rows[:, flag] != 0
            if live.any():
                masks[s, live] = sides[s].allowed(state_of(s, rows, live))
        return masks

    def step(frontier, allowed):
        """Step every edge of the frontier's nodes (a range of ids), at most
        TREE_BLOCK_ROWS at a time: the child ids per (node, bracket row),
        and the ids of the nodes made, with the symbols each side allows
        there."""
        parents, cols = np.nonzero(allowed[:, :, :width].any(axis=0))
        kids = np.empty(parents.size, dtype=np.intp)
        first, masks = len(table), []
        for lo in range(0, parents.size, TREE_BLOCK_ROWS):
            p, c = parents[lo:lo + TREE_BLOCK_ROWS], cols[lo:lo + TREE_BLOCK_ROWS]
            alive = allowed[:, p, c]
            # the block's parents, a run of the frontier (edges come in node order)
            rows = table.of(frontier[p[0]:p[-1] + 1])
            block = [side.step(state_of(s, rows, p[live] - p[0]), c[live])
                     if live.any() else None
                     for s, (side, live) in enumerate(zip(sides, alive))]
            known = len(table)
            ids = table.add(nodes(alive, block))
            kids[lo:lo + len(ids)] = ids
            if len(table) > known:
                refuse_over_budget(states + len(table) - first)
                masks.append(allowed_of(table.of(range(known, len(table)))))
        stepped = np.full((len(frontier), width), -1, dtype=np.intp)
        stepped[parents, cols] = kids
        return (stepped, range(first, len(table)),
                np.concatenate(masks, axis=1) if masks else allowed[:, :0])

    refuse_over_budget(1)  # the root
    root = nodes([np.ones(1, dtype=bool)] * n_sides,
                 [side.root() for side in sides])
    table = _Table(np.uint8, at)
    table.add(root)
    frontier = range(1)  # the nodes made, not yet stepped
    allowed = allowed_of(root)
    ends = [allowed[:, :, width].T & (max_len >= 1)]
    stored, made = np.empty((0, width), dtype=np.intp), [0]
    # prefix counts are Python ints, in object arrays
    level, counts = np.zeros(1, dtype=np.intp), np.ones(1, dtype=object)
    levels, states = [level], 1
    reached = np.zeros(1, dtype=object)
    steps = {}  # after closure: a level's bytes, its next level and edges
    for t in itertools.count():
        if t + 1 <= max_len:
            reached[level] += counts
        if t + 2 > max_len:
            break
        refuse_over_budget(states + max(side.least_level(t + 1) for side in sides))
        closed = not len(frontier)
        if not closed:
            made.append(len(table))
            stepped, frontier, allowed = step(frontier, allowed)
            stored = np.concatenate([stored, stepped])
            ends.append(allowed[:, :, width].T)
            reached = np.concatenate(
                [reached, np.zeros(len(frontier), dtype=object)])
        known = level.tobytes() if closed else None
        if known in steps:
            level, parent_of, into = steps[known]
        else:
            edges = stored[level].ravel()
            edge = np.flatnonzero(edges >= 0)
            if not edge.size:
                break
            # the children in order of their first edge in, and each edge's
            # child by its place among them
            kids, arrival = edges[edge], np.arange(edge.size)
            first_in = np.full(len(table), edge.size)
            np.minimum.at(first_in, kids, arrival)
            level = kids[first_in[kids] == arrival]
            first_in[level] = np.arange(level.size)  # now each child's place
            parent_of, into = edge // width, first_in[kids]
            if closed:
                steps[known] = level, parent_of, into
        states += level.size
        refuse_over_budget(states)
        carried = np.zeros(level.size, dtype=object)
        np.add.at(carried, into, counts[parent_of])
        counts = carried
        levels.append(level)
    # per side, number its distinct states from 1 (0 where it is dead)
    keys = table.keys
    del table
    numbers = np.zeros((len(keys), n_sides), dtype=np.intp)
    for s, (flag, span) in enumerate(spans):
        seen: dict[bytes, int] = {}
        numbers[:, s] = [seen.setdefault(key[span], len(seen) + 1) if key[flag]
                         else 0 for key in keys]
    return Walk(vocab, numbers, np.concatenate(ends), stored, levels, made,
                reached)


def members(side, k: int, max_len: int,
            node_budget: int) -> set[tuple[Token, ...]]:
    """One side's member strings up to max_len, listed by expanding every
    path of its graph; refused when its walk, or the listing its size
    foretells, is over node_budget."""
    walk = walk_graph((side,), k, max_len, node_budget)
    size = walk.graph(0).sizes[0]
    if size > node_budget:
        raise RuntimeError(f"listing {size} strings up to max_len="
                           f"{max_len} exceeds the node budget of {node_budget}")
    vocab = walk.vocab
    prefixes, listed = {0: [()]}, set()
    for t in range(max_len):
        listed.update(prefix + (vocab[2 * k],)
                      for node, some in prefixes.items() if walk.ends[node, 0]
                      for prefix in some)
        if t + 2 > max_len:
            break
        reached: dict[int, list] = {}
        for node, some in prefixes.items():
            for col, child in enumerate(walk.children[node].tolist()):
                if child >= 0:
                    reached.setdefault(child, []).extend(
                        prefix + (vocab[col],) for prefix in some)
        prefixes = reached
    return listed


# The bytes a corpus walk may keep in its node table: per node its row (state
# and automaton stack, held once, as its dict key, with about 100 bytes of
# Python objects), half a row for the level it is made in, its verdicts and
# its row of the edge table.  walk_corpus empties a full table but for the
# root and the nodes the walked strings stand on; close_graph gives up.
# Over the corpus suites of the (128, 5) CI instance, 300 strings (2-core
# Xeon, in process, against the slab walk walk_corpus replaced), tables of
# 4, 8 and 16 MB took 1.00-1.05, 0.95-1.01 and 0.97-1.01 times as long; at
# (8, 3) over 1000 strings the table never fills.
CORPUS_TABLE_BYTES = 1 << 23

# The readout values a corpus walk's node checks hold at once.  At (8, 3) one
# check of a batch's nodes took 0.47-0.48 of the slab walk's time against
# 0.55 in checks of 128 nodes; at (128, 5) a check of 2,000 nodes raised the
# peak RSS of the suites by about 14 MB.
CHECK_BYTES = 1 << 18

# The corpus suites' walk starts from the closed product graph
# (close_graph) when the corpus uses at least CLOSURE_SHARE of the
# automaton's edges as distinct (stack, next token) pairs, and from the
# root alone once the closure would step more than CLOSURE_EDGES times the
# automaton's edges: a net whose states do not follow the automaton never
# closes, while the simple RNN's graph has 1.5-1.75 times the automaton's
# edges.  The benchmark's (8, 3) corpora use 990 (seed
# 2026) and 948 (seed 7) of the 1,168 edges; the closure steps 1,816 edges
# for the simple RNN and 1,168 for the LSTM once each, where the corpus
# walk stepped 1,315 and 990 in 78 levels, and the suites of the four
# constructions took 12.6-13.3 ms against 18.0-19.6 (2-core Xeon, in
# process).  At (8, 5) over 10,000 strings (seed 0) the corpus uses 23,612
# of 74,896 edges, and an ungated closure of both encodings took 0.38 s
# against 0.18 s for the simple RNN, 0.31 s against 0.16 s for the LSTM.
CLOSURE_SHARE = 0.5
CLOSURE_EDGES = 2


class _Rows:
    """The node rows of the corpus walks: a network state (h, then c for
    the LSTM), then the automaton stack's bytes (as Corpus.stacks holds
    them) padded to a whole value, kept in a _Table of float64 values."""

    def __init__(self, paramset):
        self.paramset, self.d = paramset, paramset.hidden_size
        self.lstm = paramset.architecture == ARCH_LSTM
        self.width = 2 * self.d if self.lstm else self.d
        self.stack_dtype = np.dtype(np.min_scalar_type(paramset.k))
        self.stack_bytes = self.stack_dtype.itemsize * paramset.m
        self.size = self.width + -(-self.stack_bytes // 8)

    def rooted(self) -> _Table:
        """A node table holding only the root: zero state, empty stack."""
        table = _Table(np.float64, self.size)
        table.add(np.zeros((1, self.size)))
        return table

    def stack_of(self, block):
        at = 8 * self.width
        return block.view(np.uint8)[:, at:at + self.stack_bytes].view(
            self.stack_dtype)

    def check(self, check_nodes, block):
        """check_nodes(h, c, stack) on the rows of `block`."""
        d = self.d
        return check_nodes(block[:, :d],
                           block[:, d:self.width] if self.lstm else None,
                           self.stack_of(block))

    def pieces(self, lo: int, hi: int):
        """The node ids lo..hi-1 as ranges checked together, whose readout
        holds at most CHECK_BYTES, or BLOCK_ROWS rows."""
        piece = max(CHECK_BYTES // (8 * (2 * self.paramset.k + 1)), BLOCK_ROWS)
        return (range(at, min(at + piece, hi)) for at in range(lo, hi, piece))

    def capacity(self, extra: int) -> int:
        """The nodes CORPUS_TABLE_BYTES holds at a row, about 100 bytes of
        Python objects and `extra` bytes each."""
        return CORPUS_TABLE_BYTES // (8 * self.size + 100 + extra)

    def closure_capacity(self, gated: bool) -> int:
        """The nodes a closure may hold: each row twice (its key, and the
        level rows gathered to step it or check it) and its rows of the
        child and, when gated, gate tables."""
        return self.capacity(8 * self.size + 2 * self.paramset.k * (4 + gated))

    def step(self, parents, cols, into):
        """Step the states of the rows `parents` on symbol rows `cols` into
        the state columns of `into`; returns the step's activations."""
        d, width = self.d, self.width
        h, c, acts = step_rows(
            self.paramset, parents[:, :d],
            np.ascontiguousarray(parents[:, d:width].T).T if self.lstm else None,
            cols)
        into[:, :d] = h
        if self.lstm:
            into[:, d:width] = c
        return acts


def walk_corpus(paramset, corpus: Corpus, check_nodes, check_edges=None,
                closure: Closure | None = None):
    """Walk a corpus over the product graph of a network and the automaton,
    checking each distinct node once and each distinct edge once.

    A node is the bytes of a network state (h, then c for the LSTM) and of
    the automaton stack after the same tokens (Corpus.stacks); an edge is a
    node and the symbol row of a consumed token.  The strings are taken as
    runtime.walk orders them, most consumed tokens first, and walked level
    by level: at level t every string with at least t consumed tokens moves
    along the edge of its t-th token.  check_nodes(h, c, stack) returns one
    verdict record per node, check_edges(acts) one verdict per edge from
    the step's activations.

    The walk starts from a closed graph (close_graph, with the same
    check_edges), whose table and edges then hold every node and edge the
    strings reach, or from the root alone.  From the root, an edge is
    stepped through step_rows only the first time a string reaches it, at
    most BLOCK_ROWS at a time, and its child is looked up by the child's
    bytes, so strings that reach equal bytes share one node from there on.
    The table holds as many nodes as fit CORPUS_TABLE_BYTES, but never
    fewer than 2 * BLOCK_ROWS + 1, and grows to that as nodes are made.
    The strings are walked in chunks of half that many, so the nodes a
    chunk stands on and the new nodes of its next level always fit beside
    the root: when they would not, the table is emptied but for those.
    The nodes are checked, those of the starting table first, when their
    verdicts are next read, in pieces whose readout holds at most
    CHECK_BYTES.

    Yields, in batches, every position (string s after t tokens, t = 0 to
    its consumed count) as arrays (strings, t, node verdicts, edge
    verdicts); edge verdicts are None without check_edges, and False at
    t = 0, where no edge leads in.  Each string's positions come in order
    of t.  A batch is yielded before the table is emptied and once it holds
    as many positions as the table holds nodes.  A position's verdicts do
    not depend on the table's size, but for the last bits of readout sums,
    which may round with the nodes checked together.  Returns the rows
    stepped after the start.
    """
    rows = _Rows(paramset)
    cols = 2 * paramset.k  # an end mark is never consumed
    if closure is None:
        table = rows.rooted()
        # per node and symbol row, the child's id + 1 (0 not yet stepped)
        # and the edge's verdict; grown as nodes are made
        child = np.zeros(cols, dtype=np.int32)
        gate = np.zeros(cols, dtype=bool) if check_edges else None
        stacks = corpus.stacks(paramset.m)
    else:
        table, child, gate = closure.table, closure.child, closure.gate
    verdicts = np.concatenate([rows.check(check_nodes, table.of(ids))
                               for ids in rows.pieces(0, len(table))])
    checked = len(table)  # nodes with their verdicts
    capacity = max(rows.capacity(4 * rows.size + verdicts.itemsize
                                 + cols * (4 + (check_edges is not None))),
                   2 * BLOCK_ROWS + 1)
    chunk = (capacity - 1) // 2
    stepped = 0

    def room(nodes):
        """Grow the tables to hold `nodes` nodes, at least doubling them."""
        nonlocal verdicts, child, gate
        if nodes > len(verdicts):
            grown = min(max(nodes, 2 * len(verdicts)), capacity) - len(verdicts)
            verdicts = np.concatenate([verdicts, np.empty(grown, verdicts.dtype)])
            child = np.concatenate([child, np.zeros(grown * cols, child.dtype)])
            if check_edges:
                gate = np.concatenate([gate, np.zeros(grown * cols, bool)])

    def empty(keep):
        """Keep only the nodes `keep` (sorted, the root first, checked),
        renumbered 0, 1, ...; forget every edge."""
        nonlocal checked
        child[:len(table) * cols] = 0
        table.empty(keep.tolist())
        checked = len(table)
        verdicts[:checked] = verdicts[keep]

    pending, held = [], 0  # per level: (strings, t, nodes, edge verdicts)

    def batch():
        """The pending positions as one batch of arrays, node verdicts
        gathered by id, checking the nodes made since the last batch
        first."""
        nonlocal pending, held, checked
        for ids in rows.pieces(checked, len(table)):
            verdicts[ids.start:ids.stop] = rows.check(check_nodes, table.of(ids))
        checked = len(table)
        strings, ts, ids, gates = zip(*pending)
        pending, held = [], 0
        return (np.concatenate(strings),
                np.repeat(ts, [part.size for part in strings]),
                verdicts[np.concatenate(ids)],
                np.concatenate(gates) if check_edges else None)

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
            if closure is None and not node.all():  # edges not yet stepped
                new = np.flatnonzero(node == 0)
                if len(table) + new.size > capacity:
                    if pending:  # else a batch has just checked every node
                        yield batch()
                    kept = np.zeros(len(table), dtype=bool)
                    kept[parent] = kept[0] = True
                    keep = np.flatnonzero(kept)
                    empty(keep)
                    parent = np.searchsorted(keep, parent)
                    edge = parent * cols + col
                    node, new = np.zeros(live, dtype=np.int32), np.arange(live)
                # each new edge is claimed in the edge table by the last
                # row on it, which steps it for all of them
                on = edge[new]
                child[on] = ~new
                lead = np.flatnonzero(~child[on] == new)
                fresh = on[lead]
                parent_of, sym = np.divmod(fresh, cols)
                room(len(table) + lead.size)
                stepped += lead.size
                block = np.zeros((lead.size, rows.size))  # zero padded
                for b in range(0, lead.size, BLOCK_ROWS):
                    parents = table.of(parent_of[b:b + BLOCK_ROWS].tolist())
                    acts = rows.step(parents, sym[b:b + BLOCK_ROWS],
                                     block[b:b + BLOCK_ROWS])
                    if check_edges:
                        gate[fresh[b:b + BLOCK_ROWS]] = check_edges(acts)
                rows.stack_of(block)[:] = stacks[at[new[lead]]]
                child[fresh] = np.add(table.add(block), 1)
                node[new] = child[on]
            if closure is None:  # its child table holds ids + 1
                node = np.subtract(node, 1, dtype=np.intp)
            pending.append((strings[:live], t, node,
                            gate[edge] if check_edges else None))
            held += live
            if held >= capacity:
                yield batch()
    if pending:
        yield batch()
    return stepped


def automaton_edges(params: DyckParams) -> int:
    """The bracket edges of the automaton's graph: k opens from each stack
    below the depth bound and one close from each nonempty stack."""
    return 2 * sum(params.k**d for d in range(1, params.m + 1))


def closure_limit(params: DyckParams, corpus: Corpus) -> int:
    """The edges close_graph may step for a corpus's suites, or 0 when the
    corpus uses too few of the automaton's edges for the closure to pay
    (CLOSURE_SHARE).  A corpus uses at most one edge per consumed token, so
    one whose tokens fall short of the share is not counted."""
    edges = automaton_edges(params)
    if int(corpus.consumed().sum()) < CLOSURE_SHARE * edges:
        return 0
    if corpus.edges(params.m) < CLOSURE_SHARE * edges:
        return 0
    return CLOSURE_EDGES * edges


@dataclass
class Closure:
    """The closed product graph of a network and the automaton, or, with
    table and child None, a walk of it given up.  `table` holds its nodes,
    numbered in order of creation, the root (zero state, empty stack) 0;
    `child` per node and bracket row the child's id, -1 where the automaton
    allows no bracket; and `gate` the edge's verdict, given check_edges.
    `edges` counts the edges stepped."""

    edges: int
    table: _Table | None = None
    child: np.ndarray | None = None
    gate: np.ndarray | None = None


def close_graph(paramset, edge_limit: int, check_edges=None) -> Closure:
    """Walk the product graph of a network and the automaton breadth first
    from the root along the brackets the automaton allows (allowed_rows,
    push_pop), stepping each edge once through step_rows, at most
    BLOCK_ROWS at a time.

    A node is a row of network state and automaton stack bytes, as in
    walk_corpus, and nodes whose bytes are equal are one node.  Each level
    steps the nodes the level before made, in order of creation, and the
    graph is closed once a level makes none.  check_edges(acts) gives each
    edge's verdict from its step's activations.  The walk is given up
    before a level that would take its edges past edge_limit, or its nodes
    past the node table of CORPUS_TABLE_BYTES.
    """
    params = paramset.dyck_params
    k, cols = params.k, 2 * params.k
    rows = _Rows(paramset)
    capacity = rows.closure_capacity(check_edges is not None)
    table = rows.rooted()
    children, gates = [], []  # per level, its nodes' rows of each table
    lo = edges = 0
    while lo < len(table):
        level = table.of(range(lo, len(table)))
        stack = rows.stack_of(level).astype(np.intp)
        depth = np.count_nonzero(stack, axis=1)
        parents, sym = np.nonzero(allowed_rows(params, stack, depth)[:, :cols])
        if edges + parents.size > edge_limit or len(table) > capacity:
            return Closure(edges)
        edges += parents.size
        child = np.full((len(level), cols), -1, dtype=np.int32)
        gate = np.zeros(child.shape, dtype=bool) if check_edges else None
        for b in range(0, parents.size, BLOCK_ROWS):
            p, c = parents[b:b + BLOCK_ROWS], sym[b:b + BLOCK_ROWS]
            block = np.zeros((p.size, rows.size))  # zero padded
            acts = rows.step(level[p], c, block)
            kid, kid_depth = stack[p], depth[p]
            push_pop(k, kid, kid_depth, c)
            rows.stack_of(block)[:] = kid
            child[p, c] = table.add(block)
            if check_edges:
                gate[p, c] = check_edges(acts)
        children.append(child)
        gates.append(gate)
        lo += len(level)
    return Closure(edges, table, np.concatenate(children).ravel(),
                   np.concatenate(gates).ravel() if check_edges else None)


class CorpusWalk:
    """The verdicts of every position of a corpus (string s after t tokens,
    t = 0 to its consumed count) for the corpus suites: check_nodes(h, c,
    stack) per node, check_edges(acts) per edge, as walk_corpus takes them.

    Where the corpus uses enough of the automaton's edges (closure_limit),
    the product graph is closed first (close_graph), and walk_corpus starts
    from the closed graph; otherwise, or when the closure is given up, from
    the root alone.  Iterating yields walk_corpus's batches; `walk` then
    names the walk's start, "closed" or "corpus", and `rows_stepped` counts
    the rows step_rows took, a closure given up included.
    """

    def __init__(self, paramset, corpus: Corpus, check_nodes, check_edges=None):
        self.paramset, self.corpus = paramset, corpus
        self.check_nodes, self.check_edges = check_nodes, check_edges
        self.walk, self.rows_stepped = "", 0

    def __iter__(self):
        paramset, corpus = self.paramset, self.corpus
        closure = close_graph(paramset, closure_limit(paramset.dyck_params, corpus),
                              self.check_edges)
        closed = closure.table is not None
        self.walk = "closed" if closed else "corpus"
        self.rows_stepped = closure.edges
        self.rows_stepped += yield from walk_corpus(
            paramset, corpus, self.check_nodes, self.check_edges,
            closure if closed else None)
