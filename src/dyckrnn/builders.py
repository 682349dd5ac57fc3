"""Explicit weight constructions for bounded-bracket generators.

Five builders:

* simple RNN, one slot per stack element, slot 1 on top, two half-spaces so a
  single recurrent matrix can offer both the pushed and the popped stack
  (hidden size 2*m*w for slot width w);
* LSTM, stack kept in the cell state bottom-first, all bookkeeping done by
  the gates, recurrent candidate matrix identically zero (hidden size m*w);
* each of the above with the binary-negated encoding (w = 3*ceil(log2 k)-1);
* a one-hot automaton network with one unit per (state, consumed token)
  pair, the baseline that any finite automaton admits.

All recurrent dynamics are arranged so every pre-activation lands at or
beyond the saturation threshold, making hidden values exactly 0/1 (and cell
values exactly -1/0/1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .automaton import (ACCEPT, EMPTY, REJECT, DfaState, DyckParams, STACK,
                        stack_state_count, transition, vocabulary)
from .encodings import (ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE, BINARY, Encoding,
                        ONEHOT, build_encoding, slot_width)
from .numerics import NumericConfig

DEFAULT_PARAMETER_BUDGET = 100_000


class ParameterBudgetError(ValueError):
    """A construction needs more dense weights than the parameter budget."""


def hidden_units(architecture: str, encoding_kind: str | None, k: int, m: int) -> int:
    """Hidden-state size each builder allocates, without building anything."""
    if architecture == ARCH_SIMPLE:
        return 2 * m * slot_width(encoding_kind, k)
    if architecture == ARCH_LSTM:
        return m * slot_width(encoding_kind, k)
    if architecture == ARCH_NAIVE:
        params = DyckParams(k, m)
        # no weight file or parameter budget holds 2^62 units squared, and
        # k^m takes time and memory to count past that
        if m * math.log2(k) > 62:
            raise ParameterBudgetError(f"naive automaton network at k={k}, "
                                       f"m={m} needs over 2^62 units")
        n_states = stack_state_count(params) + 2
        return n_states * 2 * k
    raise ValueError(f"unknown architecture {architecture!r}")


@dataclass(frozen=True, eq=False)
class RnnParams:
    """Sigmoid RNN h' = sigmoid(W h + U x + b), readout V h + b_v: the simple
    RNN ("simple") or the naive automaton network ("naive", no encoding)."""

    architecture: str
    k: int
    m: int
    encoding: Encoding | None
    numeric: NumericConfig
    W: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    b_v: np.ndarray = field(repr=False)

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0]

    @property
    def dyck_params(self) -> DyckParams:
        return DyckParams(self.k, self.m)

    @property
    def scale(self) -> float:
        """The naive network's conjunction scale 2*beta."""
        return 2.0 * self.numeric.beta

    @functools.cached_property
    def states(self) -> tuple[DfaState, ...]:
        """The naive network's state order, one block of 2k units each."""
        return enumerate_states(self.dyck_params)

    def state_of_unit(self, unit: int) -> DfaState:
        return self.states[unit // (2 * self.k)]

    @functools.cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(W^T, U^T, b) for row-vector states: pre = h W^T + U^T[col] + b."""
        return self.W.T, np.ascontiguousarray(self.U.T), self.b


@dataclass(frozen=True, eq=False)
class LstmParams:
    k: int
    m: int
    encoding: Encoding
    numeric: NumericConfig
    W_f: np.ndarray = field(repr=False)
    U_f: np.ndarray = field(repr=False)
    b_f: np.ndarray = field(repr=False)
    W_i: np.ndarray = field(repr=False)
    U_i: np.ndarray = field(repr=False)
    b_i: np.ndarray = field(repr=False)
    W_o: np.ndarray = field(repr=False)
    U_o: np.ndarray = field(repr=False)
    b_o: np.ndarray = field(repr=False)
    W_c: np.ndarray = field(repr=False)
    U_c: np.ndarray = field(repr=False)
    b_c: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    b_v: np.ndarray = field(repr=False)

    architecture = ARCH_LSTM

    @property
    def hidden_size(self) -> int:
        return self.W_f.shape[0]

    @property
    def dyck_params(self) -> DyckParams:
        return DyckParams(self.k, self.m)

    @functools.cached_property
    def packed(self):
        """The distinct gate units, for row-vector states: (W^T, U^T, b,
        sigmoids, inverse).

        The 4d gate units in the order f, i, o, c~ are the rows of
        [W | U | b]; the constructions repeat a few of them many times
        (30 distinct of 400 at k=128, m=5, binary).  Each unit is kept
        once, separately within the sigmoid group (f, i, o: the first
        `sigmoids` columns) and the tanh group (c~), and two units are
        equal only when their bytes are.  W^T is (d, u), U^T (2k, u) and
        b (u,); inverse (4d,) maps each gate unit to its column, so a
        block gathered through it, `distinct[..., inverse]`, is the full
        (..., 4d) gate block.
        """
        d = self.hidden_size
        W = np.concatenate([self.W_f, self.W_i, self.W_o, self.W_c])
        U = np.concatenate([self.U_f, self.U_i, self.U_o, self.U_c])
        b = np.concatenate([self.b_f, self.b_i, self.b_o, self.b_c])
        units = np.ascontiguousarray(np.column_stack([W, U, b]))
        keys = units.view(np.dtype((np.void, units[0].nbytes))).ravel().tolist()
        sig, sig_inv = _distinct(keys[:3 * d])
        tanh, tanh_inv = _distinct(keys[3 * d:])
        keep = np.array(sig + [3 * d + unit for unit in tanh])
        inverse = np.array(sig_inv + [len(sig) + col for col in tanh_inv])
        return (np.ascontiguousarray(W[keep].T),
                np.ascontiguousarray(U[keep].T), b[keep], len(sig), inverse)


def _distinct(keys: list[bytes]) -> tuple[list[int], list[int]]:
    """(first, inverse) of the distinct keys in sorted order: the index of
    each one's first occurrence, and each key's place among them."""
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    ordered = sorted(first)
    place = dict(zip(ordered, range(len(ordered))))
    return [first[key] for key in ordered], [place[key] for key in keys]


def _close_row_pattern(encoding: Encoding, i: int, zeta: float) -> np.ndarray:
    """Readout row span detecting bracket i at the top slot.

    Dot product with codeword j is exactly zeta when j = i and <= 0 otherwise.
    For the binary codebooks this means flipping the sign of the constant
    tail relative to the codeword, so the tail always contributes -(L-1).
    """
    pattern = encoding.codeword(i)
    if encoding.kind == BINARY:
        bits2 = 2 * ((encoding.width + 1) // 3)
        pattern[bits2:] = -pattern[bits2:]
    return zeta * pattern


def _fullness_pattern(encoding: Encoding, zeta: float) -> np.ndarray:
    """Readout row span whose dot with every codeword is exactly -zeta."""
    if encoding.kind == ONEHOT:
        return -zeta * np.ones(encoding.width)
    bits2 = 2 * ((encoding.width + 1) // 3)
    pattern = np.ones(encoding.width)
    if encoding.width > bits2:
        # Negate the codeword's constant tail so the tail product contributes
        # +(L-1), cancelling all but one unit of the bit-span product.
        pattern[bits2:] = -encoding.codebook[bits2, 0]
    return -zeta * pattern


def build_readout(params: DyckParams, encoding: Encoding, numeric: NumericConfig,
                  architecture: str) -> tuple[np.ndarray, np.ndarray]:
    """Softmax matrix and bias for the simple RNN or LSTM.

    Rows: opens 1..k, closes 1..k, end.  Close rows read the top slot (slot 1
    for the simple RNN, replicated over all m slots for the LSTM); open rows
    put the fullness detector on slot m; the end row puts it on every slot.
    """
    k, m = params.k, params.m
    w = encoding.width
    zeta, gamma = numeric.zeta, numeric.gamma
    stack_dim = m * w
    halves = 2 if architecture == ARCH_SIMPLE else 1
    V = np.zeros((2 * k + 1, halves * stack_dim))
    full = _fullness_pattern(encoding, zeta)

    def put(row: int, slot: int, pattern: np.ndarray):
        for half in range(halves):
            lo = half * stack_dim + slot * w
            V[row, lo:lo + w] += pattern

    for i in range(1, k + 1):
        close_pat = _close_row_pattern(encoding, i, zeta)
        if architecture == ARCH_SIMPLE:
            put(k + i - 1, 0, close_pat)
        else:
            for j in range(m):
                put(k + i - 1, j, close_pat)
        put(i - 1, m - 1, full)
    for j in range(m):
        put(2 * k, j, full)

    b_v = np.full(2 * k + 1, 0.5 * zeta * gamma)
    b_v[k:2 * k] = -0.5 * zeta * gamma
    return V, b_v


def build_simple_rnn(params: DyckParams, encoding: str = ONEHOT,
                     numeric: NumericConfig | None = None) -> RnnParams:
    """Simple RNN with hidden size 2*m*w.

    The hidden state is two m-slot halves.  The recurrent matrix writes the
    push-shifted stack into the first half and the pop-shifted stack into the
    second; the input row then erases whichever half does not match the
    observed token and, on a push, deposits the new codeword into slot 1.
    """
    k, m = params.k, params.m
    enc = build_encoding(params, encoding, ARCH_SIMPLE)
    num = numeric if numeric is not None else NumericConfig.for_language(k)
    w = enc.width
    stack_dim = m * w
    beta = num.beta

    push_shift = 2.0 * beta * np.eye(stack_dim, k=-w)  # slot j -> slot j+1
    pop_shift = 2.0 * beta * np.eye(stack_dim, k=w)    # slot j -> slot j-1
    W = np.block([[push_shift, push_shift], [pop_shift, pop_shift]])

    U = np.zeros((2 * stack_dim, 2 * k))
    U[:w, :k] = 2.0 * beta * enc.codebook        # new element into push slot 1
    U[:stack_dim, k:] = -2.0 * beta              # closes erase the push half
    U[stack_dim:, :k] = -2.0 * beta              # opens erase the pop half

    b = np.full(2 * stack_dim, -beta)
    V, b_v = build_readout(params, enc, num, ARCH_SIMPLE)
    return RnnParams(architecture=ARCH_SIMPLE, k=k, m=m, encoding=enc,
                     numeric=num, W=W, U=U, b=b, V=V, b_v=b_v)


def build_lstm(params: DyckParams, encoding: str = ONEHOT,
               numeric: NumericConfig | None = None) -> LstmParams:
    """LSTM with hidden size m*w and a zero recurrent candidate matrix.

    The forget gate erases the top slot on a close, the input gate opens the
    first free slot on a push, the candidate offers the pushed codeword to
    every slot, and the output gate exposes only the top slot to the hidden
    state.  All gate blocks are constant matrices; they sense slot occupancy
    through the coordinate sum of the slot, which the encoding pins to 1.
    """
    k, m = params.k, params.m
    enc = build_encoding(params, encoding, ARCH_LSTM)
    num = numeric if numeric is not None else NumericConfig.for_language(k)
    w = enc.width
    d = m * w
    lam, gamma = num.lam, num.gamma
    lg = lam * gamma

    def block(mat, j, jp, value):
        mat[j * w:(j + 1) * w, jp * w:(jp + 1) * w] = value

    W_f = np.zeros((d, d))
    for j in range(m):
        block(W_f, j, j, -lam)

    W_i = np.zeros((d, d))
    for jp in range(m):
        block(W_i, 0, jp, -lam)
    for j in range(1, m):
        block(W_i, j, j - 1, lam)

    W_o = np.zeros((d, d))
    for j in range(m):
        for jp in range(m):
            if jp in (j, j + 1):
                block(W_o, j, jp, -lam)
            elif jp > j + 1:
                block(W_o, j, jp, -2.0 * lam)

    W_c = np.zeros((d, d))

    U_f = np.zeros((d, 2 * k))
    U_f[:, k:] = -lg
    U_i = np.zeros((d, 2 * k))
    U_i[:, :k] = lg
    U_o = np.zeros((d, 2 * k))
    U_o[:, k:] = lg
    U_c = np.zeros((d, 2 * k))
    for j in range(m):
        U_c[j * w:(j + 1) * w, :k] = lam * enc.codebook

    b_f = np.full(d, 1.5 * lg)
    b_i = np.full(d, -1.5 * lg)
    b_i[:w] = -0.5 * lg
    b_o = np.full(d, 0.5 * lg)
    b_c = np.zeros(d)

    V, b_v = build_readout(params, enc, num, ARCH_LSTM)
    return LstmParams(k=k, m=m, encoding=enc, numeric=num,
                      W_f=W_f, U_f=U_f, b_f=b_f, W_i=W_i, U_i=U_i, b_i=b_i,
                      W_o=W_o, U_o=U_o, b_o=b_o, W_c=W_c, U_c=U_c, b_c=b_c,
                      V=V, b_v=b_v)


def enumerate_states(params: DyckParams) -> tuple[DfaState, ...]:
    """Canonical state order: stacks by (length, lex), then accept, reject."""
    states = [EMPTY]
    frontier = [()]
    for _ in range(params.m):
        frontier = [s + (i,) for s in frontier for i in range(1, params.k + 1)]
        states.extend(DfaState(STACK, s) for s in frontier)
    states.append(ACCEPT)
    states.append(REJECT)
    return tuple(states)


def build_naive_dfa_rnn(params: DyckParams, numeric: NumericConfig | None = None,
                        parameter_budget: int = DEFAULT_PARAMETER_BUDGET
                        ) -> RnnParams:
    """One-hot automaton network: one unit per (state, consumed token) pair.

    Unit (q', w') saturates to 1 exactly when the input is w' and the
    previously active unit's state q satisfies delta(q, w') = q', a two-input
    conjunction thresholded at 1.5 and scaled by 2*beta.  The all-zero
    initial hidden state stands in for the empty-stack state, handled by a
    bias correction on the units reachable from it.  Readout rows hold each
    state's log-probability vector relative to the empty-stack bias.
    """
    k, m = params.k, params.m
    num = numeric if numeric is not None else NumericConfig.for_language(k)
    dim = hidden_units(ARCH_NAIVE, None, k, m)
    if dim * dim > parameter_budget:
        raise ParameterBudgetError(
            f"naive automaton network needs {dim} units "
            f"({dim * dim} dense recurrent weights), over the budget of "
            f"{parameter_budget}; raise parameter_budget to force it")
    states = enumerate_states(params)
    sigma = vocabulary(k)[:-1]  # end-of-string is never consumed
    scale = 2.0 * num.beta
    index = {s: i for i, s in enumerate(states)}

    W = np.zeros((dim, dim))
    b = np.full(dim, -1.5 * scale)
    for qi, q in enumerate(states):
        cols = slice(qi * 2 * k, (qi + 1) * 2 * k)
        for wi, tok in enumerate(sigma):
            row = index[transition(params, q, tok)] * 2 * k + wi
            W[row, cols] += scale
    for wi, tok in enumerate(sigma):
        row = index[transition(params, EMPTY, tok)] * 2 * k + wi
        W[row, :] -= scale
        b[row] = -0.5 * scale

    U = scale * np.tile(np.eye(2 * k), (len(states), 1))

    half = 0.5 * num.zeta * num.gamma
    symbols = vocabulary(k)

    def logit_vector(q: DfaState) -> np.ndarray:
        return np.array([half if transition(params, q, t) != REJECT else -half
                         for t in symbols])

    b_v = logit_vector(EMPTY)
    V = np.zeros((2 * k + 1, dim))
    for qi, q in enumerate(states):
        col_block = logit_vector(q) - b_v
        for wi in range(2 * k):
            V[:, qi * 2 * k + wi] = col_block
    return RnnParams(architecture=ARCH_NAIVE, k=k, m=m, encoding=None,
                     numeric=num, W=W, U=U, b=b, V=V, b_v=b_v)


def build(architecture: str, params: DyckParams, encoding_kind: str | None = ONEHOT,
          numeric: NumericConfig | None = None, *,
          parameter_budget: int = DEFAULT_PARAMETER_BUDGET):
    """Dispatch to the architecture's builder; only the naive one has a budget."""
    if architecture == ARCH_SIMPLE:
        return build_simple_rnn(params, encoding_kind, numeric)
    if architecture == ARCH_LSTM:
        return build_lstm(params, encoding_kind, numeric)
    if architecture == ARCH_NAIVE:
        return build_naive_dfa_rnn(params, numeric, parameter_budget)
    raise ValueError(f"unknown architecture {architecture!r}")
