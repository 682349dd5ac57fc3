"""Step-by-step execution of built networks under saturating arithmetic.

Stepping is functional: each step returns a fresh state, so parameter sets
and states can be shared across threads without coordination.  One kernel,
step_rows, does all stepping: it advances a (rows, d) block of states, each
row on its own input column, with the weights packed once per parameter set
(its `packed` property).  The LSTM's gates are built from constant blocks,
so most of its 4d gate units repeat: `packed` keeps each distinct unit once
(30 of 400 at k=128, m=5, binary) with an index back to the full layout.
A step sums the recurrent product, the input column and the bias in one
buffer (for the LSTM, on the distinct units only, copied unit-major so that
each saturating function reads one contiguous block), saturates it, and
gathers the LSTM's gates, so that each gate is a contiguous (d, rows) block
for the cell update; the states and activations it returns are (rows, d)
and (rows, 4d) transposed views of such blocks.  The saturating functions
write clamped entries directly and run exp or tanh only on the entries
inside (-beta, beta).  The one-row case of step_rows is step, which serves
only run_prefix, format_trace and the text of
counterexamples.  walk steps a whole corpus for the distinctness suite and
the closing metric: it reads the symbol-row codes
of an automaton.Corpus (a list of Token strings is encoded once), sorts
the strings by length and steps them BLOCK_ROWS at a time, so one matrix
product advances every live string of a block.  runtime calls sat_sigmoid,
sat_tanh and softmax through its own module attributes, which the
benchmark tracer wraps.  Traces (gate vectors, pre-activations) are
recorded only on request.

A block product, (BLOCK_ROWS, d) by (d, d) or by the LSTM's (d, u), is
too small for BLAS threads to pay: OpenBLAS splits it anyway, and a split
step waits for a worker thread that a busy host may not schedule.
serial_blas runs BLAS on the calling thread while it is entered; the CLI
runs every command inside it.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np

from .automaton import (Corpus, DfaState, EMPTY, STACK, Token, format_token,
                        input_column)
from .encodings import ARCH_LSTM, ARCH_NAIVE, ARCH_SIMPLE
from .numerics import sat_sigmoid, sat_tanh, softmax


class StackDecodeError(ValueError):
    """A hidden state does not decode to any automaton stack: construction bug."""


@dataclass
class NetworkState:
    """Hidden vector h, cell vector c (LSTM only), and step counter t."""

    h: np.ndarray
    c: np.ndarray | None
    t: int


@dataclass
class StepTrace:
    """Post-saturation intermediate values of one step."""

    token: Token
    preactivation: np.ndarray | None = None  # simple RNN / naive
    f: np.ndarray | None = None
    i: np.ndarray | None = None
    o: np.ndarray | None = None
    c_tilde: np.ndarray | None = None


@dataclass
class SlotView:
    """Per-slot decomposition of a state, and the index of the top slot."""

    slots: list[np.ndarray]
    top_index: int | None  # 1-based slot holding the stack top, None if empty


def initial_state(paramset) -> NetworkState:
    d = paramset.hidden_size
    c = np.zeros(d) if paramset.architecture == ARCH_LSTM else None
    return NetworkState(h=np.zeros(d), c=c, t=0)


def step_rows(paramset, h: np.ndarray, c: np.ndarray | None, cols):
    """The one stepping kernel: each row of a (rows, d) state block consumes
    its own input column.

    The LSTM's product, input and bias sums and saturations run on its
    distinct gate units (paramset.packed), the saturations on a unit-major
    (units, rows) copy of the sums; one take through the packed inverse
    gathers them into the rows of a (4d, rows) block, so f, i, o, c~ and
    the cell update are contiguous (d, rows) blocks.  The LSTM's h,
    c and activations come back as transposed views of those blocks; c is
    read fastest when it is one too, as walk allocates it.  h and c may
    also be single (d,) vectors with one column.  c is None outside the
    LSTM.  Returns the new h and c and the step's activations: for the
    LSTM the saturated gates f, i, o and the candidate c~ side by side
    along the last axis, for the sigmoid RNNs the pre-activation.
    """
    num = paramset.numeric
    Wt, Ut, b = paramset.packed[:3]
    pre = h @ Wt
    pre += Ut[cols]
    pre += b
    if paramset.architecture != ARCH_LSTM:
        return sat_sigmoid(num, pre), None, pre
    sigmoids, inverse = paramset.packed[3:]
    pre = np.ascontiguousarray(pre.T)  # unit-major: (distinct units, rows)
    distinct = np.empty_like(pre)
    sat_sigmoid(num, pre[:sigmoids], out=distinct[:sigmoids])
    sat_tanh(num, pre[sigmoids:], out=distinct[sigmoids:])
    acts = distinct.take(inverse, axis=0)  # (4d, rows)
    d = paramset.hidden_size
    f, i, o, c_tilde = acts[:d], acts[d:2 * d], acts[2 * d:3 * d], acts[3 * d:]
    c_new = f * c.T
    h_new = i * c_tilde
    c_new += h_new
    np.tanh(c_new, out=h_new)
    h_new *= o
    return h_new.T, c_new.T, acts.T


def step(paramset, state: NetworkState, token: Token,
         want_trace: bool = False) -> tuple[NetworkState, StepTrace | None]:
    """Consume one token: the one-row case of step_rows.  End-of-string is
    never consumed; the run stops there."""
    col = input_column(token, paramset.k)  # raises on end-of-string
    if state.h.shape[0] != paramset.hidden_size:
        raise ValueError(
            f"state dimension {state.h.shape[0]} does not match parameter "
            f"set dimension {paramset.hidden_size}")
    h, c, acts = step_rows(paramset, state.h, state.c, col)
    trace = None
    if want_trace and c is None:
        trace = StepTrace(token, preactivation=acts)
    elif want_trace:
        f, i, o, c_tilde = np.split(acts, 4)
        trace = StepTrace(token, f=f, i=i, o=o, c_tilde=c_tilde)
    return NetworkState(h=h, c=c, t=state.t + 1), trace


def run_prefix(paramset, prefix,
               want_trace: bool = False) -> tuple[NetworkState, list[StepTrace]]:
    """Fold step over an end-free prefix from the zero state."""
    state = initial_state(paramset)
    traces = []
    for token in prefix:
        state, trace = step(paramset, state, token, want_trace)
        if want_trace:
            traces.append(trace)
    return state, traces


BLOCK_ROWS = 128

# OpenBLAS's C thread-count calls, under the names numpy's wheels (current
# and older) and a system OpenBLAS export them.
_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas_threads():
    """(get, set) of the thread count of the BLAS numpy calls, or None when
    that BLAS is not OpenBLAS (or its calls cannot be found)."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _OPENBLAS_SUFFIXES:
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def serial_blas():
    """Run numpy's BLAS on the calling thread inside the block, then restore
    its thread count.  The count is process-wide, so a thread that runs its
    own BLAS work meanwhile runs it serially too; with another BLAS than
    OpenBLAS this does nothing."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def walk(paramset, corpus):
    """Step every corpus string from the initial state, BLOCK_ROWS strings
    at a time: every consumed token once, for the closing metric and the
    distinctness suite (the corpus suites step each distinct edge of the
    product graph once, product.NetworkGraph.step).

    The corpus is a Corpus or a list of Token strings, which is encoded
    once (Corpus.of).  The strings are sorted by how many tokens they
    consume, those before the first end mark (Corpus.consumed), most first
    (a stable sort), and cut into blocks, so the rows of a block still
    being stepped are always a prefix of it.  For each
    block and each position t from 0 to its longest string's token count,
    yields (rows, codes, t, h, c, acts): rows the block's corpus indices in
    walk order; codes its (rows, width) matrix of symbol rows up to and
    including each string's first end mark, -1 past it; h and c the states
    after t tokens of the rows still live at t; acts the activations of the
    step into t (None at t = 0), as step_rows returns them.  The end mark
    is never consumed.
    """
    k, d = paramset.k, paramset.hidden_size
    corpus = Corpus.of(k, corpus)
    starts = corpus.offsets[:-1]
    consumed = corpus.consumed()
    lengths = np.minimum(consumed + 1, np.diff(corpus.offsets))  # with the end mark
    order = np.argsort(-consumed, kind="stable")
    for lo in range(0, order.size, BLOCK_ROWS):
        rows = order[lo:lo + BLOCK_ROWS]
        size = lengths[rows]
        col = np.arange(size.max() + 1)
        inside = col < size[:, None]
        codes = np.full(inside.shape, -1)
        codes[inside] = corpus.codes[(starts[rows, None] + col)[inside]]
        live_at = consumed[rows]
        # rows still consuming at t = 1, 2, ... (they come most first)
        lives = np.searchsorted(-live_at, -np.arange(1, live_at[0] + 1),
                                side="right").tolist()
        h = np.zeros((rows.size, d))
        c = np.zeros((d, rows.size)).T if paramset.architecture == ARCH_LSTM else None
        yield rows, codes, 0, h, c, None
        for t, live in enumerate(lives, start=1):
            h, c, acts = step_rows(paramset, h[:live],
                                   None if c is None else c[:live],
                                   codes[:live, t - 1])
            yield rows, codes, t, h, c, acts


def readout(paramset, h: np.ndarray) -> np.ndarray:
    """Probabilities over the 2k+1 symbols (opens 1..k, closes 1..k, end)
    for one (d,) hidden vector or for each row of a (rows, d) block."""
    return softmax(h @ paramset.V.T + paramset.b_v)


def next_distribution(paramset, state: NetworkState) -> np.ndarray:
    """Probabilities over the 2k+1 symbols: opens 1..k, closes 1..k, end."""
    return readout(paramset, state.h)


def _stack_vector(paramset, state: NetworkState) -> np.ndarray:
    """The m*w vector carrying the stack slots."""
    if paramset.architecture == ARCH_LSTM:
        return state.c
    half = paramset.hidden_size // 2
    return state.h[:half] + state.h[half:]


def slot_view(paramset, state: NetworkState) -> SlotView:
    """Slot decomposition of the stack-bearing vector.

    Slot order follows the architecture: the simple RNN keeps the stack top
    in slot 1, the LSTM keeps the stack bottom in slot 1.  top_index reports
    the slot holding the top (always 1 for a non-empty simple RNN stack; the
    last non-empty slot for the LSTM).
    """
    if paramset.architecture == ARCH_NAIVE:
        raise ValueError("the automaton network has no slot structure")
    w = paramset.encoding.width
    vec = _stack_vector(paramset, state)
    slots = [vec[j * w:(j + 1) * w].copy() for j in range(paramset.m)]
    occupied = [j for j, s in enumerate(slots) if np.abs(s).max(initial=0.0) > 1e-9]
    if not occupied:
        top = None
    elif paramset.architecture == ARCH_LSTM:
        top = occupied[-1] + 1
    else:
        top = 1
    return SlotView(slots=slots, top_index=top)


DECODE_TOL = 1e-9


def decode_stack(paramset, state: NetworkState,
                 tol: float = DECODE_TOL) -> DfaState:
    """Invert the slot codewords back to the automaton stack state.

    Raises StackDecodeError when any slot is outside codebook-or-zero, or the
    occupied slots are not contiguous in the architecture's layout.
    """
    if paramset.architecture == ARCH_NAIVE:
        return _decode_naive(paramset, state, tol)
    w = paramset.encoding.width
    vec = _stack_vector(paramset, state)
    decoded = []
    for j in range(paramset.m):
        slot = vec[j * w:(j + 1) * w]
        try:
            decoded.append(paramset.encoding.decode_slot(slot, tol))
        except ValueError as exc:
            raise StackDecodeError(f"slot {j + 1}: {exc}") from None
    filled = [d is not None for d in decoded]
    n = sum(filled)
    if filled[:n] != [True] * n or any(filled[n:]):
        raise StackDecodeError(
            f"occupied slots are not contiguous from slot 1: {decoded}")
    ordered = decoded[:n]
    if paramset.architecture == ARCH_SIMPLE:
        ordered = ordered[::-1]  # slot 1 is the top; automaton stacks are bottom-first
    return DfaState(STACK, tuple(ordered))


def _decode_naive(paramset, state: NetworkState, tol: float) -> DfaState:
    h = state.h
    if np.abs(h).max(initial=0.0) <= tol:
        return EMPTY
    on = np.flatnonzero(np.abs(h - 1.0) <= tol)
    off_ok = np.abs(np.delete(h, on)).max(initial=0.0) <= tol
    if on.size != 1 or not off_ok:
        raise StackDecodeError("hidden state is not one-hot over (state, token) units")
    return paramset.state_of_unit(int(on[0]))


def format_trace(paramset, prefix) -> str:
    """Line-oriented trace dump for debugging; format not stability-guaranteed."""
    state = initial_state(paramset)
    lines = []
    for token in prefix:
        state, trace = step(paramset, state, token, want_trace=True)
        parts = [f"t={state.t}", f"token={format_token(token)}"]
        if paramset.architecture != ARCH_NAIVE:
            view = slot_view(paramset, state)
            for j, slot in enumerate(view.slots, start=1):
                parts.append(f"slot{j}={np.array2string(slot, precision=4)}")
            parts.append(f"top={view.top_index}")
        if trace.f is not None:
            for name, vec in (("f", trace.f), ("i", trace.i), ("o", trace.o),
                              ("c~", trace.c_tilde)):
                parts.append(f"{name}={np.array2string(vec, precision=4)}")
        lines.append(" ".join(parts))
    return "\n".join(lines)
