"""Step-by-step execution of built networks under saturating arithmetic.

Stepping is functional: each step returns a fresh state, so parameter sets
and states can be shared across threads without coordination.  Traces (gate
vectors, pre-activations) are recorded only on request; the enumeration
suites step millions of prefixes and skip them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import (DfaState, EMPTY, STACK, Token, format_token,
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


def step(paramset, state: NetworkState, token: Token,
         want_trace: bool = False) -> tuple[NetworkState, StepTrace | None]:
    """Consume one token.  End-of-string is never consumed; the run stops there."""
    col = input_column(token, paramset.k)  # raises on end-of-string
    if state.h.shape[0] != paramset.hidden_size:
        raise ValueError(
            f"state dimension {state.h.shape[0]} does not match parameter "
            f"set dimension {paramset.hidden_size}")
    num = paramset.numeric
    if paramset.architecture == ARCH_LSTM:
        h, c = state.h, state.c
        f = sat_sigmoid(num, paramset.W_f @ h + paramset.U_f[:, col] + paramset.b_f)
        i = sat_sigmoid(num, paramset.W_i @ h + paramset.U_i[:, col] + paramset.b_i)
        o = sat_sigmoid(num, paramset.W_o @ h + paramset.U_o[:, col] + paramset.b_o)
        c_tilde = sat_tanh(num, paramset.W_c @ h + paramset.U_c[:, col] + paramset.b_c)
        c_new = f * c + i * c_tilde
        h_new = o * np.tanh(c_new)
        trace = StepTrace(token, f=f, i=i, o=o, c_tilde=c_tilde) if want_trace else None
        return NetworkState(h=h_new, c=c_new, t=state.t + 1), trace
    # simple RNN and the naive automaton network share the update form
    pre = paramset.W @ state.h + paramset.U[:, col] + paramset.b
    h_new = sat_sigmoid(num, pre)
    trace = StepTrace(token, preactivation=pre) if want_trace else None
    return NetworkState(h=h_new, c=None, t=state.t + 1), trace


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


def logits(paramset, state: NetworkState) -> np.ndarray:
    return paramset.V @ state.h + paramset.b_v


def next_distribution(paramset, state: NetworkState) -> np.ndarray:
    """Probabilities over the 2k+1 symbols: opens 1..k, closes 1..k, end."""
    return softmax(logits(paramset, state))


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


def decode_stack(paramset, state: NetworkState, tol: float = 1e-9) -> DfaState:
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
