"""Bounded-depth bracket languages as a lazy DFA.

The language over k bracket types with nesting depth capped at m is decided
by an automaton whose states are stacks of at most m open-bracket indices,
plus an accept and an absorbing reject state.  States are materialized on
demand; the transition function is computed, never tabulated, so large
(k, m) stay usable.

All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

OPEN = "open"
CLOSE = "close"
END = "end"

STACK = "stack"
ACCEPT_KIND = "accept"
REJECT_KIND = "reject"


@dataclass(frozen=True)
class DyckParams:
    """Language parameters: k bracket types, depth bound m."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class Token:
    """One vocabulary item: an open/close bracket (1-based index) or end-of-string."""

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in (OPEN, CLOSE, END):
            raise ValueError(f"bad token kind {self.kind!r}")
        if self.kind == END:
            if self.index != 0:
                raise ValueError("end token carries no index")
        elif self.index < 1:
            raise ValueError(f"bracket index must be >= 1, got {self.index}")

    def __str__(self):
        return format_token(self)


END_TOKEN = Token(END)


def open_bracket(i: int) -> Token:
    return Token(OPEN, i)


def close_bracket(i: int) -> Token:
    return Token(CLOSE, i)


def vocabulary(k: int) -> tuple[Token, ...]:
    """All 2k+1 symbols in canonical order: opens 1..k, closes 1..k, end."""
    opens = tuple(Token(OPEN, i) for i in range(1, k + 1))
    closes = tuple(Token(CLOSE, i) for i in range(1, k + 1))
    return opens + closes + (END_TOKEN,)


def input_column(token: Token, k: int) -> int:
    """Column of the input embedding for a consumed token (end is never consumed)."""
    if token.index > k:
        raise ValueError(f"bracket index {token.index} is out of range for k={k}")
    if token.kind == OPEN:
        return token.index - 1
    if token.kind == CLOSE:
        return k + token.index - 1
    raise ValueError("end-of-string is never consumed as network input")


def symbol_row(token: Token, k: int) -> int:
    """Row of the readout/logit vector for a predicted token; end sits last."""
    if token.kind == END:
        return 2 * k
    return input_column(token, k)


# Textual token syntax, used by the CLI and corpus files: open bracket i is
# "(i", close bracket i is ")i", end-of-string is "$"; tokens are separated
# by whitespace.  Example: "(1 (2 )2 )1 $".

_TOKEN_RE = re.compile(r"^([()])([0-9]+)$")


def format_token(token: Token) -> str:
    if token.kind == OPEN:
        return f"({token.index}"
    if token.kind == CLOSE:
        return f"){token.index}"
    return "$"


def format_string(tokens) -> str:
    return " ".join(format_token(t) for t in tokens)


@functools.lru_cache(maxsize=1 << 16)
def parse_token(text: str) -> Token:
    """The token a text spells; equal texts share one Token instance."""
    if text == "$":
        return END_TOKEN
    match = _TOKEN_RE.match(text)
    if not match:
        raise ValueError(f"unparseable token {text!r}")
    kind = OPEN if match.group(1) == "(" else CLOSE
    index = int(match.group(2))
    if index < 1:
        raise ValueError(f"bracket index must be >= 1 in {text!r}")
    return Token(kind, index)


def parse_string(text: str) -> tuple[Token, ...]:
    """Parse a whitespace-separated token string; reports the failing position."""
    tokens = []
    for pos, chunk in enumerate(text.split(), start=1):
        try:
            tokens.append(parse_token(chunk))
        except ValueError as exc:
            raise ValueError(f"position {pos}: {exc}") from None
    for pos, tok in enumerate(tokens, start=1):
        if tok.kind == END and pos != len(tokens):
            raise ValueError(f"position {pos}: end token before end of string")
    return tuple(tokens)


@dataclass(frozen=True)
class DfaState:
    """A stack of open-bracket indices (bottom first), or accept, or reject."""

    kind: str
    stack: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in (STACK, ACCEPT_KIND, REJECT_KIND):
            raise ValueError(f"bad state kind {self.kind!r}")
        if self.kind != STACK and self.stack:
            raise ValueError("only stack states carry a stack")

    @property
    def is_stack(self) -> bool:
        return self.kind == STACK

    def __str__(self):
        if self.kind == ACCEPT_KIND:
            return "[$]"
        if self.kind == REJECT_KIND:
            return "reject"
        return "[" + " ".join(f"({i}" for i in self.stack) + "]"


EMPTY = DfaState(STACK)
ACCEPT = DfaState(ACCEPT_KIND)
REJECT = DfaState(REJECT_KIND)


def stack_state(*indices: int) -> DfaState:
    return DfaState(STACK, tuple(indices))


def transition(params: DyckParams, state: DfaState, token: Token) -> DfaState:
    """The transition function.  Total: every unlisted pair goes to reject."""
    if not state.is_stack:
        # Reject is absorbing; transitions out of accept are unlisted.
        return REJECT
    stack = state.stack
    if token.kind == OPEN:
        if token.index > params.k:
            return REJECT
        if len(stack) < params.m:
            return DfaState(STACK, stack + (token.index,))
        return REJECT
    if token.kind == CLOSE:
        if stack and stack[-1] == token.index:
            return DfaState(STACK, stack[:-1])
        return REJECT
    # end-of-string
    return ACCEPT if not stack else REJECT


def run(params: DyckParams, tokens) -> DfaState:
    """Fold the transition function over a token string from the empty stack."""
    state = EMPTY
    for token in tokens:
        state = transition(params, state, token)
    return state


def is_member(params: DyckParams, tokens) -> bool:
    return run(params, tokens) == ACCEPT


def depth(prefix) -> int:
    """Open count minus close count; may be negative for non-prefixes."""
    d = 0
    for token in prefix:
        if token.kind == OPEN:
            d += 1
        elif token.kind == CLOSE:
            d -= 1
        else:
            raise ValueError("depth is defined on end-free prefixes")
    return d


def allowed_tokens(params: DyckParams, state: DfaState) -> frozenset[Token]:
    """Tokens that do not lead to reject.  Undefined on the accept state."""
    if state == ACCEPT:
        raise ValueError("no distribution is defined after end-of-string")
    if state == REJECT:
        return frozenset()
    stack = state.stack
    allowed = set()
    if len(stack) < params.m:
        allowed.update(Token(OPEN, i) for i in range(1, params.k + 1))
    if stack:
        allowed.add(Token(CLOSE, stack[-1]))
    else:
        allowed.add(END_TOKEN)
    return frozenset(allowed)


def stack_state_count(params: DyckParams) -> int:
    """Number of stack states: sum over m' of k^m'."""
    return sum(params.k**i for i in range(params.m + 1))
