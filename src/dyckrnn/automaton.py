"""Bounded-depth bracket languages as a lazy DFA.

The language over k bracket types with nesting depth capped at m is decided
by an automaton whose states are stacks of at most m open-bracket indices,
plus an accept and an absorbing reject state.  States are materialized on
demand; the transition function is computed, never tabulated, so large
(k, m) stay usable.

A corpus of strings is one integer array of symbol rows cut by string
offsets (`Corpus`); its strings read as Token tuples on demand.  Where each
string leaves the language is one array scan (`Corpus.rejections`), which
every corpus refusal reads, and the automaton stack after every token is
one running maximum per slot (`Corpus.stacks`).

All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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


@functools.lru_cache(maxsize=64)
def vocabulary(k: int) -> tuple[Token, ...]:
    """All 2k+1 symbols in canonical order: opens 1..k, closes 1..k, end.
    Equal k share one tuple of Tokens."""
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


def parse_token(text: str) -> Token:
    """The token a text spells."""
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


class Corpus(Sequence):
    """Token strings over k bracket types as one array of symbol rows
    (opens 0..k-1, closes k..2k-1, end 2k) cut by string offsets: string i
    is codes[offsets[i]:offsets[i + 1]].

    Its items read as Token tuples, built when asked for from the shared
    vocabulary(k) Tokens, so a Corpus stands wherever a list of token
    strings does; the corpus walk, the corpus suites and the closing
    metrics read its arrays.  `Corpus.of` encodes a list of Token strings.
    """

    def __init__(self, k: int, codes, offsets):
        self.k = k
        self.codes = np.asarray(codes, dtype=np.intp)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self._match = None  # nesting()'s match array, found once
        self._kept: dict[tuple, np.ndarray] = {}  # the counts below, by call

    @classmethod
    def of(cls, k: int, strings) -> Corpus:
        """strings as a Corpus over k bracket types: the object itself when
        it already is one, otherwise each token encoded once.  A bracket
        index above k is refused."""
        if isinstance(strings, Corpus) and strings.k == k:
            return strings
        row_of = {token: row for row, token in enumerate(vocabulary(k))}
        codes, offsets = [], [0]
        for string in strings:
            for token in string:
                row = row_of.get(token)
                codes.append(symbol_row(token, k) if row is None else row)
            offsets.append(len(codes))
        return cls(k, codes, offsets)

    def __len__(self):
        return self.offsets.size - 1

    def __getitem__(self, index):
        i = range(len(self))[index]  # a range for a slice
        if isinstance(i, range):
            return Corpus.of(self.k, [self[j] for j in i])
        vocab = vocabulary(self.k)
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return tuple([vocab[code] for code in self.codes[lo:hi].tolist()])

    def __iter__(self):
        vocab, codes = vocabulary(self.k), self.codes.tolist()
        bounds = self.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield tuple([vocab[code] for code in codes[lo:hi]])

    def __eq__(self, other):
        if isinstance(other, Corpus) and other.k == self.k:
            return (np.array_equal(self.offsets, other.offsets)
                    and np.array_equal(self.codes, other.codes))
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == [tuple(string) for string in other]
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Corpus(k={self.k}, strings={len(self)}, tokens={self.codes.size})"

    def depths(self) -> np.ndarray:
        """Brackets open after each token, counted within its string; an
        end mark leaves the count, a close with nothing open makes it
        negative."""
        k, codes = self.k, self.codes
        step = (codes < k).astype(np.intp) - ((codes >= k) & (codes < 2 * k))
        depth = np.cumsum(step)
        before = np.concatenate([[0], depth])[self.offsets[:-1]]
        return depth - np.repeat(before, np.diff(self.offsets))

    def nesting(self) -> tuple[np.ndarray, np.ndarray]:
        """The depths, and per token the position in `codes` of the open
        bracket a close closes, -1 at opens and end marks and where a close
        finds nothing open or an open of another index.

        In a well-nested prefix the bracket a close at depth d closes is the
        last open before it that left d brackets open.  Past a close that
        matches nothing, its string's entries are not meaningful; the first
        such close of each string is found exactly.  The match array is
        found once per corpus and kept, read-only, in 32 bits when they
        hold every position; the depths are recounted at each call.
        """
        depth = self.depths()
        if self._match is None:
            self._match = self._matches(depth)
            self._match.flags.writeable = False
        return depth, self._match

    def _matches(self, depth: np.ndarray) -> np.ndarray:
        """nesting()'s match array, by one sort of the opens."""
        k, codes = self.k, self.codes
        match = np.full(codes.size, -1,
                        dtype=np.int32 if codes.size < 2**31 else np.intp)
        closes = np.flatnonzero((codes >= k) & (codes < 2 * k))
        opens = np.flatnonzero(codes < k)
        if not (closes.size and opens.size):
            return match
        width = codes.size + 1  # sort opens by (depth, position)
        keys = depth[opens] * width + opens
        order = np.argsort(keys)
        keys, opens = keys[order], opens[order]
        level = depth[closes] + 1  # depth before each close
        at = np.searchsorted(keys, level * width + closes) - 1
        cand = opens[np.maximum(at, 0)]
        # at depth d >= 1 an open of the close's own string left d open, so
        # the last such open is never in an earlier string
        ok = ((at >= 0) & (level >= 1) & (depth[cand] == level)
              & (codes[cand] == codes[closes] - k))
        match[closes[ok]] = cand[ok]
        return match

    def _once(self, name: str, *args) -> np.ndarray:
        """self.<name>(*args), counted once per corpus and kept read-only."""
        key = (name, *args)
        if key not in self._kept:
            counted = getattr(self, name)(*args)
            counted.flags.writeable = False
            self._kept[key] = counted
        return self._kept[key]

    def stacks(self, m: int) -> np.ndarray:
        """Per token, the automaton stack after it as a (tokens, m) array of
        bracket indices, bottom first, 0 above the top, in the smallest
        unsigned type that holds k: a row's depth is its nonzero count.
        Counted once per corpus and m, and kept read-only.

        Slot j holds the bracket of the last open that reached depth j + 1,
        found with one running maximum per slot, while more than j brackets
        are open.  The rows are the automaton's before a string's first end
        mark, while the string stays in the depth-m language (`rejections`).
        """
        return self._once("_stacks", m)

    def _stacks(self, m: int) -> np.ndarray:
        k, codes = self.k, self.codes
        depth = self.depths()
        place = np.arange(codes.size)
        stack = np.zeros((codes.size, m), dtype=np.min_scalar_type(k))
        opens = codes < k
        for j in range(m):
            last = np.where(opens & (depth == j + 1), place, -1)
            np.maximum.accumulate(last, out=last)
            filled = (depth > j) & (last >= 0)
            stack[filled, j] = codes[last[filled]] + 1
        return stack

    def edges(self, m: int) -> int:
        """The automaton edges the strings use, their distinct (stack, next
        token) pairs over the tokens they consume; counted once per corpus
        and m, with one bool per automaton edge.  The strings must stay in
        the depth-m language while they consume (`rejections`)."""
        return int(self._once("_edges", m))

    def _edges(self, m: int) -> np.ndarray:
        # A stack is numbered in bijective base k, its bracket indices bottom
        # first as the digits, so the numbers run below the automaton's stack
        # count; an open is told apart by the stack it leads to, a close by
        # the stack it leaves, never a string's first token.
        k, codes = self.k, self.codes
        stacks = self.stacks(m)
        number = np.zeros(codes.size, dtype=np.int64)
        for j in reversed(range(m)):
            number *= k
            number += stacks[:, j]
        nodes = sum(k**d for d in range(m + 1))
        lengths = np.diff(self.offsets)
        place = np.arange(codes.size) - np.repeat(self.offsets[:-1], lengths)
        consumed = place < np.repeat(self.consumed(), lengths)
        used = np.zeros(2 * nodes, dtype=bool)
        used[number[consumed & (codes < k)]] = True
        used[nodes + number[np.flatnonzero(consumed & (codes >= k)) - 1]] = True
        return np.array(np.count_nonzero(used))

    def _first(self, flags: np.ndarray) -> np.ndarray:
        """Per string, the place within it of its first flagged token, or
        its length when none is flagged."""
        at = np.flatnonzero(flags)
        owner, first = np.unique(
            np.searchsorted(self.offsets, at, side="right") - 1, return_index=True)
        places = np.diff(self.offsets)
        places[owner] = at[first] - self.offsets[owner]
        return places

    def consumed(self) -> np.ndarray:
        """Per string, the number of tokens before its first end mark;
        counted once per corpus, and kept read-only."""
        return self._once("_consumed")

    def _consumed(self) -> np.ndarray:
        return self._first(self.codes == 2 * self.k)

    def rejections(self, m: int) -> np.ndarray:
        """Per string, the place of the first token the depth-m automaton
        rejects, or the string's length when it rejects none: a close that
        matches nothing, an open past depth m, an end mark with brackets
        still open, or any token after an end mark.  Counted once per
        corpus and m, and kept read-only."""
        return self._once("_rejections", m)

    def _rejections(self, m: int) -> np.ndarray:
        k, codes = self.k, self.codes
        depth, match = self.nesting()
        end_at = self.offsets[:-1] + self.consumed()  # or the next string's start
        ended = np.arange(codes.size) > np.repeat(end_at, np.diff(self.offsets))
        return self._first(ended | np.where(
            codes < k, depth > m, np.where(codes < 2 * k, match < 0, depth != 0)))


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
