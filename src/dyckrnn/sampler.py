"""Seeded sampling from the reference distribution over the bracket language.

The reference process walks the automaton stack: at the empty stack it
chooses uniformly between ending and pushing; below the depth bound it
chooses uniformly between pushing and popping; at the bound it must pop.
A push draws the bracket type uniformly.

A corpus comes from that process conditioned on a length window.  The walk
is a Markov chain on (tokens emitted, depth) and bracket types are
independent of it, so the conditioned process is the same walk with every
free choice tilted: each option's weight 1/2 is multiplied by the
probability that the untilted walk, from the state the option leads to,
ends with a length inside the window.  One backward pass per window
computes those probabilities (`_tilt`), so every walk ends inside the
window, and a window that holds no string is refused before any draw.

Randomness comes from numpy's default PCG64 generator; the corpus header
records the algorithm name and the corpus schema (2: tilted walks; schema 1
corpora came from a rejection sampler and hold other strings for the same
seed).  Consumption order: one uniform per free choice (none when the
stack is full), then one uniform per push for the bracket type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .automaton import (DyckParams, Token, format_string, parse_string,
                        vocabulary)

PRNG_NAME = "numpy-pcg64"
CORPUS_SCHEMA = 2

# Length caps used in the reference experiments, by depth bound; windows for
# other m fall back to 60*m, a plain default.
_DEFAULT_MAX_LEN = {3: 84, 5: 180}


def default_max_len(m: int) -> int:
    return _DEFAULT_MAX_LEN.get(m, 60 * m)


@dataclass(frozen=True)
class SamplerConfig:
    """Language, seed, and length window (token counts including the end mark)."""

    params: DyckParams
    seed: int
    min_len: int = 1
    max_len: int | None = None

    def __post_init__(self):
        if self.max_len is None:
            object.__setattr__(self, "max_len", default_max_len(self.params.m))
        if self.min_len < 1:
            raise ValueError("min_len must be >= 1")
        if self.min_len > self.max_len:
            raise ValueError(f"min_len {self.min_len} > max_len {self.max_len}")


@dataclass(frozen=True)
class _Tilt:
    """The tilted walk's probability of the first option of each free choice
    (end at depth 0, push below the bound): one row per distance to a window
    edge, one entry per depth.

    With t tokens emitted, `before[j - 1]` is the row while j = min_len-1-t
    more must come before the end may, and `inside[h - 1]` the row once it
    may, with h = max_len - t tokens left.  The backward pass stops where
    its vectors stop changing in double precision (a fixed point inside,
    a 2-cycle before, as depth parity alternates), so the rows past the
    last repeat and their number does not grow with the window's edges.
    `log_mass` is the natural log of the probability that the untilted walk
    ends inside the window.
    """

    min_len: int
    inside: tuple[tuple[float, ...], ...]
    before: tuple[tuple[float, ...], ...]
    log_mass: float


@lru_cache(maxsize=16)
def _tilt(m: int, min_len: int, max_len: int) -> _Tilt:
    def first_option(mass, can_end):
        # mass[d]: probability, up to a common factor, that the walk from
        # depth d after the choice ends inside the window
        first, other = np.empty(m), np.empty(m)
        first[0], other[0] = can_end, mass[1]
        first[1:], other[1:] = mass[2:], mass[:m - 1]
        total = first + other
        return tuple(np.divide(first, total, out=np.zeros(m),
                               where=total > 0).tolist())

    def back(mass, can_end):
        # the same probabilities one token earlier
        prev = np.empty(m + 1)
        prev[0] = 0.5 * (can_end + mass[1])
        prev[1:m] = 0.5 * (mass[2:] + mass[:m - 1])
        prev[m] = mass[m - 1]
        return prev

    mass = np.zeros(m + 1)  # nothing follows the max_len-th token
    inside = []
    for _ in range(max_len - min_len + 1):
        inside.append(first_option(mass, 1.0))
        prev = back(mass, 1.0)
        if np.array_equal(prev, mass):
            break
        mass = prev
    # before the end may come, the vectors are scaled to a maximum of 1
    # and their log scales summed, so no window reads as empty by underflow
    top = mass.max()  # at least 1/2: ending at once is inside the window
    mass = mass / top
    log_scale = [math.log(top)]
    before = []
    two_back = one_back = None
    while len(before) < min_len - 1:
        before.append(first_option(mass, 0.0))
        prev = back(mass, 0.0)
        top = prev.max()
        two_back, one_back, mass = one_back, mass, prev / top
        log_scale.append(math.log(top))
        if two_back is not None and np.array_equal(mass, two_back):
            break
    left = min_len - 1 - len(before)  # steps past the 2-cycle, which repeat it
    if left:
        log_scale.append((left + 1) // 2 * log_scale[-2] + left // 2 * log_scale[-1])
        mass = one_back if left % 2 else mass
    log_mass = math.fsum(log_scale) + math.log(mass[0]) if mass[0] > 0 else -math.inf
    return _Tilt(min_len, tuple(inside), tuple(before), log_mass)


def window_log_mass(cfg: SamplerConfig) -> float:
    """Natural log of the probability that the unconditioned walk ends with
    a length inside the window; -inf when the window holds no string."""
    return _tilt(cfg.params.m, cfg.min_len, cfg.max_len).log_mass


class _UniformBuffer:
    """Buffered uniforms; one generator call per 64k draws keeps the walk fast.
    Walks drawing from here read their window's table as `tilt`."""

    def __init__(self, rng: np.random.Generator, tilt: _Tilt, size: int = 65536):
        self.tilt = tilt
        self._rng = rng
        self._size = size
        self._buf = rng.random(size)
        self._pos = 0

    def __call__(self) -> float:
        pos = self._pos
        if pos == self._size:
            self._buf = self._rng.random(self._size)
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]


def _attempt(k: int, m: int, max_len: int, rand: _UniformBuffer) -> list[int]:
    """One walk, tilted by `rand.tilt` so that it ends inside the window;
    returns token codes (0..k-1 open i+1, k..2k-1 close, 2k end)."""
    tilt = rand.tilt
    need = tilt.min_len - 1
    before, n_before = tilt.before, len(tilt.before)
    inside, n_inside, far = tilt.inside, len(tilt.inside), tilt.inside[-1]
    stack: list[int] = []
    out: list[int] = []
    end_code = 2 * k
    while True:
        d = len(stack)
        if d == m:
            out.append(k + stack.pop())
            continue
        t = len(out)
        if t < need:
            j = need - t
            row = (before[j - 1] if j <= n_before
                   else before[n_before - 1 - ((j - n_before) & 1)])
        else:
            h = max_len - t
            row = inside[h - 1] if h <= n_inside else far
        if d == 0:
            if rand() < row[0]:
                out.append(end_code)
                return out
        elif rand() >= row[d]:
            out.append(k + stack.pop())
            continue
        i = min(int(rand() * k), k - 1)
        stack.append(i)
        out.append(i)


def _sample_codes(cfg: SamplerConfig, rand: _UniformBuffer) -> list[int]:
    return _attempt(cfg.params.k, cfg.params.m, cfg.max_len, rand)


def _accepted(cfg: SamplerConfig, rng: np.random.Generator | None = None):
    """Window-conditioned member strings, each drawn only when asked for."""
    p = cfg.params
    tilt = _tilt(p.m, cfg.min_len, cfg.max_len)
    if tilt.log_mass == -math.inf:  # refused before any draw
        raise RuntimeError(f"no string of the k={p.k}, m={p.m} language has a "
                           f"length in [{cfg.min_len}, {cfg.max_len}]")
    rand = _UniformBuffer(np.random.default_rng(cfg.seed) if rng is None else rng,
                          tilt)
    # codes are vocabulary rows, so strings share the 2k+1 vocabulary tokens;
    # a tuple built from a list is allocated at its final size
    vocab = vocabulary(p.k)
    while True:
        yield tuple([vocab[code] for code in _sample_codes(cfg, rand)])


def sample_string(cfg: SamplerConfig,
                  rng: np.random.Generator | None = None) -> tuple[Token, ...]:
    """One member string with length inside the window.  Deterministic per seed."""
    return next(_accepted(cfg, rng))


def sample_corpus(cfg: SamplerConfig, n_tokens: int) -> list[tuple[Token, ...]]:
    """Strings until the cumulative token count reaches n_tokens."""
    if n_tokens < 1:
        raise ValueError("n_tokens must be >= 1")
    corpus, total = [], 0
    for string in _accepted(cfg):
        corpus.append(string)
        total += len(string)
        if total >= n_tokens:
            return corpus


def sample_strings(cfg: SamplerConfig, n_strings: int) -> list[tuple[Token, ...]]:
    """Exactly n_strings member strings."""
    if n_strings < 1:
        raise ValueError("n_strings must be >= 1")
    strings = _accepted(cfg)
    return [next(strings) for _ in range(n_strings)]


def corpus_statistics(params: DyckParams, corpus) -> dict:
    """Corpus totals plus the mean observed empty-to-full hitting time.

    The hitting time of one occurrence is the number of tokens from an
    empty-stack point to the first later point where the stack is full;
    occurrences that end before reaching full depth are not observed.  The
    mean is reported rather than asserted against any bound.
    """
    n_tokens = 0
    hit_total = 0
    hit_count = 0
    for string in corpus:
        n_tokens += len(string)
        depths = [0]
        for token in string:
            if token.kind == "open":
                depths.append(depths[-1] + 1)
            elif token.kind == "close":
                depths.append(depths[-1] - 1)
        next_full = [None] * (len(depths) + 1)
        for t in range(len(depths) - 1, -1, -1):
            next_full[t] = t if depths[t] == params.m else next_full[t + 1]
        for t, d in enumerate(depths):
            if d == 0 and next_full[t] is not None:
                hit_total += next_full[t] - t
                hit_count += 1
    return {
        "strings": len(corpus),
        "tokens": n_tokens,
        "mean_len": n_tokens / len(corpus) if corpus else float("nan"),
        "mean_hitting_time": hit_total / hit_count if hit_count else None,
        "hitting_observations": hit_count,
    }


def corpus_header(cfg: SamplerConfig) -> str:
    p = cfg.params
    return (f"# dyckrnn-corpus schema={CORPUS_SCHEMA} k={p.k} m={p.m} "
            f"seed={cfg.seed} min_len={cfg.min_len} max_len={cfg.max_len} "
            f"prng={PRNG_NAME}")


def format_corpus(cfg: SamplerConfig, corpus) -> str:
    lines = [corpus_header(cfg)]
    lines.extend(format_string(s) for s in corpus)
    return "\n".join(lines) + "\n"


def parse_corpus(text: str) -> tuple[dict, list[tuple[Token, ...]]]:
    """Header fields and strings of a corpus file."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# dyckrnn-corpus"):
        raise ValueError("missing corpus header line")
    header = {}
    for part in lines[0].split()[2:]:
        key, _, value = part.partition("=")
        header[key] = value if key == "prng" else int(value)
    if "k" not in header or "m" not in header:
        raise ValueError("corpus header lacks the k= or m= field")
    strings = [parse_string(line) for line in lines[1:] if line.strip()]
    return header, strings
