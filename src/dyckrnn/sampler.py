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
from functools import lru_cache, partial
from itertools import chain, repeat

import numpy as np

from .automaton import (Corpus, DyckParams, Token, format_token, parse_string,
                        symbol_row, vocabulary)

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def _uniforms(rng: np.random.Generator, tilt: _Tilt) -> partial:
    """rng's uniforms, one per call, drawn 4,096 at a time as Python floats
    (the stream does not depend on the batch size).  Walks drawing from
    here read their window's table as `tilt`."""
    draws = chain.from_iterable(map(lambda n: rng.random(n).tolist(), repeat(4096)))
    rand = partial(next, draws)
    rand.tilt = tilt
    return rand


def _attempt(k: int, m: int, max_len: int, rand: partial) -> list[int]:
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


def _sample_codes(cfg: SamplerConfig, rand: partial) -> list[int]:
    return _attempt(cfg.params.k, cfg.params.m, cfg.max_len, rand)


def _accepted(cfg: SamplerConfig, rng: np.random.Generator | None = None):
    """Window-conditioned member strings as symbol-row codes, each drawn
    only when asked for."""
    p = cfg.params
    tilt = _tilt(p.m, cfg.min_len, cfg.max_len)
    if tilt.log_mass == -math.inf:  # refused before any draw
        raise RuntimeError(f"no string of the k={p.k}, m={p.m} language has a "
                           f"length in [{cfg.min_len}, {cfg.max_len}]")
    rand = _uniforms(np.random.default_rng(cfg.seed) if rng is None else rng,
                     tilt)
    while True:
        yield _sample_codes(cfg, rand)


def _corpus(cfg: SamplerConfig, strings) -> Corpus:
    codes, offsets = [], [0]
    for string in strings:
        codes.extend(string)
        offsets.append(len(codes))
    return Corpus(cfg.params.k, codes, offsets)


def sample_string(cfg: SamplerConfig,
                  rng: np.random.Generator | None = None) -> tuple[Token, ...]:
    """One member string with length inside the window.  Deterministic per
    seed; a generator passed as rng is advanced in batches of 4,096 draws."""
    vocab = vocabulary(cfg.params.k)
    return tuple([vocab[code] for code in next(_accepted(cfg, rng))])


def sample_corpus(cfg: SamplerConfig, n_tokens: int) -> Corpus:
    """Strings until the cumulative token count reaches n_tokens."""
    if n_tokens < 1:
        raise ValueError("n_tokens must be >= 1")

    def until_reached():
        total = 0
        for string in _accepted(cfg):
            yield string
            total += len(string)
            if total >= n_tokens:
                return

    return _corpus(cfg, until_reached())


def sample_strings(cfg: SamplerConfig, n_strings: int) -> Corpus:
    """Exactly n_strings member strings."""
    if n_strings < 1:
        raise ValueError("n_strings must be >= 1")
    strings = _accepted(cfg)
    return _corpus(cfg, (next(strings) for _ in range(n_strings)))


def corpus_statistics(params: DyckParams, corpus) -> dict:
    """Corpus totals plus the mean observed empty-to-full hitting time.

    The hitting time of one occurrence is the number of tokens from an
    empty-stack point to the first later point where the stack is full;
    occurrences that end before reaching full depth are not observed.  The
    mean is reported rather than asserted against any bound.  Points are
    counted on brackets only: the start of each string, then after each
    bracket.
    """
    corpus = Corpus.of(params.k, corpus)
    n_strings, n_tokens = len(corpus), corpus.codes.size
    brackets = np.flatnonzero(corpus.codes < 2 * params.k)
    owner = np.searchsorted(corpus.offsets, brackets, side="right") - 1
    # one point per string start, then one per bracket, string by string
    points = np.bincount(owner, minlength=n_strings) + 1
    first = np.concatenate([[0], np.cumsum(points)])
    depth = np.zeros(first[-1], dtype=np.intp)
    depth[np.arange(brackets.size) + owner + 1] = corpus.depths()[brackets]
    full = np.where(depth == params.m, np.arange(depth.size), depth.size)
    next_full = np.minimum.accumulate(full[::-1])[::-1]
    point_end = np.repeat(first[1:], points)
    hits = np.flatnonzero((depth == 0) & (next_full < point_end))
    hit_total = int((next_full[hits] - hits).sum())
    hit_count = hits.size
    return {
        "strings": n_strings,
        "tokens": n_tokens,
        "mean_len": n_tokens / n_strings if n_strings else float("nan"),
        "mean_hitting_time": hit_total / hit_count if hit_count else None,
        "hitting_observations": hit_count,
    }


def corpus_header(cfg: SamplerConfig) -> str:
    p = cfg.params
    return (f"# dyckrnn-corpus schema={CORPUS_SCHEMA} k={p.k} m={p.m} "
            f"seed={cfg.seed} min_len={cfg.min_len} max_len={cfg.max_len} "
            f"prng={PRNG_NAME}")


def format_corpus(cfg: SamplerConfig, corpus) -> str:
    corpus = Corpus.of(cfg.params.k, corpus)
    texts = [format_token(token) for token in vocabulary(cfg.params.k)]
    words = [texts[code] for code in corpus.codes.tolist()]
    bounds = corpus.offsets.tolist()
    lines = [corpus_header(cfg)]
    lines.extend(" ".join(words[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return "\n".join(lines) + "\n"


def parse_corpus_header(text: str) -> dict:
    """Header fields of a corpus file, read from its first line alone, so a
    caller can check them before the strings are built."""
    first = text.partition("\n")[0].splitlines()[:1]
    if not first or not first[0].startswith("# dyckrnn-corpus"):
        raise ValueError("missing corpus header line")
    header = {}
    for part in first[0].split()[2:]:
        key, _, value = part.partition("=")
        try:
            header[key] = value if key == "prng" else int(value)
        except ValueError:
            raise ValueError(f"corpus header field {part} is not an integer") from None
    if "k" not in header or "m" not in header:
        raise ValueError("corpus header lacks the k= or m= field")
    return header


def parse_corpus(text: str) -> tuple[dict, Corpus]:
    """Header fields and strings of a corpus file, the strings as a Corpus
    over the header's k.  A line that does not parse, or holds a bracket
    index above k, is refused with its line number."""
    header = parse_corpus_header(text)
    k = header["k"]
    row_of = {format_token(token): row for row, token in enumerate(vocabulary(k))}
    codes, offsets = [], [0]
    for number, line in enumerate(text.splitlines()[1:], start=2):
        words = line.split()
        if not words:
            continue
        rows = [row_of.get(word) for word in words]
        if None in rows or 2 * k in rows[:-1]:  # parse_string names the fault
            try:
                rows = [symbol_row(token, k) for token in parse_string(line)]
            except ValueError as exc:
                raise ValueError(f"corpus line {number}: {exc}") from None
        codes.extend(rows)
        offsets.append(len(codes))
    return header, Corpus(k, codes, offsets)
