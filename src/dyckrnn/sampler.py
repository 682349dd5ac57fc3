"""Seeded sampling from the reference distribution over the bracket language.

The generating process walks the automaton stack: at the empty stack it
chooses uniformly between pushing and ending; below the depth bound it
chooses uniformly between pushing and popping; at the bound it must pop.
A push draws the bracket type uniformly.  Length windows are enforced by
rejection, which preserves the conditional distribution inside the window.

Randomness comes from numpy's default PCG64 generator; the corpus header
records the algorithm name so corpora are reproducible across
implementations of the same generator.  Consumption order: one uniform per
free action choice (none when the stack is full), then one uniform per push
for the bracket type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import (DyckParams, Token, format_string, parse_string,
                        vocabulary)

PRNG_NAME = "numpy-pcg64"
CORPUS_SCHEMA = 1

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
    max_retries: int = 1_000_000

    def __post_init__(self):
        if self.max_len is None:
            object.__setattr__(self, "max_len", default_max_len(self.params.m))
        if self.min_len < 1:
            raise ValueError("min_len must be >= 1")
        if self.min_len > self.max_len:
            raise ValueError(f"min_len {self.min_len} > max_len {self.max_len}")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


class _UniformBuffer:
    """Buffered uniforms; one generator call per 64k draws keeps the walk fast."""

    def __init__(self, rng: np.random.Generator, size: int = 65536):
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


def _attempt(k: int, m: int, max_len: int, rand: _UniformBuffer) -> list[int] | None:
    """One walk; returns token codes (0..k-1 open i+1, k..2k-1 close, 2k end)
    or None once the walk exceeds max_len."""
    stack: list[int] = []
    out: list[int] = []
    end_code = 2 * k
    while True:
        if len(out) >= max_len:
            return None
        d = len(stack)
        if d == m:
            out.append(k + stack.pop())
        elif d == 0:
            if rand() < 0.5:
                out.append(end_code)
                return out
            i = min(int(rand() * k), k - 1)
            stack.append(i)
            out.append(i)
        else:
            if rand() < 0.5:
                i = min(int(rand() * k), k - 1)
                stack.append(i)
                out.append(i)
            else:
                out.append(k + stack.pop())


def _sample_codes(cfg: SamplerConfig, rand: _UniformBuffer) -> list[int]:
    k, m = cfg.params.k, cfg.params.m
    for _ in range(cfg.max_retries):
        codes = _attempt(k, m, cfg.max_len, rand)
        if codes is not None and cfg.min_len <= len(codes):
            return codes
    raise RuntimeError(
        f"no sample of length in [{cfg.min_len}, {cfg.max_len}] found in "
        f"{cfg.max_retries} attempts (k={k}, m={m}); widen the window or "
        f"raise max_retries")


def _accepted(cfg: SamplerConfig, rng: np.random.Generator | None = None):
    """Window-accepted member strings, each drawn only when asked for."""
    rand = _UniformBuffer(np.random.default_rng(cfg.seed) if rng is None else rng)
    # codes are vocabulary rows, so strings share the 2k+1 vocabulary tokens;
    # a tuple built from a list is allocated at its final size
    vocab = vocabulary(cfg.params.k)
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
