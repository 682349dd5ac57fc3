"""The rejection sampler that `dyckrnn.sampler`'s tilted walk replaced, kept
as the oracle whose string frequencies the tilted walk must match.

It runs the untilted walk and keeps the first walk whose length falls inside
the window; rejection preserves the conditional distribution.  Uniforms are
consumed in the same order as by the tilted walk: one per free choice, one
per push for the bracket type.
"""

from __future__ import annotations

import numpy as np

from dyckrnn.automaton import vocabulary


def attempt(k: int, m: int, max_len: int, rand) -> list[int] | None:
    """One untilted walk; token codes (0..k-1 open, k..2k-1 close, 2k end),
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


def _uniforms(rng: np.random.Generator, size: int = 65536):
    while True:
        yield from rng.random(size).tolist()


def sample_strings(cfg, n_strings: int):
    """n_strings window members by rejection, seeded by cfg.seed."""
    k, m = cfg.params.k, cfg.params.m
    rand = _uniforms(np.random.default_rng(cfg.seed)).__next__
    vocab = vocabulary(k)
    strings = []
    while len(strings) < n_strings:
        codes = attempt(k, m, cfg.max_len, rand)
        if codes is not None and cfg.min_len <= len(codes):
            strings.append(tuple(vocab[code] for code in codes))
    return strings
