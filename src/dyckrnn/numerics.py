"""Finite-precision arithmetic contract: saturating nonlinearities and constants.

The scalar type is ordinary 64-bit floating point with exact clamping layered
on top: sigmoid and tanh return their bounding values exactly once the input
magnitude reaches the threshold beta.  Every correctness claim downstream is
an inequality or an at-saturation exactness claim, which the clamps make exact.
The clamped entries are written as 0, 1 or +-1 directly; the transcendental
runs only on the entries inside (-beta, beta), which the constructions leave
empty (bar exact zeros, which tanh keeps) at their default constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA = math.tanh(1.0)


def epsilon_for(k: int) -> float:
    """Support threshold separating allowed from disallowed tokens: 1/(2(k+1))."""
    return 1.0 / (2.0 * (k + 1))


def zeta_for(k: int) -> float:
    """Default readout scale.

    Must satisfy zeta * gamma > 2.4 so disallowed logits are crushed, and must
    additionally grow with k so that in a full-stack state (a single allowed
    symbol) every disallowed symbol stays below 1/(10k).  zeta*gamma =
    ln(10k) + 0.5 meets both with margin for all k >= 1, while staying small
    enough that the close-bracket logit cannot starve the open brackets of
    their epsilon share at small k.
    """
    return (math.log(10.0 * k) + 0.5) / GAMMA


@dataclass(frozen=True)
class NumericConfig:
    """Saturation threshold beta, recurrent scale lambda, readout scale zeta."""

    beta: float
    lam: float
    zeta: float

    def __post_init__(self):
        self.validate()

    @property
    def gamma(self) -> float:
        return GAMMA

    def validate(self):
        for name, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.lam > 2.0 * self.beta / GAMMA:
            raise ValueError(
                f"lambda must exceed 2*beta/gamma = {2.0 * self.beta / GAMMA:.6g}, "
                f"got {self.lam}"
            )
        if not self.zeta > 2.4 / GAMMA:
            raise ValueError(
                f"zeta must exceed 2.4/gamma = {2.4 / GAMMA:.6g}, got {self.zeta}"
            )

    @classmethod
    def for_language(cls, k: int, beta: float = 20.0, zeta: float | None = None,
                     lam: float | None = None) -> "NumericConfig":
        if lam is None:
            lam = 2.0 * beta / GAMMA + 1.0
        if zeta is None:
            zeta = zeta_for(k)
        return cls(beta=beta, lam=lam, zeta=zeta)

    def to_dict(self) -> dict:
        return {"beta": self.beta, "lambda": self.lam, "zeta": self.zeta}

    @classmethod
    def from_dict(cls, data: dict) -> "NumericConfig":
        return cls(beta=data["beta"], lam=data["lambda"], zeta=data["zeta"])


def _saturating(x, out):
    """(input array, output array, scalar?) of a saturating function; a
    scalar is worked on as one entry."""
    arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    return arr, np.empty_like(arr) if out is None else out, scalar


def sat_sigmoid(cfg: NumericConfig, x, out=None):
    """Logistic function, exactly 1 for x >= beta and exactly 0 for x <= -beta.

    Accepts scalars or arrays; applies elementwise.  The exponential runs
    only on entries strictly inside (-beta, beta) (and on NaN, which stays
    NaN), so a saturated block costs a few comparisons.  Writes into `out`
    when given (an array shaped like x), otherwise into a new array.
    """
    arr, out, scalar = _saturating(x, out)
    np.abs(arr, out=out)
    inside = out >= cfg.beta
    np.logical_not(inside, out=inside)  # NaN counts as inside
    np.greater_equal(arr, cfg.beta, out=out)
    if inside.any():
        v = np.negative(arr[inside])
        np.exp(v, out=v)
        v += 1.0
        np.divide(1.0, v, out=v)
        out[inside] = v
    return float(out[0]) if scalar else out


def sat_tanh(cfg: NumericConfig, x, out=None):
    """Hyperbolic tangent, exactly +-1 beyond the saturation threshold.

    Like sat_sigmoid, tanh runs only on entries inside (-beta, beta) that
    are not zero; a zero keeps its sign.
    """
    arr, out, scalar = _saturating(x, out)
    np.abs(arr, out=out)
    saturated = out >= cfg.beta
    inside = ~saturated  # NaN counts as inside
    inside &= arr != 0.0
    np.copysign(saturated, arr, out=out)  # +-1, or the signed zero
    if inside.any():
        out[inside] = np.tanh(arr[inside])
    return float(out[0]) if scalar else out


def softmax(logits) -> np.ndarray:
    """Normalized exponential along the last axis (each row of a 2-D block
    separately), with max-subtraction for stability."""
    arr = np.asarray(logits, dtype=float)
    if arr.size == 0:
        raise ValueError("softmax of an empty vector")
    out = arr - arr.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out
