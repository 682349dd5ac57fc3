"""Finite-precision arithmetic contract: saturating nonlinearities and constants.

The scalar type is ordinary 64-bit floating point with exact clamping layered
on top: sigmoid and tanh return their bounding values exactly once the input
magnitude reaches the threshold beta.  Every correctness claim downstream is
an inequality or an at-saturation exactness claim, which the clamps make exact.
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


def sat_sigmoid(cfg: NumericConfig, x):
    """Logistic function, exactly 1 for x >= beta and exactly 0 for x <= -beta.

    Accepts scalars or arrays; applies elementwise, in place in one output
    array.
    """
    arr = np.asarray(x, dtype=float)
    out = np.clip(arr, -cfg.beta, cfg.beta, out=np.empty_like(arr))
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    out[arr >= cfg.beta] = 1.0
    out[arr <= -cfg.beta] = 0.0
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def sat_tanh(cfg: NumericConfig, x):
    """Hyperbolic tangent, exactly +-1 beyond the saturation threshold."""
    arr = np.asarray(x, dtype=float)
    out = np.clip(arr, -cfg.beta, cfg.beta, out=np.empty_like(arr))
    np.tanh(out, out=out)
    out[arr >= cfg.beta] = 1.0
    out[arr <= -cfg.beta] = -1.0
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def softmax(logits) -> np.ndarray:
    """Normalized exponential along the last axis (each row of a 2-D block
    separately), with max-subtraction for stability."""
    arr = np.asarray(logits, dtype=float)
    if arr.size == 0:
        raise ValueError("softmax of an empty vector")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)
