"""Closed-form inner maximizations for linear multipliers.

With linear multipliers only first weight moments enter, so the layer
problem decomposes into independent scalar problems

    max_{z in [l, u]}  a * s(z) - b * z

whose maximum sits at an interval end point or, for relu, at the kink.
These solves are exact for deterministic and stochastic layers alike,
and the envelope gradient at the witness x is -x for lam_k and the mean
successor input E[W s(x) + b] for lam_next.
"""

from __future__ import annotations

import numpy as np

from ..bounds import Interval
from ..model import CanonicalLayer
from ..multipliers import Multiplier, linear_coeffs
from .result import EXACT, InnerResult


def activation_candidates(lo, hi, activation: str) -> list[tuple]:
    """Candidate maximizers of a * s(z) - b * z over [lo, hi], smallest z first.

    Each is (z, s(z), inside): the end points always count (inside is
    True), and the relu kink at zero counts where lo < 0 < hi.
    """
    if activation == "relu":
        return [
            (lo, np.maximum(lo, 0.0), True),
            (0.0, 0.0, (lo < 0.0) & (0.0 < hi)),
            (hi, np.maximum(hi, 0.0), True),
        ]
    if activation == "identity":
        return [(lo, lo, True), (hi, hi, True)]
    raise ValueError(f"unknown activation {activation!r}")


def activation_linear_max(a, b, lo, hi, activation: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-coordinate max of a * s(z) - b * z over [lo, hi]: (values, witness).

    Ties go to the first candidate, the smallest z.  The arguments
    broadcast, so a stack of b rows solves one box for several b at once.
    """
    (best_z, s, _), *rest = activation_candidates(lo, hi, activation)
    best_v = a * s - b * best_z
    for z, s, inside in rest:
        v = a * s - b * z
        if inside is not True:
            v = np.where(inside, v, -np.inf)
        better = v > best_v
        best_v = np.where(better, v, best_v)
        best_z = np.where(better, z, best_z)
    return best_v, best_z


def mean_output(layer: CanonicalLayer, x: np.ndarray) -> np.ndarray:
    """E[W s(x) + b]: the layer output at x under the mean weights."""
    return layer.weights.mean @ layer.apply_activation(x) + layer.bias.mean


def inner_linear(
    layer: CanonicalLayer,
    lam_k: Multiplier,
    lam_next: Multiplier,
    box: Interval,
) -> InnerResult:
    """Exact solve of max_x E[lam_next(W s(x) + b)] - lam_k(x) over the box."""
    theta_k = linear_coeffs(lam_k)
    theta_next = linear_coeffs(lam_next)
    a = layer.weights.mean.T @ theta_next
    values, witness = activation_linear_max(a, theta_k, box.lo, box.hi, layer.activation)
    total = float(theta_next @ layer.bias.mean)
    for v in values.tolist():
        total += v
    grads = ({"theta": -witness}, {"theta": mean_output(layer, witness)})
    return InnerResult(value=total, mode=EXACT, witness=witness, grads=grads)


def final_linear(c, lam_k: Multiplier, box: Interval) -> InnerResult:
    """Exact box maximum of (c - theta_K) . x for a linear objective."""
    c = np.asarray(c, dtype=float)
    d = c - linear_coeffs(lam_k)
    at_lo = d * box.lo
    at_hi = d * box.hi
    witness = np.where(at_hi > at_lo, box.hi, box.lo)
    value = float(np.maximum(at_lo, at_hi).sum())
    return InnerResult(value=value, mode=EXACT, witness=witness, grads=({"theta": -witness}, None))
