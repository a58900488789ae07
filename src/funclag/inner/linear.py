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


def activation_linear_max(a, b, candidates: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-coordinate max of a * s(z) - b * z over a box: (values, witness).

    ``candidates`` are the box's ``activation_candidates``.  Ties go to the
    first candidate, the smallest z.  The arguments broadcast, so a stack
    of b rows solves one box for several b at once.
    """
    (best_z, s, _), *rest = candidates
    best_v = a * s - b * best_z
    for z, s, inside in rest:
        v = a * s - b * z
        if inside is not True:
            v = np.where(inside, v, -np.inf)
        better = v > best_v
        best_v = np.where(better, v, best_v)
        best_z = np.where(better, z, best_z)
    return best_v, best_z


def matvec_rows(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w @ x_i for each row x_i: numpy's stacked matmul runs one matrix-vector product
    per row, so each row gets the bits of its product alone."""
    return np.matmul(w, x[..., np.newaxis])[..., 0]


def mean_output(layer: CanonicalLayer, x: np.ndarray) -> np.ndarray:
    """E[W s(x) + b] at each row of x: the layer output under the mean weights."""
    return matvec_rows(layer.weights.mean, layer.apply_activation(x)) + layer.bias.mean


def inner_linear(
    layer: CanonicalLayer,
    lam_k: Multiplier,
    lam_next: Multiplier,
    box: Interval,
) -> InnerResult:
    """Exact solve of max_x E[lam_next(W s(x) + b)] - lam_k(x) over the box, per row."""
    theta_k = linear_coeffs(lam_k)
    theta_next = linear_coeffs(lam_next)
    a, b = matvec_rows(layer.weights.mean.T, theta_next), layer.bias.mean
    candidates = activation_candidates(box.lo, box.hi, layer.activation)
    values, witness = activation_linear_max(a, theta_k, candidates)
    totals = []
    for theta, row in zip(theta_next, values.tolist()):
        total = float(theta @ b)
        for v in row:
            total += v
        totals.append(total)
    grads = ({"theta": -witness}, {"theta": mean_output(layer, witness)})
    return InnerResult(value=totals, mode=EXACT, witness=witness, grads=grads)


def final_linear(c, lam_k: Multiplier, box: Interval) -> InnerResult:
    """Exact box maximum of (c - theta_K) . x for a linear objective, per row of c and theta."""
    d = np.asarray(c, dtype=float) - linear_coeffs(lam_k)
    at_lo = d * box.lo
    at_hi = d * box.hi
    witness = np.where(at_hi > at_lo, box.hi, box.lo)
    value = np.maximum(at_lo, at_hi).sum(axis=-1)
    return InnerResult(value=value, mode=EXACT, witness=witness, grads=({"theta": -witness}, None))
