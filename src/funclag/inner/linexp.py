"""Inner solves involving a linexp multiplier lam(x) = a.x + exp(g.x + kappa).

The input-layer problem maximizes E[lam_1(W(mu + noise) + b)] over every
zero-mean noise distribution with i.i.d. coordinates that is sub-Gaussian
with parameter sigma.  The linear part sees only the noise mean (zero),
and the exponential part is capped by the sub-Gaussian mgf bound, giving

    a.(W mu + b) + exp(0.5 sigma^2 |W'g|^2 + g.(W mu + b) + kappa).

The exponent keeps the g.(W mu) term that the mgf factorization produces.

The transition problem max_x b2'.(W2 s(x) + c2) - lam_1(x) is bounded by
dualizing the epigraph of the exponential with a scalar zeta >= 0, which
contributes zeta*(log(zeta) - 1 - kappa) with value 0 at zeta = 0.  For
fixed zeta the remaining box maximization separates per coordinate and
has a closed form, so every zeta gives a valid upper bound.  That bound
is convex and piecewise smooth in zeta with at most 3n kinks, so its
minimum has a closed form too: the best of the kinks and of one
stationary point per piece.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..bounds import Interval
from ..model import CanonicalLayer, is_deterministic, weight_mean
from ..multipliers import LinExp, Multiplier, linear_coeffs
from .linear import activation_candidates, activation_linear_max
from .result import UPPER_BOUND, InnerResult

_ZETA_LOG_CAP = 45.0  # zeta stays below e^45, where the bound is finite; any zeta is sound


def _input_bound(layer: CanonicalLayer, center, sigma: float, lam1: LinExp):
    """(value, nominal W mu + b, exponential term, W'g) of the input bound."""
    if not (is_deterministic(layer.weights) and is_deterministic(layer.bias)):
        raise ValueError("input-layer linexp bound requires a deterministic first layer")
    if layer.activation != "identity":
        raise ValueError("layer 0 must have an identity activation")
    w = weight_mean(layer.weights)
    nominal = w @ np.asarray(center, dtype=float) + weight_mean(layer.bias)
    wtg = w.T @ lam1.gamma
    exponent = 0.5 * sigma**2 * float(wtg @ wtg) + float(lam1.gamma @ nominal) + lam1.kappa
    e = math.exp(exponent)
    return float(lam1.alpha @ nominal) + e, nominal, e, wtg


def inner_linexp_input(
    layer: CanonicalLayer,
    center: np.ndarray,
    sigma: float,
    lam1: LinExp,
) -> InnerResult:
    """Sound bound on the input problem for sub-Gaussian noise families."""
    value, *_ = _input_bound(layer, center, sigma, lam1)
    return InnerResult(value=value, mode=UPPER_BOUND)


def input_param_grads(
    layer: CanonicalLayer,
    center: np.ndarray,
    sigma: float,
    lam1: LinExp,
) -> tuple[float, dict]:
    """Value and exact gradients of the input bound in (alpha, gamma, kappa)."""
    value, nominal, e, wtg = _input_bound(layer, center, sigma, lam1)
    grads = {
        "alpha": nominal,
        "gamma": e * (sigma**2 * (weight_mean(layer.weights) @ wtg) + nominal),
        "kappa": e,
    }
    return value, grads


def _transition_coeffs(lam2: Multiplier, layer: CanonicalLayer) -> tuple[np.ndarray, float]:
    """(W'beta, beta.b) of the successor's expected linear part."""
    beta = linear_coeffs(lam2)
    return weight_mean(layer.weights).T @ beta, float(beta @ weight_mean(layer.bias))


def transition_bound_at_zeta(
    lam1: LinExp, lam2: Multiplier, layer: CanonicalLayer, box: Interval, zeta
) -> tuple[np.ndarray, np.ndarray]:
    """Bound value at zeta >= 0 plus the per-coordinate witnesses.

    With the exponential epigraph dualized by zeta, the remaining box
    maximization is the separable one of ``inner_linear`` with
    b = alpha + zeta * gamma.  An array of zetas gives one value and one
    witness row per entry.
    """
    zeta = np.maximum(np.asarray(zeta, dtype=float), 0.0)
    c, bias_term = _transition_coeffs(lam2, layer)
    b = lam1.alpha + zeta[..., None] * lam1.gamma
    values, witness = activation_linear_max(c, b, box.lo, box.hi, layer.activation)
    positive = zeta > 0.0
    log_zeta = np.log(np.where(positive, zeta, 1.0))
    entropy = np.where(positive, zeta * (log_zeta - 1.0 - lam1.kappa), 0.0)
    return bias_term + entropy + values.sum(axis=-1), witness


def inner_linexp_transition(
    lam1: LinExp,
    lam2: Multiplier,
    layer: CanonicalLayer,
    box: Interval,
) -> InnerResult:
    """Sound bound on max_x E[lam2(layer(x))] - lam1(x) over the box, at the best zeta.

    Candidate k of coordinate j scores icpt + zeta * slope, so the bound
    F(zeta) is convex with kinks only where two candidate lines of one
    coordinate cross.  Between kinks the witness x is fixed and F' = 0 at
    zeta = exp(kappa + g.x); the minimum is at a kink or at such a point
    clipped into its piece.
    """
    c, _ = _transition_coeffs(lam2, layer)
    lines = [
        (c * s - lam1.alpha * z, -lam1.gamma * z, inside)
        for z, s, inside in activation_candidates(box.lo, box.hi, layer.activation)
    ]
    zeta_cap = math.exp(_ZETA_LOG_CAP)
    breaks = [np.array([0.0, zeta_cap])]
    for (icpt1, slope1, inside1), (icpt2, slope2, inside2) in itertools.combinations(lines, 2):
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (icpt1 - icpt2) / (slope2 - slope1)
        breaks.append(cross[inside1 & inside2 & (cross > 0.0) & (cross < zeta_cap)])
    breaks = np.sort(np.concatenate(breaks))
    _, piece_x = transition_bound_at_zeta(lam1, lam2, layer, box, 0.5 * (breaks[:-1] + breaks[1:]))
    stationary = np.exp(np.minimum(lam1.kappa + piece_x @ lam1.gamma, _ZETA_LOG_CAP))
    zetas = np.concatenate([breaks, np.clip(stationary, breaks[:-1], breaks[1:])])
    values, witness = transition_bound_at_zeta(lam1, lam2, layer, box, zetas)
    best = int(np.argmin(values))
    return InnerResult(
        value=values[best], mode=UPPER_BOUND, witness=witness[best],
        internal_duals={"zeta": float(zetas[best])},
    )
