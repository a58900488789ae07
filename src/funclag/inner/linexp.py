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
has a closed form, so every zeta gives a valid upper bound; zeta is then
minimized by golden section.
"""

from __future__ import annotations

import math

import numpy as np

from ..bounds import Interval
from ..model import CanonicalLayer, is_deterministic, weight_mean
from ..multipliers import LinExp, Multiplier, linear_coeffs
from .linear import scalar_activation_linear_max
from .result import UPPER_BOUND, InnerResult
from .scalaropt import golden_section_min

_ZETA_LOG_CAP = 45.0  # keeps exp(kappa + max g.x) representable


def inner_linexp_input(
    layer: CanonicalLayer,
    center: np.ndarray,
    sigma: float,
    lam1: LinExp,
) -> InnerResult:
    """Sound bound on the input problem for sub-Gaussian noise families."""
    if not (is_deterministic(layer.weights) and is_deterministic(layer.bias)):
        raise ValueError("input-layer linexp bound requires a deterministic first layer")
    if layer.activation != "identity":
        raise ValueError("layer 0 must have an identity activation")
    center = np.asarray(center, dtype=float)
    w = weight_mean(layer.weights)
    b = weight_mean(layer.bias)
    nominal = w @ center + b
    wtg = w.T @ lam1.gamma
    exponent = 0.5 * sigma**2 * float(wtg @ wtg) + float(lam1.gamma @ nominal) + lam1.kappa
    value = float(lam1.alpha @ nominal) + math.exp(exponent)
    return InnerResult(value=value, mode=UPPER_BOUND)


def input_param_grads(
    layer: CanonicalLayer,
    center: np.ndarray,
    sigma: float,
    lam1: LinExp,
) -> tuple[float, dict]:
    """Value and exact gradients of the input bound in (alpha, gamma, kappa)."""
    center = np.asarray(center, dtype=float)
    w = weight_mean(layer.weights)
    b = weight_mean(layer.bias)
    nominal = w @ center + b
    wtg = w.T @ lam1.gamma
    exponent = 0.5 * sigma**2 * float(wtg @ wtg) + float(lam1.gamma @ nominal) + lam1.kappa
    e = math.exp(exponent)
    value = float(lam1.alpha @ nominal) + e
    grads = {
        "alpha": nominal.copy(),
        "gamma": e * (sigma**2 * (w @ wtg) + nominal),
        "kappa": e,
    }
    return value, grads


def _transition_pieces(lam1: LinExp, lam2: Multiplier, layer: CanonicalLayer):
    beta = linear_coeffs(lam2, layer.out_dim)
    w2 = weight_mean(layer.weights)
    b2 = weight_mean(layer.bias)
    c = w2.T @ beta
    bias_term = float(beta @ b2)
    return beta, w2, b2, c, bias_term


def transition_bound_at_zeta(
    lam1: LinExp, lam2: Multiplier, layer: CanonicalLayer, box: Interval, zeta: float
) -> tuple[float, np.ndarray]:
    """Bound value at a fixed zeta >= 0 plus the per-coordinate witnesses.

    With the exponential epigraph dualized by zeta, the remaining box
    maximization is separable per coordinate and solvable in closed form.
    """
    zeta = max(float(zeta), 0.0)
    _, _, _, c, bias_term = _transition_pieces(lam1, lam2, layer)
    a = lam1.alpha + zeta * lam1.gamma
    total = bias_term
    total += zeta * (math.log(zeta) - 1.0 - lam1.kappa) if zeta > 0.0 else 0.0
    witness = np.empty(layer.in_dim)
    for j in range(layer.in_dim):
        val_j, z_j = scalar_activation_linear_max(
            float(c[j]), float(a[j]), float(box.lo[j]), float(box.hi[j]), layer.activation
        )
        total += val_j
        witness[j] = z_j
    return float(total), witness


def inner_linexp_transition(
    lam1: LinExp,
    lam2: Multiplier,
    layer: CanonicalLayer,
    box: Interval,
    zeta_init: float | None = None,
    zeta_tol: float = 1e-10,
) -> InnerResult:
    """Sound bound on max_x E[lam2(layer(x))] - lam1(x) over the box."""

    def objective(zeta: float) -> float:
        return transition_bound_at_zeta(lam1, lam2, layer, box, zeta)[0]

    # The optimal zeta satisfies log(zeta) = kappa + g.x for some box
    # point, so the box maximum of g.x caps the search bracket.
    gmax = float(np.maximum(lam1.gamma * box.lo, lam1.gamma * box.hi).sum())
    log_cap = min(lam1.kappa + gmax, _ZETA_LOG_CAP)
    zeta_hi = math.exp(log_cap)
    if zeta_init is not None:
        zeta_hi = max(zeta_hi, float(zeta_init))

    best_val = objective(0.0)
    best_zeta = 0.0
    if zeta_hi > 0.0:
        candidates = [zeta_hi]
        if zeta_init is not None and zeta_init > 0.0:
            candidates.append(float(zeta_init))
        zstar, _ = golden_section_min(
            objective, 0.0, zeta_hi, tol=zeta_tol * max(1.0, zeta_hi)
        )
        candidates.append(zstar)
        for z in candidates:
            val = objective(z)
            if val < best_val:
                best_val, best_zeta = val, z

    return InnerResult(value=best_val, mode=UPPER_BOUND, internal_duals={"zeta": best_zeta})


def transition_param_grads(
    lam1: LinExp,
    lam2: Multiplier,
    layer: CanonicalLayer,
    box: Interval,
    zeta: float,
) -> tuple[float, dict, dict]:
    """Value and envelope gradients of the transition bound at fixed zeta.

    The bound at fixed zeta is a separable maximum of functions affine
    in (alpha, gamma, kappa, theta2), so Danskin at the per-coordinate
    witnesses gives valid subgradients for the outer minimization.
    """
    zeta = max(float(zeta), 0.0)
    _, w2, b2, _, _ = _transition_pieces(lam1, lam2, layer)
    total, z_hat = transition_bound_at_zeta(lam1, lam2, layer, box, zeta)
    s_hat = np.maximum(z_hat, 0.0) if layer.activation == "relu" else z_hat
    grads1 = {
        "alpha": -z_hat,
        "gamma": -zeta * z_hat,
        "kappa": -zeta,
    }
    grads2 = {"theta": w2 @ s_hat + b2}
    return float(total), grads1, grads2
