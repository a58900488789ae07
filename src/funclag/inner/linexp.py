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
from ..model import CanonicalLayer
from ..multipliers import LinExp, Multiplier, linear_coeffs
from .linear import activation_candidates, activation_linear_max, matvec_rows, mean_output
from .result import UPPER_BOUND, InnerResult

_ZETA_LOG_CAP = 45.0  # zeta stays below e^45, where the bound is finite; any zeta is sound


def inner_linexp_input(
    layer: CanonicalLayer,
    center: np.ndarray,
    sigma: float,
    lam1: LinExp,
) -> InnerResult:
    """Sound bound on the input problem for sub-Gaussian noise families, per row.

    The bound is smooth in (alpha, gamma, kappa), so its gradient is exact.
    """
    if not layer.is_deterministic():
        raise ValueError("input-layer linexp bound requires a deterministic first layer")
    if layer.activation != "identity":
        raise ValueError("layer 0 must have an identity activation")
    w = layer.weights.mean
    nominal = w @ np.asarray(center, dtype=float) + layer.bias.mean
    values, gamma_grads, es = [], [], []
    for alpha, gamma, kappa in zip(lam1.alpha, lam1.gamma, lam1.kappa.tolist()):
        wtg = w.T @ gamma
        e = math.exp(0.5 * sigma**2 * float(wtg @ wtg) + float(gamma @ nominal) + kappa)
        values.append(float(alpha @ nominal) + e)
        gamma_grads.append(e * (sigma**2 * (w @ wtg) + nominal))
        es.append(e)
    grads = {"alpha": nominal[np.newaxis].repeat(len(es), axis=0),
             "gamma": np.array(gamma_grads), "kappa": np.array(es)}
    return InnerResult(value=values, mode=UPPER_BOUND, grads=(None, grads))


def transition_bound_at_zeta(
    alpha, gamma, kappa: float, coeffs: tuple, candidates: list[tuple], zeta
) -> tuple[np.ndarray, np.ndarray]:
    """One row's bound value at zeta >= 0 plus the per-coordinate witnesses, with
    (alpha, gamma, kappa) its linexp multiplier, ``coeffs`` its successor's (W'beta, beta.b)
    and ``candidates`` the box's ``activation_candidates``.

    With the exponential epigraph dualized by zeta, the remaining box
    maximization is the separable one of ``inner_linear`` with
    b = alpha + zeta * gamma.  An array of zetas gives one value and one
    witness row per entry.
    """
    zeta = np.maximum(np.asarray(zeta, dtype=float), 0.0)
    c, bias_term = coeffs
    b = alpha + zeta[..., None] * gamma
    values, witness = activation_linear_max(c, b, candidates)
    positive = zeta > 0.0
    log_zeta = np.log(np.where(positive, zeta, 1.0))
    entropy = np.where(positive, zeta * (log_zeta - 1.0 - kappa), 0.0)
    return bias_term + entropy + values.sum(axis=-1), witness


def inner_linexp_transition(
    lam1: LinExp,
    lam2: Multiplier,
    layer: CanonicalLayer,
    box: Interval,
) -> InnerResult:
    """Sound bound on max_x E[lam2(layer(x))] - lam1(x) over the box, at each row's best zeta.

    Candidate k of coordinate j scores icpt + zeta * slope, so the bound
    F(zeta) is convex with kinks only where two candidate lines of one
    coordinate cross.  Between kinks the witness x is fixed and F' = 0 at
    zeta = exp(kappa + g.x); the minimum is at a kink or at such a point
    clipped into its piece.
    """
    candidates = activation_candidates(box.lo, box.hi, layer.activation)
    zeta_cap = math.exp(_ZETA_LOG_CAP)
    # per row, (W'beta, beta.b) of the successor's expected linear part
    beta, bias = linear_coeffs(lam2), layer.bias.mean
    successor = zip(matvec_rows(layer.weights.mean.T, beta), [float(r @ bias) for r in beta])
    best_rows = []
    for alpha, gamma, kappa, coeffs in zip(lam1.alpha, lam1.gamma, lam1.kappa.tolist(), successor):
        lines = [(coeffs[0] * s - alpha * z, -gamma * z, inside) for z, s, inside in candidates]
        breaks = [np.array([0.0, zeta_cap])]
        for (icpt1, slope1, inside1), (icpt2, slope2, inside2) in itertools.combinations(lines, 2):
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (icpt1 - icpt2) / (slope2 - slope1)
            breaks.append(cross[inside1 & inside2 & (cross > 0.0) & (cross < zeta_cap)])
        breaks = np.sort(np.concatenate(breaks))
        row = (alpha, gamma, kappa, coeffs, candidates)
        _, piece_x = transition_bound_at_zeta(*row, 0.5 * (breaks[:-1] + breaks[1:]))
        stationary = np.exp(np.minimum(kappa + piece_x @ gamma, _ZETA_LOG_CAP))
        trials = np.concatenate([breaks, np.clip(stationary, breaks[:-1], breaks[1:])])
        bounds, witness = transition_bound_at_zeta(*row, trials)
        best = int(np.argmin(bounds))
        best_rows.append((bounds[best], witness[best], trials[best]))
    # envelope at the frozen (x, zeta): lam1 enters as -(alpha.x + zeta * (gamma.x + kappa))
    values, x, zeta = (np.array(part) for part in zip(*best_rows))
    grads = (
        {"alpha": -x, "gamma": -zeta[:, np.newaxis] * x, "kappa": -zeta},
        {"theta": mean_output(layer, x)},
    )
    return InnerResult(value=values, mode=UPPER_BOUND, witness=x, grads=grads,
                       internal_duals={"zeta": zeta})
