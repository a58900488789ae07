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
stationary point per piece.  All rows of a batch take that closed form
in one array pass.
"""

from __future__ import annotations

import math

import numpy as np

from ..bounds import Interval
from ..model import CanonicalLayer
from ..multipliers import LinExp, Multiplier, linear_coeffs
from .linear import activation_candidates, activation_linear_max, matvec_rows, mean_output
from .result import UPPER_BOUND, InnerResult

_ZETA_LOG_CAP = 45.0  # zeta stays below e^45, where the bound is finite; any zeta is sound
# by candidate count, the pairs (i, k) of candidates whose crossing counts: i < k
_UPPER = {k: np.triu(np.ones((k, k), dtype=bool), 1)[..., np.newaxis] for k in (2, 3)}


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
    witness row per entry.  The arguments broadcast, so (rows, 1, n)
    multipliers, (rows, 1) kappa and bias terms and (rows, trials)
    zetas evaluate several rows at once.
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

    All rows run in one array pass.  Each row's sorted kinks are padded
    to the widest row's count with copies of its last kink, the cap: a
    padded piece has zero width, and its trials repeat the cap's, which
    comes first, so every row keeps its own first minimizer and the bits
    it gets alone.
    """
    candidates = activation_candidates(box.lo, box.hi, layer.activation)
    zeta_cap = math.exp(_ZETA_LOG_CAP)
    kappa = lam1.kappa[:, np.newaxis]
    alpha, gamma = lam1.alpha[:, np.newaxis], lam1.gamma[:, np.newaxis]
    # per row, (W'beta, beta.b) of the successor's expected linear part
    beta, bias = linear_coeffs(lam2), layer.bias.mean
    coeffs = matvec_rows(layer.weights.mean.T, beta)[:, np.newaxis]
    bias_terms = np.array([[r @ bias] for r in beta])
    # (rows, candidates, n) intercepts and slopes, and where each candidate counts
    z, s = np.empty((2, len(candidates), box.lo.shape[0]))
    inside = np.empty(z.shape, dtype=bool)
    for k, candidate in enumerate(candidates):
        z[k], s[k], inside[k] = candidate
    icpt = coeffs * s - alpha * z
    slope = -gamma * z
    # crossings [i, k] of every candidate pair (rows, i, k, n), valid for i < k only
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (icpt[:, :, np.newaxis] - icpt[:, np.newaxis]) / (
            slope[:, np.newaxis] - slope[:, :, np.newaxis])
    valid = (inside[:, np.newaxis] & inside[np.newaxis] & _UPPER[len(candidates)]
             & (cross > 0.0) & (cross < zeta_cap))
    # per row 0, its valid crossings in order, then the cap repeated to the widest row
    counts = valid.sum(axis=(1, 2, 3))
    kinks = np.where(valid, cross, zeta_cap)
    kinks[:, 0, 0, 0] = 0.0  # a pair (i, i) never crosses
    kinks = kinks.reshape(len(counts), -1)
    kinks.sort(axis=1)
    breaks = kinks[:, :counts.max() + 2]
    # each piece's witness: the box maximization of transition_bound_at_zeta at its midpoint
    middle = 0.5 * (breaks[:, :-1] + breaks[:, 1:])
    _, piece_x = activation_linear_max(coeffs, alpha + middle[..., np.newaxis] * gamma, candidates)
    # g.x over a row's own pieces, one matrix-vector product each: BLAS may round a
    # product differently in a taller matrix, so the pads stay out; they clip to the cap
    exponents = np.zeros(middle.shape)
    for r, (x, g, count) in enumerate(zip(piece_x, lam1.gamma, counts.tolist())):
        exponents[r, :count + 1] = x[:count + 1] @ g
    stationary = np.exp(np.minimum(kappa + exponents, _ZETA_LOG_CAP))
    # np.clip's bits without its per-call overhead
    clipped = np.minimum(np.maximum(stationary, breaks[:, :-1]), breaks[:, 1:])
    trials = np.concatenate([breaks, clipped], axis=1)
    bounds, witness = transition_bound_at_zeta(alpha, gamma, kappa, (coeffs, bias_terms),
                                               candidates, trials)
    index = np.arange(len(counts)), bounds.argmin(axis=1)
    values, x, zeta = bounds[index], witness[index], trials[index]
    # envelope at the frozen (x, zeta): lam1 enters as -(alpha.x + zeta * (gamma.x + kappa))
    grads = (
        {"alpha": -x, "gamma": -zeta[:, np.newaxis] * x, "kappa": -zeta},
        {"theta": mean_output(layer, x)},
    )
    return InnerResult(value=values, mode=UPPER_BOUND, witness=x, grads=grads,
                       internal_duals={"zeta": zeta})
