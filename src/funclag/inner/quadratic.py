"""Sound bounds on quadratic-multiplier layer problems.

The layer problem with quadratic multipliers is an indefinite quadratic
in (x, y) where y stands for relu(x).  The relu graph is encoded by
y >= 0, y >= x, y * y = y * x; dualizing those constraints with
penalties (zeta free for the equality, zeta_plus/zeta_minus >= 0) leaves
a box-constrained indefinite quadratic.  After rescaling the box to
[-1, 1]^d, its maximum is bounded by the diagonal-shift value

    f(0) + 0.5 * sum max(kappa + max(lambda_max(M - diag(kappa)), 0), 0)

which is dual-feasible for every shift vector kappa, so subgradient
steps on kappa can only tighten, never invalidate, the bound.  The
lambda_max used in emitted values is a certified upper bound: the
symmetric eigensolver's top eigenvalue, escalated until a Cholesky
factorization proves it, with the Gershgorin row bound as the
always-valid fallback.

Gradients in the penalties and in the multiplier parameters are those
of the Danskin surrogate: with the top eigenvector and the active set of
kappa frozen, the bound is affine in the rescaled QP data, and its
gradient there is pulled back in closed form through the rescaling, the
QP assembly and the expected coefficients of lam_next.
"""

from __future__ import annotations

import math

import numpy as np

from ..bounds import Interval
from ..model import CanonicalLayer
from ..multipliers import (
    Linear,
    Multiplier,
    as_quadratic,
    as_quadratic_adjoint,
    expected_quadratic_coeffs,
    expected_quadratic_coeffs_adjoint,
)
from .linear import inner_linear
from .result import UPPER_BOUND, InnerResult


# the one schedule, started from zero: subgradient steps on the diagonal
# shift kappa and on the relu penalties
_KAPPA_STEPS = 10
_PENALTY_STEPS = 2


class NumericalError(ArithmeticError):
    """A certified eigenvalue bound could not be produced."""


def gershgorin_upper(a: np.ndarray) -> float:
    """Row-disc upper bound on the largest eigenvalue of a symmetric matrix."""
    diag = np.diag(a)
    off = np.sum(np.abs(a), axis=1) - np.abs(diag)
    return float(np.max(diag + off))


def top_eigenpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric matrix and a unit eigenvector of it."""
    values, vectors = np.linalg.eigh(a)
    return float(values[-1]), vectors[:, -1]


def certified_lambda_max(a: np.ndarray) -> float:
    """Upper bound on lambda_max, certified by a PSD factorization check.

    Starting from the eigensolver's top eigenvalue plus a margin, the
    candidate is escalated until mu * I - A admits a Cholesky
    factorization; the Gershgorin disc bound caps the escalation and is
    returned when nothing smaller certifies.
    """
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    n = a.shape[0]
    gersh = gershgorin_upper(a)
    lmax, _ = top_eigenpair(a)
    scale = max(1.0, abs(lmax), float(np.max(np.abs(a))))
    margin = 1e-11 * scale
    candidate = lmax + margin
    eye = np.eye(n)
    while candidate < gersh:
        try:
            np.linalg.cholesky(candidate * eye - a + margin * eye)
            return float(candidate + margin)
        except np.linalg.LinAlgError:
            candidate = lmax + 4.0 * (candidate - lmax)
    return gersh


def shifted_diagonal_bound(mf: np.ndarray, kappa: np.ndarray) -> float:
    """Certified value 0.5 * sum max(kappa + max(lmax, 0), 0) at this kappa."""
    lmax = certified_lambda_max(mf - np.diag(kappa))
    s = max(lmax, 0.0)
    return 0.5 * float(np.maximum(kappa + s, 0.0).sum())


def qp_box_bound(h: np.ndarray, g: np.ndarray, c0: float) -> tuple[float, np.ndarray]:
    """Bound max of c0 + g.t + 0.5 t'Ht over t in [-1, 1]^d.

    Runs subgradient descent on the shift vector kappa from zero,
    tracking the best iterate by its uncertified top eigenvalue; the
    returned value is the *certified* bound re-evaluated at that
    iterate, so it is sound regardless of the tracking accuracy.
    """
    d = g.shape[0]
    mf = _pack_mf(h, g)
    kappa = np.zeros(d + 1)

    best_est = math.inf
    best_kappa = kappa.copy()
    scale = max(1.0, float(np.max(np.abs(mf))))
    for t in range(_KAPPA_STEPS):
        lmax, v = top_eigenpair(mf - np.diag(kappa))
        s = max(lmax, 0.0)
        est = 0.5 * float(np.maximum(kappa + s, 0.0).sum())
        if est < best_est:
            best_est = est
            best_kappa = kappa.copy()
        active = (kappa + s) > 0.0
        grad = 0.5 * active.astype(float)
        if lmax > 0.0:
            grad -= 0.5 * float(active.sum()) * v**2
        lr = 0.5 * scale / (1.0 + 0.15 * t)
        kappa = kappa - lr * grad
    best_val = c0 + shifted_diagonal_bound(mf, best_kappa)
    return float(best_val), best_kappa


def _reduce_and_rescale(h, g, c0, lo, hi):
    """Substitute degenerate coordinates and map the rest onto [-1, 1] (maybe none)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    fixed = hi - lo <= 0.0
    if np.any(fixed):
        vals = 0.5 * (lo + hi)
        keep = ~fixed
        xf = vals[fixed]
        c0 = c0 + float(g[fixed] @ xf) + 0.5 * float(xf @ h[np.ix_(fixed, fixed)] @ xf)
        g = g[keep] + h[np.ix_(keep, fixed)] @ xf
        h = h[np.ix_(keep, keep)]
        lo, hi = lo[keep], hi[keep]
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    c0 = c0 + float(g @ center) + 0.5 * float(center @ h @ center)
    g_scaled = half * (g + h @ center)
    h_scaled = h * np.outer(half, half)
    return h_scaled, g_scaled, c0


def _rescale_adjoint(grad_g, grad_h, lo, hi):
    """Pull a gradient in the (g, H) that _reduce_and_rescale returns back to its input.

    Over all coordinates the reduction substitutes x = p + half * t, with
    p the midpoint (a fixed coordinate's value) and half zero on fixed
    coordinates: c0' = c0 + g.p + 0.5 p'Hp, g' = half * (g + Hp) and
    H' = H * half half', restricted to the free coordinates.  c0 enters
    with weight one.
    """
    p = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    keep = hi - lo > 0.0
    scaled_g = np.zeros_like(p)
    scaled_g[keep] = half[keep] * grad_g
    full_h = np.zeros((p.size, p.size))
    full_h[np.ix_(keep, keep)] = grad_h * np.outer(half[keep], half[keep])
    return p + scaled_g, 0.5 * np.outer(p, p) + np.outer(scaled_g, p) + full_h


def _assemble_relu_qp(layer, q_k, q_k_lin, q_n, q_n_lin, zeta, zeta_plus, zeta_minus):
    """Build (H, g, c0) in variables (x, y) with the relu constraints dualized."""
    c0, m, big_m = expected_quadratic_coeffs(layer, q_n, q_n_lin)
    n = layer.in_dim
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = -q_k
    h[n:, n:] = big_m - 2.0 * np.diag(zeta)
    h[:n, n:] = np.diag(zeta)
    h[n:, :n] = np.diag(zeta)
    g = np.concatenate([-q_k_lin - zeta_plus, m + zeta_plus + zeta_minus])
    return h, g, c0


def _assemble(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus):
    """(H, g, c0, lo, hi) of the layer QP before reduction."""
    q_k, q_k_lin = as_quadratic(lam_k, layer.in_dim)
    q_n, q_n_lin = as_quadratic(lam_next, layer.out_dim)
    if layer.activation == "identity":
        c0, m, big_m = expected_quadratic_coeffs(layer, q_n, q_n_lin)
        return big_m - q_k, m - q_k_lin, c0, box.lo, box.hi
    h, g, c0 = _assemble_relu_qp(layer, q_k, q_k_lin, q_n, q_n_lin, zeta, zeta_plus, zeta_minus)
    lo = np.concatenate([box.lo, np.maximum(box.lo, 0.0)])
    hi = np.concatenate([box.hi, np.maximum(box.hi, 0.0)])
    return h, g, c0, lo, hi


def _assembly_adjoint(layer, grad_h, grad_g):
    """Adjoint of _assemble in (H, g); c0 is E[lam_next]'s constant with weight one.

    Returns the gradients in (Q_k, q_k), in the coefficients (M, m) of
    E[lam_next] and in the penalties stacked as (zeta, zeta_plus,
    zeta_minus), the last None for an identity layer.
    """
    if layer.activation == "identity":
        return -grad_h, -grad_g, grad_h, grad_g, None
    n = layer.in_dim
    x, y = slice(0, n), slice(n, 2 * n)
    grad_zeta = np.diag(grad_h[x, y]) + np.diag(grad_h[y, x]) - 2.0 * np.diag(grad_h[y, y])
    penalties = np.concatenate([grad_zeta, grad_g[y] - grad_g[x], grad_g[y]])
    return -grad_h[x, x], -grad_g[x], grad_h[y, y], grad_g[y], penalties


def _qp_data(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus):
    return _reduce_and_rescale(*_assemble(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus))


def _penalties(duals: dict, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(zeta, zeta_plus, zeta_minus) from internal duals, the signed pair clamped at 0."""
    zeta = np.asarray(duals.get("zeta", np.zeros(n)), dtype=float)
    zeta_plus = np.maximum(np.asarray(duals.get("zeta_plus", np.zeros(n)), dtype=float), 0.0)
    zeta_minus = np.maximum(np.asarray(duals.get("zeta_minus", np.zeros(n)), dtype=float), 0.0)
    return zeta, zeta_plus, zeta_minus


def quadratic_bound_with_duals(
    layer: CanonicalLayer,
    lam_k: Multiplier,
    lam_next: Multiplier,
    box: Interval,
    duals: dict,
) -> float:
    """Certified bound at the given internal duals (sign-clamped as needed)."""
    zeta, zeta_plus, zeta_minus = _penalties(duals, layer.in_dim)
    h, g, c0 = _qp_data(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus)
    kappa = duals.get("kappa")
    if kappa is None or np.asarray(kappa).shape != (g.shape[0] + 1,):
        kappa = np.zeros(g.shape[0] + 1)
    return float(c0 + shifted_diagonal_bound(_pack_mf(h, g), np.asarray(kappa, dtype=float)))


def _pack_mf(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    d = g.shape[0]
    mf = np.zeros((d + 1, d + 1))
    mf[0, 1:] = g
    mf[1:, 0] = g
    mf[1:, 1:] = h
    return mf


def inner_quadratic_bound(
    layer: CanonicalLayer,
    lam_k: Multiplier,
    lam_next: Multiplier,
    box: Interval,
) -> InnerResult:
    """Sound bound on the quadratic-multiplier layer problem.

    When both quadratic blocks vanish the problem is linear and the exact
    per-coordinate closed form is returned instead.  Otherwise, on a relu
    layer, the penalties (zeta, zeta_plus, zeta_minus) take a few
    subgradient steps from zero, tracked by the Danskin surrogate.  The
    zero penalties and the best iterate, when it moved off zero, each get
    a few shift-vector steps from kappa = 0 and a certified value; every
    such value is a valid bound, and the smallest one is returned
    together with its duals and the surrogate's gradients at them.
    """
    n = layer.in_dim
    q_k, q_k_lin = as_quadratic(lam_k, n)
    q_n, q_n_lin = as_quadratic(lam_next, layer.out_dim)
    if not q_k.any() and not q_n.any():
        return _exact_linear(layer, lam_k, lam_next, box, q_k_lin, q_n_lin)

    zeros = np.zeros(n)
    starts = [(zeros, zeros, zeros)]
    if layer.activation == "relu":
        # the penalty search is tracked by the cheap Danskin surrogate; only
        # the zero start and the winning iterate get a certified evaluation
        params = np.zeros(3 * n)
        best_params = params.copy()
        best_est = math.inf
        scale = float(max(1.0, np.abs(q_k).max(initial=0.0), np.abs(q_n).max(initial=0.0)))
        for t in range(_PENALTY_STEPS):
            est, blocks = _danskin(
                layer, lam_k, lam_next, box, params[:n], params[n : 2 * n], params[2 * n :], None
            )
            if est < best_est:
                best_est = est
                best_params = params.copy()
            lr = 0.3 * scale / (1.0 + 0.2 * t)
            params = params - lr * blocks[4]
            params[n:] = np.maximum(params[n:], 0.0)
        # a search that kept the zero start would only repeat its solve
        if best_params.any():
            starts.append(np.split(best_params, 3))

    best_val = math.inf
    best = None
    for z, zp, zm in starts:
        h, g, c0 = _qp_data(layer, lam_k, lam_next, box, z, zp, zm)
        val, kap = qp_box_bound(h, g, c0)
        if val < best_val:
            best_val = val
            best = (z, zp, zm, kap)
    duals = dict(zip(("zeta", "zeta_plus", "zeta_minus", "kappa"), best))
    return InnerResult(
        value=best_val,
        mode=UPPER_BOUND,
        grads=_param_grads(layer, lam_k, lam_next, box, duals),
        internal_duals=duals,
    )


def _exact_linear(layer, lam_k, lam_next, box, q_k_lin, q_n_lin) -> InnerResult:
    """The exact linear solve at Q = 0, its gradients mapped onto both multipliers:
    at the witness x, -(0.5 x x', x) for lam_k and (0.5 (E[y] E[y]' + diag Var[y]),
    E[y]) for lam_next, with y = W s(x) + b."""
    res = inner_linear(layer, Linear(theta=q_k_lin), Linear(theta=q_n_lin), box)
    x = res.witness
    feat = res.grads[1]["theta"]
    var = layer.weights.variance @ layer.apply_activation(x) ** 2 + layer.bias.variance
    res.grads = (
        as_quadratic_adjoint(lam_k, -0.5 * np.outer(x, x), res.grads[0]["theta"]),
        as_quadratic_adjoint(lam_next, 0.5 * (np.outer(feat, feat) + np.diag(var)), feat),
    )
    return res


def _danskin(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus, kappa):
    """Danskin value of the bound at kappa and its gradient in the layer data.

    With the top eigenvector v = (v0, w) of Mf - diag(kappa) and the
    active set A of kappa frozen, the bound c0 + 0.5 * sum(kappa_A) +
    0.5 |A| v'(Mf - diag(kappa))v (the last term only when lambda_max > 0)
    is affine in the rescaled QP data (c0, g, H), with gradient
    (1, |A| v0 w, 0.5 |A| w w').  Returns (value, the gradients of
    _assembly_adjoint).
    """
    h, g, c0, lo, hi = _assemble(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus)
    h_s, g_s, c0_s = _reduce_and_rescale(h, g, c0, lo, hi)
    if kappa is None or np.asarray(kappa).shape != (g_s.shape[0] + 1,):
        kappa = np.zeros(g_s.shape[0] + 1)
    lmax, v = top_eigenpair(_pack_mf(h_s, g_s) - np.diag(kappa))
    s = max(lmax, 0.0)
    value = c0_s + 0.5 * float(np.maximum(kappa + s, 0.0).sum())
    weight = 0.5 * float(np.count_nonzero(kappa + s > 0.0)) if lmax > 0.0 else 0.0
    w = v[1:]
    grad_g, grad_h = _rescale_adjoint(2.0 * weight * v[0] * w, weight * np.outer(w, w), lo, hi)
    return value, _assembly_adjoint(layer, grad_h, grad_g)


def _param_grads(
    layer: CanonicalLayer,
    lam_k: Multiplier,
    lam_next: Multiplier,
    box: Interval,
    duals: dict,
) -> tuple[dict, dict]:
    """Danskin gradients of the bound in both multipliers' parameters.

    The gradient is the surrogate's of ``_danskin`` at the frozen
    internal duals, mapped onto lam_k through its (Q, q) and onto
    lam_next through the expected coefficients of E[lam_next].
    """
    zeta, zeta_plus, zeta_minus = _penalties(duals, layer.in_dim)
    _, blocks = _danskin(
        layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus, duals.get("kappa")
    )
    grad_qk, grad_qk_lin, grad_big_m, grad_m, _ = blocks
    grad_qn, grad_qn_lin = expected_quadratic_coeffs_adjoint(layer, grad_m, grad_big_m)
    return (
        as_quadratic_adjoint(lam_k, grad_qk, grad_qk_lin),
        as_quadratic_adjoint(lam_next, grad_qn, grad_qn_lin),
    )
