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

Each bound takes one route.  The coefficients of the layer QP are built
once per call; ``_build_qp`` assembles and rescales the QP at one
penalty point, and ``_shift_step`` gives the uncertified value, active
set, top eigenvector and Danskin weight at one kappa, for the penalty
step and the kappa loop alike.  Gradients are those of the Danskin
surrogate: with the eigenvector and the active set frozen, the bound is
affine in the rescaled QP data, and ``_pull_back`` maps its gradient
there in closed form to the penalties and, at the eigenpair of the
certified iterate, to both multipliers.
"""

from __future__ import annotations

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
from .result import EXACT, UPPER_BOUND, InnerResult


# subgradient steps on the diagonal shift kappa, started from zero
_KAPPA_STEPS = 10


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
    s = max(certified_lambda_max(mf - np.diag(kappa)), 0.0)
    return 0.5 * float(np.maximum(kappa + s, 0.0).sum())


def _shift_step(mf: np.ndarray, kappa: np.ndarray):
    """Uncertified shift value at kappa, its active set A, top eigenvector v and
    Danskin weight: the value is 0.5 * sum(kappa_A) + weight * v'(Mf - diag(kappa))v,
    with weight 0.5 |A| when lambda_max > 0 and 0 otherwise."""
    lmax, v = top_eigenpair(mf - np.diag(kappa))
    s = max(lmax, 0.0)
    est = 0.5 * float(np.maximum(kappa + s, 0.0).sum())
    active = (kappa + s) > 0.0
    weight = 0.5 * float(np.count_nonzero(active)) if lmax > 0.0 else 0.0
    return est, active, v, weight


def qp_box_bound(mf: np.ndarray, c0: float):
    """Bound max of c0 + g.t + 0.5 t'Ht over t in [-1, 1]^d, given Mf = [[0, g'], [g, H]].

    Runs subgradient descent on the shift vector kappa from zero,
    tracking the best iterate by its uncertified shift value; the
    returned value is the *certified* bound re-evaluated at that
    iterate, so it is sound regardless of the tracking accuracy.  The
    iterate's kappa, top eigenvector and Danskin weight come with it.
    """
    kappa = np.zeros(mf.shape[0])
    scale = max(1.0, float(np.max(np.abs(mf))))
    best = None
    for t in range(_KAPPA_STEPS):
        est, active, v, weight = _shift_step(mf, kappa)
        if best is None or est < best[0]:
            best = (est, kappa, v, weight)
        grad = 0.5 * active - weight * v**2 if weight else 0.5 * active
        lr = 0.5 * scale / (1.0 + 0.15 * t)
        kappa = kappa - lr * grad
    _, kappa, v, weight = best
    return float(c0 + shifted_diagonal_bound(mf, kappa)), kappa, v, weight


def _coefficients(layer, q_k, q_k_lin, q_n, q_n_lin, box):
    """The penalty-free data of the layer QP, built once per bound: (Q_k, q_k), the
    coefficients (c0, m, M) of E[lam_next], then the box of x, or of (x, y) on a relu layer."""
    lo, hi = box.lo, box.hi
    if layer.activation == "relu":
        lo = np.concatenate([lo, np.maximum(lo, 0.0)])
        hi = np.concatenate([hi, np.maximum(hi, 0.0)])
    return (q_k, q_k_lin, *expected_quadratic_coeffs(layer, q_n, q_n_lin), lo, hi)


def _build_qp(layer, coeffs, zeta, zeta_plus, zeta_minus) -> tuple[np.ndarray, float]:
    """(Mf, c0) of the layer QP at one penalty point, rescaled onto [-1, 1]^d.

    On a relu layer the variables are (x, y) with the relu constraints
    dualized.  Degenerate coordinates are substituted (maybe all of
    them), the rest mapped onto [-1, 1], and the rescaled (g, H) packed
    as Mf = [[0, g'], [g, H]].
    """
    q_k, q_k_lin, c0, m, big_m, lo, hi = coeffs
    if layer.activation == "identity":
        h, g = big_m - q_k, m - q_k_lin
    else:
        n = layer.in_dim
        h = np.zeros((2 * n, 2 * n))
        h[:n, :n] = -q_k
        h[n:, n:] = big_m - 2.0 * np.diag(zeta)
        h[:n, n:] = h[n:, :n] = np.diag(zeta)
        g = np.concatenate([-q_k_lin - zeta_plus, m + zeta_plus + zeta_minus])
    fixed = hi - lo <= 0.0
    if np.any(fixed):
        keep = ~fixed
        xf = (0.5 * (lo + hi))[fixed]
        c0 = c0 + float(g[fixed] @ xf) + 0.5 * float(xf @ h[np.ix_(fixed, fixed)] @ xf)
        g = g[keep] + h[np.ix_(keep, fixed)] @ xf
        h = h[np.ix_(keep, keep)]
        lo, hi = lo[keep], hi[keep]
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    c0 = c0 + float(g @ center) + 0.5 * float(center @ h @ center)
    mf = np.zeros((g.shape[0] + 1, g.shape[0] + 1))
    mf[0, 1:] = mf[1:, 0] = half * (g + h @ center)
    mf[1:, 1:] = h * np.outer(half, half)
    return mf, c0


def _rescale_adjoint(grad_g, grad_h, lo, hi):
    """Pull a gradient in the rescaled (g, H) of _build_qp back to the assembled QP.

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


def _pull_back(layer, coeffs, v, weight):
    """Gradient of the frozen surrogate in the layer data.

    With the top eigenvector v = (v0, w) and the Danskin weight of
    _shift_step frozen, the bound c0 + 0.5 * sum(kappa_A) +
    weight * v'(Mf - diag(kappa))v is affine in the rescaled QP data
    (c0, g, H), with gradient (1, 2 weight v0 w, weight w w').  Returns
    that gradient pulled back to (Q_k, q_k), to E[lam_next]'s (M, m) and
    to the penalties stacked as (zeta, zeta_plus, zeta_minus), the last
    None for an identity layer.
    """
    w = v[1:]
    lo, hi = coeffs[-2:]
    grad_g, grad_h = _rescale_adjoint(2.0 * weight * v[0] * w, weight * np.outer(w, w), lo, hi)
    if layer.activation == "identity":
        return -grad_h, -grad_g, grad_h, grad_g, None
    n = layer.in_dim
    x, y = slice(0, n), slice(n, 2 * n)
    grad_zeta = np.diag(grad_h[x, y]) + np.diag(grad_h[y, x]) - 2.0 * np.diag(grad_h[y, y])
    penalties = np.concatenate([grad_zeta, grad_g[y] - grad_g[x], grad_g[y]])
    return -grad_h[x, x], -grad_g[x], grad_h[y, y], grad_g[y], penalties


def inner_quadratic_bound(
    layer: CanonicalLayer,
    lam_k: Multiplier,
    lam_next: Multiplier,
    box: Interval,
) -> InnerResult:
    """Sound bound on the quadratic-multiplier layer problem, row by row.

    When both quadratic blocks of a row vanish its problem is linear and
    the exact per-coordinate closed form is returned instead.  Otherwise,
    on a relu layer, the penalties (zeta, zeta_plus, zeta_minus) take one
    subgradient step from zero on the zero start's shift value at
    kappa = 0.  The zero penalties, and the moved ones when their kappa = 0
    value is lower, each get a kappa loop and a certified value; every
    such value is a valid bound, and the smallest one is returned with its
    duals and the gradients frozen at the eigenpair its kappa loop kept.
    """
    n = layer.in_dim
    views = zip(*as_quadratic(lam_k, n), *as_quadratic(lam_next, layer.out_dim))
    return _stack_rows([_quadratic_row(layer, lam_k, lam_next, box, *view) for view in views])


def _stack_rows(rows: list[tuple]) -> InnerResult:
    """One result from per-row (value, witness, grads, internal_duals) tuples: exact, with
    the witnesses, when every row is; else a bound with the duals that every row has."""
    values, witnesses, grads, duals = zip(*rows)
    sides = tuple(
        None if side[0] is None else {name: np.array([g[name] for g in side]) for name in side[0]}
        for side in zip(*grads)
    )
    exact = all(w is not None for w in witnesses)
    kept = [name for name in duals[0] if all(name in d for d in duals)]
    return InnerResult(np.array(values), EXACT if exact else UPPER_BOUND,
                       np.array(witnesses) if exact else None, sides,
                       {name: np.array([d[name] for d in duals]) for name in kept})


def _quadratic_row(layer, lam_k, lam_next, box, q_k, q_k_lin, q_n, q_n_lin):
    """One row's (value, witness, grads, duals); lam_k and lam_next give only the families."""
    n = layer.in_dim
    if not q_k.any() and not q_n.any():
        return _exact_linear(layer, lam_k, lam_next, box, q_k_lin, q_n_lin)

    coeffs = _coefficients(layer, q_k, q_k_lin, q_n, q_n_lin, box)
    zero = (np.zeros(n),) * 3
    starts = [(zero, _build_qp(layer, coeffs, *zero))]
    if layer.activation == "relu":
        # one subgradient step on the penalties from the zero start's kappa = 0
        # eigenpair; the moved point is certified only when its kappa = 0 value is lower
        mf, c0 = starts[0][1]
        est, _, v, weight = _shift_step(mf, np.zeros(mf.shape[0]))
        scale = float(max(1.0, np.abs(q_k).max(initial=0.0), np.abs(q_n).max(initial=0.0)))
        params = 0.0 - 0.3 * scale * _pull_back(layer, coeffs, v, weight)[4]
        params[n:] = np.maximum(params[n:], 0.0)
        if params.any():
            penalties = tuple(np.split(params, 3))
            mf_moved, c0_moved = _build_qp(layer, coeffs, *penalties)
            if c0_moved + _shift_step(mf_moved, np.zeros(mf_moved.shape[0]))[0] < c0 + est:
                starts.append((penalties, (mf_moved, c0_moved)))

    best = None
    for penalties, qp in starts:
        val, kappa, v, weight = qp_box_bound(*qp)
        if best is None or val < best[0]:
            best = (val, (*penalties, kappa), v, weight)
    val, duals, v, weight = best
    grad_qk, grad_qk_lin, grad_big_m, grad_m, _ = _pull_back(layer, coeffs, v, weight)
    grad_qn, grad_qn_lin = expected_quadratic_coeffs_adjoint(layer, grad_m, grad_big_m)
    grads = (
        as_quadratic_adjoint(lam_k, grad_qk, grad_qk_lin),
        as_quadratic_adjoint(lam_next, grad_qn, grad_qn_lin),
    )
    return val, None, grads, dict(zip(("zeta", "zeta_plus", "zeta_minus", "kappa"), duals))


def _exact_linear(layer, lam_k, lam_next, box, q_k_lin, q_n_lin):
    """The exact linear solve at Q = 0 as a row, its gradients mapped onto both multipliers:
    at the witness x, -(0.5 x x', x) for lam_k and (0.5 (E[y] E[y]' + diag Var[y]),
    E[y]) for lam_next, with y = W s(x) + b."""
    res = inner_linear(layer, Linear(theta=q_k_lin), Linear(theta=q_n_lin), box)
    x, feat = res.witness[0], res.grads[1]["theta"][0]
    var = layer.weights.variance @ layer.apply_activation(x) ** 2 + layer.bias.variance
    grads = (
        as_quadratic_adjoint(lam_k, -0.5 * np.outer(x, x), res.grads[0]["theta"][0]),
        as_quadratic_adjoint(lam_next, 0.5 * (np.outer(feat, feat) + np.diag(var)), feat),
    )
    return res.value[0], x, grads, {}
