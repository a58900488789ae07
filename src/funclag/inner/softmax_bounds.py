"""Sound upper bound for final-layer softmax objectives past the exact cap.

The bound partitions the box range [t_1, t_N] of softmax_m into grid
cells.  A point whose softmax_m lies in [t_i, t_{i+1}] satisfies
t_i (1 + sum_{j != m} exp(x_j - x_m)) <= 1, so its objective is at most
t_{i+1} plus the maximum of lin . x under that constraint.  Dualizing
the constraint with a scalar nu >= 0 leaves, with c = nu t_i,

    lin . x + nu (1 - t_i) - c sum_{j != m} exp(x_j - x_m),

which is jointly concave in x and bounds the cell for every nu >= 0.
For fixed x_m every other coordinate takes the clamped-log maximizer
x_j = clip(x_m + log(lin_j / c), lo_j, hi_j) (lo_j when lin_j <= 0), and
what remains, h(x_m), is concave with slope lin_m + sum_j c exp(x_j - x_m).
Substituting x_m = u + log c removes c from that slope, so the maximizer
of h on the real line is y_1 + log c, where y_1 is the one at c = 1: a
single root, found from the sorted slope breakpoints, serves every cell
and every nu.  A cell's value is the tangent bound at that maximizer
clipped to [lo_m, hi_m]; by concavity the tangent bound holds at any
point, so rounding in the maximizer only loosens it, and every value is
padded by a bound on its own rounding error.  nu is chosen per cell by
bisection of log nu on the sign of the slope in nu,
1 - t_i - t_i sum_j exp(x_j - x_m) at the maximizer, all cells at once;
every bisection point and nu = 0 are candidates.
"""

from __future__ import annotations

import numpy as np

from ..bounds import Interval
from ..multipliers import Multiplier, linear_coeffs
from .result import UPPER_BOUND, InnerResult
from .softmax_exact import box_softmax_max, box_softmax_min

_UNIT = 0.5 * np.finfo(float).eps
_LOG_NU_RANGE = (-40.0, 40.0)
_HALVINGS = 30


def _split(m, lin, lo, hi):
    """lin, lo, hi and log(lin) (-inf where lin <= 0) of the coordinates j != m."""
    others = np.arange(lin.shape[0]) != m
    lin_o = lin[others]
    with np.errstate(divide="ignore"):
        log_lin = np.log(np.maximum(lin_o, 0.0))
    return others, lin_o, lo[others], hi[others], log_lin


def _slope_root(m, lin, lo, hi) -> float:
    """Maximizer of h on the real line at c = 1 (+-inf where h is monotone).

    The slope lin_m + sum_j exp(x_j(u) - u) does not increase in u and
    changes form only where a coordinate with lin_j > 0 leaves lo_j or
    reaches hi_j, at u = lo_j - log lin_j and u = hi_j - log lin_j.
    Between those breakpoints it is lin_m + A + exp(-u) sum exp(x_j) over
    the clamped coordinates, with one closed-form zero.
    """
    _, lin_o, lo_o, hi_o, log_lin = _split(m, lin, lo, hi)
    pos = lin_o > 0.0
    breaks = np.sort(np.concatenate([lo_o[pos] - log_lin[pos], hi_o[pos] - log_lin[pos]]))
    with np.errstate(over="ignore"):
        x = np.clip(breaks[:, None] + log_lin, lo_o, hi_o)
        slopes = lin[m] + np.exp(x - breaks[:, None]).sum(axis=1)
    k = int(np.count_nonzero(slopes >= 0.0))
    left = breaks[k - 1] if k > 0 else -np.inf
    right = breaks[k] if k < len(breaks) else np.inf
    if left == right:
        return float(left)
    if np.isfinite(left) and np.isfinite(right):
        probe = 0.5 * (left + right)
    else:
        probe = left + 1.0 if np.isfinite(left) else right - 1.0 if np.isfinite(right) else 0.0
    z = probe + log_lin
    interior = (z > lo_o) & (z < hi_o)
    flat = lin[m] + lin_o[interior].sum()
    clamped = np.where(z <= lo_o, lo_o, hi_o)[~interior]
    if flat >= 0.0:
        return float(right)
    if clamped.size == 0:
        return float(left)
    top = clamped.max()
    root = top + np.log(np.exp(clamped - top).sum()) - np.log(-flat)
    return float(np.clip(root, left, right))


def _cell_bounds(m, lin, lo, hi, y1, t, log_nu):
    """Padded tangent bounds of the cell Lagrangians at levels t, nu = exp(log_nu).

    ``t`` and ``log_nu`` are arrays of one shape (k,).  Returns the
    bounds (+inf where the arithmetic left the finite range), the
    maximizing box points (k, n) and whether the Lagrangian rises in nu.
    """
    n = lin.shape[0]
    others, lin_o, lo_o, hi_o, log_lin = _split(m, lin, lo, hi)
    nu = np.exp(log_nu)
    log_t = np.log(t)
    log_c = log_nu + log_t
    y = np.clip(y1 + log_c, lo[m], hi[m])
    x = np.clip((y - log_c)[:, None] + log_lin, lo_o, hi_o)
    gap = x - y[:, None]
    e = np.exp(gap + log_c[:, None])  # c exp(x_j - x_m)
    slope = lin[m] + e.sum(axis=1)
    tangent = np.maximum(slope * (lo[m] - y), slope * (hi[m] - y))
    value = nu * (1.0 - t) + lin[m] * y + (lin_o * x - e).sum(axis=1) + tangent
    # each exp term carries a relative error that grows with the parts of
    # its exponent, and so does the slope; sums round once per term
    amp = 8.0 + np.abs(x) + np.abs(gap) + np.where(lin_o > 0.0, np.abs(log_lin), 0.0)
    amp = amp + (np.abs(y) + np.abs(log_nu) + np.abs(log_t))[:, None]
    spread = (amp * e).sum(axis=1)
    size = nu * (1.0 - t) + np.abs(lin[m] * y) + np.abs(lin_o * x).sum(axis=1) + spread
    reach = np.maximum(y - lo[m], hi[m] - y)
    pad = (n + 8) * _UNIT * (size + np.abs(tangent) + reach * (abs(lin[m]) + spread))
    bound = value + pad
    points = np.empty((len(y), n))
    points[:, m] = y
    points[:, others] = x
    return np.where(np.isfinite(bound), bound, np.inf), points, nu * (1.0 - t) > e.sum(axis=1)


def _linear_bound(lin, lo, hi):
    """The nu = 0 cell bound, the box maximum of lin . x, padded, and its corner."""
    terms = np.maximum(lin * lo, lin * hi)
    pad = (lin.shape[0] + 4) * _UNIT * np.abs(terms).sum()
    return float(terms.sum() + pad), np.where(lin >= 0.0, hi, lo)


def affine_cell_bound(
    m: int,
    lin: np.ndarray,
    box: Interval,
    t_level,
    nu,
) -> np.ndarray:
    """Bound max lin . x subject to t_level * sum_j exp(x_j - x_m) <= 1.

    The sum runs over every j, m included.  The bound holds at every dual
    scalar nu >= 0; ``t_level`` and ``nu`` broadcast against each other.
    """
    t, nu = np.broadcast_arrays(np.asarray(t_level, dtype=float), np.asarray(nu, dtype=float))
    zero, _ = _linear_bound(lin, box.lo, box.hi)
    y1 = _slope_root(m, lin, box.lo, box.hi)
    with np.errstate(all="ignore"):
        values, _, _ = _cell_bounds(m, lin, box.lo, box.hi, y1, t.ravel(), np.log(nu.ravel()))
    return np.where(nu.ravel() > 0.0, values, zero).reshape(t.shape)


def final_softmax_affine_bound(
    m: int,
    lam_k: Multiplier,
    box: Interval,
    n_grid: int = 20,
) -> InnerResult:
    """Sound bound on max softmax_m(x) - lam_k(x) via level-set partition.

    The grid spans the box range of softmax_m, widened by its rounding
    error.  The witness is the maximizer of the winning cell, and the
    internal duals keep each cell's nu for re-checks.
    """
    n = box.lo.shape[0]
    lin = -linear_coeffs(lam_k)
    lo, hi = box.lo, box.hi
    # softmax at a box corner: one rounding per term and per exponent part
    slack = (2 * n + 8 + 2 * float(np.max(hi) - np.min(lo))) * _UNIT
    t_min = box_softmax_min(m, box) * (1.0 - slack)
    t_max = min(box_softmax_max(m, box) * (1.0 + slack), 1.0)
    grid = np.linspace(t_min, t_max, max(int(n_grid), 2))
    levels = grid[:-1]
    cells = len(levels)

    zero, corner = _linear_bound(lin, lo, hi)
    best = np.full(cells, zero)
    nus = np.zeros(cells)
    points = np.tile(corner, (cells, 1))
    y1 = _slope_root(m, lin, lo, hi)
    a, b = np.full(cells, _LOG_NU_RANGE[0]), np.full(cells, _LOG_NU_RANGE[1])
    with np.errstate(all="ignore"):
        for _ in range(_HALVINGS):
            mid = 0.5 * (a + b)
            values, x, rising = _cell_bounds(m, lin, lo, hi, y1, levels, mid)
            better = values < best
            best[better] = values[better]
            nus[better] = np.exp(mid[better])
            points[better] = x[better]
            a, b = np.where(rising, a, mid), np.where(rising, mid, b)
    # one ulp up covers the rounding of the last addition
    totals = np.nextafter(best + grid[1:], np.inf)
    i = int(np.argmax(totals))
    return InnerResult(
        value=totals[i],
        mode=UPPER_BOUND,
        witness=points[i],
        internal_duals={"nu": nus, "t_grid": grid},
    )
