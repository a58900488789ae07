"""Sound upper bound for final-layer softmax objectives past the exact cap.

The bound partitions the reachable objective range [t_1, t_N] into grid
cells and bounds each cell after dualizing the softmax level constraint
with a single scalar.  Any non-negative value of that scalar gives a
valid cell bound, so the scalar search below can stop anywhere without
endangering soundness; only the inner per-cell maximization must
over-estimate, and it does so via a clamped closed form for every
coordinate but one plus a certified one-dimensional global search.
"""

from __future__ import annotations

import math

import numpy as np

from ..bounds import Interval
from ..multipliers import Multiplier, linear_coeffs
from .result import UPPER_BOUND, InnerResult
from .scalaropt import expanding_bracket_min, golden_section_min, lipschitz_box_max
from .softmax_exact import box_softmax_max, box_softmax_min


def _exp(z: float) -> float:
    return math.exp(min(z, 700.0))


def affine_cell_bound(
    m: int,
    lin: np.ndarray,
    box: Interval,
    t_level: float,
    nu: float,
    search_tol: float = 1e-9,
    search_evals: int = 400,
) -> float:
    """Bound max lin . x subject to t_level * sum_j exp(x_j - x_m) <= 1.

    The constraint is dualized with nu >= 0; for fixed x_m every other
    coordinate maximizes a concave scalar with a clamped log closed form,
    and the remaining one-dimensional problem in x_m is globally bounded
    by a Lipschitz branch-and-bound.  Valid for every nu >= 0.
    """
    nu = max(float(nu), 0.0)
    lo, hi = box.lo, box.hi
    n = lo.shape[0]
    others = [j for j in range(n) if j != m]
    c = nu * t_level

    def h(x_m: float) -> float:
        total = lin[m] * x_m + nu * (1.0 - t_level)
        for j in others:
            if c == 0.0:
                total += max(lin[j] * lo[j], lin[j] * hi[j])
                continue
            if lin[j] > 0.0:
                x_j = min(max(x_m + math.log(lin[j] / c), lo[j]), hi[j])
            else:
                x_j = lo[j]
            total += lin[j] * x_j - c * _exp(x_j - x_m)
        return total

    def cell_lipschitz(a: float, b: float) -> float:
        bound = abs(lin[m])
        if c > 0.0:
            bound += c * sum(_exp(hi[j] - a) for j in others)
        return bound

    upper, _ = lipschitz_box_max(
        h, float(lo[m]), float(hi[m]), cell_lipschitz, tol=search_tol, max_evals=search_evals
    )
    return upper


def final_softmax_affine_bound(
    m: int,
    lam_k: Multiplier,
    box: Interval,
    n_grid: int = 20,
    nu_tol: float = 1e-6,
) -> InnerResult:
    """Sound bound on max softmax_m(x) - lam_k(x) via level-set partition.

    The grid spans the exact box range of softmax_m; each cell's bound is
    minimized over its dual scalar nu by golden section (nu = 0 always
    included), and the certificate keeps the winning nus for re-checks.
    """
    n = box.lo.shape[0]
    lin = -linear_coeffs(lam_k, n)
    t_min = box_softmax_min(m, box)
    t_max = box_softmax_max(m, box)
    grid = np.linspace(t_min, t_max, max(int(n_grid), 2))

    nus = np.zeros(len(grid) - 1)
    best_total = -math.inf
    for i in range(len(grid) - 1):
        t_level = float(grid[i])

        def value(nu: float) -> float:
            return affine_cell_bound(m, lin, box, t_level, nu)

        v0 = value(0.0)
        lo_b, hi_b = expanding_bracket_min(value, x0=1.0, step=1.0)
        nu_star, v_star = golden_section_min(value, max(lo_b, 0.0), max(hi_b, 0.0), tol=nu_tol)
        if v0 <= v_star:
            nu_star, v_star = 0.0, v0
        nus[i] = nu_star
        best_total = max(best_total, v_star + float(grid[i + 1]))
    return InnerResult(
        value=best_total,
        mode=UPPER_BOUND,
        internal_duals={"nu": nus, "t_grid": grid},
    )
