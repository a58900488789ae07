import heapq
import math

import numpy as np
import pytest

from funclag import Interval, Linear
from funclag.inner import final_softmax_affine_bound, final_softmax_exact
from funclag.inner.softmax_bounds import affine_cell_bound
from funclag.inner.softmax_exact import box_softmax_max


def random_box(rng, n):
    lo = rng.standard_normal(n)
    return Interval(lo, lo + 0.5 + 2.0 * rng.random(n))


# --- scalar reference: the cell bound by Lipschitz branch-and-bound -------


def lipschitz_box_max(f, lo, hi, lipschitz, tol=1e-9, max_evals=400):
    """Certified upper bound on max f over [lo, hi], split best-first.

    ``lipschitz(a, b)`` is a Lipschitz constant of f on [a, b]; a cell's
    bound is its midpoint value padded by that constant times half its
    width, so the result over-estimates the maximum whenever it stops.
    """
    if hi <= lo:
        return f(lo)

    def cell(a, b):
        mid = 0.5 * (a + b)
        val = f(mid)
        return val + lipschitz(a, b) * 0.5 * (b - a), val

    ub0, best_val = cell(lo, hi)
    heap = [(-ub0, lo, hi)]
    evals = 1
    while heap and evals + 2 <= max_evals:
        neg_ub, a, b = heapq.heappop(heap)
        if -neg_ub - best_val <= tol:
            heapq.heappush(heap, (neg_ub, a, b))
            break
        mid = 0.5 * (a + b)
        for sa, sb in ((a, mid), (mid, b)):
            c_ub, c_val = cell(sa, sb)
            evals += 1
            best_val = max(best_val, c_val)
            heapq.heappush(heap, (-c_ub, sa, sb))
    return max(max((-h[0] for h in heap), default=best_val), best_val)


def reference_cell_bound(m, lin, box, t_level, nu):
    """The cell Lagrangian maximized over x_m by branch-and-bound, one point at a time."""
    lo, hi = box.lo, box.hi
    others = [j for j in range(len(lo)) if j != m]
    c = nu * t_level

    def h(x_m):
        total = lin[m] * x_m + nu * (1.0 - t_level)
        for j in others:
            if c == 0.0:
                total += max(lin[j] * lo[j], lin[j] * hi[j])
                continue
            x_j = min(max(x_m + math.log(lin[j] / c), lo[j]), hi[j]) if lin[j] > 0.0 else lo[j]
            total += lin[j] * x_j - c * math.exp(min(x_j - x_m, 700.0))
        return total

    def lipschitz(a, b):
        return abs(lin[m]) + c * sum(math.exp(min(hi[j] - a, 700.0)) for j in others)

    return lipschitz_box_max(h, float(lo[m]), float(hi[m]), lipschitz)


class TestAffineBound:
    def test_zero_multiplier_gives_box_max(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            box = random_box(rng, 3)
            res = final_softmax_affine_bound(0, Linear(theta=np.zeros(3)), box, n_grid=8)
            t_max = box_softmax_max(0, box)
            exact = final_softmax_exact(0, Linear(theta=np.zeros(3)), box).value
            assert res.value >= exact - 1e-9
            assert res.value <= t_max + 1e-9

    def test_two_point_grid(self):
        rng = np.random.default_rng(1)
        box = random_box(rng, 2)
        lam = Linear(theta=0.3 * rng.standard_normal(2))
        res2 = final_softmax_affine_bound(0, lam, box, n_grid=2)
        exact = final_softmax_exact(0, lam, box)
        assert res2.value >= exact.value - 1e-9

    def test_dominates_exact_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            box = random_box(rng, n)
            lam = Linear(theta=0.4 * rng.standard_normal(n))
            m = int(rng.integers(0, n))
            bound = final_softmax_affine_bound(m, lam, box, n_grid=10)
            exact = final_softmax_exact(m, lam, box)
            assert bound.value >= exact.value - 1e-9

    def test_any_nu_is_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            box = random_box(rng, 2)
            lam = 0.4 * rng.standard_normal(2)
            m = 0
            exact = final_softmax_exact(m, Linear(theta=lam), box)
            res = final_softmax_affine_bound(m, Linear(theta=lam), box, n_grid=6)
            grid = res.internal_duals["t_grid"]
            nus = res.internal_duals["nu"]
            for _ in range(10):
                i = int(rng.integers(0, len(grid) - 1))
                nu = max(float(nus[i] + rng.standard_normal()), 0.0)
                cell = affine_cell_bound(m, -lam, box, float(grid[i]), nu)
                assert cell + grid[i + 1] >= exact.value - grid[-1] + grid[i + 1] - 1e-9
                # the perturbed-cell bound keeps the overall bound sound
                total = max(res.value, cell + float(grid[i + 1]))
                assert total >= exact.value - 1e-9

    def test_closed_form_cell_is_no_looser_than_the_search(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            box = random_box(rng, n)
            lin = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 0.5)
            m = int(rng.integers(n))
            t = float(rng.uniform(0.01, 1.0))
            nu = float(np.exp(rng.uniform(-6.0, 4.0)))
            reference = reference_cell_bound(m, lin, box, t, nu)
            assert affine_cell_bound(m, lin, box, t, nu) <= reference + 1e-12

    def test_cells_broadcast_and_nu_zero_is_the_linear_box_max(self):
        rng = np.random.default_rng(5)
        box = random_box(rng, 4)
        lin = rng.standard_normal(4)
        t = np.array([0.1, 0.3, 0.6])
        nus = np.array([0.0, 0.5, 2.0])
        cells = affine_cell_bound(1, lin, box, t, nus)
        assert cells.shape == (3,)
        linear_max = np.maximum(lin * box.lo, lin * box.hi).sum()
        assert cells[0] == pytest.approx(linear_max, abs=1e-12) and cells[0] >= linear_max
        for i in (1, 2):
            assert cells[i] == affine_cell_bound(1, lin, box, t[i], nus[i])

    @pytest.mark.parametrize("n_grid", [2, 3, 20])
    def test_never_below_the_exact_solve(self, n_grid):
        # zero tolerance: every cell value is padded by its rounding error
        rng = np.random.default_rng(6 + n_grid)
        for trial in range(40):
            n = 2 + trial % 7
            lo = 2.0 * rng.standard_normal(n)
            box = Interval(lo, lo + (0.0 if trial % 10 == 9 else 3.0) * rng.random(n))
            lam = Linear(theta=rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 0.5))
            m = int(rng.integers(n))
            bound = final_softmax_affine_bound(m, lam, box, n_grid=n_grid)
            exact = final_softmax_exact(m, lam, box)
            assert bound.value >= exact.value
            assert np.all((box.lo <= bound.witness) & (bound.witness <= box.hi))
