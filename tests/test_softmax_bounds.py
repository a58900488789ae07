import numpy as np

from funclag import Interval, Linear, Zero
from funclag.inner import final_softmax_affine_bound, final_softmax_exact
from funclag.inner.softmax_bounds import affine_cell_bound
from funclag.inner.softmax_exact import box_softmax_max


def random_box(rng, n):
    lo = rng.standard_normal(n)
    return Interval(lo, lo + 0.5 + 2.0 * rng.random(n))


class TestAffineBound:
    def test_zero_multiplier_gives_box_max(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            box = random_box(rng, 3)
            res = final_softmax_affine_bound(0, Zero(), box, n_grid=8)
            t_max = box_softmax_max(0, box)
            exact = final_softmax_exact(0, Zero(), box).value
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
