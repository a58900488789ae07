import numpy as np
import pytest

from funclag import DiagQuadratic, Interval, Linear, Zero, softmax
from funclag.inner import (
    final_softmax_affine_bound,
    final_softmax_exact,
    final_softmax_quadratic_bound,
)
from funclag.inner.softmax_bounds import affine_cell_bound, quadratic_cell_bound, scalar_exp_quad_max
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


class TestScalarExpQuadMax:
    @pytest.mark.parametrize("c,a,b", [(1.0, 0.5, 0.3), (-1.2, -0.4, 0.6), (0.7, 0.1, -0.5),
                                       (0.0, 0.3, 0.4), (0.0, 0.3, -0.4), (-0.5, 0.2, -0.3)])
    def test_dominates_dense_scan(self, c, a, b):
        lo, hi = -2.0, 2.5
        zs = np.linspace(lo, hi, 400001)
        vals = c * np.exp(zs) - a * zs - b * zs**2
        assert scalar_exp_quad_max(c, a, b, lo, hi) >= vals.max() - 1e-9


class TestQuadraticBound:
    def test_theta_zero_is_valid(self):
        rng = np.random.default_rng(4)
        box = random_box(rng, 2)
        mu = np.array([1.0, 0.0])
        alpha, beta = 0.3 * rng.standard_normal(2), 0.2 * rng.standard_normal(2)
        cell = quadratic_cell_bound(mu, alpha, beta, box, (0.0, 1.0), theta=0.0)
        xs = np.linspace(box.lo[0], box.hi[0], 400)
        ys = np.linspace(box.lo[1], box.hi[1], 400)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        P = np.stack([X.ravel(), Y.ravel()], axis=1)
        vals = softmax(P) @ mu - P @ alpha - (P * P) @ beta
        assert cell >= vals.max() - 1e-9

    def test_beta_zero_still_dominates_exact(self):
        # with beta = 0 the construction degenerates to an affine-multiplier
        # bound; it stays above the exact value though it does not coincide
        # with the level-set-partition bound (different dualizations)
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = 3
            alpha = 0.4 * rng.standard_normal(n)
            box = random_box(rng, n)
            m = int(rng.integers(0, n))
            mu = np.zeros(n)
            mu[m] = 1.0
            lam = DiagQuadratic(alpha=alpha, beta=np.zeros(n))
            qb = final_softmax_quadratic_bound(mu, lam, box, n_grid=20)
            exact = final_softmax_exact(m, Linear(theta=alpha), box)
            assert qb.value >= exact.value - 1e-6

    def test_dominates_grid_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = 2
            alpha = 0.4 * rng.standard_normal(n)
            beta = 0.3 * rng.standard_normal(n)
            box = random_box(rng, n)
            mu = rng.random(n)
            lam = DiagQuadratic(alpha=alpha, beta=beta)
            qb = final_softmax_quadratic_bound(mu, lam, box, n_grid=12)
            xs = np.linspace(box.lo[0], box.hi[0], 700)
            ys = np.linspace(box.lo[1], box.hi[1], 700)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            P = np.stack([X.ravel(), Y.ravel()], axis=1)
            vals = softmax(P) @ mu - P @ alpha - (P * P) @ beta
            assert qb.value >= vals.max() - 1e-9

    def test_any_theta_is_valid(self):
        # shifting the scalar dual in any direction keeps every cell sound
        rng = np.random.default_rng(7)
        for _ in range(8):
            box = random_box(rng, 2)
            alpha = 0.4 * rng.standard_normal(2)
            beta = 0.3 * rng.standard_normal(2)
            mu = rng.random(2)
            lam = DiagQuadratic(alpha=alpha, beta=beta)
            res = final_softmax_quadratic_bound(mu, lam, box, n_grid=8)
            xs = np.linspace(box.lo[0], box.hi[0], 500)
            ys = np.linspace(box.lo[1], box.hi[1], 500)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            P = np.stack([X.ravel(), Y.ravel()], axis=1)
            oracle = float((softmax(P) @ mu - P @ alpha - (P * P) @ beta).max())
            grid = res.internal_duals["t_grid"]
            thetas = res.internal_duals["theta"]
            for _ in range(10):
                j = int(rng.integers(0, len(grid) - 1))
                theta = float(thetas[j] + rng.standard_normal())
                total = max(
                    quadratic_cell_bound(
                        mu, alpha, beta, box,
                        (float(grid[i]), float(grid[i + 1])),
                        float(thetas[i]) if i != j else theta,
                    )
                    for i in range(len(grid) - 1)
                )
                assert total >= oracle - 1e-9
