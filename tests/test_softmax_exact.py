import itertools
import math

import numpy as np
import pytest

from funclag import Interval, Linear, Zero, softmax
from funclag.inner import final_softmax_exact, softmax_exact
from funclag.inner.result import EXACT
from funclag.inner.softmax_exact import (
    DimensionError,
    box_softmax_max,
    box_softmax_min,
    stationary_points_case_a,
    stationary_points_case_b,
)


def objective(m, lin, x):
    return float(softmax(x)[m] + lin @ x)


def reference_candidates(m, lin, lo, hi):
    """The plain 3^n loop: (assignment, value, point) of every candidate.

    The all-lower start comes first with assignment None, then each
    assignment's scalar candidates in enumeration order (all-lower first).
    """
    n = lo.shape[0]
    yield None, objective(m, lin, lo), lo.copy()
    for assignment in itertools.product((0, 1, 2), repeat=n):
        free = [j for j in range(n) if assignment[j] == 2]
        x = np.where(np.asarray(assignment) == 1, hi, lo).astype(float)
        if not free:
            yield assignment, objective(m, lin, x), x
            continue
        fixed = [j for j in range(n) if assignment[j] != 2]
        c = float(np.exp(x[fixed]).sum()) if fixed else 0.0
        if m in free:
            candidates = stationary_points_case_a(lin[free], free.index(m), c)
        else:
            candidates = stationary_points_case_b(lin[free], c, float(np.exp(x[m])))
        for xs in candidates:
            if np.any(xs < lo[free] - 1e-9) or np.any(xs > hi[free] + 1e-9):
                continue
            trial = x.copy()
            trial[free] = np.clip(xs, lo[free], hi[free])
            yield assignment, objective(m, lin, trial), trial


def case_a_gradient(lam, i, c, x):
    """Gradient of exp(x_i)/(sum exp + C) + lam.x at x."""
    e = np.exp(x)
    denom = e.sum() + c
    zeta = e / denom
    grad = lam - zeta[i] * zeta
    grad[i] = lam[i] + zeta[i] - zeta[i] ** 2
    return grad


def case_b_gradient(lam, c, d, x):
    e = np.exp(x)
    denom = e.sum() + c
    return lam - d * e / denom**2


class TestStationaryPointsCaseA:
    def test_zero_discriminant(self):
        pts = stationary_points_case_a(np.array([-0.25, 0.1]), 0, 1.0)
        assert len(pts) == 1
        e = np.exp(pts[0])
        shares = e / (e.sum() + 1.0)
        assert shares[0] == pytest.approx(0.5, abs=1e-12)

    def test_share_split(self):
        # lam_i = -0.1875 gives shares 0.75 and 0.25 on the two branches
        pts = stationary_points_case_a(np.array([-0.1875, 0.05]), 0, 1.0)
        shares = sorted(
            float(np.exp(x[0]) / (np.exp(x).sum() + 1.0)) for x in pts
        )
        assert shares == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_positive_lam_i_empty(self):
        assert stationary_points_case_a(np.array([0.1, 0.2]), 0, 1.0) == []

    def test_candidates_are_stationary(self):
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(200):
            lam = np.array([-rng.random() * 0.25, rng.random(), rng.random()])
            c = float(rng.random() * 2)
            for x in stationary_points_case_a(lam, 0, c):
                found += 1
                assert np.max(np.abs(case_a_gradient(lam, 0, c, x))) <= 1e-8
        assert found > 0


class TestStationaryPointsCaseB:
    def test_boundary_case(self):
        pts = stationary_points_case_b(np.array([1.0]), 1.0, 4.0)
        assert len(pts) == 1
        np.testing.assert_allclose(pts[0], [0.0], atol=1e-12)
        # embedded arithmetic check: f(0) = 4 / (e^0 + 1) = 2 with zero slope
        assert 4.0 / (math.exp(0.0) + 1.0) == pytest.approx(2.0)
        assert case_b_gradient(np.array([1.0]), 1.0, 4.0, np.zeros(1))[0] == pytest.approx(0.0)

    def test_nonpositive_lam_empty(self):
        assert stationary_points_case_b(np.array([1.0, -0.1]), 1.0, 4.0) == []

    def test_sum_condition(self):
        # sum(lam) beyond D / (4C) leaves no stationary point
        assert stationary_points_case_b(np.array([1.1]), 1.0, 4.0) == []

    def test_candidates_are_stationary(self):
        rng = np.random.default_rng(1)
        found = 0
        for _ in range(200):
            lam = rng.random(2) * 0.2 + 0.01
            c = float(rng.random() + 0.2)
            d = float(4.0 * c * lam.sum() * (1.0 + rng.random()))
            for x in stationary_points_case_b(lam, c, d):
                found += 1
                assert np.max(np.abs(case_b_gradient(lam, c, d, x))) <= 1e-8
        assert found > 0


class TestFinalSoftmaxExact:
    def test_monotone_corner(self):
        box = Interval(np.zeros(2), np.ones(2))
        res = final_softmax_exact(0, Zero(), box)
        assert res.value == pytest.approx(math.e / (math.e + 1.0), rel=1e-12)
        np.testing.assert_allclose(res.witness, [1.0, 0.0])

    def test_box_softmax_corners(self):
        box = Interval(np.array([-1.0, 0.0, 0.3]), np.array([0.5, 2.0, 0.9]))
        assert box_softmax_max(1, box) == pytest.approx(
            math.exp(2.0) / (math.exp(2.0) + math.exp(-1.0) + math.exp(0.3)), rel=1e-12
        )
        assert box_softmax_min(1, box) == pytest.approx(
            math.exp(0.0) / (math.exp(0.0) + math.exp(0.5) + math.exp(0.9)), rel=1e-12
        )

    def test_dimension_cap(self, monkeypatch):
        rng = np.random.default_rng(5)
        lam = Linear(theta=0.2 * rng.standard_normal(11))
        lo = rng.standard_normal(11)
        res = final_softmax_exact(3, lam, Interval(lo, lo + rng.random(11)))
        assert res.mode == EXACT
        assert res.value >= objective(3, -lam.theta, lo)

        def no_enumeration(*args):
            raise AssertionError("enumeration started past the cap")

        monkeypatch.setattr(softmax_exact, "_corner_tables", no_enumeration)
        monkeypatch.setattr(softmax_exact, "_assignment_candidates", no_enumeration)
        box = Interval(np.zeros(13), np.ones(13))
        with pytest.raises(DimensionError):
            final_softmax_exact(0, Zero(), box, cap=12)
        with pytest.raises(DimensionError):
            final_softmax_exact(0, Zero(), Interval(np.zeros(5), np.ones(5)), cap=4)

    def test_matches_reference_loop_bit_for_bit(self):
        """Value and witness are the reference loop's first best candidate."""
        seen = {"case a wins": 0, "case b wins": 0, "degenerate": 0, "zero": 0,
                "ordered tie": 0}

        def check(m, lin, box, lam):
            candidates = list(reference_candidates(m, lin, box.lo, box.hi))
            top = max(value for _, value, _ in candidates)
            won, value, witness = next(c for c in candidates if c[1] == top)
            res = final_softmax_exact(m, lam, box)
            assert res.mode == EXACT
            assert res.value == value, (m, lin, box)
            assert np.array_equal(res.witness, witness), (m, lin, box)
            if won is not None and 2 in won:
                seen["case a wins" if won[m] == 2 else "case b wins"] += 1
            seen["ordered tie"] += won is not None and any(
                v == top and not np.array_equal(x, witness) for _, v, x in candidates
            )

        rng = np.random.default_rng(11)
        for n in range(1, 9):
            per_label = 6 if n <= 4 else (2 if n <= 6 else 1)
            for m in range(n):
                for k in range(per_label):
                    lo = 1.5 * rng.standard_normal(n)
                    width = 2.5 * rng.random(n)
                    # lin > 0 off the target and lin[m] in [-1/4, 0] make
                    # stationary points of both cases reachable
                    lin = rng.random(n) * rng.choice([0.05, 0.2, 0.6])
                    if k % 2 == 0:
                        lin[m] = -0.25 * rng.random()
                        width[m] = 5.0
                    else:
                        lin[rng.random(n) < 0.25] *= -1.0
                    if k % 3 == 1:
                        width[rng.random(n) < 0.4] = 0.0
                        seen["degenerate"] += int(np.any(width == 0.0))
                    box = Interval(lo, lo + width)
                    if k % 3 == 2:
                        check(m, np.zeros(n), box, Zero())
                        seen["zero"] += 1
                    else:
                        check(m, lin, box, Linear(theta=-lin))
        # sum(lin) = 0 on a dyadic cube: the objective is flat along the
        # diagonal and the points of assignments (1, 2) and (2, 0) tie exactly
        lin = np.array([-205.0, 205.0]) / 1024.0
        check(0, lin, Interval(np.full(2, 0.5), np.full(2, 1.75)), Linear(theta=-lin))
        # every coefficient small and positive: each free set without m
        # passes the sign tests, so one free-set size fills several passes
        for m in (0, 5):
            lin = 0.02 * rng.random(8) + 1e-3
            lo = 1.5 * rng.standard_normal(8)
            check(m, lin, Interval(lo, lo + 2.5 * rng.random(8)), Linear(theta=-lin))
        assert all(count > 0 for count in seen.values()), seen

    def test_screen_scores_every_scalar_candidate(self, monkeypatch):
        """Every assignment with a scalar stationary candidate gets a screen row."""
        passes = []
        screen_rows = softmax_exact._screen_rows

        def spy(*args):
            found = screen_rows(*args)
            passes.append(np.concatenate([codes for codes, _ in found] or [[]]))
            return found

        monkeypatch.setattr(softmax_exact, "_screen_rows", spy)
        rng = np.random.default_rng(12)
        for n, kind in [(8, "small"), (8, "small"), (5, "mixed"), (6, "mixed"), (7, "mixed")]:
            m = int(rng.integers(n))
            lo = 0.5 * rng.standard_normal(n)
            hi = lo + 1.0 + 2.0 * rng.random(n)
            if kind == "small":
                lin = 0.02 * rng.random(n) + 1e-3
            else:
                lin = 0.2 * rng.random(n)
                lin[m] = -0.25 * rng.random()
            passes.clear()
            final_softmax_exact(m, Linear(theta=-lin), Interval(lo, hi))
            screened = set(np.concatenate(passes).astype(int).tolist())
            weights = 3 ** np.arange(n - 1, -1, -1)
            accepted = {
                int(np.dot(assignment, weights))
                for assignment, _, _ in reference_candidates(m, lin, lo, hi)
                if assignment is not None and 2 in assignment
            }
            assert accepted and accepted <= screened, (n, m, sorted(accepted - screened))
            if kind == "small":
                assert len(passes) > 7  # a free-set size spans several passes

    def test_matches_fine_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            lam = 0.4 * rng.standard_normal(2)
            lo = rng.standard_normal(2)
            box = Interval(lo, lo + 0.5 + 2.0 * rng.random(2))
            res = final_softmax_exact(0, Linear(theta=-lam), box)
            xs = np.linspace(box.lo[0], box.hi[0], 1000)
            ys = np.linspace(box.lo[1], box.hi[1], 1000)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            P = np.stack([X.ravel(), Y.ravel()], axis=1)
            vals = softmax(P)[:, 0] + P @ lam
            spacing = np.array([xs[1] - xs[0], ys[1] - ys[0]])
            lip = math.sqrt(((0.25 + np.abs(lam)) ** 2).sum())
            err = lip * float(np.linalg.norm(spacing)) / 2.0
            assert res.value >= vals.max() - 1e-9
            assert res.value <= vals.max() + err

    def test_interior_maximum_found(self):
        # concave-ish instance whose maximum is strictly inside the box
        lam = np.array([-0.1, 0.05])
        box = Interval(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
        res = final_softmax_exact(0, Linear(theta=-lam), box)
        xs = np.linspace(-4, 4, 1200)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        P = np.stack([X.ravel(), Y.ravel()], axis=1)
        vals = softmax(P)[:, 0] + P @ lam
        assert res.value >= vals.max() - 1e-9

    @pytest.mark.parametrize(
        "theta, m",
        [((0.1, -0.1), 0), ((-0.1, 0.1), 1), ((-0.1, -0.1), 0), ((-0.1, -0.1), 1)],
    )
    def test_logits_below_exp_underflow(self, theta, m):
        # every fixed logit underflows exp; the value obeys the shift
        # identity of softmax(x)[m] - theta.x: moving the box by c * 1
        # changes it by -c * sum(theta)
        lam = Linear(theta=np.array(theta))
        low = final_softmax_exact(m, lam, Interval(np.full(2, -800.0), np.full(2, -799.0)))
        unit = final_softmax_exact(m, lam, Interval(np.zeros(2), np.ones(2)))
        assert low.mode == EXACT
        assert low.value == pytest.approx(unit.value + 800.0 * sum(theta), abs=1e-10)
        np.testing.assert_allclose(low.witness, unit.witness - 800.0, atol=1e-9)
