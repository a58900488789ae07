import itertools
import math

import numpy as np
import pytest

from funclag import Interval, Linear, softmax
from funclag.inner import softmax_exact
from funclag.inner.result import EXACT

from oracles import (
    assignment_candidates,
    box_softmax_max,
    box_softmax_min,
    reference_assignment_candidates,
    reference_candidates,
    reference_rows,
    softmax_row,
    stationary_points_case_a,
    stationary_points_case_b,
)


def objective(m, lin, x):
    return float(softmax(x)[m] + lin @ x)


def walk(m, lin, lo, hi):
    """The rows of ``walk_rows``, each copied as it is yielded."""
    return [list(row) for row, _, _ in softmax_exact.walk_rows(m, lin, lo, hi)]


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


FUZZ_COVERAGE = ("case a wins", "case b wins", "ordered tie", "degenerate", "zero",
                 "target in case a", "small positive", "tied thresholds", "underflow", "width 10")


def fuzz_instance(rng, n, kind, seen):
    """One random instance (m, lin, box) of fuzz kind 0-6, counted in ``seen``."""
    m = int(rng.integers(n))
    lo = 1.5 * rng.standard_normal(n)
    width = 2.5 * rng.random(n)
    lin = rng.random(n) * rng.choice([0.05, 0.2, 0.6])
    if kind == 0:
        # lin > 0 off the target and lin[m] in [-1/4, 0]: both cases reachable
        lin[m] = -0.25 * rng.random()
        width[m] = 5.0
        seen["target in case a"] += 1
    elif kind == 1:
        lin[rng.random(n) < 0.25] *= -1.0
        width[rng.random(n) < 0.4] = 0.0
        seen["degenerate"] += int(np.any(width == 0.0))
    elif kind == 2:
        lin = np.zeros(n)
        seen["zero"] += 1
    elif kind == 3:
        lin = 0.02 * rng.random(n) + 1e-3
        seen["small positive"] += 1
    elif kind == 4 and n >= 3:
        # two coordinates share log lin_j - lo_j exactly
        j, k = [j for j in range(n) if j != m][:2]
        lin[k], lo[k] = lin[j], lo[j]
        lin[m] = -0.25 * rng.random()
        seen["tied thresholds"] += 1
    elif kind == 5:
        # every logit below exp underflow
        lo -= 800.0
        lin[rng.random(n) < 0.25] *= -1.0
        seen["underflow"] += 1
    elif kind == 6:
        lin = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 1.0)
    return m, lin, Interval(lo, lo + width)


def check_against_reference(m, lin, box, seen):
    """The solve returns the 3^n loop's first best candidate, bit for bit."""
    candidates = list(reference_candidates(m, lin, box.lo, box.hi))
    top = max(value for _, value, _ in candidates)
    won, value, witness = next(c for c in candidates if c[1] == top)
    res = softmax_row(m, Linear(theta=-lin), box)
    assert res.mode == EXACT
    assert res.value == value, (m, lin, box)
    assert np.array_equal(res.witness, witness), (m, lin, box)
    if won is not None and 2 in won:
        seen["case a wins" if won[m] == 2 else "case b wins"] += 1
    seen["ordered tie"] += won is not None and any(
        v == top and not np.array_equal(x, witness) for _, v, x in candidates
    )
    seen["width 10"] += len(lin) == 10


class TestStationaryPointsCaseA:
    def test_zero_discriminant(self):
        pts = stationary_points_case_a([-0.25, 0.1], 0, 1.0)
        assert len(pts) == 1
        e = np.exp(pts[0])
        shares = e / (e.sum() + 1.0)
        assert shares[0] == pytest.approx(0.5, abs=1e-12)

    def test_share_split(self):
        # lam_i = -0.1875 gives shares 0.75 and 0.25 on the two branches
        pts = stationary_points_case_a([-0.1875, 0.05], 0, 1.0)
        shares = sorted(
            float(np.exp(x[0]) / (np.exp(x).sum() + 1.0)) for x in pts
        )
        assert shares == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_positive_lam_i_empty(self):
        assert stationary_points_case_a([0.1, 0.2], 0, 1.0) == []

    def test_candidates_are_stationary(self):
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(200):
            lam = np.array([-rng.random() * 0.25, rng.random(), rng.random()])
            c = float(rng.random() * 2)
            for x in stationary_points_case_a(lam.tolist(), 0, c):
                found += 1
                assert np.max(np.abs(case_a_gradient(lam, 0, c, x))) <= 1e-8
        assert found > 0


class TestStationaryPointsCaseB:
    def test_boundary_case(self):
        pts = stationary_points_case_b([1.0], 1.0, 4.0)
        assert len(pts) == 1
        np.testing.assert_allclose(pts[0], [0.0], atol=1e-12)
        # embedded arithmetic check: f(0) = 4 / (e^0 + 1) = 2 with zero slope
        assert 4.0 / (math.exp(0.0) + 1.0) == pytest.approx(2.0)
        assert case_b_gradient(np.array([1.0]), 1.0, 4.0, np.zeros(1))[0] == pytest.approx(0.0)

    def test_nonpositive_lam_empty(self):
        assert stationary_points_case_b([1.0, -0.1], 1.0, 4.0) == []

    def test_sum_condition(self):
        # sum(lam) beyond D / (4C) leaves no stationary point
        assert stationary_points_case_b([1.1], 1.0, 4.0) == []

    def test_candidates_are_stationary(self):
        rng = np.random.default_rng(1)
        found = 0
        for _ in range(200):
            lam = rng.random(2) * 0.2 + 0.01
            c = float(rng.random() + 0.2)
            d = float(4.0 * c * lam.sum() * (1.0 + rng.random()))
            for x in stationary_points_case_b(lam.tolist(), c, d):
                found += 1
                assert np.max(np.abs(case_b_gradient(lam, c, d, x))) <= 1e-8
        assert found > 0


class TestFinalSoftmaxExact:
    def test_monotone_corner(self):
        box = Interval(np.zeros(2), np.ones(2))
        res = softmax_row(0, Linear(theta=np.zeros(2)), box)
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

    def test_width_16_is_solved_exactly(self):
        rng = np.random.default_rng(5)
        n, m = 16, 3
        lin = 0.2 * rng.standard_normal(n)
        lo = rng.standard_normal(n)
        box = Interval(lo, lo + rng.random(n))
        res = softmax_row(m, Linear(theta=-lin), box)
        assert res.mode == EXACT
        assert np.all((box.lo <= res.witness) & (res.witness <= box.hi))
        assert res.value == objective(m, lin, res.witness)
        corners = np.where(rng.random((2000, n)) < 0.5, box.lo, box.hi)
        points = box.lo + rng.random((20_000, n)) * (box.hi - box.lo)
        for sample in (corners, points):
            assert res.value >= float((softmax(sample)[:, m] + sample @ lin).max())

    def test_matches_reference_loop_bit_for_bit(self):
        """Value and witness are the 3^n loop's first best candidate, on 1000+ instances."""
        seen = dict.fromkeys(FUZZ_COVERAGE, 0)
        rng = np.random.default_rng(11)
        for i in range(1000):
            # widths 1-5, and 6-10 on every 200th instance (the loop is 3^n)
            n = 6 + i // 200 if i % 200 == 199 else 1 + i % 5
            check_against_reference(*fuzz_instance(rng, n, i % 7, seen), seen)
        # sum(lin) = 0 on a dyadic cube: the objective is flat along the
        # diagonal and the points of assignments (1, 2) and (2, 0) tie exactly
        check_against_reference(
            0, np.array([-205.0, 205.0]) / 1024.0, Interval(np.full(2, 0.5), np.full(2, 1.75)), seen
        )
        assert all(count > 0 for count in seen.values()), seen

    @pytest.mark.parametrize("n, count", [(6, 42), (7, 14), (8, 7)])
    def test_matches_reference_loop_at_width(self, n, count):
        """Every fuzz kind at the widths the main fuzz samples rarely, bit for bit."""
        seen = dict.fromkeys(FUZZ_COVERAGE, 0)
        rng = np.random.default_rng(100 + n)
        for i in range(count):
            check_against_reference(*fuzz_instance(rng, n, i % 7, seen), seen)
        kinds = ("target in case a", "degenerate", "zero", "small positive", "tied thresholds",
                 "underflow")
        assert all(seen[kind] > 0 for kind in kinds), seen

    def test_every_attainer_is_a_water_filling_row(self):
        """Every assignment whose scalar candidate attains the maximum is a row.

        On boxes of positive width; a zero-width coordinate makes its lo
        and hi assignments the same point, and the rows hold one of them.
        """
        rng = np.random.default_rng(12)
        for trial in range(60):
            n = 2 + trial % 6
            m = int(rng.integers(n))
            lo = 0.5 * rng.standard_normal(n)
            hi = lo + 0.1 + 2.0 * rng.random(n)
            if trial % 3 == 0:
                lin = 0.02 * rng.random(n) + 1e-3
            else:
                lin = 0.3 * rng.standard_normal(n)
                lin[m] = -0.25 * rng.random() if trial % 3 == 1 else lin[m]
            rows = {tuple(row) for row in walk(m, lin.tolist(), lo.tolist(), hi.tolist())}
            assert len(rows) <= 6 * n - 3
            candidates = list(reference_candidates(m, lin, lo, hi))
            top = max(value for _, value, _ in candidates)
            attainers = {a for a, value, _ in candidates if a is not None and value == top}
            assert attainers and attainers <= rows, (n, m, sorted(attainers - rows))

    def test_matches_fine_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            lam = 0.4 * rng.standard_normal(2)
            lo = rng.standard_normal(2)
            box = Interval(lo, lo + 0.5 + 2.0 * rng.random(2))
            res = softmax_row(0, Linear(theta=-lam), box)
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
        res = softmax_row(0, Linear(theta=-lam), box)
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
        low = softmax_row(m, lam, Interval(np.full(2, -800.0), np.full(2, -799.0)))
        unit = softmax_row(m, lam, Interval(np.zeros(2), np.ones(2)))
        assert low.mode == EXACT
        assert low.value == pytest.approx(unit.value + 800.0 * sum(theta), abs=1e-10)
        np.testing.assert_allclose(low.witness, unit.witness - 800.0, atol=1e-9)

    @pytest.mark.parametrize(
        "offset, spread", [(-740.0, 5.0), (350.0, 10.0), (705.0, 5.0), (1000.0, 1.0)]
    )
    def test_logits_past_the_normal_exp_range(self, offset, spread):
        # fixed exps that sum to a subnormal, or past the square root of
        # the float range, are solved in shifted logits: no sampled box
        # point beats the value, and it is the 3^n loop's, bit for bit
        rng = np.random.default_rng(abs(int(offset)))
        for trial in range(30):
            n = 2 + trial % 4
            m = trial % n
            lo = offset + rng.standard_normal(n)
            box = Interval(lo, lo + spread * rng.random(n))
            lin = 0.1 * rng.standard_normal(n)
            if trial % 2:
                lin = 0.1 * np.abs(lin)
            with np.errstate(over="ignore"):
                res = softmax_row(m, Linear(theta=-lin), box)
                candidates = list(reference_candidates(m, lin, box.lo, box.hi))
            top = max(value for _, value, _ in candidates)
            _, value, witness = next(c for c in candidates if c[1] == top)
            assert res.value == value and np.array_equal(res.witness, witness)
            points = np.vstack([box.lo + rng.random((4000, n)) * (box.hi - box.lo),
                                np.where(rng.random((500, n)) < 0.5, box.lo, box.hi)])
            sampled = float((softmax(points)[:, m] + points @ lin).max())
            assert res.value >= sampled - 1e-12 * abs(sampled)

    @pytest.mark.parametrize("offset", [705.0, 720.0, 1000.0])
    def test_logits_past_exp_overflow(self, offset):
        # exp of a bound overflows: under the dual's error state the solve
        # neither raises nor falls below any sampled box point
        rng = np.random.default_rng(int(offset))
        for trial in range(134):
            n = 2 + trial % 5
            m = trial % n
            lo = offset + rng.standard_normal(n)
            box = Interval(lo, lo + 6.0 * rng.random(n))
            lin = 0.1 * rng.standard_normal(n)
            if trial % 2:
                lin = 0.1 * np.abs(lin)
            with np.errstate(over="raise", invalid="raise"):
                res = softmax_row(m, Linear(theta=-lin), box)
            points = box.lo + rng.random((3000, n)) * (box.hi - box.lo)
            sampled = float((softmax(points)[:, m] + points @ lin).max())
            assert res.value >= sampled - 1e-12 * abs(sampled)

    @pytest.mark.parametrize("lo, hi, scale, raises", [
        (-1e308, 1e308, 0.1, True),    # x - max(x) overflows in the softmax
        (1e307, 1e308, 1e10, True),    # lin . x overflows
        (1e307, 1e308, 0.1, False),
        (0.0, 1e290, -1e10, False),
    ])
    def test_logits_near_the_float_range(self, lo, hi, scale, raises):
        # under the dual's error state the solve raises where scoring a candidate
        # overflows, and otherwise returns the 3^n loop's first best, bit for bit
        for n in range(2, 5):
            lin = scale * np.array([1.0, -0.5, 0.25, -0.125][:n])
            box = Interval(np.full(n, lo), np.full(n, hi))
            for m in range(n):
                with np.errstate(over="raise", invalid="raise"):
                    if raises:
                        with pytest.raises(FloatingPointError):
                            softmax_row(m, Linear(theta=-lin), box)
                        continue
                    res = softmax_row(m, Linear(theta=-lin), box)
                    candidates = list(reference_candidates(m, lin, box.lo, box.hi))
                top = max(value for _, value, _ in candidates)
                _, value, witness = next(c for c in candidates if c[1] == top)
                assert res.value == value and np.array_equal(res.witness, witness)


class TestRows:
    def test_positive_coordinates_fill_in_threshold_order(self):
        # thresholds log lin_j - lo_j, log lin_j - hi_j: j=1 interior at
        # log 0.1, j=2 interior at log 0.05, j=1 hi at log 0.1 - 1, j=2 hi
        # at log 0.05 - 1; x_0 takes all three states since lin_0 = 0
        rows = walk(0, [0.0, 0.1, 0.05], [0.0] * 3, [1.0] * 3)
        patterns = [(0, 0), (2, 0), (2, 2), (1, 2), (1, 1)]
        assert rows == [[state, a, b] for a, b in patterns for state in (0, 1, 2)]
        assert len(rows) == 6 * 3 - 3

    def test_tied_thresholds_take_interior_first(self):
        # log lin_1 - hi_1 == log lin_2 - lo_2: j=2 turns interior before
        # j=1 reaches hi, so (hi, lo) is no pattern and (interior, interior) is
        rows = walk(0, [0.0, 0.1, 0.1], [0.0, 0.0, 1.0], [1.0, 1.0, 2.0])
        patterns = {(row[1], row[2]) for row in rows}
        assert patterns == {(0, 0), (2, 0), (2, 2), (1, 2), (1, 1)}

    def test_nonpositive_coordinates_sit_at_lo(self):
        rng = np.random.default_rng(13)
        for trial in range(40):
            n = 2 + trial % 6
            m = int(rng.integers(n))
            lin = 0.3 * rng.standard_normal(n)
            lin[rng.random(n) < 0.3] = 0.0
            lo = rng.standard_normal(n)
            rows = walk(m, lin.tolist(), lo.tolist(), (lo + rng.random(n)).tolist())
            at_lo = [j for j in range(n) if j != m and lin[j] <= 0.0]
            assert rows and all(row[j] == 0 for row in rows for j in at_lo)
            assert len(rows) <= 6 * n - 3

    @pytest.mark.parametrize(
        "lin_m, interior", [(-0.3, False), (-0.25, True), (-0.1, True), (0.0, True), (0.1, False)]
    )
    def test_target_is_interior_only_for_lin_m_in_a_quarter(self, lin_m, interior):
        rows = walk(1, [0.05, lin_m, 0.02], [0.0, -1.0, 0.5], [2.0, 1.0, 1.0])
        assert any(row[1] == 2 for row in rows) == interior
        assert {row[1] for row in rows} >= {0, 1}

    def test_fixed_target_rows_past_a_quarter_are_dropped(self):
        # with both others interior sum(lin[F]) = 0.3 > 1/4: case b has no
        # point there, so only the interior target is kept
        rows = walk(0, [-0.1, 0.2, 0.1], [0.0] * 3, [1.0] * 3)
        assert [row[0] for row in rows if row[1:] == [2, 2]] == [2]
        assert sorted(row[0] for row in rows if row[1:] == [2, 0]) == [0, 1, 2]

    @pytest.mark.parametrize("lin_1, kept", [(0.25, True), (float(np.nextafter(0.25, 1.0)), False)])
    def test_quarter_cut_needs_no_slack(self, lin_1, kept):
        # with only the target fixed C = D, so D / (4C) is 1/4 exactly: free
        # coefficients summing to 1/4 keep case b's double root, at x_1 = x_0,
        # and one float past 1/4 leaves no point, so the row can go
        lin, lo, hi = [0.1, lin_1], [0.0, -1.0], [1.0, 2.0]
        rows = walk(0, lin, lo, hi)
        assert ([0, 2] in rows, [1, 2] in rows) == (kept, kept)
        exps = (np.exp(lo).tolist(), np.exp(hi).tolist())
        for state, x_0 in ((0, lo[0]), (1, hi[0])):
            points = assignment_candidates(0, lin, lo, hi, *exps, (state, 2))
            assert len(points) == kept
            if kept:
                assert points[0][1] == pytest.approx(x_0, abs=1e-12)
        seen = dict.fromkeys(FUZZ_COVERAGE, 0)
        check_against_reference(0, np.array(lin), Interval(np.array(lo), np.array(hi)), seen)

    def test_walk_yields_the_reference_rows_in_order(self):
        """Same rows as the row-by-row reference, all-lower first, at most 6n - 3."""
        seen = dict.fromkeys(FUZZ_COVERAGE, 0)
        rng = np.random.default_rng(14)
        for n in range(1, 13):
            for i in range(14):
                m, lin, box = fuzz_instance(rng, n, i % 7, seen)
                args = (m, lin.tolist(), box.lo.tolist(), box.hi.tolist())
                rows = walk(*args)
                assert rows == reference_rows(*args), (n, i)
                assert rows[0] == [0] * n
                assert len(rows) <= 6 * n - 3

    def test_walk_yields_each_rows_point_and_interior(self):
        rng = np.random.default_rng(15)
        for n in range(1, 13):
            for i in range(7):
                m, lin, box = fuzz_instance(rng, n, i, dict.fromkeys(FUZZ_COVERAGE, 0))
                lo, hi = box.lo.tolist(), box.hi.tolist()
                for row, x, free in softmax_exact.walk_rows(m, lin.tolist(), lo, hi):
                    assert x == [h if s == 1 else low for s, low, h in zip(row, lo, hi)]
                    assert free == [j for j, s in enumerate(row) if s == 2]


def unpinned(m, lin, box):
    """The solve with no coordinate pinned: the plain water-filling rows."""
    pins = softmax_exact.pins
    softmax_exact.pins = lambda *args: {}
    try:
        return softmax_row(m, Linear(theta=-lin), box)
    finally:
        softmax_exact.pins = pins


def box_pins(m, lin, box):
    lo, hi = box.lo.tolist(), box.hi.tolist()
    return softmax_exact.pins(m, lin.tolist(), lo, hi, *softmax_exact.corner_shares(lo, hi))


def derivative_ranges(m, box):
    """Per coordinate, the least and greatest softmax term of its partial derivative on
    the box: s_m s_j for j != m, -s_m (1 - s_m) for m (as bounded in ``pins``)."""
    least, most = softmax_exact.corner_shares(box.lo.tolist(), box.hi.tolist())
    ranges = [(least[m] * least[j], min(most[m] * most[j], 0.25)) for j in range(len(least))]
    ends = [s * (1.0 - s) for s in (least[m], most[m])]
    top = 0.25 if least[m] <= 0.5 <= most[m] else max(ends)
    ranges[m] = (-top, -min(ends))
    return ranges


def narrow_instance(rng, n):
    """A box of widths at most 0.05 whose lin_j sit just past, or just inside, an end
    of their derivative's range, by 1e-12 to 1e-2 either way."""
    m = int(rng.integers(n))
    lo = 1.5 * rng.standard_normal(n)
    box = Interval(lo, lo + 0.05 * rng.random(n))
    ends = [pair[int(rng.integers(2))] for pair in derivative_ranges(m, box)]
    lin = np.array(ends) + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, -2.0, n)
    return m, lin, box


class TestPins:
    """Pinned coordinates cut rows, never the solve's bits."""

    def test_pins_keep_the_bits(self):
        # fuzz kinds and narrow boxes: the pinned solve is the unpinned walk's and the
        # 3^n loop's, bit for bit, and each pinned coordinate of the witness is at its pin
        seen = dict.fromkeys(FUZZ_COVERAGE, 0)
        pinned = dict.fromkeys(["other lo", "other hi", "target lo", "target hi"], 0)
        rng = np.random.default_rng(21)
        for i in range(700):
            n = 1 + i % 6
            m, lin, box = (narrow_instance(rng, n) if i % 2 else
                           fuzz_instance(rng, n, i // 2 % 7, seen))
            pins = box_pins(m, lin, box)
            for j, state in pins.items():
                pinned[f"{'target' if j == m else 'other'} {'hi' if state else 'lo'}"] += 1
            res = softmax_row(m, Linear(theta=-lin), box)
            plain = unpinned(m, lin, box)
            assert res.value.tobytes() == plain.value.tobytes(), (m, lin, box)
            assert res.witness.tobytes() == plain.witness.tobytes(), (m, lin, box)
            check_against_reference(m, lin, box, seen)
            for j, state in pins.items():
                assert res.witness[j] == (box.hi[j] if state else box.lo[j])
        assert all(count >= 50 for count in pinned.values()), pinned

    def test_pins_cut_the_rows(self):
        # a pinned coordinate gets no events, and a pinned target one state
        rng = np.random.default_rng(22)
        cut = 0
        for i in range(300):
            n = 2 + i % 6
            m, lin, box = narrow_instance(rng, n)
            lo, hi = box.lo.tolist(), box.hi.tolist()
            pins = box_pins(m, lin, box)
            rows = [list(row) for row, _, _ in softmax_exact.walk_rows(m, lin.tolist(), lo, hi,
                                                                       pins)]
            assert rows and all(row[j] == state for row in rows for j, state in pins.items())
            cut += len(walk(m, lin.tolist(), lo, hi)) - len(rows)
        assert cut > 1000, cut

    @pytest.mark.parametrize("past", [1e-13, -1e-13, 0.0])
    def test_a_derivative_bound_near_zero_does_not_pin(self, past):
        # every lin_j within 1e-12 of an end of its derivative's range, on a wide box
        rng = np.random.default_rng(23)
        for trial in range(40):
            n = 2 + trial % 4
            m = int(rng.integers(n))
            lo = rng.standard_normal(n)
            box = Interval(lo, lo + 0.5 + rng.random(n))
            ends = [pair[trial % 2] for pair in derivative_ranges(m, box)]
            lin = np.array(ends) + past
            assert box_pins(m, lin, box) == {}
            check_against_reference(m, lin, box, dict.fromkeys(FUZZ_COVERAGE, 0))

    def test_zero_width_never_pins(self):
        m, lin = 0, np.array([0.9, 0.8, -0.7])
        box = Interval(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0]))
        assert box_pins(m, lin, box) == {2: 0}

    @pytest.mark.parametrize("offset", [0.0, -800.0, 705.0, 1000.0])
    def test_corner_shares_are_the_box_extremes(self, offset):
        rng = np.random.default_rng(24)
        for trial in range(30):
            n = 1 + trial % 6
            lo = offset + 3.0 * rng.standard_normal(n)
            box = Interval(lo, lo + 2.0 * rng.random(n))
            least, most = softmax_exact.corner_shares(box.lo.tolist(), box.hi.tolist())
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(n):
                    assert least[k] == pytest.approx(box_softmax_min(k, box), rel=1e-12, abs=1e-300)
                    assert most[k] == pytest.approx(box_softmax_max(k, box), rel=1e-12, abs=1e-300)


def step_inputs(m, lin, box):
    with np.errstate(over="ignore"):
        exps = (np.exp(box.lo).tolist(), np.exp(box.hi).tolist())
    return m, lin.tolist(), box.lo.tolist(), box.hi.tolist(), *exps


def hexed(points):
    return [[float.hex(v) for v in point] for point in points]


def coverage(row, inputs, points, seen):
    """Count the row features the step must reproduce, in ``seen``."""
    m, _, lo, hi, exp_lo, exp_hi = inputs
    fixed = [exp_hi[j] if s == 1 else exp_lo[j] for j, s in enumerate(row) if s != 2]
    if 2 in row:
        seen["case a" if row[m] == 2 else "case b"] += bool(points)
        normal = softmax_exact._TINY <= sum(fixed) <= softmax_exact._HUGE
        seen["shifted"] += bool(fixed) and not normal
    seen["zero width"] += any(low == h for low, h in zip(lo, hi))


class TestRowCandidates:
    """The step returns the reference's points, compared float by float."""

    KINDS = ("case a", "case b", "shifted", "zero width")

    def test_every_assignment_matches_the_reference(self):
        seen = dict.fromkeys(FUZZ_COVERAGE + self.KINDS, 0)
        rng = np.random.default_rng(16)
        for n in range(1, 7):
            for i in range(14):
                inputs = step_inputs(*fuzz_instance(rng, n, i % 7, seen))
                for assignment in itertools.product((0, 1, 2), repeat=n):
                    points = assignment_candidates(*inputs, assignment)
                    assert hexed(points) == hexed(reference_assignment_candidates(*inputs,
                                                                                  assignment))
                    coverage(assignment, inputs, points, seen)
        assert all(seen[kind] > 0 for kind in self.KINDS), seen

    def test_every_row_matches_the_reference(self):
        seen = dict.fromkeys(FUZZ_COVERAGE + self.KINDS, 0)
        rng = np.random.default_rng(17)
        for n in range(1, 13):
            for i in range(21):
                inputs = step_inputs(*fuzz_instance(rng, n, i % 7, seen))
                for row, x, free in softmax_exact.walk_rows(*inputs[:4]):
                    points = softmax_exact.row_candidates(*inputs, row, x, free)
                    assert hexed(points) == hexed(reference_assignment_candidates(*inputs, row))
                    coverage(row, inputs, points, seen)
        assert all(seen[kind] > 0 for kind in self.KINDS), seen

    def test_zero_offset_logs_match_the_reference(self):
        # case a with C = 0: every coordinate free and lin_m exactly minus the others'
        # dyadic sum, so the shares sum to one and the offset is zero; the wide box
        # clips no point, so each coordinate is the log of its share, where a
        # last-bit change in the log shows
        rng = np.random.default_rng(19)
        unclipped = 0
        for trial in range(1500):
            n = 2 + trial % 11
            m = int(rng.integers(n))
            lin = rng.integers(1, 2**10, n) / 2.0**16
            lin[m] = 0.0
            lin[m] = -lin.sum()
            lo = -40.0 - rng.random(n)
            inputs = step_inputs(m, lin, Interval(lo, -lo))
            points = assignment_candidates(*inputs, (2,) * n)
            assert hexed(points) == hexed(reference_assignment_candidates(*inputs, (2,) * n))
            unclipped += sum(lo[j] < v < -lo[j] for point in points for j, v in enumerate(point))
        assert unclipped >= 20_000, unclipped

    def test_shifted_exps_reach_unclipped_points(self):
        # case b next to its double root (sum(lam) = D / 4C (1 - delta)) with
        # every fixed logit past exp's normal range, so C and D are summed in
        # shifted logits; a root moves by about 1 / sqrt(delta) ulps per ulp of
        # C or D, so a last-bit change in one shifted exp reaches the point,
        # and the box clips no free coordinate
        rng = np.random.default_rng(20)
        unclipped = 0
        for trial in range(300):
            n = 3 + trial % 5
            m = int(rng.integers(n))
            others = [j for j in range(n) if j != m]
            free = sorted(rng.choice(others, int(rng.integers(1, n - 1)), replace=False))
            row = tuple(2 if j in free else int(rng.integers(2)) for j in range(n))
            x = (-800.0, 400.0, 720.0)[trial % 3] - 3.0 * rng.random(n)
            shift = max(x[j] for j in range(n) if row[j] != 2)
            exps = [math.exp(x[j] - shift) for j in range(n) if row[j] != 2]
            c, d = sum(exps), math.exp(x[m] - shift)
            weights = rng.random(len(free)) + 0.1
            lin = np.zeros(n)
            lin[free] = weights / weights.sum() * d / (4.0 * c) * (1.0 - 10.0 ** -rng.uniform(9, 12))
            lo, hi = x - 0.5 * np.equal(row, 1), x + 0.5 * np.equal(row, 0)
            # the free coordinates at the double root t = D / (2 sum(lam))
            mid = np.log(lin[free] / d) + 2.0 * math.log(d / (2.0 * lin.sum())) + shift
            lo[free], hi[free] = mid - 2.0, mid + 2.0
            inputs = step_inputs(m, lin, Interval(lo, hi))
            points = assignment_candidates(*inputs, row)
            assert hexed(points) == hexed(reference_assignment_candidates(*inputs, row))
            unclipped += sum(lo[j] < point[j] < hi[j] for point in points for j in free)
        assert unclipped >= 1000, unclipped


@pytest.mark.parametrize("offset", [0.0, -800.0, 705.0])
def test_batch_gives_each_label_its_single_call(offset):
    """Labels solved in one call get the value and witness of their own call, bit for bit."""
    rng = np.random.default_rng(18 + int(abs(offset)))
    for trial in range(24):
        n, count = 2 + trial % 7, 1 + trial % 8
        labels = rng.integers(n, size=count).tolist()
        theta = 0.3 * rng.standard_normal((count, n))
        if trial % 3 == 0:
            # one label and multiplier row repeated through the batch
            labels, theta = [labels[0]] * count, np.repeat(theta[:1], count, axis=0)
        lo = offset + 1.5 * rng.standard_normal(n)
        box = Interval(lo, lo + 2.5 * rng.random(n))
        with np.errstate(over="raise", invalid="raise"):
            res = softmax_exact.final_softmax_exact(labels, Linear(theta=theta), box)
            for i, m in enumerate(labels):
                alone = softmax_exact.final_softmax_exact([m], Linear(theta=theta[i:i + 1]), box)
                assert res.value[i].hex() == alone.value[0].hex(), (trial, i)
                assert res.witness[i].tobytes() == alone.witness[0].tobytes(), (trial, i)
