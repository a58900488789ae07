import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funclag import (
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    Interval,
    interval_activation,
    interval_affine,
    propagate_intervals,
)
from funclag.model import WeightDraws, forward
from funclag.oracle import random_problem

from conftest import det_layer
from oracles import contains


class TestWeightSupport:
    def test_gaussian(self):
        lo, hi = DiagonalGaussian(
            mean=np.array([[1.0]]), stddev=np.array([[0.1]]), truncation=3.0
        ).support
        np.testing.assert_allclose(lo, [[0.7]])
        np.testing.assert_allclose(hi, [[1.3]])

    def test_dropout_hull(self):
        lo, hi = Dropout(values=np.array([[-2.0]]), keep=np.array([[0.5]])).support
        np.testing.assert_allclose(lo, [[-2.0]])
        np.testing.assert_allclose(hi, [[0.0]])

    def test_dropout_boundary_keeps(self):
        lo, hi = Dropout(values=np.array([[3.0, -1.0]]), keep=np.array([[1.0, 0.0]])).support
        np.testing.assert_allclose(lo, [[3.0, 0.0]])
        np.testing.assert_allclose(hi, [[3.0, 0.0]])

    def test_deterministic(self):
        lo, hi = Deterministic(np.array([[5.0]])).support
        np.testing.assert_allclose(lo, [[5.0]])
        np.testing.assert_allclose(hi, [[5.0]])


class TestIntervalAffine:
    def test_identity_weight(self):
        out = interval_affine(
            Interval(np.array([-1.0]), np.array([1.0])),
            Interval(np.array([[1.0]]), np.array([[1.0]])),
            Interval(np.array([0.0]), np.array([0.0])),
        )
        np.testing.assert_allclose([out.lo[0], out.hi[0]], [-1.0, 1.0])

    def test_exact_row(self):
        out = interval_affine(
            Interval(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
            Interval(np.array([[-1.0, 1.0]]), np.array([[-1.0, 1.0]])),
            Interval(np.array([0.0]), np.array([0.0])),
        )
        np.testing.assert_allclose([out.lo[0], out.hi[0]], [-1.0, 1.0])

    def test_corner_products(self):
        out = interval_affine(
            Interval(np.array([1.0]), np.array([2.0])),
            Interval(np.array([[0.7]]), np.array([[1.3]])),
            Interval(np.array([0.0]), np.array([0.0])),
        )
        np.testing.assert_allclose([out.lo[0], out.hi[0]], [0.7, 2.6])


class TestIntervalActivation:
    @pytest.mark.parametrize(
        "inp,expected",
        [((-1.0, 1.0), (0.0, 1.0)), ((-3.0, -1.0), (0.0, 0.0))],
    )
    def test_relu(self, inp, expected):
        out = interval_activation(Interval(np.array([inp[0]]), np.array([inp[1]])), "relu")
        np.testing.assert_allclose([out.lo[0], out.hi[0]], expected)

    def test_identity(self):
        box = Interval(np.array([-2.0]), np.array([5.0]))
        out = interval_activation(box, "identity")
        np.testing.assert_allclose([out.lo[0], out.hi[0]], [-2.0, 5.0])


class TestPropagate:
    def test_identity_layer_keeps_box(self):
        net = CanonicalNetwork(layers=(det_layer(np.eye(2), np.zeros(2)),))
        box = Interval(np.array([-0.5, 0.25]), np.array([0.5, 0.75]))
        bounds = propagate_intervals(net, box)
        np.testing.assert_array_equal(bounds[1].lo, box.lo)
        np.testing.assert_array_equal(bounds[1].hi, box.hi)

    def test_monte_carlo_containment(self):
        # exact containment for sampled inputs and truncated weights
        for seed in range(6):
            net, problem = random_problem(seed=seed)
            box = problem.support_box()
            bounds = propagate_intervals(net, box)
            rng = np.random.default_rng(seed + 1000)
            for trial in range(1_700):
                out = box.lo + rng.random((1, net.input_dim)) * (box.hi - box.lo)
                weights = WeightDraws(net.layers)(1, np.random.default_rng((seed, trial)))
                for k in range(net.depth):
                    out = forward(net.layers[k : k + 1], out, weights[k : k + 1])
                    assert contains(bounds[k + 1], out, tol=0.0)

    def test_monotone_in_input_box(self):
        net, problem = random_problem(seed=3)
        box = problem.support_box()
        wide = Interval(box.lo - 0.05, box.hi + 0.05)
        inner = propagate_intervals(net, box)
        outer = propagate_intervals(net, wide)
        for k in range(len(inner)):
            assert np.all(outer[k].lo <= inner[k].lo + 1e-15)
            assert np.all(outer[k].hi >= inner[k].hi - 1e-15)

    def test_degenerate_randomness_matches_deterministic(self):
        w = np.array([[1.0, -0.5], [0.3, 0.8]])
        b = np.array([0.1, -0.2])
        stochastic = CanonicalNetwork(
            layers=(
                CanonicalLayer(
                    activation="identity",
                    weights=DiagonalGaussian(mean=w, stddev=np.zeros_like(w)),
                    bias=Dropout(values=b, keep=np.ones(2)),
                ),
            )
        )
        deterministic = CanonicalNetwork(layers=(det_layer(w, b),))
        box = Interval(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        got = propagate_intervals(stochastic, box)
        want = propagate_intervals(deterministic, box)
        for k in range(len(got)):
            np.testing.assert_array_equal(got[k].lo, want[k].lo)
            np.testing.assert_array_equal(got[k].hi, want[k].hi)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=8, max_size=8
    ),
    point=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
)
def test_interval_affine_soundness_property(data, point):
    """Any pointwise selection from the input intervals lands inside."""
    w_center = np.array(data[:4]).reshape(2, 2)
    w_radius = np.abs(np.array(data[4:])).reshape(2, 2) * 0.2
    x_lo = np.array([-1.0, -0.5])
    x_hi = np.array([0.5, 1.5])
    box = Interval(x_lo, x_hi)
    w = Interval(w_center - w_radius, w_center + w_radius)
    b = Interval(np.zeros(2), np.zeros(2))
    out = interval_affine(box, w, b)
    t = np.array(point)
    x = x_lo + t * (x_hi - x_lo)
    w_pick = w_center + (2 * t[0] - 1) * w_radius
    y = w_pick @ x
    assert np.all(y >= out.lo - 1e-9) and np.all(y <= out.hi + 1e-9)
