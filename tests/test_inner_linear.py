import numpy as np
import pytest

from funclag import Interval, Linear, softmax
from funclag.inner import final_linear, inner_linear
from funclag.inner.linear import activation_candidates, activation_linear_max, matvec_rows

from conftest import det_layer


def coordinate_max(a, b, lo, hi, activation):
    a, b, lo, hi = (np.array([v]) for v in (a, b, lo, hi))
    values, witness = activation_linear_max(a, b, activation_candidates(lo, hi, activation))
    return float(values[0]), float(witness[0])


class TestScalarMax:
    def test_relu_kink_candidates(self):
        value, z = coordinate_max(2.0, 1.0, -1.0, 3.0, "relu")
        assert value == 3.0 and z == 3.0

    def test_zero_coefficients(self):
        value, z = coordinate_max(0.0, 0.0, -1.0, 2.0, "relu")
        assert value == 0.0
        assert z == -1.0  # ties resolve to the smallest candidate

    def test_negative_slope(self):
        value, z = coordinate_max(-1.0, 1.0, -2.0, 2.0, "relu")
        assert value == 2.0 and z == -2.0

    def test_identity(self):
        value, z = coordinate_max(1.0, 2.0, -1.0, 4.0, "identity")
        assert value == 1.0 and z == -1.0

    def test_kink_wins_inside_the_interval_only(self):
        # -|z|-shaped objective: the kink is the max when it lies inside
        assert coordinate_max(-2.0, -1.0, -1.0, 1.0, "relu") == (0.0, 0.0)
        assert coordinate_max(-2.0, -1.0, 0.5, 1.0, "relu") == (-0.5, 0.5)
        assert coordinate_max(-2.0, -1.0, -1.0, -0.5, "relu") == (-0.5, -0.5)

    def test_stacked_coefficients_broadcast(self):
        rng = np.random.default_rng(1)
        lo = rng.standard_normal(4)
        hi = lo + rng.random(4)
        a, b = rng.standard_normal(4), rng.standard_normal((5, 4))
        candidates = activation_candidates(lo, hi, "relu")
        values, witness = activation_linear_max(a, b, candidates)
        assert values.shape == witness.shape == (5, 4)
        for row in range(5):
            v, z = activation_linear_max(a, b[row], candidates)
            np.testing.assert_array_equal(values[row], v)
            np.testing.assert_array_equal(witness[row], z)

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            activation_linear_max(np.ones(1), np.zeros(1),
                                  activation_candidates(np.zeros(1), np.ones(1), "tanh"))


class TestInnerLinear:
    def test_zero_next_reduces_to_box_linear_max(self):
        layer = det_layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], activation="relu")
        theta_k = np.array([0.5, -1.5])
        box = Interval(np.array([-1.0, -2.0]), np.array([2.0, 1.0]))
        res = inner_linear(layer, Linear(theta=theta_k), Linear(theta=np.zeros(2)), box)
        expected = np.maximum(-theta_k * box.lo, -theta_k * box.hi).sum()
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_one_dim_relu(self):
        layer = det_layer([[2.0]], [0.0], activation="relu")
        box = Interval(np.array([-1.0]), np.array([1.0]))
        res = inner_linear(layer, Linear(theta=np.zeros(1)), Linear(theta=np.array([1.0])), box)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.witness[0] == 1.0

    def test_matches_grid_on_stochastic_layer(self):
        from funclag import DiagonalGaussian, CanonicalLayer, Deterministic

        rng = np.random.default_rng(8)
        for _ in range(10):
            layer = CanonicalLayer(
                activation="relu",
                weights=DiagonalGaussian(
                    mean=rng.standard_normal((2, 2)), stddev=0.3 * rng.random((2, 2))
                ),
                bias=Deterministic(rng.standard_normal(2) * 0.2),
            )
            theta_k, theta_n = rng.standard_normal(2), rng.standard_normal(2)
            lam_k, lam_n = Linear(theta=theta_k), Linear(theta=theta_n)
            lo = rng.standard_normal(2)
            box = Interval(lo, lo + 1.5 * rng.random(2) + 0.1)
            res = inner_linear(layer, lam_k, lam_n, box)
            # grid oracle over x at 1e-3 resolution
            w_mean = layer.weights.mean
            b_mean = layer.bias.mean
            xs = np.linspace(box.lo[0], box.hi[0], 1001)
            ys = np.linspace(box.lo[1], box.hi[1], 1001)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            P = np.stack([X.ravel(), Y.ravel()], axis=1)
            vals = np.maximum(P, 0.0) @ w_mean.T + b_mean
            obj = vals @ theta_n - P @ theta_k
            grid_max = obj.max()
            spacing = np.array([xs[1] - xs[0], ys[1] - ys[0]])
            lip = np.abs(w_mean.T @ theta_n).sum() + np.abs(theta_k).sum()
            assert res.value >= grid_max - 1e-12
            assert res.value <= grid_max + lip * np.linalg.norm(spacing) / 2 + 1e-9


class TestFinalLinear:
    def test_matching_multiplier_zeroes_value(self):
        c = np.array([1.0, -2.0])
        box = Interval(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        res = final_linear(c, Linear(theta=c), box)
        assert res.value == 0.0

    def test_corner_selection(self):
        c = np.array([1.0, -1.0])
        box = Interval(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        res = final_linear(c, Linear(theta=np.zeros(2)), box)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(res.witness, [[1.0, 0.0]])

    def test_matches_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = rng.standard_normal(2)
            theta = rng.standard_normal(2)
            lo = rng.standard_normal(2)
            box = Interval(lo, lo + rng.random(2) + 0.1)
            res = final_linear(c, Linear(theta=theta), box)
            corners = [
                (c - theta) @ np.array([x, y])
                for x in (box.lo[0], box.hi[0])
                for y in (box.lo[1], box.hi[1])
            ]
            assert res.value == pytest.approx(max(corners), abs=1e-9)


def test_rows_solve_as_they_do_alone():
    # each row of a batch gets the bytes of its one-row solve: the batch adds no
    # reduction across rows
    rng = np.random.default_rng(21)
    for activation in ("relu", "identity"):
        layer = det_layer(rng.standard_normal((5, 4)), rng.standard_normal(5), activation)
        lo = rng.standard_normal(4)
        box, out_box = Interval(lo, lo + rng.random(4)), Interval(-rng.random(5), rng.random(5))
        theta_k, theta_n, c = (rng.standard_normal((6, m)) for m in (4, 5, 5))
        batch = inner_linear(layer, Linear(theta=theta_k), Linear(theta=theta_n), box)
        final = final_linear(c, Linear(theta=theta_n), out_box)
        for i in range(6):
            alone = inner_linear(layer, Linear(theta=theta_k[i]), Linear(theta=theta_n[i]), box)
            final_alone = final_linear(c[i], Linear(theta=theta_n[i]), out_box)
            for res, one in ((batch, alone), (final, final_alone)):
                assert res.value[i].tobytes() == one.value.tobytes()
                assert res.witness[i].tobytes() == one.witness.tobytes()
                for side, side_alone in zip(res.grads, one.grads):
                    for name in side_alone or {}:
                        assert side[name][i].tobytes() == side_alone[name].tobytes()


def test_matvec_rows_matches_lone_products():
    # the stacked product of every row is bit for bit the product of that row alone,
    # for C- and F-ordered matrices and transposed views alike
    rng = np.random.default_rng(5)
    for trial in range(500):
        m, n, rows = (int(v) for v in rng.integers(1, 20, 3))
        w = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4, (m, n))
        w = (w, np.asfortranarray(w), w.T.copy().T)[trial % 3]
        x, y = rng.standard_normal((rows, n)), rng.standard_normal((rows, m))
        assert matvec_rows(w, x).tobytes() == np.array([w @ v for v in x]).tobytes()
        assert matvec_rows(w.T, y).tobytes() == np.array([w.T @ v for v in y]).tobytes()
        # the exact output solve scores a C-ordered block of candidates: each row's
        # product with one vector and its row-wise softmax keep their lone bits (a
        # strided row's softmax sums in another order, so the C order is needed)
        points, lin = np.ascontiguousarray(10.0 * w), x[0]
        assert (matvec_rows(points[:, np.newaxis], lin)[:, 0].tobytes()
                == np.array([lin @ v for v in points]).tobytes())
        k = trial % n
        assert softmax(points)[:, k].tobytes() == np.array([softmax(v)[k] for v in points]).tobytes()
