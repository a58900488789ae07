import math

import numpy as np
import pytest

from funclag import (
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    LinExp,
    Linear,
    Quadratic,
    SubGaussianNoise,
    UnsupportedCombination,
    VerificationProblem,
    init_stack,
)
from funclag.multipliers import (
    get_params,
    rows,
    stack_from_jsonable,
    stack_to_jsonable,
    with_params,
)

from conftest import det_layer, logit_diff_problem
from oracles import evaluate, expected_under_layer, mc_expectation, noisy_stack, take_rows


def noise_problem(net):
    """``logit_diff_problem`` with a sub-Gaussian input set, the one linexp takes."""
    box = logit_diff_problem(net)
    noise = SubGaussianNoise(center=box.input_set.center, epsilon=0.2, sigma=0.1, clip=False)
    return VerificationProblem(
        network=net, input_set=noise, objective=box.objective, threshold=box.threshold
    )


class TestEvaluate:
    def test_linear(self):
        assert evaluate(Linear(theta=np.array([1.0, 2.0])), np.array([3.0, 4.0])) == 11.0

    def test_linexp_exp_of_zero(self):
        lam = LinExp(alpha=np.zeros(2), gamma=np.zeros(2), kappa=0.0)
        assert evaluate(lam, np.array([5.0, -7.0])) == 1.0

    def test_zero(self):
        assert evaluate(Linear(theta=np.zeros(2)), np.array([1.0, 2.0])) == 0.0


def one_dim_gaussian_layer(mean, stddev):
    return CanonicalLayer(
        activation="identity",
        weights=DiagonalGaussian(mean=np.array([[mean]]), stddev=np.array([[stddev]])),
        bias=Deterministic(np.array([0.0])),
    )


class TestExpectedUnderLayer:
    def test_quadratic_second_moment(self):
        # E[0.5 (w x)^2] with w ~ N(1,1) cut at 3 sd, x = 2: 0.5 (E[w]^2 + Var w) x^2,
        # Var w = 1 - 2 * 3 phi(3) / (2 Phi(3) - 1)
        density = math.exp(-4.5) / math.sqrt(2.0 * math.pi)
        var = 1.0 - 6.0 * density / math.erf(3.0 / math.sqrt(2.0))
        layer = one_dim_gaussian_layer(1.0, 1.0)
        lam = Quadratic(Q=np.array([[1.0]]), q=np.array([0.0]))
        assert expected_under_layer(lam, layer, np.array([2.0])) == pytest.approx(
            2.0 * (1.0 + var), rel=1e-12
        )

    def test_gaussian_mgf(self):
        # E[exp(w)] for w ~ N(0,1) cut at 3 sd is e^{1/2} (Phi(2) - Phi(-4)) / (2 Phi(3) - 1)
        layer = one_dim_gaussian_layer(0.0, 1.0)
        lam = LinExp(alpha=np.zeros(1), gamma=np.ones(1), kappa=0.0)

        def phi(x):
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        assert expected_under_layer(lam, layer, np.array([1.0])) == pytest.approx(
            math.exp(0.5) * (phi(2.0) - phi(-4.0)) / (2.0 * phi(3.0) - 1.0), rel=1e-12
        )

    def test_two_point_mgf(self):
        # w = ln2 * Bernoulli(1/2): E[exp(w)] = 0.5 * 2 + 0.5
        layer = CanonicalLayer(
            activation="identity",
            weights=Dropout(values=np.array([[math.log(2.0)]]), keep=np.array([[0.5]])),
            bias=Deterministic(np.array([0.0])),
        )
        lam = LinExp(alpha=np.zeros(1), gamma=np.ones(1), kappa=0.0)
        assert expected_under_layer(lam, layer, np.array([1.0])) == pytest.approx(1.5, rel=1e-12)

    def test_degenerate_randomness_equals_plain_eval(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 2))
        layer = CanonicalLayer(
            activation="relu",
            weights=DiagonalGaussian(mean=w, stddev=np.zeros_like(w)),
            bias=Dropout(values=rng.standard_normal(3), keep=np.ones(3)),
        )
        x = rng.standard_normal(2)
        out = w @ np.maximum(x, 0.0) + layer.bias.values
        for lam in (
            Linear(theta=rng.standard_normal(3)),
            Quadratic(Q=np.eye(3), q=rng.standard_normal(3)),
            LinExp(alpha=rng.standard_normal(3), gamma=0.3 * rng.standard_normal(3), kappa=-0.5),
        ):
            assert expected_under_layer(lam, layer, x) == pytest.approx(
                evaluate(lam, out), rel=1e-12, abs=1e-12
            )

    def test_linear_in_linear_parameters(self):
        layer = one_dim_gaussian_layer(0.7, 0.4)
        x = np.array([1.3])
        theta = np.array([0.9])
        single = expected_under_layer(Linear(theta=theta), layer, x)
        double = expected_under_layer(Linear(theta=2 * theta), layer, x)
        assert abs(double - 2.0 * single) < 1e-12

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(5)
        gaussian = CanonicalLayer(
            activation="relu",
            weights=DiagonalGaussian(
                mean=rng.standard_normal((2, 2)), stddev=0.5 * rng.random((2, 2))
            ),
            bias=Deterministic(0.2 * rng.standard_normal(2)),
        )
        dropout = CanonicalLayer(
            activation="relu",
            weights=Dropout(values=rng.standard_normal((2, 2)), keep=rng.random((2, 2))),
            bias=Deterministic(0.2 * rng.standard_normal(2)),
        )
        for layer in (gaussian, dropout):
            x = rng.standard_normal(2)
            for lam in (
                Linear(theta=rng.standard_normal(2)),
                Quadratic(Q=np.array([[1.0, 0.3], [0.3, -0.5]]), q=rng.standard_normal(2)),
                LinExp(alpha=rng.standard_normal(2), gamma=0.4 * rng.standard_normal(2), kappa=-0.2),
            ):
                closed = expected_under_layer(lam, layer, x)
                mean, stderr = mc_expectation(layer, lam, x, 150_000, seed=17)
                assert abs(closed - mean) <= 4.0 * max(stderr, 1e-12)


class TestInitStack:
    def test_zeros_strategy(self, two_layer_net):
        stack = init_stack([logit_diff_problem(two_layer_net)], "quadratic")
        assert np.all(stack[0].Q == 0.0) and np.all(stack[0].q == 0.0)
        assert np.all(stack[1].theta == 0.0)

    def test_linexp_kappa_starts_large_negative(self, two_layer_net):
        stack = init_stack([noise_problem(two_layer_net)] * 2, "linexp")
        assert isinstance(stack[1], Linear)
        assert stack[0].kappa.tolist() == [-10.0, -10.0]
        # exp term at init is at most e^-10 * e^{gamma.x} = e^-10 for gamma 0
        assert math.exp(stack[0].kappa[0]) <= 1e-4

    def test_unsupported_families_raise(self, two_layer_net):
        with pytest.raises(UnsupportedCombination, match="sub-Gaussian input set"):
            init_stack([logit_diff_problem(two_layer_net)], "linexp")
        one_layer = CanonicalNetwork(layers=(det_layer(np.eye(2), np.zeros(2)),))
        with pytest.raises(UnsupportedCombination, match="at least two layers"):
            init_stack([noise_problem(one_layer)], "linexp")
        with pytest.raises(UnsupportedCombination, match="unknown multiplier family 'cubic'"):
            init_stack([logit_diff_problem(two_layer_net)], "cubic")


class TestSerialization:
    def test_round_trip(self, two_layer_net):
        stack = noisy_stack(noise_problem(two_layer_net), "linexp", scale=0.01, seed=3)
        stack += noisy_stack(logit_diff_problem(two_layer_net), "quadratic", scale=0.01, seed=4)
        doc = stack_to_jsonable(stack)
        back = stack_from_jsonable(doc)
        assert [d["family"] for d in doc] == ["linexp", "linear", "quadratic", "linear"]
        for lam, lam2 in zip(stack, back):
            for name, arr in get_params(lam).items():
                np.testing.assert_array_equal(arr, get_params(lam2)[name])

    def test_diag_quadratic_entry_is_rejected(self):
        # a certificate naming a family this version lacks fails loudly instead of loading
        entry = {"family": "diag_quadratic", "params": {"alpha": [0.0], "beta": [1.0]}}
        with pytest.raises(UnsupportedCombination, match="diag_quadratic"):
            stack_from_jsonable([entry])

    @pytest.mark.parametrize(
        "entry, match",
        [
            ({"family": "linear", "params": {"theta": [0.5, float("nan")]}}, "non-finite"),
            ({"family": "linexp", "params": {"alpha": [0.0], "gamma": [0.0]}}, "kappa"),
            ({"family": "quadratic", "params": {"Q": [[1.0]], "q": [0.0], "theta": [1.0]}}, "theta"),
            # vectors for theta/alpha/gamma/q, a square matrix for Q, a scalar for kappa
            ({"family": "linexp", "params": {"alpha": [0.0], "gamma": [0.0], "kappa": [1.0]}},
             "kappa"),
            ({"family": "linexp", "params": {"alpha": 0.0, "gamma": [0.0], "kappa": 1.0}},
             "alpha"),
            ({"family": "linear", "params": {"theta": [[0.5]]}}, "theta"),
            ({"family": "quadratic", "params": {"Q": [1.0], "q": [0.0]}}, "Q"),
            ({"family": "quadratic", "params": {"Q": [[1.0]], "q": 0.0}}, "q"),
            # np.asarray(..., dtype=float) would read these as 1.0 and 0.5
            ({"family": "linear", "params": {"theta": [True, 0.5]}}, "theta must hold numbers"),
            ({"family": "linexp", "params": {"alpha": [0.0], "gamma": [0.0], "kappa": "0.5"}},
             "kappa must hold numbers"),
        ],
        ids=["non_finite", "missing", "extra", "list_kappa", "scalar_alpha", "matrix_theta",
             "vector_Q", "scalar_q", "boolean", "string"],
    )
    def test_malformed_parameters_are_rejected(self, entry, match):
        with pytest.raises(ValueError, match=match):
            stack_from_jsonable([entry])

    def test_params_round_trip(self):
        lam = Quadratic(Q=np.array([[1.0, 0.5], [0.5, 2.0]]), q=np.array([1.0, -1.0]))
        rebuilt = with_params(lam, get_params(lam))
        np.testing.assert_array_equal(rebuilt.Q, lam.Q)
        np.testing.assert_array_equal(rebuilt.q, lam.q)


class TestRows:
    def test_a_parameter_without_the_row_axis_is_one_row(self):
        lam = LinExp(alpha=np.zeros(2), gamma=np.ones(2), kappa=-1.0)
        assert (lam.alpha.shape, lam.gamma.shape, lam.kappa.shape) == ((1, 2), (1, 2), (1,))
        assert Quadratic(Q=np.eye(2), q=np.zeros(2)).Q.shape == (1, 2, 2)
        assert rows(lam) == 1 and rows(Linear(theta=np.zeros((3, 2)))) == 3

    @pytest.mark.parametrize("params, match", [
        ({"alpha": np.zeros((2, 3)), "gamma": np.zeros((2, 3)), "kappa": np.zeros(3)}, "row"),
        ({"alpha": np.zeros((2, 3)), "gamma": np.zeros((1, 3)), "kappa": np.zeros(2)}, "row"),
        ({"alpha": np.zeros((2, 3)), "gamma": np.zeros((2, 3)), "kappa": np.zeros((2, 1))},
         "kappa"),
    ])
    def test_rows_must_agree(self, params, match):
        with pytest.raises(ValueError, match=match):
            LinExp(**params)

    def test_take_rows_keeps_each_row(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 2, 2))
        lam = Quadratic(Q=q + q.transpose(0, 2, 1), q=rng.standard_normal((3, 2)))
        picked = take_rows(lam, [2, 0])
        np.testing.assert_array_equal(picked.Q, lam.Q[[2, 0]])
        np.testing.assert_array_equal(picked.q, lam.q[[2, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            Quadratic(Q=np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]), q=np.zeros((2, 2)))

    def test_only_a_one_row_stack_has_a_json_view(self):
        with pytest.raises(ValueError, match="one-row"):
            stack_to_jsonable((Linear(theta=np.zeros((2, 3))),))
