import json
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

from funclag import (
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    ParseError,
    SchemaError,
    ShapeError,
    load_model,
    model_to_dict,
    softmax,
)
from funclag.model import WeightDraws, forward, mean_weights
from funclag.oracle import random_problem

from oracles import enumerate_dropout_patterns, forward_sample, mean_softmax_estimate


def write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


def two_layer_doc():
    return {
        "input_dim": 2,
        "layers": [
            {
                "activation": "identity",
                "weights": {"kind": "deterministic", "values": [[1.0, 0.0], [0.0, 1.0]]},
                "bias": {"kind": "deterministic", "values": [0.0, 0.0]},
            },
            {
                "activation": "relu",
                "weights": {"kind": "deterministic", "values": [[2.0, 1.0], [0.5, -1.0]]},
                "bias": {"kind": "deterministic", "values": [0.1, -0.1]},
            },
        ],
    }


class TestLoadModel:
    def test_round_trip(self, tmp_path):
        net = load_model(write_model(tmp_path, two_layer_doc()))
        assert net.depth == 2
        assert net.input_dim == 2
        assert net.output_dim == 2
        assert model_to_dict(net) == two_layer_doc()

    def test_weight_of_the_wrong_rank_rejected(self, tmp_path):
        doc = two_layer_doc()
        doc["layers"][0]["bias"] = {"kind": "dropout", "values": [[0.0, 0.0]], "keep": [[1.0, 1.0]]}
        with pytest.raises(ShapeError, match="layer 0 bias must be 1-dimensional"):
            load_model(write_model(tmp_path, doc))

    @pytest.mark.parametrize(
        "stddev, truncation",
        [(-0.1, 3.0), (0.1, float("inf")), (0.1, float("nan")), (0.1, True), (0.1, "3")],
        ids=["negative_stddev", "infinite_truncation", "nan_truncation", "boolean_truncation",
             "string_truncation"],
    )
    def test_bad_gaussian_rejected(self, tmp_path, stddev, truncation):
        doc = two_layer_doc()
        doc["layers"][0]["weights"] = {
            "kind": "gaussian",
            "mean": [[1.0, 0.0], [0.0, 1.0]],
            "stddev": [[0.1, 0.0], [0.0, stddev]],
            "truncation": truncation,
        }
        with pytest.raises(ValueError, match="layer 0 weights"):
            load_model(write_model(tmp_path, doc))

    def test_keep_out_of_range_rejected(self, tmp_path):
        doc = two_layer_doc()
        doc["layers"][0]["weights"] = {
            "kind": "dropout",
            "values": [[1.0, 0.0], [0.0, 1.0]],
            "keep": [[0.5, 1.5], [0.5, 0.5]],
        }
        with pytest.raises(ValueError):
            load_model(write_model(tmp_path, doc))

    def test_shape_mismatch_across_layers(self, tmp_path):
        doc = two_layer_doc()
        # layer-1 W has 3 columns but layer-0 produces 2 outputs
        doc["layers"][1]["weights"]["values"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        with pytest.raises(ShapeError):
            load_model(write_model(tmp_path, doc))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(path)

    def test_missing_and_extra_fields(self, tmp_path):
        doc = two_layer_doc()
        del doc["layers"][0]["bias"]
        with pytest.raises(SchemaError):
            load_model(write_model(tmp_path, doc))
        doc = two_layer_doc()
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            load_model(write_model(tmp_path, doc))

    def test_nan_rejected(self, tmp_path):
        doc = two_layer_doc()
        doc["layers"][0]["weights"]["values"][0][0] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace("NaN", "NaN"))
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize(
        "weights, input_dim, field, error",
        [
            ({"kind": "deterministic", "values": [[True, 0.0], [0.0, 1.0]]}, 2, "values",
             ValueError),
            ({"kind": "deterministic", "values": [["1.5", 0.0], [0.0, 1.0]]}, 2, "values",
             ValueError),
            ({"kind": "dropout", "values": [[1.0, 0.0], [0.0, 1.0]],
              "keep": [[True, 1.0], [1.0, 1.0]]}, 2, "keep", ValueError),
            # one input: true == 1 would pass the layer-0 width check
            ({"kind": "deterministic", "values": [[1.0], [0.0]]}, True, "input_dim",
             SchemaError),
        ],
        ids=["bool-values", "string-values", "bool-keep", "bool-input-dim"],
    )
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, weights, input_dim, field,
                                                   error):
        doc = two_layer_doc()
        doc["input_dim"] = input_dim
        doc["layers"][0]["weights"] = weights
        with pytest.raises(error, match=field):
            load_model(write_model(tmp_path, doc))

    def test_relu_on_first_layer_rejected(self, tmp_path):
        doc = two_layer_doc()
        doc["layers"][0]["activation"] = "relu"
        with pytest.raises(SchemaError):
            load_model(write_model(tmp_path, doc))


class TestWeightKinds:
    @pytest.mark.parametrize(
        "dist, point_mass",
        [(Deterministic(np.ones(2)), True),
         (DiagonalGaussian(mean=np.ones(2), stddev=np.array([0.0, 0.3])), False),
         (DiagonalGaussian(mean=np.ones(2), stddev=np.zeros(2)), True),
         (Dropout(values=np.ones(2), keep=np.array([0.25, 1.0])), False),
         (Dropout(values=np.ones(2), keep=np.array([0.0, 1.0])), True)],
    )
    def test_point_mass(self, dist, point_mass):
        assert dist.is_point_mass() is point_mass

    def test_truncated_variance_matches_mpmath(self):
        # Var of N(0, 1) cut at a: 1 - 2 a phi(a) / (2 Phi(a) - 1), which cancels
        # toward 0 as a -> 0; 1e-2 is where the model switches to a series
        cuts = [*np.geomspace(1e-8, 40.0, 400), *np.nextafter(1e-2, [0.0, 1.0]), 1e-2]
        for a in cuts:
            dist = DiagonalGaussian(mean=np.zeros(1), stddev=np.ones(1), truncation=a)
            got = float(dist.variance[0])
            with mpmath.workdps(40):
                m = mpmath.mpf(float(a))
                want = float(1 - 2 * m * mpmath.npdf(m) / (2 * mpmath.ncdf(m) - 1))
            assert got >= 0.0
            assert abs(got - want) <= 1e-9 * want, a

    @pytest.mark.parametrize("cut", [0.25, 0.5, 3.0])
    def test_draws_follow_the_truncated_distribution(self, cut):
        # a weight cut at ``cut`` sd and a bias at twice that share one block
        rng = np.random.default_rng(3)
        layer = CanonicalLayer(
            activation="identity",
            weights=DiagonalGaussian(mean=rng.standard_normal((2, 3)),
                                     stddev=0.2 + rng.random((2, 3)), truncation=cut),
            bias=DiagonalGaussian(mean=rng.standard_normal(2), stddev=0.2 + rng.random(2),
                                  truncation=2.0 * cut),
        )
        n = 100_000
        ((w, b),) = WeightDraws([layer])(n, np.random.default_rng(5))
        for dist, draws in ((layer.weights, w), (layer.bias, b)):
            lo, hi = dist.support
            assert np.all((draws >= lo) & (draws <= hi))
            sq = (draws - dist.mean) ** 2
            stderr = sq.std(axis=0) / np.sqrt(n)
            assert np.all(np.abs(sq.mean(axis=0) - dist.variance) <= 4.0 * stderr)


    def test_one_layout_draws_as_a_fresh_one_each_call(self):
        # Gaussian (seed 6), dropout (seed 8) and both (seed 31) nets: a WeightDraws
        # reused call after call gives the bits and leaves the generator as a fresh
        # WeightDraws built for each call
        for seed in (6, 8, 31):
            net, _ = random_problem(seed)
            draws = WeightDraws(net.layers)
            reused, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
            for take in (1, 7, 300, 2):
                for (w1, b1), (w2, b2) in zip(draws(take, reused),
                                              WeightDraws(net.layers)(take, fresh)):
                    assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()
            assert reused.random() == fresh.random()


class TestForwardSample:
    def test_deterministic_net_ignores_seed(self, two_layer_net):
        x = np.array([0.3, -0.2])
        outs = [forward_sample(two_layer_net, x, seed) for seed in (0, 1, 12345)]
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])

    def test_zero_stddev_equals_mean_forward(self):
        net = CanonicalNetwork(
            layers=(
                CanonicalLayer(
                    activation="identity",
                    weights=DiagonalGaussian(
                        mean=np.array([[1.5, -0.5]]), stddev=np.zeros((1, 2))
                    ),
                    bias=Deterministic(np.array([0.25])),
                ),
            )
        )
        out = forward_sample(net, np.array([2.0, 1.0]), seed=7)
        np.testing.assert_allclose(out, [2.75])

    def test_truncated_gaussian_mean(self, gaussian_layer):
        # oracle: analytic mean of the symmetric truncated normal
        oracle = stats.truncnorm.mean(-3.0, 3.0, loc=1.0, scale=1.0)
        net = CanonicalNetwork(layers=(gaussian_layer,))
        n = 100_000
        rng = np.random.default_rng(0)
        samples = np.array(
            [forward_sample(net, np.array([1.0]), int(s))[0] for s in rng.integers(0, 2**62, n)]
        )
        stderr = stats.truncnorm.std(-3.0, 3.0, loc=1.0, scale=1.0) / np.sqrt(n)
        assert abs(samples.mean() - oracle) < 4.0 * stderr
        # every draw respects the truncated support
        assert np.all(np.abs(samples - 1.0) <= 3.0 + 1e-12)

    def test_output_dimension(self, dropout_net):
        out = forward_sample(dropout_net, np.array([0.4]), seed=3)
        assert out.shape == (dropout_net.output_dim,)

    def test_input_shape_checked(self, two_layer_net):
        with pytest.raises(ShapeError):
            forward_sample(two_layer_net, np.array([1.0, 2.0, 3.0]), seed=0)


BUNDLED = Path(__file__).resolve().parent.parent / "models" / "synthetic_two_layer.json"


def wide_net() -> CanonicalNetwork:
    """A deterministic 6-16-8 net drawn as the benchmark's wide net is."""
    rng = np.random.default_rng(0)
    dims = [6, 16, 8]
    return CanonicalNetwork(layers=tuple(
        CanonicalLayer(
            activation="identity" if i == 0 else "relu",
            weights=Deterministic(
                2.0 * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])),
            bias=Deterministic(0.1 * rng.standard_normal(dims[i + 1])),
        )
        for i in range(2)
    ))


class TestForwardRowBytes:
    @pytest.mark.parametrize("net_name", ["bundled", "wide"])
    def test_a_row_keeps_its_bytes_in_any_block_of_two_or_more_rows(self, net_name):
        # the sampled attack scores many points' trials in one block and
        # relies on each row's bytes being those of a small block; a
        # one-row block may take another BLAS path, so it is not compared
        net = load_model(BUNDLED) if net_name == "bundled" else wide_net()
        weights = mean_weights(net.layers)
        rng = np.random.default_rng(1)
        x = rng.random((200, net.input_dim))
        full = forward(net.layers, x, weights)
        for size in [*range(2, 40), 63, 64, 65, 100, 127, 128, 129, 199]:
            picked = rng.choice(200, size, replace=False)
            start = int(rng.integers(0, 201 - size))
            for rows in (picked, np.arange(start, start + size)):
                block = forward(net.layers, x[rows], weights)
                assert block.tobytes() == full[rows].tobytes(), (size, rows)


class TestMeanSoftmaxEstimate:
    def test_deterministic_exact(self, two_layer_net):
        x = np.array([0.2, 0.1])
        mean, stderr = mean_softmax_estimate(two_layer_net, x, n_samples=16, seed=0)
        logits = forward_sample(two_layer_net, x, seed=0)
        np.testing.assert_allclose(mean, softmax(logits))
        np.testing.assert_array_equal(stderr, np.zeros(2))

    def test_single_sample(self, dropout_net):
        mean, stderr = mean_softmax_estimate(dropout_net, np.array([0.4]), 1, seed=5)
        assert abs(mean.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(stderr, np.zeros(2))

    def test_normalization(self, dropout_net):
        mean, _ = mean_softmax_estimate(dropout_net, np.array([0.7]), 257, seed=1)
        assert abs(mean.sum() - 1.0) < 1e-12
        assert np.all(mean >= 0.0) and np.all(mean <= 1.0)

    def test_matches_dropout_enumeration(self, dropout_net):
        # exact expectation by enumerating every dropout mask of layer 1
        x = np.array([0.6])
        hidden = np.array([0.6, 0.4])  # layer-0 output at x
        layer = dropout_net.layers[1]
        exact = np.zeros(2)
        for prob, w, b in enumerate_dropout_patterns(layer):
            exact += prob * softmax(w @ np.maximum(hidden, 0.0) + b)
        n = 40_000
        mean, stderr = mean_softmax_estimate(dropout_net, x, n, seed=9)
        assert np.all(np.abs(mean - exact) <= 4.0 * np.maximum(stderr, 1e-12))

    def test_rejects_zero_samples(self, dropout_net):
        with pytest.raises(ValueError):
            mean_softmax_estimate(dropout_net, np.array([0.4]), 0, seed=0)
