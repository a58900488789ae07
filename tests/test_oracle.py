import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import funclag.oracle as oracle
from funclag import (
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    ExpectedSoftmax,
    Linear,
    LogitDiff,
    load_model,
    model_to_dict,
    random_problem,
    sample_lower_bound,
)
from funclag.model import softmax, truncated_normal

from oracles import (
    evaluate,
    mc_expectation,
    normal_block_as_first_written,
    sample_lower_bound_alone,
)


class TestMcExpectation:
    def test_deterministic_layer(self, two_layer_net):
        layer = two_layer_net.layers[1]
        lam = Linear(theta=np.array([1.0, -1.0]))
        x = np.array([0.3, 0.7])
        mean, stderr = mc_expectation(layer, lam, x, 64, seed=0)
        out = layer.weights.values @ np.maximum(x, 0.0) + layer.bias.values
        assert mean == pytest.approx(evaluate(lam, out), rel=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_single_draw(self, gaussian_layer):
        lam = Linear(theta=np.array([1.0]))
        mean, stderr = mc_expectation(gaussian_layer, lam, np.array([1.0]), 1, seed=2)
        assert stderr == 0.0


class TestRandomProblem:
    def test_reproducible(self):
        a_net, a_prob = random_problem(seed=17)
        b_net, b_prob = random_problem(seed=17)
        assert model_to_dict(a_net) == model_to_dict(b_net)
        np.testing.assert_array_equal(a_prob.input_set.center, b_prob.input_set.center)
        assert type(a_prob.objective) is type(b_prob.objective)

    def test_dimension_caps_respected(self):
        for seed in range(20):
            net, problem = random_problem(seed=seed, max_layers=3, max_width=6, max_classes=4)
            assert net.depth <= 3
            assert all(layer.out_dim <= 6 for layer in net.layers)
            assert net.output_dim <= 4
            assert 0.01 <= problem.input_set.epsilon <= 0.1

    def test_generated_models_pass_validation(self, tmp_path):
        for seed in range(8):
            net, _ = random_problem(seed=seed)
            path = tmp_path / f"model_{seed}.json"
            path.write_text(json.dumps(model_to_dict(net)))
            reloaded = load_model(path)
            assert model_to_dict(reloaded) == model_to_dict(net)


def _stochastic_net(tensors: dict) -> CanonicalNetwork:
    """3 -> 5 -> 4 -> 3 net; ``tensors`` maps (layer, part) to "gaussian" or "dropout"."""
    rng = np.random.default_rng(0)
    dims = [3, 5, 4, 3]
    layers = []
    for i in range(3):
        parts = {}
        for part, shape in (("weights", (dims[i + 1], dims[i])), ("bias", (dims[i + 1],))):
            values = rng.standard_normal(shape) / np.sqrt(dims[i])
            kind = tensors.get((i, part))
            if kind == "gaussian":
                parts[part] = DiagonalGaussian(mean=values, stddev=0.3 * rng.random(shape))
            elif kind == "dropout":
                parts[part] = Dropout(values=values, keep=0.5 + 0.5 * rng.random(shape))
            else:
                parts[part] = Deterministic(values=values)
        layers.append(CanonicalLayer(activation="identity" if i == 0 else "relu", **parts))
    return CanonicalNetwork(layers=tuple(layers))


def _per_draw_estimate(net, objective, x, weight_draws, rng):
    """Reference estimate: one forward pass per weight draw, every tensor
    drawn in layer order, sums accumulated draw by draw.  A Gaussian tensor
    is redrawn whole until every entry lies in its truncated support."""

    def draw(dist):
        if isinstance(dist, DiagonalGaussian):
            z = rng.standard_normal(dist.shape)
            while np.any(np.abs(z) > dist.truncation):
                z = rng.standard_normal(dist.shape)
            return dist.mean + dist.stddev * z
        if isinstance(dist, Dropout):
            return dist.values * (rng.random(dist.shape) < dist.keep)
        return dist.values

    total = np.zeros(x.shape[0])
    total_sq = np.zeros(x.shape[0])
    for _ in range(weight_draws):
        out = x
        for layer in net.layers:
            s = np.maximum(out, 0.0) if layer.activation == "relu" else out
            w = draw(layer.weights)
            b = draw(layer.bias)
            out = s @ w.T + b
        if isinstance(objective, LogitDiff):
            values = out[:, objective.target] - out[:, objective.true]
        else:
            values = softmax(out)[:, objective.label]
        total += values
        total_sq += values**2
    mean = total / weight_draws
    var = np.maximum(total_sq / weight_draws - mean**2, 0.0)
    return mean, np.sqrt(var / weight_draws)


DROPOUT_NETS = {
    "dropout-weights": {(2, "weights"): "dropout"},
    "dropout-two-layers": {(1, "weights"): "dropout", (2, "weights"): "dropout"},
}
GAUSSIAN_NETS = {
    "gaussian-weights": {(1, "weights"): "gaussian"},
    "gaussian-weights-and-bias": {(1, "weights"): "gaussian", (2, "bias"): "gaussian"},
    # all normals are drawn before all uniforms
    "gaussian-then-dropout": {(1, "weights"): "gaussian", (2, "weights"): "dropout"},
}
# an attack scores one objective kind: two objectives of each
OBJECTIVES = {
    "logit-diff": (LogitDiff(target=2, true=0), LogitDiff(target=1, true=2)),
    "softmax": (ExpectedSoftmax(label=1), ExpectedSoftmax(label=2)),
}
per_kind = pytest.mark.parametrize("objectives", OBJECTIVES.values(), ids=OBJECTIVES.keys())


class TestBatchedObjectiveEstimate:
    @per_kind
    @pytest.mark.parametrize("budget", [1024, 1, 7])
    @pytest.mark.parametrize("n_points", [1, 2, 200])
    @pytest.mark.parametrize("net_name", sorted(DROPOUT_NETS))
    def test_bit_identical_to_per_draw_loop(self, monkeypatch, net_name, n_points, budget,
                                            objectives):
        # budget 7 makes chunks of 7 or 3 draws, neither of which divides 50
        monkeypatch.setattr(oracle, "_ROW_BUDGET", budget)
        net = _stochastic_net(DROPOUT_NETS[net_name])
        x = np.random.default_rng(n_points).random((n_points, 3))
        got = oracle._Estimator(net, objectives).estimate(x, 50, np.random.default_rng(9))
        for k, objective in enumerate(objectives):
            want = _per_draw_estimate(net, objective, x, 50, np.random.default_rng(9))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g[:, k].view(np.int64), w.view(np.int64))

    @per_kind
    @pytest.mark.parametrize("budget", [1024, 1, 7])
    @pytest.mark.parametrize("net_name", sorted(GAUSSIAN_NETS))
    def test_gaussian_nets_agree_in_distribution(self, monkeypatch, net_name, budget,
                                                 objectives):
        # a tail redraw takes its normals after the chunk's, so the draws
        # depend on the chunking; their truncated distribution does not
        monkeypatch.setattr(oracle, "_ROW_BUDGET", budget)
        net = _stochastic_net(GAUSSIAN_NETS[net_name])
        x = np.random.default_rng(4).random((2, 3))
        mean, err = oracle._Estimator(net, objectives).estimate(
            x, 4000, np.random.default_rng(1)
        )
        for k, objective in enumerate(objectives):
            ref_mean, ref_err = _per_draw_estimate(
                net, objective, x, 4000, np.random.default_rng(2)
            )
            assert np.all(err[:, k] > 0.0)
            assert np.all(np.abs(mean[:, k] - ref_mean) <= 4.0 * np.hypot(err[:, k], ref_err))

    @per_kind
    @pytest.mark.parametrize("net_name", sorted(GAUSSIAN_NETS))
    def test_chunks_sized_for_fewer_points_draw_as_those_points_alone(self, net_name,
                                                                      objectives):
        # six rows in chunks sized for two draw the weights, tail redraws
        # included, as an estimate of two rows does
        net = _stochastic_net(GAUSSIAN_NETS[net_name])
        x = np.random.default_rng(4).random((6, 3))
        estimator = oracle._Estimator(net, objectives)
        for draws in (200, 700):
            got = estimator.estimate(x, draws, np.random.default_rng(3), points=2)
            pair = estimator.estimate(x[2:4], draws, np.random.default_rng(3))
            for g, w in zip(got, pair):
                np.testing.assert_array_equal(g[2:4], w)

    @per_kind
    @pytest.mark.parametrize(
        "net_name", ["deterministic", *sorted(DROPOUT_NETS), *sorted(GAUSSIAN_NETS)]
    )
    def test_one_objective_per_row_is_its_column_of_every_objective(self, net_name,
                                                                    objectives):
        # the climb scores row r by objective cols[r] alone; the sums run
        # element by element, so the bits are those of the full estimate
        net = _stochastic_net({**DROPOUT_NETS, **GAUSSIAN_NETS}.get(net_name, {}))
        x = np.random.default_rng(5).random((6, 3))
        cols = np.array([0, 0, 1, 1, 1, 0])
        estimator = oracle._Estimator(net, objectives)
        every = estimator.estimate(x, 300, np.random.default_rng(8), points=2)
        owned = estimator.estimate(x, 300, np.random.default_rng(8), points=2, cols=cols)
        for g, w in zip(owned, every):
            assert g.tobytes() == w[np.arange(6), cols].tobytes()


def _label_problems(seed: int, truncation: float | None = None, **shape):
    """Every label's problem of ``random_problem(seed, **shape)``'s spec,
    sharing one network and input set; ``truncation`` replaces every Gaussian's."""
    net, problem = random_problem(seed, **shape)
    if truncation is not None:
        net = CanonicalNetwork(layers=tuple(
            dataclasses.replace(layer, weights=dataclasses.replace(
                layer.weights, truncation=truncation))
            if isinstance(layer.weights, DiagonalGaussian) else layer
            for layer in net.layers
        ))
        problem = dataclasses.replace(problem, network=net)
    if isinstance(problem.objective, LogitDiff):
        true = problem.objective.true
        objectives = [LogitDiff(target=j, true=true) for j in range(net.output_dim) if j != true]
    else:
        objectives = [ExpectedSoftmax(label=j) for j in range(net.output_dim)]
    return [dataclasses.replace(problem, objective=objective) for objective in objectives]


# random_problem's shape arguments that make seed 1390 a deterministic 7-14-8
# softmax net on a box: the benchmark's wide net has 6-16-8
WIDE = dict(max_layers=2, max_width=16, max_classes=8, kinds=("robust_ood",))

# random_problem seeds by weights and input set (logit differences at 11,
# 14 and 35, softmax labels elsewhere); Gaussian nets also at truncation 0.5
ATTACK_CASES = [
    pytest.param(seed, truncation, {}, id=f"{seed}-{truncation}")
    for seed, truncation in [
        (11, None), (12, None),  # deterministic, box
        (4, None),  # deterministic, sub-Gaussian
        (6, None), (6, 0.5), (35, None), (35, 0.5),  # Gaussian, box
        (7, None), (7, 0.5),  # Gaussian, sub-Gaussian
        (14, None), (28, None),  # dropout, box
        (18, None),  # dropout, sub-Gaussian
        (31, None), (31, 0.5),  # Gaussian then dropout, box
    ]
] + [pytest.param(1390, None, WIDE, id="1390-wide")]  # deterministic, box


MODEL = Path(__file__).resolve().parent.parent / "models" / "synthetic_two_layer.json"
EDGE_ATTACK = """
import sys, time
from funclag.cli import load_model
from funclag.oracle import sample_lower_bound
from funclag.specs import build_problem
net = load_model(sys.argv[1])
spec = {"type": "dist_robust_ood", "input": [1e-9, 0.5, 0.6, 0.4, 0.7, 0.2],
        "epsilon": 0.1, "sigma": 0.05, "p_max": 0.2, "clip": True}
start = time.perf_counter()
sample_lower_bound(build_problem(net, spec), n_samples=1000, seed=0)
print(time.perf_counter() - start)
"""


class TestTruncatedNormal:
    @pytest.mark.parametrize("scale,ratios", [
        pytest.param(0.1, [0.9], id="0.9"),
        pytest.param(0.1, [2.0], id="2.0"),
        # narrow and wide columns in one call, at and away from the unit scale
        pytest.param(0.1, [0.25, 0.9, 1.0, 2.0, 3.0], id="mixed-0.1"),
        pytest.param(1.0, [0.25, 0.9, 1.0, 2.0, 3.0], id="mixed-1"),
        pytest.param(2.5, [3.0, 0.5, 1.5, 0.9], id="mixed-2.5"),
    ])
    def test_moments_match_the_truncated_law(self, scale, ratios):
        # radii below the scale (uniform proposal) and above it (normal
        # proposal): each column's mean and variance within 4 stderr of
        # N(0, s^2) cut at +-r, and a zero radius gives no noise
        k = 40_000
        radius = scale * np.array([*ratios, 0.0])
        noise = truncated_normal(np.random.default_rng(3), scale, radius, k)
        assert noise.shape == (k, radius.size)
        assert np.all(np.abs(noise) <= radius) and np.all(noise[:, -1] == 0.0)
        for ratio, x in zip(ratios, noise.T):
            law = stats.truncnorm(-ratio, ratio, scale=scale)
            var, fourth = law.var(), law.moment(4)
            assert abs(x.mean()) <= 4.0 * math.sqrt(var / k), ratio
            assert abs(np.mean(x**2) - var) <= 4.0 * math.sqrt((fourth - var**2) / k), ratio

    def test_cuts_at_or_above_the_scale_keep_the_normal_redraw_bytes(self):
        # with no radius below the scale, the draws and the generator state
        # after them are those of the whole-normal redraw loop
        shapes = np.random.default_rng(11)
        for seed in range(40):
            cols, rows = int(shapes.integers(1, 30)), int(shapes.integers(1, 400))
            cuts = shapes.choice([1.0, 1.5, 2.0, 3.0, 4.0], cols) + shapes.random(cols) * (seed % 2)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = truncated_normal(got_rng, 1.0, cuts, rows)
            want = normal_block_as_first_written(want_rng, cuts, rows)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_center_just_inside_a_clipped_edge(self):
        # a radius of 1e-9 at noise scale 0.05: redrawing the whole block
        # until every entry fits took about s / r rounds.  A child process
        # with a timeout keeps a regression from hanging the suite.
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", EDGE_ATTACK, str(MODEL)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert float(result.stdout.split()[-1]) < 1.0
        radius = np.array([1e-9, 0.1, 0.0])
        noise = truncated_normal(np.random.default_rng(0), 0.05, radius, 1000)
        assert np.all(np.abs(noise) <= radius)
        assert np.all(noise[:, 0] != 0.0) and np.all(noise[:, 2] == 0.0)


class TestSampleLowerBoundPerLabel:
    @pytest.mark.parametrize("hill_steps", [0, 5, 60])
    @pytest.mark.parametrize("seed,truncation,shape", ATTACK_CASES)
    def test_each_label_bit_identical_to_its_attack_alone(self, seed, truncation, shape,
                                                          hill_steps):
        problems = _label_problems(seed, truncation, **shape)
        kwargs = dict(n_samples=40, seed=seed, weight_draws=30, hill_steps=hill_steps)
        got = sample_lower_bound(problems, **kwargs)
        assert len(got) == len(problems)
        for problem, pair in zip(problems, got):
            want = sample_lower_bound_alone(problem, **kwargs)
            assert tuple(map(float.hex, pair)) == tuple(map(float.hex, want))

    def test_lone_problem_gets_its_attack_alone(self):
        problem = _label_problems(35)[1]
        kwargs = dict(n_samples=50, seed=2, weight_draws=20, hill_steps=25)
        [pair] = sample_lower_bound([problem], **kwargs)
        assert tuple(map(float.hex, pair)) == tuple(
            map(float.hex, sample_lower_bound_alone(problem, **kwargs))
        )

    @pytest.mark.parametrize("seed", [12, 6, 28])
    def test_labels_leave_the_climb_in_different_rounds(self, monkeypatch, seed):
        # a deterministic, a Gaussian and a dropout net whose climb calls
        # lose labels as they leave: a label that leaves estimates its climbed
        # point from a copy of the generator the others go on drawing from,
        # or from the generator itself on a net that draws nothing
        calls, copies = [], []
        original = oracle._Estimator.estimate

        def spy(estimator, x, *args, **kwargs):
            labels = kwargs.get("cols")
            labels = None if labels is None else frozenset(labels.tolist())
            calls.append((x.shape[0], kwargs.get("points"), labels))
            return original(estimator, x, *args, **kwargs)

        def counted_deepcopy(obj):
            copies.append(type(obj))
            return copy.deepcopy(obj)

        monkeypatch.setattr(oracle._Estimator, "estimate", spy)
        monkeypatch.setattr(oracle, "copy", SimpleNamespace(deepcopy=counted_deepcopy))
        problems = _label_problems(seed)
        kwargs = dict(n_samples=40, seed=seed, weight_draws=30, hill_steps=60)
        got = sample_lower_bound(problems, **kwargs)
        climb = [k for k, (_, points, _) in enumerate(calls) if points == 2]
        finals = [k for k, (rows, points, _) in enumerate(calls) if rows == 1 and points is None]
        assert len(finals) == len(problems)
        assert finals[0] < climb[-1]
        # the labels climbing at the first round's first call, and at the last call
        assert calls[climb[0]][2] == set(range(len(problems))) > calls[climb[-1]][2]
        draws = not problems[0].network.is_deterministic()
        assert copies == [np.random.Generator] * (len(problems) if draws else 0)
        for problem, pair in zip(problems, got):
            want = sample_lower_bound_alone(problem, **kwargs)
            assert tuple(map(float.hex, pair)) == tuple(map(float.hex, want))


def _climb_calls(monkeypatch, problems, **kwargs):
    """The attack's results, and its climb calls (those sized for two points):
    per call, the coordinate each trial pair moves, each pair's best mean and
    its label; the start sample's means come first, as (means, None, None)."""
    calls = []
    original = oracle._Estimator.estimate

    def spy(estimator, x, *args, **kw):
        means, errs = original(estimator, x, *args, **kw)
        if kw.get("points") == 2:
            # up and down differ at the one coordinate the pair moves
            moved = [int(np.flatnonzero(up != down)[0]) for up, down in zip(x[::2], x[1::2])]
            calls.append((np.array(moved), means.reshape(-1, 2).max(axis=1), kw["cols"][::2]))
        elif not calls:
            calls.append((means, None, None))
        return means, errs

    monkeypatch.setattr(oracle._Estimator, "estimate", spy)
    return sample_lower_bound(problems, **kwargs), calls


class TestClimbWindow:
    def test_a_net_that_draws_nothing_scores_the_rest_of_a_pass_per_call(self, monkeypatch):
        # each call moves the coordinates from where the pass stands to the
        # last, every live label each; it ends with the first coordinate
        # that beats a label's best, and the next call starts after it
        problems = _label_problems(1390, **WIDE)
        dim = problems[0].network.input_dim
        kwargs = dict(n_samples=40, seed=3, weight_draws=30, hill_steps=60)
        got, calls = _climb_calls(monkeypatch, problems, **kwargs)
        (start_means, _, _), climb = calls[0], calls[1:]
        best = start_means.max(axis=0)
        first, quiet_rounds, cuts = 0, 0, 0
        for moved, means, labels in climb:
            live = np.unique(labels)
            assert moved.tolist() == np.repeat(np.arange(first, dim), live.size).tolist()
            assert labels.tolist() == np.tile(live, dim - first).tolist()
            better = means > best[labels]
            if not better.any():
                # a call from the first coordinate that improves nothing is a whole round
                quiet_rounds += first == 0
                first = 0
                continue
            cut = moved[np.argmax(better)]
            keep = better & (moved == cut)
            best[labels[keep]] = means[keep]
            cuts += cut < dim - 1
            first = (cut + 1) % dim
        assert quiet_rounds > 0 and cuts > 0
        for problem, pair in zip(problems, got):
            want = sample_lower_bound_alone(problem, **kwargs)
            assert tuple(map(float.hex, pair)) == tuple(map(float.hex, want))

    @pytest.mark.parametrize("seed", [6, 28])
    def test_a_net_that_draws_scores_one_coordinate_per_call(self, monkeypatch, seed):
        # a Gaussian (6) and a dropout (28) net: each coordinate's trials
        # take their own weight block, whether or not a label improves
        problems = _label_problems(seed)
        dim = problems[0].network.input_dim
        kwargs = dict(n_samples=40, seed=seed, weight_draws=30, hill_steps=60)
        got, calls = _climb_calls(monkeypatch, problems, **kwargs)
        coordinates = []
        for moved, _, labels in calls[1:]:
            assert np.unique(moved).size == 1
            assert labels.tolist() == sorted(set(labels.tolist()))
            coordinates.append(int(moved[0]))
        assert len(coordinates) > dim
        assert coordinates == [i % dim for i in range(len(coordinates))]
        for problem, pair in zip(problems, got):
            want = sample_lower_bound_alone(problem, **kwargs)
            assert tuple(map(float.hex, pair)) == tuple(map(float.hex, want))


class TestSampleLowerBoundArguments:
    @pytest.mark.parametrize(
        "kwargs",
        [{"weight_draws": 0}, {"weight_draws": -2}, {"hill_steps": -1}, {"n_samples": 0}],
    )
    def test_rejects_bad_counts(self, kwargs):
        _, problem = random_problem(120)
        with pytest.raises(ValueError):
            sample_lower_bound([problem], **{"n_samples": 10, **kwargs})

    def test_zero_hill_steps_allowed(self):
        _, problem = random_problem(120)
        [(value, stderr)] = sample_lower_bound(
            [problem], n_samples=10, weight_draws=5, hill_steps=0
        )
        assert np.isfinite(value) and np.isfinite(stderr)

    def test_empty_list_has_no_attacks(self):
        assert sample_lower_bound([], n_samples=10, weight_draws=5) == []

    def test_rejects_problems_of_different_networks(self):
        problems = _label_problems(11)
        other_net, _ = random_problem(11)
        mixed = [problems[0], dataclasses.replace(problems[1], network=other_net)]
        with pytest.raises(ValueError, match="one network"):
            sample_lower_bound(mixed, n_samples=10, weight_draws=5)

    def test_rejects_problems_of_different_input_sets(self):
        problems = _label_problems(11)
        shifted = dataclasses.replace(problems[0].input_set, epsilon=0.5)
        mixed = [problems[0], dataclasses.replace(problems[1], input_set=shifted)]
        with pytest.raises(ValueError, match="one input set"):
            sample_lower_bound(mixed, n_samples=10, weight_draws=5)

    @pytest.mark.parametrize("seed", [11, 4])
    def test_rejects_problems_of_different_objective_kinds(self, seed):
        # a logit difference next to a softmax objective, on a box (11) and a
        # sub-Gaussian input set (4)
        problem = _label_problems(seed)[0]
        mixed = [dataclasses.replace(problem, objective=o) for o in
                 (ExpectedSoftmax(label=0), LogitDiff(target=1, true=0))]
        with pytest.raises(ValueError, match="one objective kind"):
            sample_lower_bound(mixed, n_samples=10, weight_draws=5)
