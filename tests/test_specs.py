import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funclag import (
    CanonicalNetwork,
    ConfigError,
    EmptyInput,
    ExpectedSoftmax,
    LogitDiff,
    SubGaussianNoise,
    adversarial_auc,
    build_problem,
    guaranteed_auc,
)

from conftest import det_layer, random_affine_net


def base_config(net, **overrides):
    config = {
        "type": "adversarial",
        "input": [0.5] * net.input_dim,
        "epsilon": 0.05,
        "true_label": 0,
    }
    config.update(overrides)
    return config


class TestBuildProblem:
    def test_adversarial_expands_to_l_minus_one(self):
        rng = np.random.default_rng(0)
        net = random_affine_net(rng)
        problems = build_problem(net, base_config(net))
        assert len(problems) == net.output_dim - 1
        targets = {p.objective.target for p in problems}
        assert targets == set(range(net.output_dim)) - {0}
        assert all(p.threshold == 0.0 for p in problems)

    def test_robust_ood_expands_per_label(self):
        rng = np.random.default_rng(1)
        net = random_affine_net(rng)
        config = base_config(net, type="robust_ood", p_max=0.8)
        del config["true_label"]
        problems = build_problem(net, config)
        assert len(problems) == net.output_dim
        assert all(isinstance(p.objective, ExpectedSoftmax) for p in problems)
        assert all(p.threshold == 0.8 for p in problems)

    def test_dist_robust_uses_noise_family(self):
        rng = np.random.default_rng(2)
        net = random_affine_net(rng)
        config = base_config(net, type="dist_robust_ood", p_max=0.8, sigma=0.1)
        del config["true_label"]
        problems = build_problem(net, config)
        assert all(isinstance(p.input_set, SubGaussianNoise) for p in problems)

    def test_clipping_of_support_box(self):
        rng = np.random.default_rng(3)
        net = random_affine_net(rng)
        config = base_config(net, input=[0.01] * net.input_dim, epsilon=0.1)
        clipped = build_problem(net, config)[0].support_box()
        assert np.all(clipped.lo >= 0.0)
        config["clip"] = False
        free = build_problem(net, config)[0].support_box()
        assert np.all(free.lo == 0.01 - 0.1)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"type": "nonsense"},
            {"epsilon": -1.0},
            {"true_label": 99},
            {"p_max": 1.5, "type": "robust_ood"},
            {"epsilon": "wide"},
            {"epsilon": None},
            {"input": "center"},
            {"input": [["a"]]},
            {"true_label": "first"},
            {"true_label": [0]},
            {"type": "robust_ood", "p_max": "high"},
            {"type": "dist_robust_ood", "p_max": 0.5, "sigma": "small"},
            {"type": "dist_robust_ood", "p_max": 0.5, "sigma": float("nan")},
            {"true_label": 1.7},
            {"true_label": True},
            {"true_label": False},
            {"true_label": float("inf")},
            {"clip": "false"},
            {"clip": 0},
            {"clip": None},
            {"type": "robust_ood", "p_max": 0.5, "clip": "true"},
            # float() reads "0.04" and true, int() reads "1"
            {"epsilon": "0.04"},
            {"epsilon": True},
            {"type": "dist_robust_ood", "p_max": 0.5, "sigma": True},
            {"true_label": "1"},
            # VerificationProblem checks these
            {"true_label": -1},
            {"input": 0.5},
            {"input": [[0.5, 0.5]]},
        ],
    )
    def test_config_errors(self, mutation):
        rng = np.random.default_rng(4)
        net = random_affine_net(rng)
        config = base_config(net)
        if mutation.get("type") == "robust_ood":
            del config["true_label"]
        config.update(mutation)
        with pytest.raises(ConfigError):
            build_problem(net, config)

    @pytest.mark.parametrize("field", ["epsilon", "input", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, field, value):
        rng = np.random.default_rng(4)
        net = random_affine_net(rng)
        config = base_config(net, type="dist_robust_ood", p_max=0.5, sigma=0.1, clip=False)
        del config["true_label"]
        config[field] = [value] + [0.5] * (net.input_dim - 1) if field == "input" else value
        with pytest.raises(ConfigError, match=field):
            build_problem(net, config)

    @pytest.mark.parametrize(
        "entries",
        [lambda n: ([True, False] * n)[:n],
         lambda n: [0.5] * (n - 1) + [True],
         lambda n: ["0.5"] * n],
        ids=["bools", "mixed", "strings"],
    )
    def test_input_entries_must_be_numbers(self, entries):
        # np.asarray([0.5, True]) is a float array, so each entry is checked
        rng = np.random.default_rng(4)
        net = random_affine_net(rng)
        with pytest.raises(ConfigError, match="input"):
            build_problem(net, base_config(net, input=entries(net.input_dim)))

    @pytest.mark.parametrize("key", ["Clip", "true label", "name"])
    def test_keys_no_spec_type_reads_are_rejected(self, key):
        rng = np.random.default_rng(4)
        net = random_affine_net(rng)
        with pytest.raises(ConfigError, match=f"unknown spec keys \\['{key}'\\]"):
            build_problem(net, base_config(net, **{key: False}))

    def test_a_key_another_spec_type_reads_is_accepted(self):
        # sigma belongs to dist_robust_ood; a shared spec template may carry it
        rng = np.random.default_rng(4)
        net = random_affine_net(rng)
        assert len(build_problem(net, base_config(net, sigma=0.1))) == net.output_dim - 1

    @pytest.mark.parametrize("kind, field", [("adversarial", "true_label"),
                                             ("robust_ood", "p_max"),
                                             ("dist_robust_ood", "sigma")])
    def test_a_missing_field_is_named(self, kind, field):
        rng = np.random.default_rng(4)
        net = random_affine_net(rng)
        config = base_config(net, type=kind, p_max=0.5, sigma=0.1)
        del config[field]
        with pytest.raises(ConfigError, match=f"missing field '{field}'"):
            build_problem(net, config)

    def test_numpy_inputs_still_load(self):
        rng = np.random.default_rng(4)
        net = random_affine_net(rng)
        config = base_config(net, input=np.full(net.input_dim, 0.5), epsilon=np.float64(0.05),
                             true_label=np.int64(0))
        problems = build_problem(net, config)
        assert problems[0].input_set.epsilon == 0.05

    def test_adversarial_needs_two_outputs(self):
        net = CanonicalNetwork(layers=(det_layer(np.ones((1, 3)), np.zeros(1)),))
        with pytest.raises(ConfigError, match="two outputs"):
            build_problem(net, base_config(net))
        config = base_config(net, type="robust_ood", p_max=0.5)
        assert len(build_problem(net, config)) == 1

    def test_objective_labels_validated(self):
        with pytest.raises(ConfigError):
            LogitDiff(target=1, true=1)


def brute_force_auc(positives, negatives):
    wins = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


class TestAuc:
    def test_separated_scores(self):
        assert guaranteed_auc([0.5], [0.9, 0.8]) == 1.0

    def test_tie_gets_half_credit(self):
        assert guaranteed_auc([0.5], [0.5]) == 0.5

    def test_matches_pairwise_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n_id = int(rng.integers(1, 60))
            n_ood = int(rng.integers(1, 60))
            # quantized scores produce plenty of ties
            id_scores = rng.integers(0, 12, n_id) / 11.0
            bounds = rng.integers(0, 12, n_ood) / 11.0
            got = guaranteed_auc(bounds, id_scores)
            want = brute_force_auc(id_scores.tolist(), bounds.tolist())
            assert got == pytest.approx(want, abs=1e-12)

    def test_gauc_below_aauc_under_dominance(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            id_scores = rng.random(int(rng.integers(2, 50)))
            attacks = rng.random(n)
            bounds = np.minimum(attacks + rng.random(n) * (1.0 - attacks), 1.0)
            assert np.all(attacks <= bounds)
            assert guaranteed_auc(bounds, id_scores) <= adversarial_auc(attacks, id_scores) + 1e-12

    def test_attack_equal_bound_gives_equal_auc(self):
        rng = np.random.default_rng(7)
        scores = rng.random(20)
        ids = rng.random(15)
        assert guaranteed_auc(scores, ids) == adversarial_auc(scores, ids)

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            guaranteed_auc([], [0.5])
        with pytest.raises(EmptyInput):
            adversarial_auc([0.5], [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            guaranteed_auc([1.5], [0.5])

    @pytest.mark.parametrize("auc, ood_name", [(guaranteed_auc, "ood_upper_bounds"),
                                               (adversarial_auc, "ood_attack_scores")])
    @pytest.mark.parametrize("scores", [
        [0.2, float("nan")], [0.2, float("inf")], [float("-inf"), 0.7], [0.2, True], ["0.5"],
        [[0.2, 0.7]], [0.2, [0.7]],
    ], ids=["nan", "inf", "-inf", "boolean", "string", "nested", "ragged"])
    @pytest.mark.parametrize("side", ["ood", "id"])
    def test_scores_that_are_no_finite_numbers_rejected(self, auc, ood_name, scores, side):
        # NaN passes both range comparisons; asarray reads true as 1.0 and "0.5" as 0.5
        args = (scores, [0.5]) if side == "ood" else ([0.5], scores)
        with pytest.raises(ValueError, match=ood_name if side == "ood" else "id_scores"):
            auc(*args)


@settings(max_examples=50, deadline=None)
@given(
    ids=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30),
    oods=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30),
)
def test_auc_is_a_rank_statistic(ids, oods):
    """A strictly monotone relabeling of all scores leaves the AUC fixed."""
    ids = np.asarray(ids, dtype=float) / 20.0
    oods = np.asarray(oods, dtype=float) / 20.0
    base = guaranteed_auc(oods, ids)

    def relabel(x):
        return x**3 / 2.0 + x / 4.0  # strictly increasing into [0, 1]

    relabeled = guaranteed_auc(relabel(oods), relabel(ids))
    assert relabeled == pytest.approx(base, abs=1e-12)
    assert 0.0 <= base <= 1.0
