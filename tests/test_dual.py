import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from funclag import (
    BoxOfDeltas,
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    ExpectedSoftmax,
    LogitDiff,
    Linear,
    OptimizerConfig,
    StructureError,
    SubGaussianNoise,
    VerificationProblem,
    evaluate_dual,
    init_stack,
    optimize,
    propagate_intervals,
    sample_lower_bound,
)
from funclag.jsonio import encode_reals
from funclag.multipliers import get_params, with_params
from funclag.oracle import random_problem

from conftest import det_layer, logit_diff_problem, random_affine_net
from oracles import (
    box_softmax_max,
    lambda_star_affine,
    noisy_stack,
    softmax_objective,
    take_rows,
)


def zero_stack(net):
    return tuple(Linear(theta=np.zeros(layer.out_dim)) for layer in net.layers)


class TestEvaluateDual:
    def test_zero_stack_linear_objective(self, two_layer_net):
        problem = logit_diff_problem(two_layer_net, epsilon=0.1)
        bounds = propagate_intervals(two_layer_net, problem.support_box())
        ev = evaluate_dual([problem], zero_stack(two_layer_net), bounds)
        c = problem.objective.coefficients(2)
        box = bounds[2]
        interval_bound = float(np.maximum(c * box.lo, c * box.hi).sum())
        assert ev.total == pytest.approx(interval_bound, abs=1e-12)
        assert ev.results[0].value == 0.0 and ev.results[1].value == 0.0

    def test_zero_stack_softmax_objective(self, two_layer_net):
        problem = VerificationProblem(
            network=two_layer_net,
            input_set=BoxOfDeltas(center=np.array([0.5, 0.5]), epsilon=0.1),
            objective=ExpectedSoftmax(label=1),
            threshold=0.5,
        )
        bounds = propagate_intervals(two_layer_net, problem.support_box())
        ev = evaluate_dual([problem], zero_stack(two_layer_net), bounds)
        assert ev.total == pytest.approx(box_softmax_max(1, bounds[2]), abs=1e-9)

    def test_weak_duality_on_random_stacks(self):
        for seed in range(12):
            net, problem = random_problem(seed=seed)
            if isinstance(problem.input_set, SubGaussianNoise):
                family = "linexp"
            elif isinstance(problem.objective, LogitDiff):
                family = "linear"
            else:
                family = ("linear", "quadratic")[seed % 2]
            stack = noisy_stack(problem, family, scale=0.15, seed=seed)
            bounds = propagate_intervals(net, problem.support_box())
            ev = evaluate_dual([problem], stack, bounds)
            [(value, stderr)] = sample_lower_bound(
                [problem], n_samples=1500, seed=seed, weight_draws=50, hill_steps=5
            )
            assert ev.total >= value - 4.0 * stderr - 1e-9

    def test_certify_mode_rejects_heuristic_results(self):
        # every inner result is exact or an upper bound: a heuristic one
        # cannot be built, so it cannot reach a certificate
        from funclag.inner import InnerResult

        with pytest.raises(ValueError, match="heuristic_lower"):
            InnerResult(value=0.0, mode="heuristic_lower")

    def test_unsupported_combinations_raise(self, two_layer_net):
        from funclag import LinExp, Quadratic, UnsupportedCombination

        bounds = propagate_intervals(
            two_layer_net, logit_diff_problem(two_layer_net).support_box()
        )
        # a linexp input multiplier needs a noise family, not a box
        box_problem = logit_diff_problem(two_layer_net)
        linexp_stack = (LinExp(alpha=np.zeros(2), gamma=np.zeros(2), kappa=-10.0),
                        Linear(theta=np.zeros(2)))
        with pytest.raises(UnsupportedCombination):
            evaluate_dual([box_problem], linexp_stack, bounds)
        # neither objective has a solver for a quadratic final multiplier
        quadratic_stack = (Linear(theta=np.zeros(2)), Quadratic(Q=np.eye(2), q=np.zeros(2)))
        with pytest.raises(UnsupportedCombination):
            evaluate_dual([box_problem], quadratic_stack, bounds)
        softmax_problem = VerificationProblem(
            network=two_layer_net,
            input_set=box_problem.input_set,
            objective=ExpectedSoftmax(label=0),
            threshold=0.5,
        )
        with pytest.raises(UnsupportedCombination, match="softmax"):
            evaluate_dual([softmax_problem], quadratic_stack, bounds)


def assert_finite_differences(problem, stack, bounds, h, rtol, entries=3):
    """Central differences of the dual match its gradient entry by entry."""
    grads = evaluate_dual([problem], stack, bounds).grads
    for i, lam in enumerate(stack):
        params = get_params(lam)
        for name, arr in params.items():
            flat = np.atleast_1d(np.asarray(arr, dtype=float))
            for j in range(min(flat.size, entries)):
                values = []
                for sign in (1.0, -1.0):
                    bumped = {k: np.array(v, dtype=float) for k, v in params.items()}
                    vec = np.atleast_1d(bumped[name]).ravel()
                    vec[j] += sign * h
                    bumped[name] = vec.reshape(np.shape(arr)) if np.shape(arr) else vec[0]
                    stack2 = tuple(
                        with_params(l, bumped) if ii == i else l for ii, l in enumerate(stack)
                    )
                    values.append(evaluate_dual([problem], stack2, bounds).total[0])
                fd = (values[0] - values[1]) / (2.0 * h)
                analytic = float(np.atleast_1d(np.asarray(grads[i][name])).ravel()[j])
                assert abs(fd - analytic) <= rtol * max(1.0, abs(fd))


class TestSubgradient:
    def test_finite_difference_agreement(self):
        for seed in (1, 4):
            net, problem = random_problem(seed=seed, kinds=("robust_ood",))
            stack = noisy_stack(problem, "linear", scale=0.3, seed=seed)
            bounds = propagate_intervals(net, problem.support_box())
            assert_finite_differences(problem, stack, bounds, h=1e-5, rtol=1e-4)

    def test_linexp_finite_difference_agreement(self):
        # the linexp multiplier enters the input bound and, at the optimal
        # zeta, the transition bound's envelope gradient
        for seed in (0, 1, 6):
            net, problem = random_problem(seed=seed, kinds=("dist_robust_ood",))
            stack = noisy_stack(problem, "linexp", scale=0.3, seed=seed)
            bounds = propagate_intervals(net, problem.support_box())
            assert_finite_differences(problem, stack, bounds, h=1e-6, rtol=1e-7, entries=8)

    def test_symmetric_problem_zero_gradient(self):
        # zero multipliers on an identity layer followed by a zero map:
        # the effective objective direction is zero and the symmetric box
        # makes every tie-broken witness coincide, so the telescoped
        # contributions cancel exactly
        net = CanonicalNetwork(
            layers=(det_layer(np.eye(2), np.zeros(2)), det_layer(np.zeros((2, 2)), np.zeros(2)))
        )
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=np.zeros(2), epsilon=0.5, clip=False),
            objective=LogitDiff(target=0, true=1),
            threshold=0.0,
        )
        bounds = propagate_intervals(net, problem.support_box())
        stack = (Linear(theta=np.zeros(2)), Linear(theta=np.zeros(2)))
        grads = evaluate_dual([problem], stack, bounds).grads
        for g in grads:
            np.testing.assert_allclose(g["theta"], 0.0, atol=1e-12)

    @pytest.mark.parametrize("family", ["linear", "linexp", "quadratic", "quadratic-zero"])
    def test_gradients_have_the_parameter_shapes(self, family):
        # the sum broadcasts, so a misshapen solver gradient would pass into it
        # unseen; the zero quadratic stack takes the exact-linear delegation
        kinds = ("dist_robust_ood",) if family == "linexp" else ("adversarial", "robust_ood")
        for seed in (0, 4, 9):
            net, problem = random_problem(seed=seed, kinds=kinds)
            base = family.partition("-")[0]
            if family == "quadratic-zero":
                stack = init_stack([problem], base)
            else:
                stack = noisy_stack(problem, base, scale=0.2, seed=seed)
            bounds = propagate_intervals(net, problem.support_box())
            evaluation = evaluate_dual([problem], stack, bounds)
            # g_k's two sides: lam_k (none for g_0) and lam_{k+1} (none for g_K)
            sides = [(None, stack[0])] + list(zip(stack, stack[1:] + (None,)))
            pairs = list(zip(stack, evaluation.grads))
            for res, lams in zip(evaluation.results, sides):
                pairs += [(lam, g) for lam, g in zip(lams, res.grads) if lam is not None]
            assert len(evaluation.grads) == len(stack)
            for lam, grad in pairs:
                params = get_params(lam)
                assert grad.keys() == params.keys(), seed
                for name, arr in params.items():
                    assert np.shape(grad[name]) == arr.shape, (seed, name)

    @pytest.mark.parametrize("sides", [
        # lam_1 gets two -0.0 terms (from g_0 and g_1), lam_2 one (from g_2)
        {0: (None, True), 1: (True, None), 2: (True, None)},
        # no solver gradient at all
        {0: (None, None), 1: (None, None), 2: (None, None)},
    ], ids=["negative-zero-terms", "no-terms"])
    def test_gradient_sums_are_positive_zero(self, monkeypatch, two_layer_net, sides):
        # the sums read as if they started from zero arrays: -0.0 terms sum
        # to +0.0, and a multiplier no solver touches gets zeros
        import funclag.dual
        from funclag.inner import InnerResult

        def solve(k, problems, stack, bounds):
            grads = tuple({"theta": np.full((1, 2), -0.0)} if side else None for side in sides[k])
            return InnerResult(value=np.zeros(1), mode="exact", grads=grads)

        monkeypatch.setattr(funclag.dual, "_solve_problem", solve)
        problem = logit_diff_problem(two_layer_net, epsilon=0.1)
        bounds = propagate_intervals(two_layer_net, problem.support_box())
        grads = evaluate_dual([problem], zero_stack(two_layer_net), bounds).grads
        assert [list(g) for g in grads] == [["theta"], ["theta"]]
        for g in grads:
            assert g["theta"].shape == (1, 2)
            assert not np.signbit(g["theta"]).any() and not g["theta"].any()


class TestLambdaStarAffine:
    def test_one_layer_doubling(self):
        # y = 2x on [-1, 1] with c = 1: lambda*(x) = x and g = 2 = OPT
        net = CanonicalNetwork(layers=(det_layer([[2.0]], [0.0]),))
        stack = lambda_star_affine(net, np.array([1.0]))
        np.testing.assert_allclose(stack[0].theta, [[1.0]])
        bounds = propagate_intervals(
            net, BoxOfDeltas(center=np.array([0.0]), epsilon=1.0, clip=False).support_box()
        )
        from funclag.inner import final_linear, inner_linear

        g0 = inner_linear(net.layers[0], Linear(theta=np.zeros(1)), stack[0], bounds[0])
        gK = final_linear(np.array([1.0]), stack[0], bounds[1])
        assert (g0.value + gK.value).tolist() == pytest.approx([2.0], abs=1e-12)

    def test_identity_network(self):
        net = CanonicalNetwork(
            layers=(det_layer(np.eye(3), np.zeros(3)), det_layer(np.eye(3), np.zeros(3)))
        )
        c = np.array([1.0, -1.0, 0.5])
        stack = lambda_star_affine(net, c)
        for lam in stack:
            np.testing.assert_allclose(lam.theta, [c])

    def test_random_affine_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            net = random_affine_net(rng)
            problem = logit_diff_problem(net)
            c = problem.objective.coefficients(net.output_dim)
            stack = lambda_star_affine(net, c)
            bounds = propagate_intervals(net, problem.support_box())
            [total] = evaluate_dual([problem], stack, bounds).total
            # oracle: compose the affine maps and box-maximize exactly
            mat = np.eye(net.input_dim)
            offset = np.zeros(net.input_dim)
            for layer in net.layers:
                w = layer.weights.values
                b = layer.bias.values
                mat = w @ mat
                offset = w @ offset + b
            d = c @ mat
            box = problem.support_box()
            opt = float(c @ offset + np.maximum(d * box.lo, d * box.hi).sum())
            assert total == pytest.approx(opt, abs=1e-9)

    def test_rejects_relu(self, two_layer_net):
        with pytest.raises(StructureError):
            lambda_star_affine(two_layer_net, np.array([1.0, -1.0]))


class TestOptimize:
    def test_certify_at_init_equals_interval_bound(self, two_layer_net):
        problem = logit_diff_problem(two_layer_net, epsilon=0.1)
        bounds = propagate_intervals(two_layer_net, problem.support_box())
        [cert] = optimize([problem], OptimizerConfig(steps=0), family="linear")
        c = problem.objective.coefficients(2)
        box = bounds[2]
        interval_bound = float(np.maximum(c * box.lo, c * box.hi).sum())
        assert cert.metadata["objective_bound"] == pytest.approx(interval_bound, abs=1e-12)

    def test_early_stop_on_verified(self):
        # trivially true spec: threshold far above the interval bound
        net = CanonicalNetwork(layers=(det_layer([[1.0], [1.0]], [0.0, 0.0]),))
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=np.array([0.5]), epsilon=0.1),
            objective=ExpectedSoftmax(label=0),
            threshold=0.999,
        )
        [cert] = optimize([problem], OptimizerConfig(steps=500), family="linear")
        assert cert.verified
        assert len(cert.trace) == 1  # stopped right after the step-0 value
        assert cert.trace[0]["certified_value"] - problem.threshold <= 0.0

    def test_best_bound_is_trace_minimum(self):
        # every evaluated stack certifies: one value per step, and the bound is the
        # least margin over all of them, here at a step between multiples of 20
        net, problem = random_problem(seed=2, kinds=("robust_ood",))
        [cert] = optimize(
            [problem],
            OptimizerConfig(steps=60, lr=0.05, early_stop=False),
            family="linear",
        )
        assert [sorted(e) for e in cert.trace] == [["certified_value", "step"]] * 61
        margins = [e["certified_value"] - problem.threshold for e in cert.trace]
        assert cert.bound == min(margins)
        assert cert.metadata["objective_bound"] == cert.bound + problem.threshold
        assert margins.index(cert.bound) % 20 != 0

    def test_each_stack_is_evaluated_once(self, monkeypatch):
        # stack_0 .. stack_60, each once: the value that takes the gradient is the
        # certified value, and the best of all 61 is the bound
        import funclag.dual

        calls = []
        original = funclag.dual.evaluate_dual

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(funclag.dual, "evaluate_dual", counting)
        net, problem = random_problem(seed=2, kinds=("robust_ood",))
        [cert] = optimize(
            [problem],
            OptimizerConfig(steps=60, lr=0.05, early_stop=False),
            family="linear",
        )
        assert len(calls) == 61
        assert cert.bound == -0.17827304746767203

    def test_quadratic_family_trains(self):
        net, problem = random_problem(seed=6, kinds=("robust_ood",))
        [cert] = optimize(
            [problem],
            OptimizerConfig(steps=60, lr=0.03, decay_every=30, early_stop=False),
            family="quadratic",
        )
        zero_bound = cert.trace[0]["certified_value"]
        assert cert.metadata["objective_bound"] <= zero_bound + 1e-12

    def test_train_mode_solves_softmax_exactly_up_to_the_cap(self):
        rng = np.random.default_rng(4)
        net = CanonicalNetwork(
            layers=(
                det_layer(rng.standard_normal((6, 3)), 0.1 * rng.standard_normal(6)),
                det_layer(rng.standard_normal((8, 6)), 0.1 * rng.standard_normal(8), "relu"),
            )
        )
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=rng.random(3), epsilon=0.1),
            objective=ExpectedSoftmax(label=2),
            threshold=0.5,
        )
        bounds = propagate_intervals(net, problem.support_box())
        stack = noisy_stack(problem, "linear", scale=0.2, seed=1)
        evaluation = evaluate_dual([problem], stack, bounds)
        assert evaluation.results[-1].mode == "exact"

    def test_wide_softmax_output_is_solved_exactly(self):
        # 16 outputs: the final layer takes the exact solve like any width
        rng = np.random.default_rng(6)
        net = CanonicalNetwork(
            layers=(
                det_layer(rng.standard_normal((6, 3)), 0.1 * rng.standard_normal(6)),
                det_layer(rng.standard_normal((16, 6)), 0.1 * rng.standard_normal(16), "relu"),
            )
        )
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=rng.random(3), epsilon=0.1),
            objective=ExpectedSoftmax(label=5),
            threshold=0.5,
        )
        bounds = propagate_intervals(net, problem.support_box())
        stack = noisy_stack(problem, "linear", scale=0.2, seed=2)
        final = evaluate_dual([problem], stack, bounds).results[-1]
        assert final.mode == "exact"
        box = bounds[net.depth]
        [value], [witness] = final.value, final.witness
        assert np.all((box.lo <= witness) & (witness <= box.hi))
        lin = -stack[1].theta[0]
        assert value == softmax_objective(5, lin, witness)
        corners = np.where(rng.random((500, 16)) < 0.5, box.lo, box.hi)
        points = box.lo + rng.random((5000, 16)) * (box.hi - box.lo)
        for sample in (corners, points):
            assert value >= max(softmax_objective(5, lin, x) for x in sample)

    def test_logits_past_exp_overflow_run_every_step(self):
        # logits near 715 overflow a plain exp; the output solve replays
        # those rows in shifted logits, so no step warns or stops the run
        net = CanonicalNetwork(layers=(det_layer(np.full((3, 2), 10.0), [705.0, 0.0, 1.0]),))
        for label in range(3):
            problem = VerificationProblem(
                network=net,
                input_set=BoxOfDeltas(center=np.array([0.5, 0.5]), epsilon=0.1, clip=False),
                objective=ExpectedSoftmax(label=label),
                threshold=0.5,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                [cert] = optimize(
                    [problem],
                    OptimizerConfig(steps=20, lr=0.05, early_stop=False),
                )
            assert [entry["step"] for entry in cert.trace] == list(range(21))

    def test_adam_tightens_affine_problem(self):
        rng = np.random.default_rng(9)
        net = random_affine_net(rng, conditioned=True)
        problem = logit_diff_problem(net)
        c = problem.objective.coefficients(net.output_dim)
        bounds = propagate_intervals(net, problem.support_box())
        [opt] = evaluate_dual([problem], lambda_star_affine(net, c), bounds).total
        [cert] = optimize(
            [problem],
            OptimizerConfig(steps=600, lr=0.05, decay_every=200, early_stop=False),
            family="linear",
        )
        start = cert.trace[0]["certified_value"]
        achieved = cert.metadata["objective_bound"]
        assert achieved <= start + 1e-12
        assert achieved >= opt - 1e-9  # weak duality even after optimization

    def test_the_start_is_recorded(self):
        # a given stack is "given" even when it holds a family's zeros; without one the
        # run starts from the zero stack and says so
        net, problem = random_problem(seed=2, kinds=("robust_ood",))
        config = OptimizerConfig(steps=3, lr=0.05)
        zeros = init_stack([problem], "linear")
        tenths = tuple(with_params(lam, {name: np.full_like(arr, 0.1)
                                         for name, arr in get_params(lam).items()})
                       for lam in zeros)
        for stack, init in [(None, "zeros"), (tenths, "given"), (zeros, "given")]:
            [cert] = optimize([problem], config, stack=stack)
            assert cert.metadata["config"]["init"] == init

    def test_a_given_stack_must_have_its_familys_layout(self):
        # the loader refuses a certificate whose stack is not its family's, so the
        # optimizer refuses to write one
        _, box_problem = random_problem(seed=2, kinds=("robust_ood",))
        _, noise_problem = random_problem(seed=3, kinds=("dist_robust_ood",))
        config = OptimizerConfig(steps=1)
        linear = init_stack([noise_problem], "linear")
        with pytest.raises(ValueError, match="not laid out as the linexp family's"):
            optimize([noise_problem], config, stack=linear)
        with pytest.raises(ValueError, match="not laid out as the quadratic family's"):
            optimize([noise_problem], config, family="quadratic", stack=linear)
        [cert] = optimize([box_problem], config, family="linear",
                          stack=init_stack([box_problem], "linear"))
        assert cert.metadata["family"] == "linear"
        quadratic = init_stack([box_problem], "quadratic")
        with pytest.raises(ValueError, match="not laid out as the linear family's"):
            optimize([box_problem], config, stack=quadratic)
        with pytest.raises(ValueError, match="not laid out as the quadratic family's"):
            optimize([box_problem], config, family="quadratic", stack=quadratic[:-1])

    @pytest.mark.parametrize("field, value", [
        ("steps", -1), ("steps", 2.0), ("steps", True), ("decay_every", 0),
        ("decay_every", 1.5), ("steps", None), ("lr", 0.0), ("lr", float("inf")),
        ("lr", True),
    ])
    def test_a_config_the_loader_refuses_is_refused(self, field, value):
        _, problem = random_problem(seed=2, kinds=("robust_ood",))
        config = OptimizerConfig(**{"steps": 1, field: value})
        with pytest.raises(ValueError, match=re.escape(f"'{field}': {value!r}")):
            optimize([problem], config)

    def test_the_family_follows_the_input_set(self):
        for kind, family in [("dist_robust_ood", "linexp"), ("robust_ood", "linear"),
                             ("adversarial", "linear")]:
            _, problem = random_problem(seed=3, kinds=(kind,))
            [cert] = optimize([problem], OptimizerConfig(steps=2))
            assert cert.metadata["family"] == family


def expand(problem):
    """A problem's spec expanded to every label of its kind, as ``build_problem`` does."""
    net, objective = problem.network, problem.objective
    if isinstance(objective, LogitDiff):
        objectives = [LogitDiff(target=target, true=objective.true)
                      for target in range(net.output_dim) if target != objective.true]
    else:
        objectives = [ExpectedSoftmax(label=label) for label in range(net.output_dim)]
    return [VerificationProblem(network=net, input_set=problem.input_set, objective=o,
                                threshold=problem.threshold) for o in objectives]


def spec_problems(seed):
    """``random_problem``'s spec expanded, and the family ``verify`` would run on it:
    linexp for a sub-Gaussian input set, else linear (quadratic on every fourth seed)."""
    _, problem = random_problem(seed=seed)
    if isinstance(problem.input_set, SubGaussianNoise):
        return expand(problem), "linexp"
    return expand(problem), "quadratic" if seed % 4 == 3 else "linear"


def cert_bytes(cert):
    return json.dumps(encode_reals(cert.to_jsonable()), sort_keys=True)


BATCH_CONFIG = OptimizerConfig(steps=24, lr=0.05, decay_every=10)


def stacked(stacks):
    """One stack holding the rows of ``stacks`` in order."""
    return tuple(type(lams[0])(**{name: np.concatenate([getattr(lam, name) for lam in lams])
                                  for name in get_params(lams[0])})
                 for lams in zip(*stacks))


class TestBatch:
    @pytest.mark.parametrize("seed", [0, 1, 95])
    def test_a_certificate_stack_reproduces_its_bound(self, seed):
        # evaluate_dual at a certificate's stack gives the trace value that is its bound,
        # bit for bit, alone and with the other rows' stacks in one batch (seeds 0, 1
        # and 95 run the linexp, linear and quadratic families, and their bounds come
        # from steps 0, 4, 5, 17 and 24)
        problems, family = spec_problems(seed)
        certs = optimize(problems, replace(BATCH_CONFIG, early_stop=False), family=family)
        assert len(problems) >= 2
        bounds = propagate_intervals(problems[0].network, problems[0].support_box())
        values = []
        for problem, cert in zip(problems, certs):
            margins = [e["certified_value"] - problem.threshold for e in cert.trace]
            values.append(cert.trace[margins.index(cert.bound)]["certified_value"])
            [alone] = evaluate_dual([problem], cert.stack, bounds).total.tolist()
            assert alone == values[-1], (seed, problem.objective)
        batch = evaluate_dual(problems, stacked([c.stack for c in certs]), bounds)
        assert batch.total.tolist() == values

    def test_early_stop_ends_a_row_at_its_first_non_positive_entry(self):
        # a row that stops early has the trace it has without early stop, up to its
        # first non-positive margin; the steps fall anywhere, not on a certify grid
        stops = set()
        for seed, family in [(22, "linexp"), (41, "linear"), (79, "quadratic")]:
            problems, spec_family = spec_problems(seed)
            assert spec_family == family
            full = optimize(problems, replace(BATCH_CONFIG, early_stop=False), family=family)
            early = optimize(problems, BATCH_CONFIG, family=family)
            for problem, row, cert in zip(problems, full, early):
                margins = [e["certified_value"] - problem.threshold for e in row.trace]
                first = next((s for s, m in enumerate(margins) if m <= 0.0), None)
                if first is None:
                    assert cert.trace == row.trace and cert.bound == row.bound
                    continue
                assert cert.trace == row.trace[:first + 1], (seed, problem.objective)
                assert cert.bound == margins[first] and cert.verified
                stops.add(first)
        assert stops == {0, 2, 11, 13, 15}
    def test_rows_match_their_solo_runs(self):
        # a row's certificate is the same bytes alone or among the labels of its spec,
        # early stops, the quadratic row loop and the linexp rows included
        seen = set()
        for seed in range(50):
            problems, family = spec_problems(seed)
            certs = optimize(problems, BATCH_CONFIG, family=family)
            assert len(certs) == len(problems)
            for problem, cert in zip(problems, certs):
                [alone] = optimize([problem], BATCH_CONFIG, family=family)
                assert cert_bytes(cert) == cert_bytes(alone), (seed, problem.objective)
            seen.add(family)
            seen.add("three rows or more" if len(problems) >= 3 else "fewer rows")
            seen.update("stopped early" for c in certs if len(c.trace) <= BATCH_CONFIG.steps)
            seen.update("ran out" for c in certs if len(c.trace) > BATCH_CONFIG.steps)
        assert seen == {"linear", "linexp", "quadratic", "stopped early", "ran out",
                        "three rows or more", "fewer rows"}

    def test_a_raising_row_ends_alone(self, monkeypatch):
        # label 1's output solve raises FloatingPointError from step 5 on: that row
        # ends at step 5 with the warning, and every row matches its solo run; under
        # each family, so the dropped row takes a 1-D kappa and 3-D Q rows with it
        import funclag.inner

        original = funclag.inner.final_softmax_exact
        solves = []

        def flaky(labels, lam_k, box):
            if 1 in labels:
                solves.append(labels)
                if len(solves) > 5:
                    raise FloatingPointError("injected")
            return original(labels, lam_k, box)

        monkeypatch.setattr(funclag.inner, "final_softmax_exact", flaky)
        config = OptimizerConfig(steps=12, lr=0.05, early_stop=False)
        for kind, family in (("robust_ood", "linear"), ("robust_ood", "quadratic"),
                             ("dist_robust_ood", "linexp")):
            _, problem = random_problem(seed=2, kinds=(kind,))
            problems = expand(problem)
            solves.clear()
            with pytest.warns(RuntimeWarning, match="stopped at step 5 by FloatingPointError"):
                certs = optimize(problems, config, family=family)
            assert len(problems) >= 3
            assert [len(c.trace) for c in certs] == [5 if i == 1 else 13
                                                     for i in range(len(certs))], family
            for i, (problem, cert) in enumerate(zip(problems, certs)):
                solves.clear()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    [alone] = optimize([problem], config, family=family)
                messages = [str(w.message) for w in caught]
                assert [m.startswith("optimization stopped at step 5 by FloatingPointError")
                        for m in messages] == ([True] if i == 1 else []), (family, i)
                assert cert_bytes(cert) == cert_bytes(alone), (family, i)

    def test_a_batch_shares_one_network_input_set_and_objective_kind(self, two_layer_net):
        problem = logit_diff_problem(two_layer_net)
        bounds = propagate_intervals(two_layer_net, problem.support_box())
        stack = init_stack([problem, problem], "linear")
        assert evaluate_dual([problem, problem], stack, bounds).total.shape == (2,)
        other_set = logit_diff_problem(two_layer_net)
        softmax = VerificationProblem(network=two_layer_net, input_set=problem.input_set,
                                      objective=ExpectedSoftmax(label=0), threshold=0.5)
        for pair in ([problem, other_set], [problem, softmax]):
            with pytest.raises(ValueError, match="must share"):
                evaluate_dual(pair, stack, bounds)
        with pytest.raises(ValueError, match="one row per problem"):
            evaluate_dual([problem], stack, bounds)
        with pytest.raises(ValueError, match="one row per problem"):
            evaluate_dual([problem] * 2, tuple(take_rows(lam, [0]) for lam in stack), bounds)


class TestSampleLowerBound:
    def test_certificate_holds_against_the_attack_at_a_tight_truncation(self):
        # one N(0, 1) weight cut at 0.5 sd feeding a relu: the boxes keep
        # |w| <= 0.5, so the bound (0.25025) holds for E relu(w) = 0.1224 of
        # the truncated net but not for the untruncated 0.399
        gaussian = DiagonalGaussian(mean=np.zeros((1, 1)), stddev=np.ones((1, 1)), truncation=0.5)
        net = CanonicalNetwork(layers=(
            CanonicalLayer(
                activation="identity", weights=gaussian, bias=Deterministic(np.zeros(1))
            ),
            det_layer([[1.0], [0.0]], [0.0, 0.0], activation="relu"),
        ))
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=np.array([1.0]), epsilon=0.001, clip=False),
            objective=LogitDiff(target=0, true=1),
            threshold=0.0,
        )
        [cert] = optimize([problem], OptimizerConfig(steps=2000, lr=0.01))
        [(value, stderr)] = sample_lower_bound([problem], n_samples=200, seed=0, weight_draws=5000)
        assert cert.bound >= value - 4.0 * stderr

    def test_monotone_one_dim_box_hits_corner(self):
        net = CanonicalNetwork(layers=(det_layer([[1.0], [0.0]], [0.0, 0.0]),))
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=np.array([0.5]), epsilon=0.25),
            objective=LogitDiff(target=0, true=1),
            threshold=0.0,
        )
        [(value, stderr)] = sample_lower_bound([problem], n_samples=50, seed=0)
        assert value == pytest.approx(0.75, abs=1e-9)
        assert stderr == 0.0

    def test_reproducible(self):
        net, problem = random_problem(seed=5)
        a = sample_lower_bound([problem], n_samples=300, seed=42, weight_draws=40, hill_steps=5)
        b = sample_lower_bound([problem], n_samples=300, seed=42, weight_draws=40, hill_steps=5)
        assert a == b

    def test_sigma_zero_noise_family_is_center_point(self):
        net, problem = random_problem(seed=13, kinds=("dist_robust_ood",))
        point_set = SubGaussianNoise(
            center=problem.input_set.center, epsilon=problem.input_set.epsilon,
            sigma=0.0, clip=False,
        )
        point_problem = VerificationProblem(
            network=net, input_set=point_set,
            objective=problem.objective, threshold=problem.threshold,
        )
        bounds = propagate_intervals(net, point_problem.support_box())
        stack = init_stack([point_problem], "linexp")
        [total] = evaluate_dual([point_problem], stack, bounds).total
        [(value, stderr)] = sample_lower_bound(
            [point_problem], n_samples=800, seed=3, weight_draws=200
        )
        assert total >= value - 4.0 * max(stderr, 1e-12) - 1e-9
