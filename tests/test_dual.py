import numpy as np
import pytest

from funclag import (
    BoxOfDeltas,
    CanonicalNetwork,
    ExpectedSoftmax,
    LogitDiff,
    Linear,
    MultiplierStack,
    OptimizerConfig,
    StructureError,
    SubGaussianNoise,
    VerificationProblem,
    evaluate_dual,
    init_stack,
    lambda_star_affine,
    optimize,
    propagate_intervals,
    sample_lower_bound,
    subgradient,
)
from funclag.dual import _evaluate, stack_families
from funclag.inner.softmax_exact import box_softmax_max
from funclag.multipliers import get_params, with_params
from funclag.oracle import random_problem

from conftest import det_layer, logit_diff_problem, random_affine_net
from oracles import noisy_stack


def zero_stack(net):
    return MultiplierStack(lams=tuple(Linear(theta=np.zeros(layer.out_dim)) for layer in net.layers))


class TestEvaluateDual:
    def test_zero_stack_linear_objective(self, two_layer_net):
        problem = logit_diff_problem(two_layer_net, epsilon=0.1)
        bounds = propagate_intervals(two_layer_net, problem.support_box())
        ev = evaluate_dual(problem, zero_stack(two_layer_net), bounds)
        c = problem.objective.coefficients(2)
        box = bounds.box(2)
        interval_bound = float(np.maximum(c * box.lo, c * box.hi).sum())
        assert ev.total == pytest.approx(interval_bound, abs=1e-12)
        assert ev.values[0] == 0.0 and ev.values[1] == 0.0

    def test_zero_stack_softmax_objective(self, two_layer_net):
        problem = VerificationProblem(
            network=two_layer_net,
            input_set=BoxOfDeltas(center=np.array([0.5, 0.5]), epsilon=0.1),
            objective=ExpectedSoftmax(label=1),
            threshold=0.5,
        )
        bounds = propagate_intervals(two_layer_net, problem.support_box())
        ev = evaluate_dual(problem, zero_stack(two_layer_net), bounds)
        assert ev.total == pytest.approx(box_softmax_max(1, bounds.box(2)), abs=1e-9)

    def test_weak_duality_on_random_stacks(self):
        for seed in range(12):
            net, problem = random_problem(seed=seed)
            if isinstance(problem.input_set, SubGaussianNoise):
                family = "linexp"
            elif isinstance(problem.objective, LogitDiff):
                family = "linear"
            else:
                family = ("linear", "quadratic")[seed % 2]
            stack = noisy_stack(
                stack_families(problem, family),
                [layer.out_dim for layer in net.layers],
                scale=0.15,
                seed=seed,
            )
            bounds = propagate_intervals(net, problem.support_box())
            ev = evaluate_dual(problem, stack, bounds)
            value, stderr = sample_lower_bound(
                problem, n_samples=1500, seed=seed, weight_draws=50, hill_steps=5
            )
            assert ev.total >= value - 4.0 * stderr - 1e-9

    def test_certify_mode_rejects_heuristic_results(self):
        # every inner result is exact or an upper bound: a heuristic one
        # cannot be built, so it cannot reach a certify-mode evaluation
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
        linexp_stack = MultiplierStack(
            lams=(LinExp(alpha=np.zeros(2), gamma=np.zeros(2), kappa=-10.0),
                  Linear(theta=np.zeros(2)))
        )
        with pytest.raises(UnsupportedCombination):
            evaluate_dual(box_problem, linexp_stack, bounds)
        # neither objective has a solver for a quadratic final multiplier
        quadratic_stack = MultiplierStack(
            lams=(Linear(theta=np.zeros(2)), Quadratic(Q=np.eye(2), q=np.zeros(2)))
        )
        with pytest.raises(UnsupportedCombination):
            evaluate_dual(box_problem, quadratic_stack, bounds)
        softmax_problem = VerificationProblem(
            network=two_layer_net,
            input_set=box_problem.input_set,
            objective=ExpectedSoftmax(label=0),
            threshold=0.5,
        )
        with pytest.raises(UnsupportedCombination, match="softmax"):
            evaluate_dual(softmax_problem, quadratic_stack, bounds)


def assert_finite_differences(problem, stack, bounds, h, rtol, entries=3):
    """Central differences of the train dual match ``subgradient`` entry by entry."""
    grads = subgradient(problem, stack, bounds)
    for i, lam in enumerate(stack.lams):
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
                    stack2 = MultiplierStack(
                        lams=tuple(
                            with_params(l, bumped) if ii == i else l
                            for ii, l in enumerate(stack.lams)
                        )
                    )
                    ev, _ = _evaluate(problem, stack2, bounds, "train", None, {}, False)
                    values.append(ev.total)
                fd = (values[0] - values[1]) / (2.0 * h)
                analytic = float(np.atleast_1d(np.asarray(grads[i][name])).ravel()[j])
                assert abs(fd - analytic) <= rtol * max(1.0, abs(fd))


class TestSubgradient:
    def test_finite_difference_agreement(self):
        for seed in (1, 4):
            net, problem = random_problem(seed=seed, kinds=("robust_ood",))
            stack = noisy_stack(
                stack_families(problem, "linear"),
                [layer.out_dim for layer in net.layers],
                scale=0.3,
                seed=seed,
            )
            bounds = propagate_intervals(net, problem.support_box())
            assert_finite_differences(problem, stack, bounds, h=1e-5, rtol=1e-4)

    def test_linexp_finite_difference_agreement(self):
        # the linexp multiplier enters the input bound and, at the optimal
        # zeta, the transition bound's envelope gradient
        for seed in (0, 1, 6):
            net, problem = random_problem(seed=seed, kinds=("dist_robust_ood",))
            stack = noisy_stack(
                stack_families(problem, "linexp"),
                [layer.out_dim for layer in net.layers],
                scale=0.3,
                seed=seed,
            )
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
        stack = MultiplierStack(lams=(Linear(theta=np.zeros(2)), Linear(theta=np.zeros(2))))
        grads = subgradient(problem, stack, bounds)
        for g in grads:
            np.testing.assert_allclose(g["theta"], 0.0, atol=1e-12)


class TestLambdaStarAffine:
    def test_one_layer_doubling(self):
        # y = 2x on [-1, 1] with c = 1: lambda*(x) = x and g = 2 = OPT
        net = CanonicalNetwork(layers=(det_layer([[2.0]], [0.0]),))
        stack = lambda_star_affine(net, np.array([1.0]))
        np.testing.assert_allclose(stack[0].theta, [1.0])
        bounds = propagate_intervals(
            net, BoxOfDeltas(center=np.array([0.0]), epsilon=1.0, clip=False).support_box()
        )
        from funclag.inner import final_linear, inner_linear

        g0 = inner_linear(net.layers[0], Linear(theta=np.zeros(1)), stack[0], bounds.box(0))
        gK = final_linear(np.array([1.0]), stack[0], bounds.box(1))
        assert g0.value + gK.value == pytest.approx(2.0, abs=1e-12)

    def test_identity_network(self):
        net = CanonicalNetwork(
            layers=(det_layer(np.eye(3), np.zeros(3)), det_layer(np.eye(3), np.zeros(3)))
        )
        c = np.array([1.0, -1.0, 0.5])
        stack = lambda_star_affine(net, c)
        for lam in stack.lams:
            np.testing.assert_allclose(lam.theta, c)

    def test_random_affine_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            net = random_affine_net(rng)
            problem = logit_diff_problem(net)
            c = problem.objective.coefficients(net.output_dim)
            stack = lambda_star_affine(net, c)
            bounds = propagate_intervals(net, problem.support_box())
            total = evaluate_dual(problem, stack, bounds).total
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
        cert = optimize(problem, OptimizerConfig(steps=0), family="linear")
        c = problem.objective.coefficients(2)
        box = bounds.box(2)
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
        cert = optimize(problem, OptimizerConfig(steps=500), family="linear")
        assert cert.verified
        assert len(cert.trace) == 1  # stopped right after the initial certify
        certified = [e["certified_value"] for e in cert.trace if e["certified_value"] is not None]
        assert min(certified) - problem.threshold <= 0.0

    def test_best_bound_is_trace_minimum(self):
        net, problem = random_problem(seed=2, kinds=("robust_ood",))
        cert = optimize(
            problem,
            OptimizerConfig(steps=60, lr=0.05, certify_every=20, early_stop=False),
            family="linear",
        )
        certified = [e["certified_value"] for e in cert.trace if e["certified_value"] is not None]
        running_min = np.minimum.accumulate(certified)
        assert cert.metadata["objective_bound"] == pytest.approx(float(running_min[-1]), abs=0.0)
        # tracked minimum is non-increasing by construction
        assert np.all(np.diff(running_min) <= 0.0)

    def test_quadratic_family_trains(self):
        net, problem = random_problem(seed=6, kinds=("robust_ood",))
        cert = optimize(
            problem,
            OptimizerConfig(steps=60, lr=0.03, decay_every=30, certify_every=30, early_stop=False),
            family="quadratic",
        )
        zero_bound = cert.trace[0]["certified_value"]
        assert cert.metadata["objective_bound"] <= zero_bound + 1e-12

    def test_softmax_cap_falls_back_to_level_set_bound(self):
        from funclag import SolverOptions

        net, problem = random_problem(seed=3, kinds=("robust_ood",))
        bounds = propagate_intervals(net, problem.support_box())
        stack = noisy_stack(
            stack_families(problem, "linear"),
            [layer.out_dim for layer in net.layers],
            scale=0.2,
            seed=1,
        )
        exact = evaluate_dual(problem, stack, bounds)
        capped = evaluate_dual(
            problem, stack, bounds,
            options=SolverOptions(exact_softmax_cap=1, softmax_grid_n=12),
        )
        assert capped.results[-1].mode == "upper_bound"
        assert capped.total >= exact.total - 1e-9

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
        stack = noisy_stack(
            stack_families(problem, "linear"), [6, 8], scale=0.2, seed=1
        )
        certify = evaluate_dual(problem, stack, bounds)
        train = evaluate_dual(problem, stack, bounds, mode="train")
        assert train.results[-1].mode == "exact"
        assert train.values == certify.values

    def test_train_mode_past_the_cap_takes_the_certify_bound(self):
        from funclag import SolverOptions

        net, problem = random_problem(seed=3, kinds=("robust_ood",))
        bounds = propagate_intervals(net, problem.support_box())
        stack = noisy_stack(
            stack_families(problem, "linear"),
            [layer.out_dim for layer in net.layers],
            scale=0.2,
            seed=1,
        )
        options = SolverOptions(exact_softmax_cap=1, softmax_grid_n=5)
        certify = evaluate_dual(problem, stack, bounds, options=options)
        train = evaluate_dual(problem, stack, bounds, mode="train", options=options)
        final = train.results[-1]
        assert final.mode == "upper_bound"
        assert train.values == certify.values
        box = bounds.box(net.depth)
        assert np.all((box.lo <= final.witness) & (final.witness <= box.hi))
        grads = subgradient(problem, stack, bounds, options=options)
        assert np.any(grads[-1]["theta"] != 0.0)

    def test_adam_tightens_affine_problem(self):
        rng = np.random.default_rng(9)
        net = random_affine_net(rng, conditioned=True)
        problem = logit_diff_problem(net)
        c = problem.objective.coefficients(net.output_dim)
        bounds = propagate_intervals(net, problem.support_box())
        opt = evaluate_dual(problem, lambda_star_affine(net, c), bounds).total
        cert = optimize(
            problem,
            OptimizerConfig(steps=600, lr=0.05, decay_every=200, certify_every=25, early_stop=False),
            family="linear",
        )
        start = cert.trace[0]["certified_value"]
        achieved = cert.metadata["objective_bound"]
        assert achieved <= start + 1e-12
        assert achieved >= opt - 1e-9  # weak duality even after optimization


class TestSampleLowerBound:
    def test_monotone_one_dim_box_hits_corner(self):
        net = CanonicalNetwork(layers=(det_layer([[1.0], [0.0]], [0.0, 0.0]),))
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=np.array([0.5]), epsilon=0.25),
            objective=LogitDiff(target=0, true=1),
            threshold=0.0,
        )
        value, stderr = sample_lower_bound(problem, n_samples=50, seed=0)
        assert value == pytest.approx(0.75, abs=1e-9)
        assert stderr == 0.0

    def test_reproducible(self):
        net, problem = random_problem(seed=5)
        a = sample_lower_bound(problem, n_samples=300, seed=42, weight_draws=40, hill_steps=5)
        b = sample_lower_bound(problem, n_samples=300, seed=42, weight_draws=40, hill_steps=5)
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
        stack = init_stack(
            stack_families(point_problem, "linexp"),
            [layer.out_dim for layer in net.layers],
        )
        total = evaluate_dual(point_problem, stack, bounds).total
        value, stderr = sample_lower_bound(point_problem, n_samples=800, seed=3, weight_draws=200)
        assert total >= value - 4.0 * max(stderr, 1e-12) - 1e-9
