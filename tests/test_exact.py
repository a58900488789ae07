"""Bounds and attacks against exact answers on deterministic ReLU nets.

``exact_logit_diff`` solves the logit-difference problem as a big-M MILP,
so on these nets every certified bound must lie above the value it
achieves, and no attack may beat its objective.  ``triangle_lp`` is the
same model relaxed, the least value the linear family can reach, so no
value of a linear run may fall below it.
"""

import math

import numpy as np
import pytest

from funclag import (
    BoxOfDeltas,
    CanonicalNetwork,
    LogitDiff,
    OptimizerConfig,
    VerificationProblem,
    optimize,
    propagate_intervals,
)
from funclag.model import forward, mean_weights
from funclag.oracle import random_problem, sample_lower_bound

from conftest import det_layer
from oracles import exact_logit_diff, triangle_lp

PANEL_SIZE = 200
CONFIG = OptimizerConfig(steps=30, lr=0.05, decay_every=10)


def deep_probe(dims) -> VerificationProblem:
    """A deterministic ReLU net of widths ``dims`` with 2 N(0, 1) / sqrt(fan-in)
    weights, then 0.1 N(0, 1) biases, from seed 7, at a uniform(0.2, 0.8) center
    from seed 1 with eps 0.04: the argmax at the center against the runner-up."""
    rng = np.random.default_rng(7)
    layers = []
    for i, (fan_in, width) in enumerate(zip(dims, dims[1:])):
        w = 2.0 * rng.standard_normal((width, fan_in)) / math.sqrt(fan_in)
        b = 0.1 * rng.standard_normal(width)
        layers.append(det_layer(w, b, "identity" if i == 0 else "relu"))
    net = CanonicalNetwork(layers=tuple(layers))
    center = np.random.default_rng(1).uniform(0.2, 0.8, dims[0])
    order = np.argsort(forward(net.layers, center[np.newaxis], mean_weights(net.layers))[0])
    return VerificationProblem(network=net, input_set=BoxOfDeltas(center, 0.04),
                               objective=LogitDiff(target=int(order[-2]), true=int(order[-1])))


DEEP_PROBES = {"6-16-16-8": ([6, 16, 16, 8], -0.080254),
               "6-16-16-16-8": ([6, 16, 16, 16, 8], -0.016554)}


@pytest.fixture(scope="module")
def panel():
    """The first deterministic nets of the adversarial generator, the deep probe nets
    after them, each problem with its MILP objective and achieved value."""
    problems, seed = [], -1
    while len(problems) < PANEL_SIZE:
        seed += 1
        net, problem = random_problem(seed, max_layers=4, max_width=16, max_classes=8,
                                      kinds=("adversarial",))
        if net.is_deterministic():
            problems.append(problem)
    assert seed == 528
    problems += [deep_probe(dims) for dims, _ in DEEP_PROBES.values()]
    return [(p, *exact_logit_diff(p.network, p.support_box(),
                                  p.objective.coefficients(p.network.output_dim)))
            for p in problems]


@pytest.fixture(scope="module")
def certificates(panel):
    """Each panel problem's certificate from a 30-step linear run."""
    return [optimize([problem], CONFIG)[0] for problem, *_ in panel]


def test_the_deep_probe_values_are_pinned(panel):
    for (problem, exact, achieved), (_, value) in zip(panel[-2:], DEEP_PROBES.values()):
        assert exact == pytest.approx(value, abs=1e-6)
        assert achieved == pytest.approx(value, abs=1e-6)


def test_no_certified_bound_falls_below_an_achieved_value(panel, certificates):
    # the bounds are summed in plain floating point, not rounded outward, so a
    # bound may sit a few ulps below the exact value; the slack is 4 ulps of
    # max(|value|, 1), the scale of the summed terms, until the inner solves round
    # outward
    for (problem, _, achieved), cert in zip(panel, certificates):
        assert cert.metadata["family"] == "linear"
        slack = 4 * np.spacing(max(abs(achieved), 1.0))
        assert cert.metadata["objective_bound"] >= achieved - slack, problem.objective


def test_no_linear_value_falls_below_the_triangle_lp(panel, certificates):
    # every value of the run certifies, so each one, not only the bound, lies above
    # the linear family's optimum over the same boxes, with the slack above; the
    # relaxation in turn lies above the MILP to HiGHS' tolerance
    for (problem, exact, _), cert in zip(panel, certificates):
        net = problem.network
        boxes = propagate_intervals(net, problem.support_box())
        lp = triangle_lp(net, boxes, problem.objective.coefficients(net.output_dim))
        assert lp >= exact - 1e-6, problem.objective
        slack = 4 * np.spacing(max(abs(lp), 1.0))
        assert min(e["certified_value"] for e in cert.trace) >= lp - slack, problem.objective


def test_the_attack_never_beats_the_milp(panel):
    # verify's attack settings; the MILP objective holds to HiGHS' feasibility tolerance
    for problem, exact, _ in panel:
        [(attack, _)] = sample_lower_bound([problem], n_samples=200, seed=0,
                                           weight_draws=200, hill_steps=25)
        assert attack <= exact + 1e-6, problem.objective
