import math

import numpy as np
import pytest

from funclag import Interval, LinExp, Linear
from funclag.inner import inner_linear, inner_linexp_input, inner_linexp_transition
from funclag.inner.linear import activation_candidates
from funclag.inner.linexp import transition_bound_at_zeta

from conftest import det_layer
from oracles import (
    evaluate,
    linexp_transition_breaks,
    linexp_transition_rows,
    one_row,
    take_rows,
)


def at_zeta(lam1, lam2, layer, box, zeta):
    """``transition_bound_at_zeta`` for one-row multipliers."""
    p, beta = one_row(lam1), one_row(lam2)["theta"]
    coeffs = (layer.weights.mean.T @ beta, float(beta @ layer.bias.mean))
    candidates = activation_candidates(box.lo, box.hi, layer.activation)
    return transition_bound_at_zeta(p["alpha"], p["gamma"], float(p["kappa"]), coeffs,
                                    candidates, zeta)


def random_transition_instance(rng, n=2, m=2):
    layer = det_layer(rng.standard_normal((m, n)), 0.3 * rng.standard_normal(m), "relu")
    lam1 = LinExp(
        alpha=0.5 * rng.standard_normal(n),
        gamma=0.5 * rng.standard_normal(n),
        kappa=float(0.5 * rng.standard_normal()),
    )
    lam2 = Linear(theta=rng.standard_normal(m))
    lo = rng.standard_normal(n)
    box = Interval(lo, lo + 2.0 * rng.random(n))
    return layer, lam1, lam2, box


def transition_grid_max(layer, lam1, lam2, box, res=600):
    xs = np.linspace(box.lo[0], box.hi[0], res)
    ys = np.linspace(box.lo[1], box.hi[1], res)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    P = np.stack([X.ravel(), Y.ravel()], axis=1)
    w = layer.weights.values
    b = layer.bias.values
    out = np.maximum(P, 0.0) @ w.T + b
    p1, p2 = one_row(lam1), one_row(lam2)
    vals = out @ p2["theta"] - P @ p1["alpha"] - np.exp(P @ p1["gamma"] + p1["kappa"])
    return float(vals.max())


class TestInputBound:
    def test_mgf_term_off(self):
        layer = det_layer([[1.0, 0.0], [0.0, 2.0]], [0.5, -0.5])
        lam1 = LinExp(alpha=np.array([1.0, 1.0]), gamma=np.zeros(2), kappa=0.0)
        center = np.array([0.25, 0.5])
        res = inner_linexp_input(layer, center, sigma=0.3, lam1=lam1)
        nominal = layer.weights.values @ center + layer.bias.values
        assert res.value == pytest.approx(lam1.alpha @ nominal + 1.0, rel=1e-12)

    def test_degenerate_noise_is_plain_evaluation(self):
        rng = np.random.default_rng(2)
        layer = det_layer(rng.standard_normal((3, 2)), rng.standard_normal(3))
        lam1 = LinExp(
            alpha=rng.standard_normal(3), gamma=0.4 * rng.standard_normal(3), kappa=-0.3
        )
        center = rng.random(2)
        res = inner_linexp_input(layer, center, sigma=0.0, lam1=lam1)
        nominal = layer.weights.values @ center + layer.bias.values
        direct = evaluate(lam1, nominal)
        assert res.value == pytest.approx(direct, rel=1e-12)

    def test_dominates_truncated_gaussian_monte_carlo(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d, n1 = 3, 2
            layer = det_layer(rng.standard_normal((n1, d)), 0.2 * rng.standard_normal(n1))
            lam1 = LinExp(
                alpha=rng.standard_normal(n1),
                gamma=rng.standard_normal(n1),
                kappa=float(0.3 * rng.standard_normal()),
            )
            center = rng.random(d)
            sigma, eps = 0.1, 0.05
            res = inner_linexp_input(layer, center, sigma, lam1)
            scale = min(sigma, eps)
            noise = rng.normal(0.0, scale, size=(100_000, d))
            bad = np.abs(noise) > eps
            while bad.any():
                noise = np.where(bad, rng.normal(0.0, scale, size=noise.shape), noise)
                bad = np.abs(noise) > eps
            z = (center + noise) @ layer.weights.values.T + layer.bias.values
            p = one_row(lam1)
            vals = z @ p["alpha"] + np.exp(z @ p["gamma"] + p["kappa"])
            est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
            assert res.value >= est - 4.0 * se

    def test_requires_deterministic_layer(self, gaussian_layer):
        lam1 = LinExp(alpha=np.zeros(1), gamma=np.zeros(1), kappa=0.0)
        with pytest.raises(ValueError):
            inner_linexp_input(gaussian_layer, np.array([0.5]), 0.1, lam1)


class TestTransitionBound:
    def test_zeta_zero_limit_term(self):
        # the zeta-entropy term evaluates to 0 at zeta = 0
        layer = det_layer([[1.0]], [0.0], "relu")
        lam1 = LinExp(alpha=np.array([0.3]), gamma=np.array([0.2]), kappa=-1.0)
        box = Interval(np.array([-1.0]), np.array([1.0]))
        value, _ = at_zeta(lam1, Linear(theta=np.array([1.0])), layer, box, zeta=0.0)
        assert math.isfinite(value)

    def test_exp_suppressed_matches_inner_linear(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            layer, lam1, lam2, box = random_transition_instance(rng, n=3, m=2)
            suppressed = LinExp(alpha=lam1.alpha, gamma=np.zeros(3), kappa=-1000.0)
            res = inner_linexp_transition(suppressed, lam2, layer, box)
            ref = inner_linear(layer, Linear(theta=lam1.alpha), lam2, box)
            assert abs(res.value - ref.value) <= 1e-12

    def test_dominates_grid_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            layer, lam1, lam2, box = random_transition_instance(rng)
            res = inner_linexp_transition(lam1, lam2, layer, box)
            assert res.value >= transition_grid_max(layer, lam1, lam2, box) - 1e-9

    def test_any_dual_point_is_an_upper_bound(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            layer, lam1, lam2, box = random_transition_instance(rng)
            res = inner_linexp_transition(lam1, lam2, layer, box)
            oracle = transition_grid_max(layer, lam1, lam2, box)
            [zeta] = res.internal_duals["zeta"]
            for _ in range(10):
                zeta_p = max(zeta + 0.5 * rng.standard_normal(), 0.0)
                perturbed, _ = at_zeta(lam1, lam2, layer, box, zeta_p)
                assert perturbed >= oracle - 1e-9
                assert perturbed >= res.value - 1e-9

    def test_large_exponent_repro(self):
        # the optimum sits at zeta = 1/(2g); a bracket search up to
        # exp(kappa + max g.x) = exp(2g) cannot resolve it for large g
        layer = det_layer([[1.0, 1.0]], [0.0], "relu")
        box = Interval(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        for g, expected in ((10.0, 1.8002), (20.0, 1.8828), (30.0, 1.9151)):
            lam1 = LinExp(alpha=np.zeros(2), gamma=np.array([g, -g]), kappa=0.0)
            res = inner_linexp_transition(lam1, Linear(theta=np.array([1.0])), layer, box)
            assert res.value == pytest.approx(expected, abs=1e-4)
            assert res.internal_duals["zeta"] == pytest.approx(0.5 / g, rel=1e-9)

    def test_no_zeta_on_a_dense_grid_is_lower(self):
        rng = np.random.default_rng(21)
        zetas = np.concatenate([[0.0], np.logspace(-12.0, 45.0 / math.log(10.0), 600)])
        instances = [
            (det_layer([[1.0, 1.0]], [0.0], "relu"), LinExp(np.zeros(2), np.array([g, -g]), 0.0),
             Linear(theta=np.array([1.0])), Interval(-np.ones(2), np.ones(2)))
            for g in (10.0, 20.0, 30.0)
        ]
        for trial in range(40):
            n = int(rng.integers(1, 6))
            layer, lam1, lam2, box = random_transition_instance(rng, n=n, m=2)
            if trial % 2:
                # steep gamma with kappa + max g.x in [20, 45]
                gamma = 10.0 ** rng.uniform(-1.0, 1.5) * lam1.gamma
                gmax = float(np.maximum(gamma * box.lo, gamma * box.hi).sum())
                lam1 = LinExp(lam1.alpha, gamma, rng.uniform(20.0, 45.0) - gmax)
            if trial % 3 == 0:
                layer = det_layer(layer.weights.values, layer.bias.values, "identity")
            instances.append((layer, lam1, lam2, box))
        for layer, lam1, lam2, box in instances:
            res = inner_linexp_transition(lam1, lam2, layer, box)
            grid = min(at_zeta(lam1, lam2, layer, box, z)[0] for z in zetas)
            assert res.value <= grid + 1e-12 * abs(grid)


def result_hexes(res, row=None):
    """Value, witness, zeta and both gradients of a transition result as ``float.hex``,
    of every row or of one."""
    parts = [res.value, res.witness, res.internal_duals["zeta"],
             *res.grads[0].values(), *res.grads[1].values()]
    return [[float(v).hex() for v in np.ravel(part if row is None else part[row])]
            for part in parts]


def random_transition_batch(rng, rows, n, m, activation):
    """A transition with ``rows`` rows: random, flat (gamma = 0, so no line crosses
    another) and steep (kappa + max g.x in [20, 45]) rows mixed."""
    layer = det_layer(rng.standard_normal((m, n)), 0.3 * rng.standard_normal(m), activation)
    lo = rng.standard_normal(n)
    box = Interval(lo, lo + 2.0 * rng.random(n))
    alpha = 0.5 * rng.standard_normal((rows, n))
    gamma = 0.5 * rng.standard_normal((rows, n))
    kappa = 0.5 * rng.standard_normal(rows)
    kind = rng.integers(0, 3, rows)
    gamma[kind == 1] = 0.0
    steep = kind == 2
    gamma[steep] *= 10.0 ** rng.uniform(-1.0, 1.5, (int(steep.sum()), 1))
    gmax = np.maximum(gamma * box.lo, gamma * box.hi).sum(axis=1)
    kappa[steep] = rng.uniform(20.0, 45.0, int(steep.sum())) - gmax[steep]
    lam1 = LinExp(alpha=alpha, gamma=gamma, kappa=kappa)
    return layer, lam1, Linear(theta=rng.standard_normal((rows, m))), box


class TestOnePass:
    # the one-pass solve against the row-by-row reference, bit for bit
    def test_matches_the_row_by_row_reference(self):
        rng = np.random.default_rng(27)
        total_rows, seen = 0, set()
        for trial in range(120):
            activation = ("relu", "identity")[trial % 2]
            rows, n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
            layer, lam1, lam2, box = random_transition_batch(rng, rows, n, m, activation)
            res = inner_linexp_transition(lam1, lam2, layer, box)
            ref = linexp_transition_rows(lam1, lam2, layer, box)
            assert result_hexes(res) == result_hexes(ref), trial
            counts = [b.size - 2 for b in linexp_transition_breaks(lam1, lam2, layer, box)]
            total_rows += rows
            seen.add(activation)
            seen.update("padded" for c in counts if c < max(counts))
            seen.update("no crossing" for c in counts if c == 0)
        assert total_rows >= 200
        assert seen == {"relu", "identity", "padded", "no crossing"}

    def test_a_row_gets_the_bits_it_gets_alone(self):
        rng = np.random.default_rng(28)
        for trial in range(30):
            activation = ("relu", "identity")[trial % 2]
            layer, lam1, lam2, box = random_transition_batch(rng, 5, 4, 2, activation)
            res = inner_linexp_transition(lam1, lam2, layer, box)
            for r in range(5):
                alone = inner_linexp_transition(take_rows(lam1, [r]), take_rows(lam2, [r]),
                                                layer, box)
                assert result_hexes(alone) == result_hexes(res, r), (trial, r)
