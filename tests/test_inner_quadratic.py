import numpy as np
import pytest

import funclag.inner.quadratic as quadratic
from funclag import (
    CanonicalLayer,
    DiagonalGaussian,
    Dropout,
    Interval,
    Linear,
    Quadratic,
)
from funclag.inner import inner_linear, inner_quadratic_bound, quadratic_param_grads
from funclag.inner.quadratic import (
    _danskin,
    _pack_mf,
    _qp_data,
    certified_lambda_max,
    gershgorin_upper,
    qp_box_bound,
    quadratic_bound_with_duals,
    top_eigenpair,
)
from funclag.multipliers import get_params, with_params, zero_param_grads

from conftest import det_layer
from oracles import expected_under_layer


def sym(rng, n, scale=1.0):
    a = scale * rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestEigenvalueBounds:
    def test_top_eigenpair_known_matrix(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        lmax, v = top_eigenpair(a)
        assert lmax == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(a @ v, lmax * v, atol=1e-12)
        assert float(v @ v) == pytest.approx(1.0, abs=1e-12)

    def test_certified_dominates_true_lambda_max(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 4, 7):
            for _ in range(25):
                a = sym(rng, n, scale=2.0)
                cert = certified_lambda_max(a)
                true = float(np.linalg.eigvalsh(a)[-1])
                assert cert >= true - 1e-12
                assert cert <= gershgorin_upper(a) + 1e-12

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[-0.7]]),
            np.array([[0.0]]),
            3.0 * np.eye(4),
            np.diag([2.0, 2.0, 2.0, -1.0]),
            # a rotated diag(1.5, 1.5, 1.5, -2): a triple top eigenvalue
            (lambda q: q @ np.diag([1.5, 1.5, 1.5, -2.0]) @ q.T)(
                np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
            ),
            np.outer([1.0, -2.0, 0.5], [1.0, -2.0, 0.5]),
            -np.outer([0.3, 0.1, -0.4, 2.0], [0.3, 0.1, -0.4, 2.0]),
            np.zeros((3, 3)),
        ],
        ids=["1x1", "1x1-zero", "scaled-identity", "repeated-diagonal", "repeated-rotated",
             "rank1-psd", "rank1-nsd", "zero"],
    )
    def test_certified_on_structured_matrices(self, a):
        cert = certified_lambda_max(a)
        assert cert >= float(np.linalg.eigvalsh(a)[-1])
        assert cert <= gershgorin_upper(a)

    def test_escalation_certifies_an_underestimate(self, monkeypatch):
        # an eigensolver estimate 0.5 too low fails the first Cholesky checks;
        # the escalation must still end at a certified bound below Gershgorin
        rng = np.random.default_rng(8)
        calls = []
        real_cholesky = np.linalg.cholesky

        def counting_cholesky(m):
            calls.append(1)
            return real_cholesky(m)

        def low_estimate(m):
            lmax, v = top_eigenpair(m)
            return lmax - 0.5, v

        monkeypatch.setattr(quadratic, "top_eigenpair", low_estimate)
        monkeypatch.setattr(quadratic.np.linalg, "cholesky", counting_cholesky)
        for _ in range(20):
            a = sym(rng, 5, scale=2.0)
            true = float(np.linalg.eigvalsh(a)[-1])
            calls.clear()
            cert = certified_lambda_max(a)
            assert true <= cert <= gershgorin_upper(a)
            assert len(calls) > 1 or cert == gershgorin_upper(a)

    def test_gershgorin(self):
        a = np.array([[1.0, -2.0], [-2.0, 0.5]])
        assert gershgorin_upper(a) == 3.0


class TestQpBoxBound:
    def test_negative_diagonal_is_tight_at_zero(self):
        # max of 0.5 z' diag(d) z with d <= 0 over the unit box is 0
        h = np.diag([-1.0, -0.5])
        value, kappa = qp_box_bound(h, np.zeros(2), 0.0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_dominates_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = sym(rng, n)
            g = rng.standard_normal(n)
            c0 = float(rng.standard_normal())
            value, _ = qp_box_bound(h, g, c0)
            zs = np.array(np.meshgrid(*[np.linspace(-1, 1, 41)] * n, indexing="ij"))
            pts = zs.reshape(n, -1).T
            vals = c0 + pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)
            assert value >= vals.max() - 1e-9


class TestInnerQuadraticBound:
    def test_zero_blocks_reduce_to_inner_linear(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            layer = det_layer(rng.standard_normal((2, 2)), 0.2 * rng.standard_normal(2), "relu")
            qk = Quadratic(Q=np.zeros((2, 2)), q=rng.standard_normal(2))
            qn = Quadratic(Q=np.zeros((2, 2)), q=rng.standard_normal(2))
            lo = rng.standard_normal(2)
            box = Interval(lo, lo + rng.random(2) + 0.1)
            res = inner_quadratic_bound(layer, qk, qn, box)
            ref = inner_linear(layer, Linear(theta=qk.q), Linear(theta=qn.q), box)
            assert res.value == pytest.approx(ref.value, abs=1e-9)

    def test_dominates_grid_on_one_dim_relu(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = rng.standard_normal((1, 1))
            b = 0.3 * rng.standard_normal(1)
            layer = det_layer(w, b, "relu")
            qk = Quadratic(Q=np.array([[rng.standard_normal()]]), q=rng.standard_normal(1))
            qn = Quadratic(Q=np.array([[rng.standard_normal()]]), q=rng.standard_normal(1))
            lo = rng.standard_normal(1) - 0.5
            box = Interval(lo, lo + 2.0 * rng.random(1) + 0.2)
            res = inner_quadratic_bound(layer, qk, qn, box)
            zs = np.linspace(box.lo[0], box.hi[0], 2001)
            y = np.maximum(zs, 0.0) * w[0, 0] + b[0]
            obj = 0.5 * qn.Q[0, 0] * y**2 + qn.q[0] * y - 0.5 * qk.Q[0, 0] * zs**2 - qk.q[0] * zs
            # grid max plus its resolution error still sits below the bound
            assert res.value >= obj.max() - 1e-9

    def test_identity_activation_path(self):
        rng = np.random.default_rng(4)
        layer = det_layer(rng.standard_normal((2, 2)), np.zeros(2), "identity")
        qn = Quadratic(Q=sym(rng, 2), q=rng.standard_normal(2))
        box = Interval(np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
        res = inner_quadratic_bound(layer, Linear(theta=np.zeros(2)), qn, box)
        xs = np.linspace(-0.5, 0.5, 201)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        P = np.stack([X.ravel(), Y.ravel()], axis=1)
        out = P @ layer.weights.values.T
        vals = 0.5 * np.einsum("ij,jk,ik->i", out, qn.Q, out) + out @ qn.q
        assert res.value >= vals.max() - 1e-9

    def test_stochastic_layer_bound(self):
        from funclag import CanonicalLayer, Deterministic, DiagonalGaussian

        rng = np.random.default_rng(5)
        layer = CanonicalLayer(
            activation="relu",
            weights=DiagonalGaussian(
                mean=rng.standard_normal((1, 1)), stddev=0.3 * rng.random((1, 1))
            ),
            bias=Deterministic(np.zeros(1)),
        )
        qn = Quadratic(Q=np.array([[1.0]]), q=np.array([0.5]))
        box = Interval(np.array([-1.0]), np.array([1.0]))
        res = inner_quadratic_bound(layer, Linear(theta=np.zeros(1)), qn, box)
        # exact expectation on a z-grid (one free variable)
        zs = np.linspace(-1.0, 1.0, 2001)
        vals = [expected_under_layer(qn, layer, np.array([z])) for z in zs]
        assert res.value >= max(vals) - 1e-9

    def test_point_box_gradients_follow_the_bound(self, two_layer_net):
        # no coordinate is free: the bound is the value at the point, and it
        # still moves with the multipliers (0.4948 -> 0.9948 per unit of q_0)
        layer = two_layer_net.layers[0]
        box = Interval(np.array([0.3, 0.2]), np.array([0.3, 0.2]))
        lam_k = Linear(theta=np.zeros(2))
        lam_next = Quadratic(Q=np.eye(2), q=np.ones(2))
        res = inner_quadratic_bound(layer, lam_k, lam_next, box)
        assert res.value == pytest.approx(0.4948, abs=1e-12)
        _, _, grads = quadratic_param_grads(layer, lam_k, lam_next, box, res.internal_duals)
        for name, idx, bumped in _unit_param_bumps(lam_next):
            diff = inner_quadratic_bound(layer, lam_k, bumped, box).value - res.value
            assert grads[name][idx] == pytest.approx(diff, abs=1e-12), (name, idx)
        q0 = with_params(lam_next, {"Q": np.eye(2), "q": np.array([2.0, 1.0])})
        assert inner_quadratic_bound(layer, lam_k, q0, box).value == pytest.approx(0.9948, abs=1e-12)
        assert grads["q"][0] == pytest.approx(0.5, abs=1e-12)

    def test_perturbed_duals_stay_sound(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            w = rng.standard_normal((1, 1))
            layer = det_layer(w, np.zeros(1), "relu")
            qk = Quadratic(Q=np.array([[rng.standard_normal()]]), q=rng.standard_normal(1))
            qn = Quadratic(Q=np.array([[rng.standard_normal()]]), q=rng.standard_normal(1))
            box = Interval(np.array([-1.0]), np.array([1.5]))
            res = inner_quadratic_bound(layer, qk, qn, box)
            zs = np.linspace(-1.0, 1.5, 2001)
            y = np.maximum(zs, 0.0) * w[0, 0]
            oracle = (
                0.5 * qn.Q[0, 0] * y**2 + qn.q[0] * y - 0.5 * qk.Q[0, 0] * zs**2 - qk.q[0] * zs
            ).max()
            duals = res.internal_duals
            for _ in range(10):
                perturbed = {
                    key: np.asarray(val) + 0.3 * rng.standard_normal(np.shape(val))
                    for key, val in duals.items()
                }
                value = quadratic_bound_with_duals(layer, qk, qn, box, perturbed)
                assert value >= oracle - 1e-9


# --- closed-form Danskin gradients against the unit-bump differences ------


def _unit_param_bumps(lam):
    """(name, index, multiplier with that entry raised by 1); Q's off-diagonal pairs move together."""
    params = get_params(lam)
    for name, arr in params.items():
        for idx in np.ndindex(arr.shape):
            if len(idx) == 2 and idx[0] > idx[1]:
                continue
            bumped = {k: np.array(v) for k, v in params.items()}
            bumped[name][idx] += 1.0
            if len(idx) == 2 and idx[0] != idx[1]:
                bumped[name][idx[::-1]] += 1.0
            yield name, idx, with_params(lam, bumped)


def _frozen_surrogate(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus, frozen):
    """The surrogate at frozen (v, active set, lambda_max > 0, kappa): affine in its inputs."""
    v, active, positive, kappa = frozen
    h, g, c0 = _qp_data(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus)
    val = c0 + 0.5 * float(kappa[active].sum())
    if positive:
        val += 0.5 * float(active.sum()) * float(v @ (_pack_mf(h, g) - np.diag(kappa)) @ v)
    return val


def _freeze(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus, kappa):
    h, g, _ = _qp_data(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus)
    if kappa is None or np.asarray(kappa).shape != (g.shape[0] + 1,):
        kappa = np.zeros(g.shape[0] + 1)
    lmax, v = top_eigenpair(_pack_mf(h, g) - np.diag(kappa))
    return v, (kappa + max(lmax, 0.0)) > 0.0, lmax > 0.0, kappa


def bump_param_grads(layer, lam_k, lam_next, box, duals):
    """Unit-bump differences of the frozen surrogate, as quadratic_param_grads took them."""
    penalties = quadratic._penalties(duals, layer.in_dim)
    frozen = _freeze(layer, lam_k, lam_next, box, *penalties, duals.get("kappa"))
    grads_k, grads_next = zero_param_grads(lam_k), zero_param_grads(lam_next)
    base = _frozen_surrogate(layer, lam_k, lam_next, box, *penalties, frozen)
    for lam, grads, place in ((lam_k, grads_k, 0), (lam_next, grads_next, 1)):
        for name, idx, bumped in _unit_param_bumps(lam):
            pair = [lam_k, lam_next]
            pair[place] = bumped
            diff = _frozen_surrogate(layer, *pair, box, *penalties, frozen) - base
            grads[name][idx] = diff
            grads[name][idx[::-1]] = diff
    return grads_k, grads_next


def bump_penalty_grads(layer, lam_k, lam_next, box, params, kappa):
    """Unit-bump differences of the frozen surrogate in (zeta, zeta_plus, zeta_minus)."""
    n = layer.in_dim
    frozen = _freeze(layer, lam_k, lam_next, box, params[:n], params[n : 2 * n], params[2 * n :], kappa)
    base = _frozen_surrogate(layer, lam_k, lam_next, box, params[:n], params[n : 2 * n], params[2 * n :], frozen)
    grad = np.zeros(3 * n)
    for i in range(3 * n):
        bumped = params.copy()
        bumped[i] += 1.0
        grad[i] = _frozen_surrogate(
            layer, lam_k, lam_next, box, bumped[:n], bumped[n : 2 * n], bumped[2 * n :], frozen
        ) - base
    return grad


def _random_multiplier(rng, kind, width):
    if kind == "zero":
        return Linear(theta=np.zeros(width))
    if kind == "linear":
        return Linear(theta=rng.standard_normal(width))
    return Quadratic(Q=sym(rng, width), q=rng.standard_normal(width))


def _kind(lam):
    """The KINDS entry a ``_random_multiplier`` draw came from."""
    if isinstance(lam, Quadratic):
        return "quadratic"
    return "linear" if lam.theta.any() else "zero"


def _random_layer(rng, n_in, n_out, activation, weights):
    w = rng.standard_normal((n_out, n_in))
    b = 0.3 * rng.standard_normal(n_out)
    if weights == "gaussian":
        return CanonicalLayer(
            activation=activation,
            weights=DiagonalGaussian(mean=w, stddev=0.3 * rng.random((n_out, n_in))),
            bias=DiagonalGaussian(mean=b, stddev=0.2 * rng.random(n_out)),
        )
    if weights == "dropout":
        return CanonicalLayer(
            activation=activation,
            weights=Dropout(values=w, keep=np.full((n_out, n_in), 0.8)),
            bias=Dropout(values=b, keep=np.full(n_out, 0.9)),
        )
    return det_layer(w, b, activation)


def _random_box(rng, n, degenerate):
    lo = rng.standard_normal(n)
    width = rng.random(n) + 0.1
    if degenerate == "point":
        width[rng.random(n) < 0.5] = 0.0
    elif degenerate == "negative":
        # relu outputs pinned at 0: the y block loses coordinates
        lo = np.where(rng.random(n) < 0.5, -2.0 - rng.random(n), lo)
        width = np.where(lo < -1.5, 0.5 * rng.random(n), width)
    return Interval(lo, lo + width)


KINDS = ("zero", "linear", "quadratic")


class TestAdjointGradients:
    """The closed form against the unit-bump differences it replaced, to 1e-12."""

    def _instances(self, seed, count):
        rng = np.random.default_rng(seed)
        for i in range(count):
            n_in, n_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            activation = ("relu", "identity")[(i // 16) % 2]
            weights = ("deterministic", "gaussian", "dropout")[i % 3]
            layer = _random_layer(rng, n_in, n_out, activation, weights)
            lam_k = _random_multiplier(rng, KINDS[(i // 3) % 3], n_in)
            lam_next = _random_multiplier(rng, KINDS[(i // 9) % 3], n_out)
            box = _random_box(rng, n_in, ("none", "point", "negative")[(i // 32) % 3])
            duals = {
                "zeta": rng.standard_normal(n_in),
                "zeta_plus": rng.standard_normal(n_in),
                "zeta_minus": rng.random(n_in),
            }
            if i % 5:
                duals["kappa"] = rng.standard_normal(2 * n_in + 1 if activation == "relu" else n_in + 1)
            yield layer, lam_k, lam_next, box, duals

    def test_param_grads_match_unit_bumps(self):
        worst = 0.0
        for layer, lam_k, lam_next, box, duals in self._instances(20, 300):
            _, grads_k, grads_next = quadratic_param_grads(layer, lam_k, lam_next, box, duals)
            ref_k, ref_next = bump_param_grads(layer, lam_k, lam_next, box, duals)
            for got, ref in ((grads_k, ref_k), (grads_next, ref_next)):
                assert got.keys() == ref.keys()
                for name in ref:
                    assert got[name].shape == ref[name].shape
                    worst = max(worst, float(np.max(np.abs(got[name] - ref[name]), initial=0.0)))
        assert worst <= 1e-12

    def test_penalty_grads_match_unit_bumps(self):
        rng = np.random.default_rng(21)
        checked = 0
        for layer, lam_k, lam_next, box, duals in self._instances(22, 200):
            if layer.activation != "relu":
                continue
            n = layer.in_dim
            params = np.concatenate([rng.standard_normal(n), rng.random(2 * n)])
            kappa = duals.get("kappa")
            _, _, blocks = _danskin(
                layer, lam_k, lam_next, box, params[:n], params[n : 2 * n], params[2 * n :], kappa
            )
            got = blocks[4]
            ref = bump_penalty_grads(layer, lam_k, lam_next, box, params, kappa)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
            checked += 1
        assert checked >= 100

    def test_instances_cover_every_pairing_and_degenerate_boxes(self):
        seen = set()
        for layer, lam_k, lam_next, box, _ in self._instances(20, 300):
            fixed = bool(np.any(box.hi - box.lo <= 0.0))
            pinned = layer.activation == "relu" and bool(np.any(box.hi <= 0.0))
            seen.add((_kind(lam_k), _kind(lam_next), layer.activation))
            seen.add(("fixed", fixed))
            seen.add(("all fixed", bool(np.all(box.hi - box.lo <= 0.0))))
            seen.add(("pinned", pinned))
        assert len([s for s in seen if len(s) == 3]) == 18
        assert {("fixed", True), ("all fixed", True), ("pinned", True)} <= seen
