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
from funclag.inner import inner_linear, inner_quadratic_bound
from funclag.inner.quadratic import (
    _build_qp,
    _coefficients,
    _pull_back,
    _shift_step,
    certified_lambda_max,
    gershgorin_upper,
    qp_box_bound,
    shifted_diagonal_bound,
    top_eigenpair,
)
from funclag.multipliers import (
    as_quadratic,
    as_quadratic_adjoint,
    expected_quadratic_coeffs_adjoint,
    get_params,
    with_params,
)

from conftest import det_layer
from oracles import expected_under_layer


def sym(rng, n, scale=1.0):
    a = scale * rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def pack(h, g):
    """The matrix [[0, g'], [g, H]] that qp_box_bound takes."""
    return np.block([[np.zeros((1, 1)), g[None, :]], [g[:, None], h]])


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
        value, kappa, _, _ = qp_box_bound(pack(h, np.zeros(2)), 0.0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_dominates_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = sym(rng, n)
            g = rng.standard_normal(n)
            c0 = float(rng.standard_normal())
            mf = pack(h, g)
            value, kappa, v, weight = qp_box_bound(mf, c0)
            # the eigenpair comes from the kept iterate, not a later one
            _, _, v_again, weight_again = _shift_step(mf, kappa)
            assert np.array_equal(v, v_again) and weight == weight_again
            zs = np.array(np.meshgrid(*[np.linspace(-1, 1, 41)] * n, indexing="ij"))
            pts = zs.reshape(n, -1).T
            vals = c0 + pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)
            assert value >= vals.max() - 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "both"])
    def test_non_finite_qp_raises_a_numerical_error(self, bad, where):
        # the eigensolver returns NaN or raises; with NaN shift values no
        # iterate beats another, and the certified check still has the last
        # word.  An infinite entry also makes the step size infinite, which
        # numpy warns about; under optimize's errstate that is an error too.
        h = {"diagonal": np.array([[bad]]), "off-diagonal": np.array([[1.0]]),
             "both": np.array([[1.0, bad], [bad, -1.0]])}[where]
        g = np.full(h.shape[0], bad if where != "diagonal" else 0.5)
        with np.errstate(invalid="ignore"):
            with pytest.raises((quadratic.NumericalError, np.linalg.LinAlgError)):
                qp_box_bound(pack(h, g), 0.0)


class TestSingleRoute:
    """Per call: one coefficient build, one QP build per penalty point, and one
    eigendecomposition per penalty point, per kappa iterate and per
    certification, none for the gradient."""

    def _count(self, monkeypatch, layer, lam_k, lam_next, box):
        calls = {"coeffs": 0, "builds": 0, "eig": 0, "starts": 0}

        def spy(name, key):
            original = getattr(quadratic, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(quadratic, name, wrapper)

        spy("expected_quadratic_coeffs", "coeffs")
        spy("_build_qp", "builds")
        spy("top_eigenpair", "eig")
        spy("qp_box_bound", "starts")
        inner_quadratic_bound(layer, lam_k, lam_next, box)
        monkeypatch.undo()
        return calls

    def test_one_coefficient_build_and_no_repeated_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(30)
        eig_calls = {}
        for i in range(60):
            activation = ("relu", "identity")[i % 2]
            layer = _random_layer(rng, 2, 3, activation, ("deterministic", "gaussian")[i % 3 // 2])
            lam_k = _random_multiplier(rng, ("linear", "quadratic")[i % 4 // 2], 2)
            lam_next = Quadratic(Q=sym(rng, 3), q=rng.standard_normal(3))
            calls = self._count(monkeypatch, layer, lam_k, lam_next, _random_box(rng, 2, "none"))
            assert calls["coeffs"] == 1
            # a relu row solves kappa = 0 once at the zero start and once at the
            # moved point, which is built only when the step is non-zero
            shift_solves = calls["builds"] if activation == "relu" else 0
            assert calls["eig"] == shift_solves + (quadratic._KAPPA_STEPS + 1) * calls["starts"]
            eig_calls[(activation, calls["builds"], calls["starts"])] = calls["eig"]
        assert eig_calls == {
            ("identity", 1, 1): 11, ("relu", 1, 1): 12, ("relu", 2, 1): 13, ("relu", 2, 2): 24,
        }


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
        vals = 0.5 * np.einsum("ij,jk,ik->i", out, qn.Q[0], out) + out @ qn.q[0]
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
        _, grads = res.grads
        for name, idx, bumped in _unit_param_bumps(lam_next):
            diff = inner_quadratic_bound(layer, lam_k, bumped, box).value - res.value
            assert grads[name][idx] == pytest.approx(diff, abs=1e-12), (name, idx)
        q0 = with_params(lam_next, {"Q": np.eye(2), "q": np.array([2.0, 1.0])})
        assert inner_quadratic_bound(layer, lam_k, q0, box).value == pytest.approx(0.9948, abs=1e-12)
        assert grads["q"][0, 0] == pytest.approx(0.5, abs=1e-12)

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
            duals = {key: value[0] for key, value in res.internal_duals.items()}
            for _ in range(10):
                perturbed = {
                    key: np.asarray(val) + 0.3 * rng.standard_normal(np.shape(val))
                    for key, val in duals.items()
                }
                value = quadratic_bound_with_duals(layer, qk, qn, box, perturbed)
                assert value >= oracle - 1e-9


# --- closed-form Danskin gradients against the unit-bump differences ------


def _mirror(idx):
    """The index of Q_ji for the index (row, i, j) of Q_ij; any other index itself."""
    return idx[:1] + idx[:0:-1]


def _unit_param_bumps(lam):
    """(name, index, one-row multiplier with that entry raised by 1); Q's off-diagonal
    pairs move together.  Indices carry the row axis."""
    params = get_params(lam)
    for name, arr in params.items():
        for idx in np.ndindex(arr.shape):
            if _mirror(idx) < idx:
                continue
            bumped = {k: np.array(v) for k, v in params.items()}
            bumped[name][idx] += 1.0
            if _mirror(idx) != idx:
                bumped[name][_mirror(idx)] += 1.0
            yield name, idx, with_params(lam, bumped)


def _qp(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus):
    """The layer QP's coefficients for one-row multipliers, and its (Mf, c0) at one
    penalty point."""
    n, m = layer.in_dim, layer.out_dim
    views = (*as_quadratic(lam_k, n), *as_quadratic(lam_next, m))
    coeffs = _coefficients(layer, *(view[0] for view in views), box)
    return coeffs, *_build_qp(layer, coeffs, zeta, zeta_plus, zeta_minus)


def _penalties(duals, n):
    """(zeta, zeta_plus, zeta_minus) of random duals, the signed pair clamped at 0."""
    zeros = np.zeros(n)
    return (
        duals.get("zeta", zeros),
        np.maximum(duals.get("zeta_plus", zeros), 0.0),
        np.maximum(duals.get("zeta_minus", zeros), 0.0),
    )


def _kappa(kappa, mf):
    return kappa if kappa is not None and np.shape(kappa) == (mf.shape[0],) else np.zeros(mf.shape[0])


def quadratic_bound_with_duals(layer, lam_k, lam_next, box, duals) -> float:
    """Certified bound of one-row multipliers at the given internal duals (sign-clamped
    as needed), with no search."""
    n = layer.in_dim
    zeta, zeta_plus, zeta_minus = (np.asarray(duals.get(key, np.zeros(n)), dtype=float)
                                   for key in ("zeta", "zeta_plus", "zeta_minus"))
    _, mf, c0 = _qp(layer, lam_k, lam_next, box, zeta, np.maximum(zeta_plus, 0.0),
                    np.maximum(zeta_minus, 0.0))
    return float(c0 + shifted_diagonal_bound(mf, _kappa(duals.get("kappa"), mf)))


def _frozen_surrogate(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus, frozen):
    """The surrogate at frozen (v, active set, lambda_max > 0, kappa): affine in its inputs."""
    v, active, positive, kappa = frozen
    _, mf, c0 = _qp(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus)
    val = c0 + 0.5 * float(kappa[active].sum())
    if positive:
        val += 0.5 * float(active.sum()) * float(v @ (mf - np.diag(kappa)) @ v)
    return val


def _freeze(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus, kappa):
    _, mf, _ = _qp(layer, lam_k, lam_next, box, zeta, zeta_plus, zeta_minus)
    kappa = _kappa(kappa, mf)
    lmax, v = top_eigenpair(mf - np.diag(kappa))
    return v, (kappa + max(lmax, 0.0)) > 0.0, lmax > 0.0, kappa


def frozen_param_grads(layer, lam_k, lam_next, box, duals):
    """_pull_back's gradient at the eigenpair of _shift_step, mapped onto both
    one-row multipliers as inner_quadratic_bound maps it (with the row axis)."""
    coeffs, mf, _ = _qp(layer, lam_k, lam_next, box, *_penalties(duals, layer.in_dim))
    _, _, v, weight = _shift_step(mf, _kappa(duals.get("kappa"), mf))
    grad_qk, grad_qk_lin, grad_big_m, grad_m, _ = _pull_back(layer, coeffs, v, weight)
    grad_qn, grad_qn_lin = expected_quadratic_coeffs_adjoint(layer, grad_m, grad_big_m)
    return tuple(
        {name: g[np.newaxis] for name, g in as_quadratic_adjoint(lam, grad, grad_lin).items()}
        for lam, grad, grad_lin in ((lam_k, grad_qk, grad_qk_lin), (lam_next, grad_qn, grad_qn_lin))
    )


def bump_param_grads(layer, lam_k, lam_next, box, duals):
    """Unit-bump differences of the frozen surrogate in both multipliers' parameters."""
    penalties = _penalties(duals, layer.in_dim)
    frozen = _freeze(layer, lam_k, lam_next, box, *penalties, duals.get("kappa"))
    grads_k, grads_next = ({name: np.zeros_like(arr) for name, arr in get_params(lam).items()}
                           for lam in (lam_k, lam_next))
    base = _frozen_surrogate(layer, lam_k, lam_next, box, *penalties, frozen)
    for lam, grads, place in ((lam_k, grads_k, 0), (lam_next, grads_next, 1)):
        for name, idx, bumped in _unit_param_bumps(lam):
            pair = [lam_k, lam_next]
            pair[place] = bumped
            diff = _frozen_surrogate(layer, *pair, box, *penalties, frozen) - base
            grads[name][idx] = diff
            grads[name][_mirror(idx)] = diff
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

    @staticmethod
    def _worst(got_pair, ref_pair):
        worst = 0.0
        for got, ref in zip(got_pair, ref_pair):
            assert got.keys() == ref.keys()
            for name in ref:
                assert got[name].shape == ref[name].shape
                worst = max(worst, float(np.max(np.abs(got[name] - ref[name]), initial=0.0)))
        return worst

    def test_param_grads_match_unit_bumps(self):
        worst = 0.0
        for layer, lam_k, lam_next, box, duals in self._instances(20, 300):
            got = frozen_param_grads(layer, lam_k, lam_next, box, duals)
            worst = max(worst, self._worst(got, bump_param_grads(layer, lam_k, lam_next, box, duals)))
        assert worst <= 1e-12

    def test_bound_grads_match_unit_bumps_at_its_duals(self):
        # the gradient inner_quadratic_bound returns, frozen at the eigenpair its
        # kappa loop kept, is the surrogate's at the duals it returns
        worst, checked = 0.0, 0
        for layer, lam_k, lam_next, box, _ in self._instances(20, 300):
            if _kind(lam_k) != "quadratic" and _kind(lam_next) != "quadratic":
                continue
            res = inner_quadratic_bound(layer, lam_k, lam_next, box)
            duals = {key: value[0] for key, value in res.internal_duals.items()}
            ref = bump_param_grads(layer, lam_k, lam_next, box, duals)
            worst = max(worst, self._worst(res.grads, ref))
            checked += 1
        assert checked >= 150
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
            coeffs, mf, _ = _qp(layer, lam_k, lam_next, box, *np.split(params, 3))
            _, _, v, weight = _shift_step(mf, _kappa(kappa, mf))
            got = _pull_back(layer, coeffs, v, weight)[4]
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
