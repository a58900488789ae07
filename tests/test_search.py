import numpy as np
import pytest

from funclag import Interval, Quadratic, Zero, expected_under_layer
from funclag.dual import _softmax_pga
from funclag.inner import heuristic_inner_max, inner_quadratic_bound
from funclag.model import softmax

from conftest import det_layer


def test_concave_quadratic_interior_max():
    # f(x) = -(x - 0.3)^2 - (y + 0.2)^2 peaks at (0.3, -0.2)
    target = np.array([0.3, -0.2])

    def f(x):
        return -((x - target) ** 2).sum(axis=-1)

    box = Interval(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    res = heuristic_inner_max(f, box, seed=0, steps=800, step_size=0.02)
    assert abs(res.value - 0.0) < 1e-4
    assert res.mode == "heuristic_lower"


def test_linear_objective_reaches_corner():
    c = np.array([1.0, -2.0])

    def f(x):
        return c @ x.T

    box = Interval(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    res = heuristic_inner_max(f, box, seed=0, steps=400)
    np.testing.assert_allclose(res.witness, [1.0, -1.0], atol=1e-9)
    assert res.value == 3.0


def test_never_exceeds_certified_bound():
    rng = np.random.default_rng(11)
    for _ in range(10):
        layer = det_layer(rng.standard_normal((2, 2)), 0.2 * rng.standard_normal(2), "relu")
        qn = Quadratic(
            Q=0.5 * (lambda a: a + a.T)(rng.standard_normal((2, 2))),
            q=rng.standard_normal(2),
        )
        lo = rng.standard_normal(2)
        box = Interval(lo, lo + rng.random(2) + 0.2)
        certified = inner_quadratic_bound(layer, Zero(), qn, box)

        def f(x):
            if x.ndim == 1:
                return expected_under_layer(qn, layer, x)
            return np.array([expected_under_layer(qn, layer, row) for row in x])

        heuristic = heuristic_inner_max(f, box, seed=3, steps=300)
        assert heuristic.value <= certified.value + 1e-9


# --- restart-batched PGA against the sequential loop it replaced ---------


def sequential_softmax_pga(m, lin, box, seed):
    """One restart after another, one point at a time, as the loop ran.

    Four restarts of 200 steps of size 0.01, the constants of _softmax_pga.
    """

    def f(x):
        return float(softmax(x)[m] + lin @ x)

    def g(x):
        s = softmax(x)
        grad = -s[m] * s
        grad[m] += s[m]
        return grad + lin

    lo, hi = box.lo, box.hi
    rng = np.random.default_rng(seed)
    init_softmax = lo.copy()
    init_softmax[m] = hi[m]
    starts = [0.5 * (lo + hi), init_softmax, np.where(lin >= 0, hi, lo)]
    while len(starts) < 4:
        starts.append(lo + rng.random(lo.shape) * (hi - lo))
    best_x = starts[0]
    best_f = f(best_x)
    for x0 in starts:
        x = x0.copy()
        fx = f(x)
        if fx > best_f:
            best_f, best_x = fx, x.copy()
        for _ in range(200):
            x = np.clip(x + 0.01 * g(x), lo, hi)
            fx = f(x)
            if fx > best_f:
                best_f, best_x = fx, x.copy()
    return best_f, best_x


def _pga_cases():
    rng = np.random.default_rng(30)
    for i in range(60):
        n = int(rng.integers(1, 10))
        lo = 3.0 * rng.standard_normal(n)
        box = Interval(lo, lo + 2.0 * rng.random(n) + (5.0 if i % 3 == 0 else 0.0))
        lin = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 1.0)
        yield f"random-{i}", int(rng.integers(n)), lin, box
    # large coefficients drive every restart into the same corner within a
    # few steps, where the rest of its iterates repeat the corner
    box = Interval(np.zeros(3), np.ones(3))
    yield "stalled-corner", 0, np.array([50.0, -50.0, 50.0]), box
    # lin >= 0 only at m: the softmax and linear warm starts are the same
    # point, so two restarts tie exactly at every step
    yield "tied-restarts", 1, np.array([-0.2, 0.3, -0.1, -0.4]), \
        Interval(np.full(4, -0.5), np.full(4, 0.5))
    # a zero-width box: every iterate of every restart is the same point
    yield "point-box", 0, np.array([0.1, -0.1]), \
        Interval(np.array([0.2, 0.4]), np.array([0.2, 0.4]))


@pytest.mark.parametrize("case", list(_pga_cases()), ids=lambda c: c[0])
def test_batched_pga_matches_sequential_loop(case):
    _, m, lin, box = case
    ref_value, ref_x = sequential_softmax_pga(m, lin, box, (7, 1))
    res = _softmax_pga(m, lin, box, (7, 1))
    assert res.value == ref_value
    assert np.array_equal(res.witness, ref_x)


def test_finite_difference_path_is_batched():
    calls = []

    def f(x):
        calls.append(x.shape)
        return -((x - 0.25) ** 2).sum(axis=-1)

    box = Interval(np.zeros(3), np.ones(3))
    res = heuristic_inner_max(f, box, seed=1, steps=50, step_size=0.2, restarts=4)
    assert res.value > -1e-6
    np.testing.assert_allclose(res.witness, 0.25, atol=1e-3)
    # per step 2n calls on all 4 restarts; single points only in the replay
    assert calls.count((4, 3)) == 2 * 3 * 50
    assert calls[2 * 3 * 50] == (4 * 51, 3)
