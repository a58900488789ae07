"""Sound inner bounds against local-search lower estimates.

A box point's objective value is a lower estimate of the inner maximum,
so a sound bound may never fall below the best point a local search finds.
"""

import numpy as np
import pytest

from funclag import Interval, Linear, Quadratic
from funclag.inner import inner_quadratic_bound
from funclag.model import softmax

from conftest import det_layer
from oracles import expected_under_layer, softmax_row


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
        certified = inner_quadratic_bound(layer, Linear(theta=np.zeros(2)), qn, box)

        # the corners, the centre and random points of the box
        corners = np.array([[a, b] for a in (box.lo[0], box.hi[0]) for b in (box.lo[1], box.hi[1])])
        samples = box.lo + rng.random((300, 2)) * (box.hi - box.lo)
        points = np.vstack([corners, 0.5 * (box.lo + box.hi), samples])
        sampled = max(expected_under_layer(qn, layer, x) for x in points)
        assert sampled <= certified.value + 1e-9


# --- the exact softmax output solve against the PGA loop ------------------


def sequential_softmax_pga(m, lin, box, seed):
    """Projected gradient ascent on softmax_m(x) + lin . x, point by point.

    Four restarts of 200 steps of size 0.01: a local search whose best
    point no maximum over the box may fall below.
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
    """The exact output solve never falls below the PGA loop's best point.

    The name dates from when a restart-batched PGA was checked against
    this loop; the witness is a box point attaining the value.
    """
    _, m, lin, box = case
    ref_value, ref_x = sequential_softmax_pga(m, lin, box, (7, 1))
    res = softmax_row(m, Linear(theta=-lin), box)
    assert res.mode == "exact"
    assert res.value >= ref_value
    assert np.all(res.witness >= box.lo) and np.all(res.witness <= box.hi)
    assert res.value == float(softmax(res.witness)[m] + lin @ res.witness)
