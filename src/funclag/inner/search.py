"""Projected gradient ascent for train-time inner maximizations.

Never used for certificates: the returned value is a feasible lower
estimate of the maximum whose witness drives outer gradients.

All restarts advance together as the rows of one array.  The best
iterate is then chosen by screen and replay: every iterate is scored
in one batched call, and the ones within the batched evaluation's error
bound of the top are re-scored one point at a time, in the order of a
sequential run (restart by restart, step by step), keeping the first
strictly better one.  The point evaluation decides value and witness,
so they do not depend on how the batched evaluation sums.
"""

from __future__ import annotations

import numpy as np

from ..bounds import Interval
from .result import HEURISTIC_LOWER, InnerResult


def heuristic_inner_max(
    f,
    box: Interval,
    seed: int,
    grad=None,
    steps: int = 500,
    step_size: float = 0.01,
    restarts: int = 5,
    extra_inits=None,
    error=None,
) -> InnerResult:
    """Multi-start projected gradient ascent over a box.

    ``f`` maps a (k, n) array of points to their k values and a single
    point of shape (n,) to its value; ``grad`` maps a (k, n) array to
    the k gradients row by row, or is None for central finite
    differences.  ``error`` maps a (k, n) array to a bound on
    |f(x)[i] - f(x[i])| for each row; None means the two agree exactly.
    Starts at the box center, any supplied warm-start points, and
    uniform random restarts; the best feasible iterate ever evaluated
    is returned.
    """
    lo, hi = box.lo, box.hi
    n = lo.shape[0]
    rng = np.random.default_rng(seed)

    if grad is None:
        h = 1e-6

        def grad(x, _f=f):
            g = np.empty_like(x)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                g[:, i] = (_f(x + e) - _f(x - e)) / (2.0 * h)
            return g

    starts = [0.5 * (lo + hi)]
    for init in extra_inits or ():
        starts.append(np.clip(np.asarray(init, dtype=float), lo, hi))
    draws = max(restarts - len(starts), 0)
    x = np.vstack([*starts, lo + rng.random((draws, n)) * (hi - lo)])

    path = [x]
    for _ in range(steps):
        x = np.clip(x + step_size * grad(x), lo, hi)
        path.append(x)
    # restart-major, so the flat order is the order of a sequential run
    path = np.stack(path, axis=1)
    points = path.reshape(-1, n)

    # an iterate equal to its predecessor on the same restart cannot beat
    # it; the rest are screened against the top with twice the error bound
    fresh = np.ones(path.shape[:2], dtype=bool)
    fresh[:, 1:] = np.any(path[:, 1:] != path[:, :-1], axis=2)
    values = np.where(fresh.ravel(), f(points), -np.inf)
    window = 0.0 if error is None else 2.0 * float(np.max(error(points)))
    near = values >= np.nanmax(values) - window

    best_x = points[0].copy()
    best_f = float(f(best_x))
    for i in np.flatnonzero(near):
        value = float(f(points[i]))
        if value > best_f:
            best_f, best_x = value, points[i].copy()
    return InnerResult(value=best_f, mode=HEURISTIC_LOWER, witness=best_x)
