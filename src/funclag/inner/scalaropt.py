"""Deterministic one-dimensional search utilities.

A Lipschitz branch-and-bound backs the sound solvers: its cell bounds
come from midpoint values padded by L * halfwidth, so it always
over-estimates the true maximum, never under-estimates it, and can sit
inside certified bounds.  Golden-section minimization is used for the
scalar dual variables (nu, zeta), where any evaluation point is
dual-feasible and therefore safe.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (argmin, best value) over all evaluated points, so the result
    is always an actually-achieved value even if f is not unimodal.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    for x in (lo, hi):
        fx = f(x)
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def expanding_bracket_min(
    f: Callable[[float], float],
    x0: float = 0.0,
    step: float = 1.0,
    max_expand: int = 60,
) -> tuple[float, float]:
    """Expand around x0 until [a, b] brackets a minimizer of a convex f."""
    a, m, b = x0 - step, x0, x0 + step
    fa, fm, fb = f(a), f(m), f(b)
    for _ in range(max_expand):
        if fa >= fm <= fb:
            return a, b
        if fa < fm:
            a, m, b = a - 2.0 * (m - a), a, m
            fa, fm, fb = f(a), fa, fm
        else:
            a, m, b = m, b, b + 2.0 * (b - m)
            fa, fm, fb = fm, fb, f(b)
    return a, b


def lipschitz_box_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    lipschitz: Callable[[float, float], float],
    tol: float = 1e-7,
    max_evals: int = 400,
) -> tuple[float, float]:
    """Certified upper bound on max of a Lipschitz f on [lo, hi].

    ``lipschitz(a, b)`` must return a valid Lipschitz constant of f on
    the cell [a, b].  Cells are split best-first until the certified gap
    drops below tol or the evaluation budget runs out; the returned
    upper bound is valid either way.  Returns (upper bound, best point).
    """
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        v = f(lo)
        return v, lo

    def cell(a: float, b: float):
        mid = 0.5 * (a + b)
        val = f(mid)
        ub = val + lipschitz(a, b) * 0.5 * (b - a)
        return ub, val, mid

    ub0, val0, mid0 = cell(lo, hi)
    best_val, best_x = val0, mid0
    # max-heap on cell upper bounds via negated keys
    heap = [(-ub0, lo, hi)]
    evals = 1
    while heap and evals + 2 <= max_evals:
        neg_ub, a, b = heapq.heappop(heap)
        if -neg_ub - best_val <= tol:
            heapq.heappush(heap, (neg_ub, a, b))
            break
        mid = 0.5 * (a + b)
        for sa, sb in ((a, mid), (mid, b)):
            c_ub, c_val, c_mid = cell(sa, sb)
            evals += 1
            if c_val > best_val:
                best_val, best_x = c_val, c_mid
            heapq.heappush(heap, (-c_ub, sa, sb))
    upper = max((-h[0] for h in heap), default=best_val)
    return max(upper, best_val), best_x
