"""Exact final-layer solve for softmax objectives with linear multipliers.

Maximizes softmax_m(x) + lin . x over a box.  At the maximum every
coordinate sits at its lower bound, its upper bound, or in the interior,
and for each such lo/hi/interior assignment the interior ("free")
coordinates form a stationary point of the restricted function.  Those
stationary points have closed forms with at most two solutions: one
family when the target coordinate m is free (the quadratic in its own
softmax share, case a) and one when m is fixed (all shares proportional
to the linear coefficients, case b).

Water-filling.  Few of the 3^n assignments can hold the maximizer.  For
j != m with lin_j <= 0 the partial derivative -s_m s_j + lin_j
(s = softmax(x)) is negative, so x_j = lo_j.  Fix x_m: the other
coordinates enter softmax_m only through S = sum_{j != m} exp(x_j), so
at the maximizer the coordinates with lin_j > 0 (the set J+) maximize
sum lin_j x_j at that S, and the unique solution is the water-filling
x_j = clip(log(lin_j / mu), lo_j, hi_j) for one mu > 0.  As log mu falls,
each j in J+ moves lo -> interior -> hi past log lin_j - lo_j, then
log lin_j - hi_j.  So the maximizer's assignment is one of the
2|J+| + 1 patterns on the way, times the three states of x_m: at most
6n - 3 rows.  Case a needs lin_m in [-1/4, 0].  Case b needs
sum(lin[F]) <= D / (4C), and its C sums every fixed exp, D = exp(x_m)
among them; a float sum of non-negative terms is no smaller than any of
them, so D / (4C) <= 1/4 holds in floats too, and a row with x_m fixed
whose free coefficients sum past 1/4 holds no point and is dropped.

Walk, then score.  ``walk_rows`` moves along the water-filling events
of one label with the pattern and its lo/hi point held in place, and
yields each row with that point and its interior coordinates.  One
plain-float step, ``row_candidates``, turns a row into its candidate
points (the tests' 3^n reference runs it on every assignment).
The candidates are sorted into the enumeration order (base 3, first
coordinate slowest, all-lower first) and scored in one numpy pass over
their C-ordered block, whose row-wise softmax and stacked matvec give
each point the bits of its lone evaluation, so the first maximizer is
the one the full 3^n loop over the same step returns: the box maximum.
Its assignment is a water-filling row (on a zero-width coordinate the
rows may hold its hi twin, which computes the same point).
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from ..bounds import Interval
from ..model import softmax
from ..multipliers import Multiplier, linear_coeffs
from .linear import matvec_rows
from .result import EXACT, InnerResult

_UPPER, _INTERIOR = 1, 2
_SUM_ONE_TOL = 1e-9
_BOX_TOL = 1e-9
# the closed forms run in unshifted logits while the fixed exps sum inside
# [_TINY, _HUGE]: normal floats whose case-a / case-b arithmetic cannot overflow
_TINY, _HUGE = np.finfo(float).tiny, math.sqrt(np.finfo(float).max)


def row_candidates(m, lin, lo, hi, exp_lo, exp_hi, row, x, free) -> list[list[float]]:
    """Candidate points of one lo/hi/interior row, in plain floats.

    ``x`` is the row's lo/hi point (lo where interior) and ``free`` its
    interior coordinates in order; neither is changed.  ``exp_lo`` and
    ``exp_hi`` are exp of the bounds (inf past overflow).  The fixed exps
    are summed into C; outside [_TINY, _HUGE] they are summed again in
    logits moved down by the largest fixed one (softmax is shift-invariant)
    and the points are moved back.  Each closed-form point is a list of
    ratios and an offset: its free coordinates are log(ratio) + offset.
    Case a (x_m free) needs lam_m in [-1/4, 0] and lam_j >= 0 elsewhere;
    its two branches solve a quadratic in x_m's own share and are dropped
    when a share is non-positive, the denominator vanishes or the shares
    miss the C = 0 normalization.  Case b (x_m fixed, D = its exp) needs
    every lam_j positive and sum(lam) <= D / (4C); both roots t of the
    denominator quadratic give shares proportional to lam.  A point is
    dropped at its first coordinate outside the box.
    """
    if not free:
        return [x.copy()]
    exps = [exp_hi[j] if s == _UPPER else exp_lo[j] for j, s in enumerate(row) if s != _INTERIOR]
    c, shift = sum(exps), 0.0
    if exps and not _TINY <= c <= _HUGE:
        shift = max(v for v, s in zip(x, row) if s != _INTERIOR)
        exps = [math.exp(v - shift) for v, s in zip(x, row) if s != _INTERIOR]
        c = sum(exps)
    lam = [lin[j] for j in free]
    points = []
    if row[m] == _INTERIOR:
        i = free.index(m)
        if -0.25 <= lam[i] <= 0.0 and not any(v < 0.0 for j, v in enumerate(lam) if j != i):
            sq = math.sqrt(max(1.0 + 4.0 * lam[i], 0.0))
            # sets here and for case b's roots: a double root is one point, and
            # the set order fixes which of two tied points comes first
            for denom in {1.0 + sq, 1.0 - sq}:
                if denom == 0.0:
                    continue
                shares = [2.0 * v / denom for v in lam]
                shares[i] = denom / 2.0
                if min(shares) <= 0.0:
                    continue
                total = sum(shares)
                if c > 0.0:
                    if not total >= 1.0:
                        points.append((shares, math.log(c / (1.0 - total))))
                elif not abs(total - 1.0) > _SUM_ONE_TOL:
                    points.append((shares, 0.0))
    elif not min(lam) <= 0.0:
        # x_m's exp sits behind the fixed coordinates before m
        total, d = sum(lam), exps[m - bisect.bisect(free, m)]
        if not total > d / (4.0 * c):
            disc = math.sqrt(max(1.0 - 4.0 * c * total / d, 0.0))
            ratios = [v / d for v in lam]
            for t in {d * (1.0 + disc) / (2.0 * total), d * (1.0 - disc) / (2.0 * total)}:
                if t > 0.0:
                    points.append((ratios, 2.0 * math.log(t)))
    trials = []
    for ratios, offset in points:
        trial = x.copy()
        for j, r in zip(free, ratios):
            # lam_j / D can underflow to 0; the point then leaves the box
            v = (math.log(r) if r > 0.0 else -math.inf) + offset + shift
            if not lo[j] - _BOX_TOL <= v <= hi[j] + _BOX_TOL:
                break
            trial[j] = min(max(v, lo[j]), hi[j])
        else:
            trials.append(trial)
    return trials


def walk_rows(m: int, lin: list, lo: list, hi: list):
    """The water-filling rows, the only assignments that can hold the maximizer.

    Coordinates j != m with lin_j <= 0 sit at lo.  Those in J+ (lin_j > 0)
    move lo -> interior -> hi as log mu falls past log lin_j - lo_j, then
    log lin_j - hi_j, interior first on a tie; every step is a pattern.
    x_m is lo, hi, or interior when lin_m is in [-1/4, 0].  Rows with x_m
    fixed whose free coordinates sum past 1/4 hold no case-b point.
    Yields (row, x, free): the row, its lo/hi point and its interior
    coordinates in order.  Row, point and free list change in place as
    the events fire, so a caller that keeps one keeps a copy.
    """
    n = len(lin)
    rising = [j for j in range(n) if j != m and lin[j] > 0.0]
    events = sorted(
        [(math.log(lin[j]) - lo[j], _INTERIOR, j) for j in rising]
        + [(math.log(lin[j]) - hi[j], _UPPER, j) for j in rising],
        key=lambda event: (-event[0], event[1] == _UPPER),
    )
    target_free = -0.25 <= lin[m] <= 0.0
    row, x, free = [0] * n, list(lo), []
    for step in range(len(events) + 1):
        if step:
            _, state, j = events[step - 1]
            row[j] = state
            if state == _INTERIOR:
                bisect.insort(free, j)
            else:
                free.remove(j)
                x[j] = hi[j]
        if not sum(lin[j] for j in free) > 0.25:
            yield row, x, free
            row[m], x[m] = _UPPER, hi[m]
            yield row, x, free
            x[m] = lo[m]
        if target_free:
            row[m] = _INTERIOR
            yield row, x, sorted([*free, m])
        row[m] = 0


def final_softmax_exact(labels, lam_k: Multiplier, box: Interval) -> InnerResult:
    """Exact max of softmax_m(x) - lam_k(x) over the box, with label m of each row.

    Ties between equally-good candidates keep the first one in the fixed
    3^n enumeration order (all-lower first), so the witness is reproducible.
    """
    lo_f, hi_f = box.lo.tolist(), box.hi.tolist()
    with np.errstate(over="ignore"):
        # an infinite exp sums past _HUGE, so its rows solve in shifted logits
        exp_lo, exp_hi = np.exp(box.lo).tolist(), np.exp(box.hi).tolist()
    best_rows = []
    for m, lin in zip(labels, -linear_coeffs(lam_k)):
        lin_f = lin.tolist()
        keyed = [(tuple(row), point)
                 for row, x, free in walk_rows(m, lin_f, lo_f, hi_f)
                 for point in row_candidates(m, lin_f, lo_f, hi_f, exp_lo, exp_hi, row, x, free)]
        # into enumeration order; the sort is stable, so a row's points keep their order
        keyed.sort(key=lambda entry: entry[0])
        points = np.array([point for _, point in keyed])
        scores = softmax(points)[:, m] + matvec_rows(points[:, np.newaxis], lin)[:, 0]
        # argmax keeps the first of equal values, as the enumeration order does
        best = np.argmax(scores)
        best_rows.append((scores[best], points[best]))
    values, witness = (np.array(part) for part in zip(*best_rows))
    return InnerResult(values, EXACT, witness, grads=({"theta": -witness}, None))
