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

Pins.  The rule for lin_j <= 0 generalizes from 0 to the box.  softmax_k
is least at (x_k = lo_k, others hi) and greatest at (x_k = hi_k, others
lo), so for j != m the product s_m s_j lies in [s_m^min s_j^min,
min(s_m^max s_j^max, 1/4)], and s_m (1 - s_m) between its values at
s_m^min and s_m^max, or up to 1/4 when 1/2 lies between them.  That
bounds each partial derivative, lin_j - s_m s_j for j != m and
s_m (1 - s_m) + lin_m for m, on the whole box.  Where it stays above
delta > 0, every point with x_j < hi_j loses delta (hi_j - x_j) to the
same point with x_j = hi_j, and no stationary point has x_j interior, so
the maximizer has x_j = hi_j: j is pinned at hi (below -delta, at lo).
With the pinned coordinates fixed the water-filling argument holds for
the rest, so the walk gives a pinned j no events and a pinned m only its
one state; rows keep their lo/hi/interior key.

Same bits.  A pin needs delta and delta (hi_j - lo_j) both above
_PIN_MARGIN times the score scale 1 + sum |lin_j| max(|lo_j|, |hi_j|),
so a zero-width coordinate never pins.  A row holding j at its other
bound scores below the box maximum by at least delta (hi_j - lo_j), far
past the rounding of the scores and of the kept maximizer's candidate.
A row holding j interior has no candidate at all: the partial
derivatives are 1-Lipschitz in the max norm, so a stationary point of
the row has a coordinate at least delta, ten times _BOX_TOL, outside
the box, and the box test drops it.  So every dropped candidate scores
below the kept maximum, the first best of the 3^n loop is kept, and the
result keeps its bits.

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
import itertools
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
_PIN_MARGIN = 10.0 * _BOX_TOL
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


def corner_shares(lo: list, hi: list) -> tuple[list, list]:
    """Per coordinate k, the least and the greatest softmax_k on the box.

    They sit at (x_k = lo_k, others hi) and (x_k = hi_k, others lo).  One
    exp of each bound, shifted by the largest upper bound, and each sum
    of all terms but one from prefix and suffix sums: O(n), and no
    difference cancels.  A share whose own exp is below _TINY (or not a
    number) takes the trivial bound, 0 or 1.
    """
    top = max(hi)
    exp_lo = [math.exp(v - top) for v in lo]
    exp_hi = [math.exp(v - top) for v in hi]
    least = [a / (a + r) if a >= _TINY else 0.0 for a, r in zip(exp_lo, _all_but_one(exp_hi))]
    most = [a / (a + r) if a >= _TINY else 1.0 for a, r in zip(exp_hi, _all_but_one(exp_lo))]
    return least, most


def _all_but_one(terms: list) -> list:
    """Per k, the sum of every term but terms[k]."""
    before = list(itertools.accumulate(terms, initial=0.0))
    after = list(itertools.accumulate(reversed(terms), initial=0.0))[::-1]
    return [b + a for b, a in zip(before, after[1:])]


def pins(m: int, lin: list, lo: list, hi: list, least: list, most: list) -> dict:
    """The coordinates whose partial derivative keeps one sign on the box, by margin.

    ``least`` and ``most`` are ``corner_shares`` of the box.  Maps j to
    _UPPER where the derivative stays above delta and to 0 (lo) where it
    stays below -delta; delta and delta (hi_j - lo_j) must both pass
    _PIN_MARGIN times the score scale.
    """
    margin = _PIN_MARGIN * (1.0 + sum(abs(c) * max(abs(a), abs(b))
                                      for c, a, b in zip(lin, lo, hi)))
    s_lo, s_hi = least[m], most[m]
    pinned = {}
    for j, (c, a, b) in enumerate(zip(lin, lo, hi)):
        if j == m:
            ends = (s_lo * (1.0 - s_lo), s_hi * (1.0 - s_hi))
            low = c + min(ends)
            high = c + (0.25 if s_lo <= 0.5 <= s_hi else max(ends))
        else:
            low = c - min(s_hi * most[j], 0.25)
            high = c - s_lo * least[j]
        if low > margin and low * (b - a) > margin:
            pinned[j] = _UPPER
        elif -high > margin and -high * (b - a) > margin:
            pinned[j] = 0
    return pinned


def walk_rows(m: int, lin: list, lo: list, hi: list, pinned: dict | None = None):
    """The water-filling rows, the only assignments that can hold the maximizer.

    Coordinates j != m with lin_j <= 0 sit at lo.  Those in J+ (lin_j > 0)
    move lo -> interior -> hi as log mu falls past log lin_j - lo_j, then
    log lin_j - hi_j, interior first on a tie; every step is a pattern.
    x_m is lo, hi, or interior when lin_m is in [-1/4, 0].  Rows with x_m
    fixed whose free coefficients sum past 1/4 hold no case-b point.  A
    coordinate in ``pinned`` (see ``pins``) holds its state throughout:
    it has no events, and a pinned m takes only its one state.
    Yields (row, x, free): the row, its lo/hi point and its interior
    coordinates in order.  Row, point and free list change in place as
    the events fire, so a caller that keeps one keeps a copy.
    """
    pinned = pinned or {}
    n = len(lin)
    rising = [j for j in range(n) if j != m and lin[j] > 0.0 and j not in pinned]
    events = sorted(
        [(math.log(lin[j]) - lo[j], _INTERIOR, j) for j in rising]
        + [(math.log(lin[j]) - hi[j], _UPPER, j) for j in rising],
        key=lambda event: (-event[0], event[1] == _UPPER),
    )
    row, x, free = [0] * n, list(lo), []
    for j, state in pinned.items():
        if j != m and state == _UPPER:
            row[j], x[j] = _UPPER, hi[j]
    target = pinned.get(m)
    target_free = target is None and -0.25 <= lin[m] <= 0.0
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
            if target != _UPPER:
                yield row, x, free
            if target != 0:
                row[m], x[m] = _UPPER, hi[m]
                yield row, x, free
                row[m], x[m] = 0, lo[m]
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
    least, most = corner_shares(lo_f, hi_f)
    best_rows = []
    for m, lin in zip(labels, -linear_coeffs(lam_k)):
        lin_f = lin.tolist()
        pinned = pins(m, lin_f, lo_f, hi_f, least, most)
        keyed = [(tuple(row), point)
                 for row, x, free in walk_rows(m, lin_f, lo_f, hi_f, pinned)
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
