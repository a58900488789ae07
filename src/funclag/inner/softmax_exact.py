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

Score, then replay.  One plain-float step, ``assignment_candidates``,
computes each row's candidates, and ``_score`` scores them.  It and the
numpy ``_objective`` evaluate the same point and differ only by rounding,
so only the candidates scored within a 1e-9 window of the top are
re-scored by ``_objective``: in enumeration order (base 3, first
coordinate slowest, all-lower first), starting from the all-lower corner
and replacing the incumbent only on a strictly greater value.  The full
3^n loop over the same step returns the first candidate in that order
that attains the maximum, which is the box maximum.  That candidate's
assignment is a water-filling row (on a zero-width coordinate the rows
may hold its hi twin, which computes the same point), and its score lies
within rounding of the maximum, so the replay returns the same value and
witness, bit for bit, as the full loop.
"""

from __future__ import annotations

import math

import numpy as np

from ..bounds import Interval
from ..model import softmax
from ..multipliers import Multiplier, linear_coeffs
from .result import EXACT, InnerResult

_UPPER, _INTERIOR = 1, 2
_SUM_ONE_TOL = 1e-9
_BOX_TOL = 1e-9
_REPLAY_WINDOW = 1e-9
# the closed forms run in unshifted logits while the fixed exps sum inside
# [_TINY, _HUGE]: normal floats whose case-a / case-b arithmetic cannot overflow
_TINY, _HUGE = np.finfo(float).tiny, math.sqrt(np.finfo(float).max)


def _log(v: float) -> float:
    # lam_j / D can underflow to 0; the point then leaves the box
    return math.log(v) if v > 0.0 else -math.inf


def stationary_points_case_a(lam: list, i: int, c: float) -> list[list[float]]:
    """Stationary points of exp(x_i) / (sum_j exp(x_j) + C) + lam . x.

    Returns full candidate vectors over the free coordinates.  The list
    is empty unless lam_i lies in [-1/4, 0] and lam_j >= 0 elsewhere;
    branches whose shares are non-positive, whose denominator vanishes,
    or whose shares cannot satisfy the C = 0 normalization are dropped.
    """
    if not (-0.25 <= lam[i] <= 0.0) or any(v < 0.0 for j, v in enumerate(lam) if j != i):
        return []
    sq = math.sqrt(max(1.0 + 4.0 * lam[i], 0.0))
    points = []
    for denom in {1.0 + sq, 1.0 - sq}:
        if denom == 0.0:
            continue
        shares = [2.0 * v / denom for v in lam]
        shares[i] = denom / 2.0
        if min(shares) <= 0.0:
            continue
        total = sum(shares)
        if c > 0.0:
            if total >= 1.0:
                continue
            offset = math.log(c / (1.0 - total))
        elif abs(total - 1.0) > _SUM_ONE_TOL:
            continue
        else:
            offset = 0.0
        points.append([math.log(share) + offset for share in shares])
    return points


def stationary_points_case_b(lam: list, c: float, d: float) -> list[list[float]]:
    """Stationary points of D / (sum_j exp(x_j) + C) + lam . x.

    Empty unless every lam_j is positive and sum(lam) <= D / (4C);
    otherwise both roots of the denominator quadratic are returned.
    """
    if min(lam) <= 0.0:
        return []
    total = sum(lam)
    if total > d / (4.0 * c):
        return []
    disc = math.sqrt(max(1.0 - 4.0 * c * total / d, 0.0))
    points = []
    for t in {d * (1.0 + disc) / (2.0 * total), d * (1.0 - disc) / (2.0 * total)}:
        if t > 0.0:
            points.append([_log(v / d) + 2.0 * math.log(t) for v in lam])
    return points


def _objective(m: int, lin: np.ndarray, x: np.ndarray) -> float:
    return float(softmax(x)[m] + lin @ x)


def assignment_candidates(m, lin, lo, hi, exp_lo, exp_hi, assignment) -> list[list[float]]:
    """Candidate points of one lo/hi/interior assignment, in plain floats.

    ``exp_lo`` and ``exp_hi`` are exp of the bounds (inf past overflow).
    The fixed exps are summed into C; outside [_TINY, _HUGE] they are
    summed again in logits moved down by the largest fixed one (softmax
    is shift-invariant) and the points are moved back.
    """
    x = [h if s == _UPPER else low for s, low, h in zip(assignment, lo, hi)]
    free = [j for j, s in enumerate(assignment) if s == _INTERIOR]
    if not free:
        return [x]
    fixed = [j for j, s in enumerate(assignment) if s != _INTERIOR]
    exps = {j: exp_hi[j] if assignment[j] == _UPPER else exp_lo[j] for j in fixed}
    shift = 0.0
    if fixed and not _TINY <= sum(exps.values()) <= _HUGE:
        shift = max(x[j] for j in fixed)
        exps = {j: math.exp(x[j] - shift) for j in fixed}
    c = sum(exps.values())
    lam = [lin[j] for j in free]
    if assignment[m] == _INTERIOR:
        points = stationary_points_case_a(lam, free.index(m), c)
    else:
        points = stationary_points_case_b(lam, c, exps[m])
    trials = []
    for xs in points:
        trial = x.copy()
        for j, v in zip(free, xs):
            v += shift
            if not lo[j] - _BOX_TOL <= v <= hi[j] + _BOX_TOL:
                break
            trial[j] = min(max(v, lo[j]), hi[j])
        else:
            trials.append(trial)
    return trials


def _rows(m: int, lin: list, lo: list, hi: list) -> list[list[int]]:
    """The water-filling assignments, the only ones that can hold the maximizer.

    Coordinates j != m with lin_j <= 0 sit at lo.  Those in J+ (lin_j > 0)
    move lo -> interior -> hi as log mu falls past log lin_j - lo_j, then
    log lin_j - hi_j, interior first on a tie; every step is a pattern.
    x_m is lo, hi, or interior when lin_m is in [-1/4, 0].  Rows with x_m
    fixed whose free coordinates sum past 1/4 hold no case-b point.
    """
    n = len(lin)
    rising = [j for j in range(n) if j != m and lin[j] > 0.0]
    events = sorted(
        [(math.log(lin[j]) - lo[j], _INTERIOR, j) for j in rising]
        + [(math.log(lin[j]) - hi[j], _UPPER, j) for j in rising],
        key=lambda event: (-event[0], event[1] == _UPPER),
    )
    states = [0, _UPPER] + ([_INTERIOR] if -0.25 <= lin[m] <= 0.0 else [])
    pattern, rows = [0] * n, []
    for step in range(len(events) + 1):
        if step:
            _, state, j = events[step - 1]
            pattern[j] = state
        free = [lin[j] for j in rising if pattern[j] == _INTERIOR]
        blocked = bool(free) and sum(free) > 0.25
        for state in states:
            if not (blocked and state != _INTERIOR):
                rows.append(pattern[:m] + [state] + pattern[m + 1:])
    return rows


def _score(m: int, lin: list, x: list) -> float:
    top = max(x)
    e = [math.exp(v - top) for v in x]
    return e[m] / sum(e) + sum(a * v for a, v in zip(lin, x))


def final_softmax_exact(labels, lam_k: Multiplier, box: Interval) -> InnerResult:
    """Exact max of softmax_m(x) - lam_k(x) over the box, with label m of each row.

    Ties between equally-good candidates keep the first one in the fixed
    3^n enumeration order (all-lower first), so the witness is reproducible.
    """
    lo, hi = box.lo, box.hi
    lo_f, hi_f = lo.tolist(), hi.tolist()
    with np.errstate(over="ignore"):
        # an infinite exp sums past _HUGE, so its rows solve in shifted logits
        exp_lo, exp_hi = np.exp(lo).tolist(), np.exp(hi).tolist()
    best_rows = []
    for m, lin in zip(labels, -linear_coeffs(lam_k)):
        lin_f = lin.tolist()
        scored = [(row, point, _score(m, lin_f, point))
                  for row in _rows(m, lin_f, lo_f, hi_f)
                  for point in assignment_candidates(m, lin_f, lo_f, hi_f, exp_lo, exp_hi, row)]
        top = max(score for _, _, score in scored)
        floor = top - _REPLAY_WINDOW * max(1.0, abs(top))
        best_x = lo.copy()
        best_f = _objective(m, lin, best_x)
        for _, point, score in sorted(scored, key=lambda entry: entry[0]):
            if not score < floor:
                trial = np.array(point)
                value = _objective(m, lin, trial)
                if value > best_f:
                    best_f, best_x = value, trial
        best_rows.append((best_f, best_x))
    values, witness = (np.array(part) for part in zip(*best_rows))
    return InnerResult(values, EXACT, witness, grads=({"theta": -witness}, None))
