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
6n - 3 rows.  Case a needs lin_m in [-1/4, 0], and case b needs
sum(lin[F]) <= 1/4, which drops more rows.

Screen, then replay.  Each row's candidates are scored in plain floats by
the same closed forms, every test widened by a small slack, so the
screen scores every candidate the scalar code accepts.  The rows whose
screened value lies within a 1e-9 window of the screened top are re-run
in enumeration order (base 3, first coordinate slowest, all-lower first)
through the scalar per-assignment code, starting from the all-lower
corner and replacing the incumbent only on a strictly greater value.
So are the rows whose fixed exps sum below the smallest normal float or
above the square root of the largest, unscored: the scalar code solves
those in shifted logits.
The full 3^n scalar pass returns the first candidate in that order that
attains the scalar maximum, which is the box maximum.  That candidate's
assignment is a water-filling row (on a zero-width coordinate the rows
may hold its hi twin, which computes the same point), its screened
value lies within rounding of the maximum, and no screened candidate,
being a box point, exceeds the maximum by more than rounding.  So the
replay keeps it and returns the same value and witness, bit for bit,
as the full pass.
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
_SCREEN_SLACK = 1e-12
_REPLAY_WINDOW = 1e-9
# the closed forms run in unshifted logits while the fixed exps sum inside
# [_TINY, _HUGE]: normal floats whose case-a / case-b arithmetic cannot overflow
_TINY, _HUGE = np.finfo(float).tiny, math.sqrt(np.finfo(float).max)


def stationary_points_case_a(lam: np.ndarray, i: int, c: float) -> list[np.ndarray]:
    """Stationary points of exp(x_i) / (sum_j exp(x_j) + C) + lam . x.

    Returns full candidate vectors over the free coordinates.  The list
    is empty unless lam_i lies in [-1/4, 0] and lam_j >= 0 elsewhere;
    branches whose shares are non-positive, whose denominator vanishes,
    or whose shares cannot satisfy the C = 0 normalization are dropped.
    """
    lam = np.asarray(lam, dtype=float)
    if not (-0.25 <= lam[i] <= 0.0):
        return []
    others = np.delete(lam, i)
    if np.any(others < 0.0):
        return []
    sq = math.sqrt(max(1.0 + 4.0 * lam[i], 0.0))
    points: list[np.ndarray] = []
    for denom in {1.0 + sq, 1.0 - sq}:
        if denom == 0.0:
            continue
        shares = 2.0 * lam / denom
        shares[i] = denom / 2.0
        if np.any(shares <= 0.0):
            continue
        total = float(shares.sum())
        if c > 0.0:
            if total >= 1.0:
                continue
            x = np.log(shares) + math.log(c / (1.0 - total))
        else:
            if abs(total - 1.0) > _SUM_ONE_TOL:
                continue
            x = np.log(shares)
        points.append(x)
    return points


def stationary_points_case_b(lam: np.ndarray, c: float, d: float) -> list[np.ndarray]:
    """Stationary points of D / (sum_j exp(x_j) + C) + lam . x.

    Empty unless every lam_j is positive and sum(lam) <= D / (4C);
    otherwise both roots of the denominator quadratic are returned.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        return []
    total = float(lam.sum())
    if total > d / (4.0 * c):
        return []
    disc = math.sqrt(max(1.0 - 4.0 * c * total / d, 0.0))
    points = []
    for t in {d * (1.0 + disc) / (2.0 * total), d * (1.0 - disc) / (2.0 * total)}:
        if t <= 0.0:
            continue
        points.append(np.log(lam / d) + 2.0 * math.log(t))
    return points


def _objective(m: int, lin: np.ndarray, x: np.ndarray) -> float:
    return float(softmax(x)[m] + lin @ x)


def _assignment_candidates(
    m: int, lin: np.ndarray, lo: np.ndarray, hi: np.ndarray, assignment: tuple[int, ...]
) -> list[np.ndarray]:
    """Candidate points of one lo/hi/interior assignment, in scalar arithmetic.

    This is the reference per-assignment step: the replay runs it on the
    assignments the screen keeps, so its arithmetic decides the result.
    """
    n = len(assignment)
    free = [j for j in range(n) if assignment[j] == _INTERIOR]
    x = np.where(np.asarray(assignment) == _UPPER, hi, lo).astype(float)
    if not free:
        return [x]
    fixed = [j for j in range(n) if assignment[j] != _INTERIOR]
    with np.errstate(over="ignore"):
        c = float(np.exp(x[fixed]).sum()) if fixed else 0.0
    shift = 0.0
    if fixed and not _TINY <= c <= _HUGE:
        # solve in logits moved down by the largest fixed one (softmax is
        # shift-invariant) and move the points back
        shift = float(x[fixed].max())
        c = float(np.exp(x[fixed] - shift).sum())
    if m in free:
        points = stationary_points_case_a(lin[free], free.index(m), c)
    else:
        points = stationary_points_case_b(lin[free], c, float(np.exp(x[m] - shift)))
    if shift:
        points = [xs + shift for xs in points]
    trials = []
    for xs in points:
        if np.any(xs < lo[free] - _BOX_TOL) or np.any(xs > hi[free] + _BOX_TOL):
            continue
        trial = x.copy()
        trial[free] = np.clip(xs, lo[free], hi[free])
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
        blocked = bool(free) and sum(free) > 0.25 * (1.0 + _SCREEN_SLACK)
        for state in states:
            if not (blocked and state != _INTERIOR):
                rows.append(pattern[:m] + [state] + pattern[m + 1:])
    return rows


def _score(m: int, lin: list, x: list) -> float:
    top = max(x)
    e = [math.exp(v - top) for v in x]
    return e[m] / sum(e) + sum(a * v for a, v in zip(lin, x))


def _log(v: float) -> float:
    # lin_j / exp(x_m) can underflow to 0; the point then leaves the box
    return math.log(v) if v > 0.0 else -math.inf


def _screen_row(m, lin, lo, hi, exp_lo, exp_hi, row):
    """Screened values of one assignment's candidates, or None to replay it unscored.

    The case-a / case-b closed forms of ``_assignment_candidates`` in
    plain floats, each test widened by a small slack, so the screen
    scores every candidate the scalar code accepts.  A row whose fixed
    exps sum outside [_TINY, _HUGE] is left unscored: there the scalar
    code solves in shifted logits.
    """
    x = [h if s == _UPPER else low for s, low, h in zip(row, lo, hi)]
    free = [j for j, s in enumerate(row) if s == _INTERIOR]
    if not free:
        return [_score(m, lin, x)]
    fixed = len(free) < len(row)
    c = sum(eh if s == _UPPER else el for s, el, eh in zip(row, exp_lo, exp_hi) if s != _INTERIOR)
    if fixed and not _TINY <= c <= _HUGE:
        return None
    points = []
    if row[m] == _INTERIOR:
        sq = math.sqrt(max(1.0 + 4.0 * lin[m], 0.0))
        for denom in {1.0 + sq, 1.0 - sq} - {0.0}:
            shares = [denom / 2.0 if j == m else 2.0 * lin[j] / denom for j in free]
            if min(shares) <= 0.0:
                continue
            total = sum(shares)
            if not fixed:
                if abs(total - 1.0) > _SUM_ONE_TOL + _SCREEN_SLACK:
                    continue
                offset = 0.0
            elif total < 1.0:
                offset = math.log(c / (1.0 - total))
            elif total < 1.0 + _SCREEN_SLACK:
                return None
            else:
                continue
            points.append([math.log(share) + offset for share in shares])
    else:
        d = exp_hi[m] if row[m] == _UPPER else exp_lo[m]
        lam = [lin[j] for j in free]
        total = sum(lam)
        if not total <= d / (4.0 * c) * (1.0 + _SCREEN_SLACK):
            return []
        disc = math.sqrt(max(1.0 - 4.0 * c * total / d, 0.0))
        for t in {d * (1.0 + disc) / (2.0 * total), d * (1.0 - disc) / (2.0 * total)}:
            if t > 0.0:
                points.append([_log(a / d) + 2.0 * math.log(t) for a in lam])
    values = []
    for xs in points:
        trial = x.copy()
        for j, v in zip(free, xs):
            slack = _BOX_TOL + _SCREEN_SLACK * (1.0 + abs(v))
            if not lo[j] - slack <= v <= hi[j] + slack:
                break
            trial[j] = min(max(v, lo[j]), hi[j])
        else:
            values.append(_score(m, lin, trial))
    return values


def _screen(m: int, lin: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, ...]]:
    """Water-filling assignments whose screened value is near the top, in enumeration order."""
    lin_f, lo_f, hi_f = lin.tolist(), lo.tolist(), hi.tolist()
    with np.errstate(over="ignore"):
        # an infinite exp sums past _HUGE, so its rows replay unscored
        exp_lo, exp_hi = np.exp(lo).tolist(), np.exp(hi).tolist()
    screened = [(row, _screen_row(m, lin_f, lo_f, hi_f, exp_lo, exp_hi, row))
                for row in _rows(m, lin_f, lo_f, hi_f)]
    top = max(v for _, values in screened if values for v in values)
    floor = top - _REPLAY_WINDOW * max(1.0, abs(top))
    replay = [row for row, values in screened
              if values is None or any(not v < floor for v in values)]
    return sorted(tuple(row) for row in replay)


def final_softmax_exact(m: int, lam_k: Multiplier, box: Interval) -> InnerResult:
    """Exact max of softmax_m(x) - lam_k(x) over the box.

    Ties between equally-good candidates keep the first one in the fixed
    3^n enumeration order (all-lower first), so the witness is reproducible.
    """
    lin = -linear_coeffs(lam_k)
    lo, hi = box.lo, box.hi
    best_x = lo.copy()
    best_f = _objective(m, lin, best_x)
    for assignment in _screen(m, lin, lo, hi):
        for trial in _assignment_candidates(m, lin, lo, hi, assignment):
            value = _objective(m, lin, trial)
            if value > best_f:
                best_f, best_x = value, trial
    return InnerResult(value=best_f, mode=EXACT, witness=best_x, grads=({"theta": -best_x}, None))
