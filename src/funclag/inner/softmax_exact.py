"""Exact final-layer solve for softmax objectives with linear multipliers.

Maximizes softmax_m(x) + lin . x over a box.  At the maximum every
coordinate sits at its lower bound, its upper bound, or in the interior,
and for each of the 3^n such assignments the interior ("free")
coordinates must form a stationary point of the restricted function.
Those stationary points have closed forms with at most two solutions: one
family when the target coordinate m is free (the quadratic in its own
softmax share, case a) and one when m is fixed (all shares proportional
to the linear coefficients, case b).  The global maximum is the best
candidate; every box corner is itself a candidate, so the result can
never fall below a corner evaluation.

The solve runs in two passes.

Screen.  All 2^n corners are scored as one array.  The case-a sign
test (lin[m] in [-1/4, 0], lin > 0 on the rest of F) and the case-b
tests (lin > 0 on F, sum(lin[F]) <= 1/4) do not depend on the fixed
coordinates, so most free sets F are dropped at once.  The rest are
scored by case and size |F|, in array passes over their (F, lo/hi
pattern of the fixed coordinates) rows.  Sums are taken over the same
compacted arrays as in the scalar code, and each screening test is the
scalar test widened by a small slack, so the screen keeps every
candidate the scalar code would accept.

Replay.  The assignments whose screened value lies within a 1e-9 window
of the screened top are re-run, in enumeration order (base 3, first
coordinate slowest, all-lower first), through the scalar per-assignment
code, starting from the all-lower corner and replacing the incumbent
only on a strictly greater value.  A full scalar pass returns the first
candidate in that order attaining the scalar maximum, which is the box
maximum.  Every attainer has a screened value within rounding of it, and
no screened candidate, being a box point, exceeds it by more than
rounding, so all attainers are replayed; the replay then returns the
same value and witness, bit for bit, as the full 3^n scalar pass.
"""

from __future__ import annotations

import functools
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
_ROW_BUDGET = 512  # screen rows per array pass; bounds the temporaries
_TINY = np.finfo(float).tiny


class DimensionError(Exception):
    """The 3^n enumeration was refused because n exceeds the cap."""


def box_softmax_max(m: int, box: Interval) -> float:
    """Box maximum of softmax_m: own logit high, every other logit low."""
    x = box.lo.copy()
    x[m] = box.hi[m]
    return float(softmax(x)[m])


def box_softmax_min(m: int, box: Interval) -> float:
    """Box minimum of softmax_m: own logit low, every other logit high."""
    x = box.hi.copy()
    x[m] = box.lo[m]
    return float(softmax(x)[m])


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
    c = float(np.exp(x[fixed]).sum()) if fixed else 0.0
    shift = 0.0
    if fixed and c == 0.0:
        # every fixed logit underflows exp: solve in logits moved down by the
        # largest fixed one (softmax is shift-invariant) and move points back
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


@functools.lru_cache(maxsize=None)
def _corner_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index tables of width n, built once per width.

    Row k of ``upper`` marks the coordinates at their upper bound in box
    corner k (coordinate j is bit n-1-j of k), so row f doubles as the
    membership mask of free set f; ``picks`` takes every corner from a
    lo vector followed by a hi vector.  ``weights`` holds the base-3
    place values of the enumeration, whose first coordinate varies
    slowest, and ``codes[k]`` is corner k's position in it.
    """
    k = np.arange(2**n)
    upper = ((k[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)
    picks = n * upper + np.arange(n)
    weights = 3 ** np.arange(n - 1, -1, -1)
    codes = (upper * weights).sum(axis=1)
    for table in (upper, picks, weights, codes):
        table.flags.writeable = False
    return upper, picks, weights, codes


def _objective_rows(m: int, lin: np.ndarray, x: np.ndarray) -> np.ndarray:
    return softmax(x)[:, m] + x @ lin


def _screen_rows(m, lin, lo, hi, free, corners, exp_lo, exp_hi):
    """(codes, values) of every fixed pattern of free sets of one size and case.

    The stationary points have shape (root, free set, pattern, free
    coordinate); assignments to replay unscored get the value NaN.
    """
    count, n = free.shape
    size = int(free[0].sum())
    _, _, weights, corner_codes = _corner_tables(n)
    patterns, picks, _, _ = _corner_tables(n - size)
    order = np.argsort(~free, axis=1, kind="stable")
    free_idx, fixed_idx = order[:, :size], order[:, size:]
    exp_fixed = np.take(np.concatenate([exp_lo[fixed_idx], exp_hi[fixed_idx]], 1), picks, 1)
    c = exp_fixed.sum(axis=2)
    lam = lin[free_idx]
    below_m = free[:, :m].sum(axis=1)

    if free[0, m]:
        # case a: shares 2 lam / denom, and denom / 2 at m, per root denom
        sq = math.sqrt(max(1.0 + 4.0 * lin[m], 0.0))
        denom = np.array(sorted({1.0 + sq, 1.0 - sq} - {0.0}))[:, None, None]
        shares = 2.0 * lam / denom
        shares[:, np.arange(count), below_m] = denom[:, :, 0] / 2.0
        total = shares.sum(axis=2)[:, :, None]
        offset = np.where(total < 1.0, np.log(c / (1.0 - total)), np.nan) if size < n \
            else np.where(np.abs(total - 1.0) <= _SUM_ONE_TOL, 0.0, np.nan)
        points = np.log(shares)[:, :, None] + offset[..., None]
    else:
        # case b: both roots t of the denominator quadratic
        d = exp_fixed[np.arange(count), :, m - below_m]
        total = lam.sum(axis=1)[:, None]
        exists = total <= d / (4.0 * c) * (1.0 + _SCREEN_SLACK)
        disc = np.sqrt(np.maximum(1.0 - 4.0 * c * total / d, 0.0))
        t = d * (1.0 + np.array([1.0, -1.0])[:, None, None] * disc) / (2.0 * total)
        t = np.where(exists & (t > 0.0), t, np.nan)
        points = np.log(lam[:, None] / d[:, :, None]) + 2.0 * np.log(t)[..., None]

    def corners_and_codes(f, p):
        # corner k of assignment (f, p) has its free coordinates at lo
        k = (patterns[p] << (n - 1 - fixed_idx[f])).sum(axis=1)
        return k, corner_codes[k] + 2 * (free[f] @ weights)

    found = []
    lo_f, hi_f = lo[free_idx][:, None], hi[free_idx][:, None]
    slack = _BOX_TOL + _SCREEN_SLACK * (1.0 + np.abs(points))
    root, f, p = np.nonzero(((points >= lo_f - slack) & (points <= hi_f + slack)).all(axis=3))
    if f.size:
        k, codes = corners_and_codes(f, p)
        trial = corners[k]
        trial[free[f]] = np.clip(points[root, f, p], lo_f[f, 0], hi_f[f, 0]).ravel()
        found.append((codes, _objective_rows(m, lin, trial)))
    tiny = c < _TINY
    if size < n and tiny.any():
        f, p = np.nonzero(tiny)
        found.append((corners_and_codes(f, p)[1], np.full(f.size, np.nan)))
    return found


def _screen(m: int, lin: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, ...]]:
    """Assignments whose screened value is near the top, in enumeration order.

    Scores all box corners in one array, then the stationary points of
    every (free set, fixed pattern) assignment whose free set passes the
    sign tests, in array passes of about ``_ROW_BUDGET`` assignments.  The
    tests are the scalar ones widened by a small slack, so no candidate
    the scalar code accepts is dropped.  Patterns whose fixed coordinates
    all underflow exp are replayed unscored: there the scalar code takes
    its C = 0 branch in case a and divides by zero in case b, and the
    replay keeps both.
    """
    n = lo.shape[0]
    upper, picks, weights, corner_codes = _corner_tables(n)
    corners = np.take(np.concatenate([lo, hi]), picks)
    exp_lo, exp_hi = np.exp(lo), np.exp(hi)
    found = [(corner_codes, _objective_rows(m, lin, corners))]

    # free sets that can hold a stationary point whatever the fixed
    # coordinates are: case a needs m in F, lin[m] in [-1/4, 0] and lin > 0
    # on the rest of F; case b needs m outside F, lin > 0 on F and
    # sum(lin[F]) <= D/(4C), which is at most 1/4 because C >= D
    blocked = np.count_nonzero(upper & (lin <= 0.0), axis=1)
    case_a = upper[:, m] & (blocked == 1) & (-0.25 <= lin[m] <= 0.0)
    case_b = ~upper[:, m] & (blocked == 0) & (upper @ lin <= 0.25 * (1.0 + _SCREEN_SLACK))
    case_b[0] = False  # the empty free set: the corners, scored above
    survivors = np.flatnonzero(case_a | case_b)
    # free sets of one size and case share their array shapes
    keys = 2 * upper[survivors].sum(axis=1) + case_a[survivors]
    for key in sorted(set(keys.tolist())):
        group = survivors[keys == key]
        step = max(1, _ROW_BUDGET >> (n - key // 2))
        for start in range(0, group.size, step):
            free = upper[group[start:start + step]]
            found += _screen_rows(m, lin, lo, hi, free, corners, exp_lo, exp_hi)

    codes, values = (np.concatenate(part) for part in zip(*found))
    top = float(np.nanmax(values))
    # NaN never compares below the window, so unscored rows are kept
    near = ~(values < top - _REPLAY_WINDOW * max(1.0, abs(top)))
    replay = sorted(set(codes[near].tolist()))
    return [tuple(int(a) for a in (code // weights) % 3) for code in replay]


def final_softmax_exact(
    m: int,
    lam_k: Multiplier,
    box: Interval,
    cap: int = 12,
) -> InnerResult:
    """Exact max of softmax_m(x) - lam_k(x) over the box.

    Ties between equally-good candidates keep the first one in the fixed
    3^n enumeration order (all-lower first), so the witness is reproducible.
    """
    n = box.lo.shape[0]
    if n > cap:
        raise DimensionError(f"dimension {n} exceeds the 3^n enumeration cap {cap}")
    lin = -linear_coeffs(lam_k)
    lo, hi = box.lo, box.hi
    with np.errstate(divide="ignore", invalid="ignore"):
        replay = _screen(m, lin, lo, hi)

    best_x = lo.copy()
    best_f = _objective(m, lin, best_x)
    for assignment in replay:
        for trial in _assignment_candidates(m, lin, lo, hi, assignment):
            value = _objective(m, lin, trial)
            if value > best_f:
                best_f, best_x = value, trial
    return InnerResult(value=best_f, mode=EXACT, witness=best_x, grads=({"theta": -best_x}, None))
