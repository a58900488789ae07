"""Reference implementations that the tests compare the verifier against.

None of these runs in a verification.  They are the slow, direct routes:
multipliers evaluated at points, closed-form layer expectations through
per-entry moment generating functions, Monte Carlo layer expectations,
exhaustive dropout patterns, reproducible noisy multiplier stacks, the
full 3^n enumeration of the softmax output problem, the softmax step
on any assignment, the per-assignment softmax step and water-filling
rows as first written, the exact multipliers of an affine network, box
membership, the exact logit difference of a deterministic ReLU net by a
big-M MILP and its LP relaxation, the rows of a multiplier, the linexp transition bound row by row, the Gaussian weight
block as first written, one stochastic forward pass, the Monte Carlo
mean softmax, and the sampled attack of one problem alone.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
from scipy import special
from scipy.optimize import Bounds, LinearConstraint, milp

from funclag.bounds import Interval, propagate_intervals
from funclag.inner import InnerResult, final_softmax_exact
from funclag.inner.linear import activation_candidates, matvec_rows, mean_output
from funclag.inner.linexp import _ZETA_LOG_CAP, transition_bound_at_zeta
from funclag.inner.result import UPPER_BOUND
from funclag.inner.softmax_exact import (
    _BOX_TOL,
    _HUGE,
    _INTERIOR,
    _SUM_ONE_TOL,
    _TINY,
    _UPPER,
    row_candidates,
)
from funclag.model import (
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    ShapeError,
    StructureError,
    WeightDraws,
    forward,
    mean_weights,
    softmax,
    truncated_normal,
)
from funclag.multipliers import (
    Linear,
    linear_coeffs,
    LinExp,
    Multiplier,
    Quadratic,
    UnsupportedCombination,
    expected_quadratic_coeffs,
    get_params,
    param_names,
    with_params,
)
from funclag.dual import init_stack
from funclag.specs import LogitDiff, SubGaussianNoise


def one_row(lam: Multiplier) -> dict:
    """The parameters of a one-row multiplier, without the row axis."""
    params = get_params(lam)
    assert all(arr.shape[0] == 1 for arr in params.values())
    return {name: arr[0] for name, arr in params.items()}


def take_rows(lam: Multiplier, index) -> Multiplier:
    """The multiplier of the rows picked by ``index`` (an index array or a slice)."""
    return type(lam)(**{name: getattr(lam, name)[index] for name in param_names(lam)})


def evaluate(lam: Multiplier, y):
    """A one-row lam at the rows of an (N, n) array, or a float at one point (n,)."""
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    p = one_row(lam)
    if isinstance(lam, Linear):
        values = rows @ p["theta"]
    elif isinstance(lam, Quadratic):
        values = 0.5 * np.einsum("ni,ij,nj->n", rows, p["Q"], rows) + rows @ p["q"]
    elif isinstance(lam, LinExp):
        values = rows @ p["alpha"] + np.exp(rows @ p["gamma"] + p["kappa"])
    else:
        raise TypeError(f"cannot evaluate {type(lam).__name__}")
    return values if y.ndim == 2 else float(values[0])


def softmax_row(m: int, lam_k: Multiplier, box):
    """``final_softmax_exact`` on one row with label m: its mode, value and witness."""
    res = final_softmax_exact([m], lam_k, box)
    [value], [witness] = res.value, res.witness
    return SimpleNamespace(mode=res.mode, value=value, witness=witness)


def noisy_stack(problem, family: str, scale: float, seed: int) -> tuple[Multiplier, ...]:
    """``init_stack`` plus reproducible Gaussian noise of the given scale.

    Noise is drawn multiplier by multiplier in parameter order (theta;
    alpha, gamma, kappa; Q, q), and a quadratic's Q is symmetrized.
    """
    rng = np.random.default_rng(seed)
    return tuple(
        with_params(
            lam,
            {
                name: value + scale * rng.standard_normal(value.shape)
                for name, value in get_params(lam).items()
            },
        )
        for lam in init_stack([problem], family)
    )


def weight_log_mgf(dist, theta: np.ndarray) -> np.ndarray:
    """Entrywise log moment generating function log E[exp(w * theta)].

    A Gaussian truncated at a standard deviations has the mgf
    exp(mu t + sigma^2 t^2 / 2) (Phi(a - sigma t) - Phi(-a - sigma t)) / (2 Phi(a) - 1);
    the Phi difference is even in sigma t, and taken at |sigma t| it never
    subtracts two numbers near 1.
    """
    theta = np.asarray(theta, dtype=float)
    if isinstance(dist, Deterministic):
        return dist.values * theta
    if isinstance(dist, DiagonalGaussian):
        a, u = dist.truncation, np.abs(dist.stddev * theta)
        mass = (special.ndtr(a - u) - special.ndtr(-a - u)) / (2.0 * special.ndtr(a) - 1.0)
        return dist.mean * theta + 0.5 * u**2 + np.log(mass)
    if isinstance(dist, Dropout):
        return np.log(dist.keep * np.exp(dist.values * theta) + (1.0 - dist.keep))
    raise TypeError(f"unknown weight distribution {type(dist).__name__}")


def expected_under_layer(lam: Multiplier, layer: CanonicalLayer, x) -> float:
    """E over (W, b) of a one-row lam(W s(x) + b) at a fixed layer input x.

    Linear and quadratic parts need the first two weight moments; the
    exponential part of a linexp multiplier factorizes into per-entry
    moment generating functions because weight entries are independent.
    Gaussian weights use the truncated moments and mgf.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (layer.in_dim,):
        raise ValueError(f"x must have shape ({layer.in_dim},), got {x.shape}")
    s = layer.apply_activation(x)
    mean_out = layer.weights.mean @ s + layer.bias.mean
    p = one_row(lam)

    if isinstance(lam, Linear):
        return float(p["theta"] @ mean_out)
    if isinstance(lam, Quadratic):
        c0, m, M = expected_quadratic_coeffs(layer, p["Q"], p["q"])
        return float(c0 + m @ s + 0.5 * s @ M @ s)
    if isinstance(lam, LinExp):
        linear_part = float(p["alpha"] @ mean_out)
        # E[exp(gamma.(Ws+b) + kappa)] = exp(kappa) * prod_ij mgf_ij(gamma_i s_j)
        # * prod_i mgf_bias_i(gamma_i), accumulated in log space.
        theta_w = np.outer(p["gamma"], s)
        log_exp = float(p["kappa"])
        log_exp += float(np.sum(weight_log_mgf(layer.weights, theta_w)))
        log_exp += float(np.sum(weight_log_mgf(layer.bias, p["gamma"])))
        return linear_part + float(np.exp(log_exp))
    raise UnsupportedCombination(
        f"no closed-form expectation for {type(lam).__name__}"
    )


def mc_expectation(
    layer: CanonicalLayer, lam: Multiplier, x, n: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of lam(W s(x) + b) over weight draws.

    The weights come from ``WeightDraws``, so Gaussian ones are truncated,
    as in the closed-form expectations this oracle validates.  Draws are
    batched, so millions of samples stay cheap.
    """
    rng = np.random.default_rng(seed)
    row = np.asarray(x, dtype=float)[np.newaxis]
    total, total_sq = 0.0, 0.0
    done = 0
    while done < n:
        take = min(100_000, n - done)
        y = forward([layer], row, WeightDraws([layer])(take, rng))
        values = evaluate(lam, np.broadcast_to(y, (take, 1, layer.out_dim))[:, 0])
        total += float(values.sum())
        total_sq += float((values**2).sum())
        done += take
    mean = total / n
    var = max(total_sq / n - mean**2, 0.0) * (n / max(n - 1, 1))
    stderr = float(np.sqrt(var / n)) if n > 1 else 0.0
    return mean, stderr


def enumerate_dropout_patterns(layer: CanonicalLayer):
    """All (probability, W, b) realizations of a dropout layer.

    Exhaustive over the 2^m on/off patterns of entries with keep strictly
    inside (0, 1); usable as an exact expectation oracle for tiny layers.
    """
    parts = []
    for dist in (layer.weights, layer.bias):
        if isinstance(dist, Dropout):
            free = np.argwhere((dist.keep > 0) & (dist.keep < 1))
            base = dist.values * (dist.keep == 1.0)
            parts.append(("dropout", dist, free, base))
        elif isinstance(dist, Deterministic):
            parts.append(("fixed", dist.values, None, None))
        else:
            raise ValueError("pattern enumeration only covers dropout and deterministic")

    def realizations(part):
        kind = part[0]
        if kind == "fixed":
            yield 1.0, part[1]
            return
        _, dist, free, base = part
        m = len(free)
        for mask_bits in itertools.product((0, 1), repeat=m):
            prob = 1.0
            value = base.copy()
            for bit, idx in zip(mask_bits, free):
                idx = tuple(idx)
                keep_p = dist.keep[idx]
                if bit:
                    prob *= keep_p
                    value[idx] = dist.values[idx]
                else:
                    prob *= 1.0 - keep_p
            yield prob, value

    for p_w, w in realizations(parts[0]):
        for p_b, b in realizations(parts[1]):
            yield p_w * p_b, w, b


def box_softmax_max(m: int, box) -> float:
    """Box maximum of softmax_m: own logit high, every other logit low."""
    x = box.lo.copy()
    x[m] = box.hi[m]
    return float(softmax(x)[m])


def box_softmax_min(m: int, box) -> float:
    """Box minimum of softmax_m: own logit low, every other logit high."""
    x = box.hi.copy()
    x[m] = box.lo[m]
    return float(softmax(x)[m])


def softmax_objective(m: int, lin: np.ndarray, x: np.ndarray) -> float:
    return float(softmax(x)[m] + lin @ x)


def assignment_candidates(m, lin, lo, hi, exp_lo, exp_hi, assignment) -> list[list[float]]:
    """``row_candidates`` of any lo/hi/interior assignment."""
    x = [h if s == _UPPER else low for s, low, h in zip(assignment, lo, hi)]
    free = [j for j, s in enumerate(assignment) if s == _INTERIOR]
    return row_candidates(m, lin, lo, hi, exp_lo, exp_hi, assignment, x, free)


def reference_candidates(m: int, lin: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The plain 3^n loop of max softmax_m(x) + lin . x: (assignment, value, point) per candidate.

    The all-lower start comes first with assignment None, then the
    candidates of ``assignment_candidates`` for each lo/hi/interior
    assignment in enumeration order (base 3, first coordinate slowest,
    all-lower first), each scored in numpy.  The box maximum is the first
    candidate attaining the largest value.
    """
    bounds = (lin.tolist(), lo.tolist(), hi.tolist())
    with np.errstate(over="ignore"):
        exps = (np.exp(lo).tolist(), np.exp(hi).tolist())
    yield None, softmax_objective(m, lin, lo), lo.copy()
    for assignment in itertools.product((0, 1, 2), repeat=lo.shape[0]):
        for point in assignment_candidates(m, *bounds, *exps, assignment):
            x = np.array(point)
            yield assignment, softmax_objective(m, lin, x), x


# --- the softmax output step and rows as first written --------------------
#
# Bit-for-bit references for ``assignment_candidates``, ``row_candidates``
# and ``walk_rows``: one lo/hi/interior assignment solved through separate
# closed forms, and the water-filling rows built row by row.


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


def reference_assignment_candidates(m, lin, lo, hi, exp_lo, exp_hi,
                                    assignment) -> list[list[float]]:
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


def reference_rows(m: int, lin: list, lo: list, hi: list) -> list[list[int]]:
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


# --- exact multipliers for affine networks, box membership -------------------


def is_affine(net: CanonicalNetwork) -> bool:
    """True when every activation is identity and every weight is a point mass."""
    return net.is_deterministic() and all(
        layer.activation == "identity" for layer in net.layers
    )


def lambda_star_affine(net: CanonicalNetwork, c) -> tuple[Linear, ...]:
    """The tight linear multipliers for a deterministic affine network.

    Backward recursion lam_K = c . x, lam_k = lam_{k+1}(W_{k+1} x + b_{k+1})
    keeps every multiplier linear (constant offsets telescope out of the
    dual), and the dual evaluates exactly to the specification optimum.
    """
    if not is_affine(net):
        raise StructureError("exact multipliers require an affine deterministic network")
    thetas = [np.asarray(c, dtype=float)]
    for layer in reversed(net.layers[1:]):
        thetas.insert(0, layer.weights.mean.T @ thetas[0])
    return tuple(Linear(theta=t) for t in thetas)


def contains(box: Interval, x, tol: float = 0.0) -> bool:
    """True when every entry of ``x`` lies in ``box``, widened by ``tol``."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= box.lo - tol) and np.all(x <= box.hi + tol))


# --- exact logit differences on deterministic ReLU nets --------------------


def exact_logit_diff(net: CanonicalNetwork, box: Interval, c) -> tuple[float, float]:
    """The maximum of c . logits over ``box`` on a deterministic net, by a big-M MILP.

    One binary per hidden ReLU unit picks its side; the big-M constants are
    the ``propagate_intervals`` boxes (Tjeng, Xiao and Tedrake, ICLR 2019),
    and HiGHS solves to a zero relative gap.  Returns the MILP objective and
    c . logits of the network at the MILP's input, clipped into ``box``: the
    second is achieved, so no sound bound may fall below it.
    """
    result, inputs = _big_m(net, propagate_intervals(net, box), c, relaxed=False)
    x0 = np.clip(result.x[inputs], box.lo, box.hi)
    logits = forward(net.layers, x0[np.newaxis], mean_weights(net.layers))[0]
    return float(-result.fun), float(np.asarray(c, dtype=float) @ logits)


def triangle_lp(net: CanonicalNetwork, boxes: tuple[Interval, ...], c) -> float:
    """The maximum of c . logits over the triangle relaxation of a deterministic net.

    The big-M model of ``exact_logit_diff`` on the boxes of x_0 .. x_K, with
    its binaries relaxed to [0, 1]; on each ReLU unit that is the convex hull
    of the unit's graph over its box.  A linear multiplier stack on the same
    boxes relaxes each layer to that hull and no further, so the LP optimum is
    the least dual value the linear family can reach, and every linear-family
    value lies at or above it (weak duality).
    """
    result, _ = _big_m(net, boxes, c, relaxed=True)
    return float(-result.fun)


def _big_m(net: CanonicalNetwork, boxes: tuple[Interval, ...], c, relaxed: bool):
    """The big-M model of max c . x_K over ``boxes``, solved by HiGHS (binaries relaxed to
    [0, 1] when ``relaxed``): the ``milp`` result and the columns of x_0."""
    if not net.is_deterministic():
        raise StructureError("the MILP needs a deterministic network")
    c = np.asarray(c, dtype=float)
    lo, hi, integer = [], [], []

    def columns(low, high, is_int=0):
        start = len(lo)
        lo.extend(low)
        hi.extend(high)
        integer.extend([is_int] * len(low))
        return np.arange(start, len(lo))

    # x[k]: the pre-activations x_k in their box; relu[k]: the output and the
    # switch of layer k's ReLU
    x = [columns(b.lo, b.hi) for b in boxes]
    relu = {k: (columns(np.maximum(boxes[k].lo, 0.0), np.maximum(boxes[k].hi, 0.0)),
                columns(np.zeros(len(x[k])), np.ones(len(x[k])), int(not relaxed)))
            for k, layer in enumerate(net.layers) if layer.activation == "relu"}
    blocks, row_lo, row_hi = [], [], []

    def rows(parts, low, high):
        block = np.zeros((len(low), len(lo)))
        for cols, coef in parts:
            block[:, cols] += coef
        blocks.append(block)
        row_lo.append(low)
        row_hi.append(high)

    for k, layer in enumerate(net.layers):
        n, (l, u) = len(x[k]), (boxes[k].lo, boxes[k].hi)
        eye = np.eye(n)
        if k in relu:
            a, d = relu[k]
            rows([(a, eye), (x[k], -eye)], np.zeros(n), np.full(n, np.inf))  # a >= x
            rows([(a, eye), (x[k], -eye), (d, -np.diag(l))], np.full(n, -np.inf), -l)
            rows([(a, eye), (d, -np.diag(u))], np.full(n, -np.inf), np.zeros(n))
        w, b = layer.weights.mean, layer.bias.mean
        rows([(x[k + 1], np.eye(len(b))), (relu[k][0] if k in relu else x[k], -w)], b, b)
    objective = np.zeros(len(lo))
    objective[x[-1]] = -c
    result = milp(objective, integrality=np.array(integer), bounds=Bounds(lo, hi),
                  constraints=LinearConstraint(np.vstack(blocks), np.concatenate(row_lo),
                                               np.concatenate(row_hi)),
                  options={"mip_rel_gap": 0.0})
    if result.status != 0:
        raise RuntimeError(f"the MILP did not solve: {result.message}")
    return result, x[0]


# --- stochastic forward passes ---------------------------------------------


def forward_sample(net: CanonicalNetwork, x, seed: int) -> np.ndarray:
    """One stochastic forward pass with one :class:`WeightDraws` draw.

    The pass is a pure function of (net, x, seed).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ShapeError(f"input must have shape ({net.input_dim},), got {x.shape}")
    rng = np.random.default_rng(seed)
    return forward(net.layers, x[np.newaxis], WeightDraws(net.layers)(1, rng)).reshape(-1)


def mean_softmax_estimate(
    net: CanonicalNetwork, x, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the expected softmax output.

    Returns the per-class sample mean (a probability vector) and the
    per-class standard error of that mean.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    rows = np.asarray(x, dtype=float)[np.newaxis]
    probs = np.empty((n_samples, net.output_dim))
    for i in range(n_samples):
        logits = forward(net.layers, rows, WeightDraws(net.layers)(1, rng))
        probs[i] = softmax(logits).reshape(-1)
    mean = probs.mean(axis=0)
    if n_samples == 1 or net.is_deterministic():
        stderr = np.zeros(net.output_dim)
    else:
        stderr = probs.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return mean, stderr


# --- the linexp transition bound row by row ----------------------------------


def linexp_transition_breaks(lam1: LinExp, lam2: Multiplier, layer: CanonicalLayer,
                             box: Interval) -> list[np.ndarray]:
    """Per row of a linexp transition, its sorted kinks in zeta: 0, every valid crossing
    of two candidate lines of one coordinate, and the cap."""
    candidates = activation_candidates(box.lo, box.hi, layer.activation)
    zeta_cap = math.exp(_ZETA_LOG_CAP)
    coeff_rows = matvec_rows(layer.weights.mean.T, linear_coeffs(lam2))
    out = []
    for alpha, gamma, coeffs in zip(lam1.alpha, lam1.gamma, coeff_rows):
        lines = [(coeffs * s - alpha * z, -gamma * z, inside) for z, s, inside in candidates]
        breaks = [np.array([0.0, zeta_cap])]
        for (icpt1, slope1, inside1), (icpt2, slope2, inside2) in itertools.combinations(lines, 2):
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (icpt1 - icpt2) / (slope2 - slope1)
            breaks.append(cross[inside1 & inside2 & (cross > 0.0) & (cross < zeta_cap)])
        out.append(np.sort(np.concatenate(breaks)))
    return out


def linexp_transition_rows(lam1: LinExp, lam2: Multiplier, layer: CanonicalLayer,
                           box: Interval) -> InnerResult:
    """``inner_linexp_transition`` as it was before its rows ran in one pass: each row
    evaluates its own pieces and trials."""
    candidates = activation_candidates(box.lo, box.hi, layer.activation)
    beta, bias = linear_coeffs(lam2), layer.bias.mean
    successor = zip(matvec_rows(layer.weights.mean.T, beta), [float(r @ bias) for r in beta])
    rows = zip(lam1.alpha, lam1.gamma, lam1.kappa.tolist(), successor,
               linexp_transition_breaks(lam1, lam2, layer, box))
    best_rows = []
    for alpha, gamma, kappa, coeffs, breaks in rows:
        row = (alpha, gamma, kappa, coeffs, candidates)
        _, piece_x = transition_bound_at_zeta(*row, 0.5 * (breaks[:-1] + breaks[1:]))
        stationary = np.exp(np.minimum(kappa + piece_x @ gamma, _ZETA_LOG_CAP))
        trials = np.concatenate([breaks, np.clip(stationary, breaks[:-1], breaks[1:])])
        bounds, witness = transition_bound_at_zeta(*row, trials)
        best = int(np.argmin(bounds))
        best_rows.append((bounds[best], witness[best], trials[best]))
    values, x, zeta = (np.array(part) for part in zip(*best_rows))
    grads = (
        {"alpha": -x, "gamma": -zeta[:, np.newaxis] * x, "kappa": -zeta},
        {"theta": mean_output(layer, x)},
    )
    return InnerResult(value=values, mode=UPPER_BOUND, witness=x, grads=grads,
                       internal_duals={"zeta": zeta})


# --- the sampled attack of one problem alone ---------------------------------


def normal_block_as_first_written(rng, limit: np.ndarray, take: int) -> np.ndarray:
    """The standard-normal block of ``WeightDraws`` as first written: ``take``
    rows of normals, then every entry past its column's ``limit`` redrawn as a
    whole normal, in C order, until none is left."""
    draw = rng.standard_normal
    block = draw((take, limit.size))
    # one check of the whole block against each column's cut, then
    # only the redrawn entries are checked again
    flat = block.reshape(-1)
    tail = (np.abs(block) > limit).reshape(-1).nonzero()[0]
    while tail.size:
        flat[tail] = draw(tail.size)
        tail = tail[np.abs(flat[tail]) > limit[tail % limit.size]]
    return block


def _objective_values(objective, logits):
    if isinstance(objective, LogitDiff):
        return logits[..., objective.target] - logits[..., objective.true]
    return softmax(logits)[..., objective.label]


def objective_estimate(net, objective, x, weight_draws, rng, row_budget=1024):
    """Per-input (mean, stderr) of one objective, weight draws in chunks of at
    most max(N, row_budget) (draw, point) rows, sums in draw order."""
    if net.is_deterministic():
        values = _objective_values(objective, forward(net.layers, x, mean_weights(net.layers)))
        return values, np.zeros_like(values)
    first = next(
        i for i, layer in enumerate(net.layers) if layer.weights.noise or layer.bias.noise
    )
    layers = net.layers[first:]
    hidden = forward(net.layers[:first], x, mean_weights(net.layers[:first]))
    per_chunk = max(row_budget // x.shape[0], 1)
    total = np.zeros(x.shape[0])
    total_sq = np.zeros(x.shape[0])
    for done in range(0, weight_draws, per_chunk):
        take = min(per_chunk, weight_draws - done)
        values = _objective_values(
            objective, forward(layers, hidden, WeightDraws(layers)(take, rng))
        )
        total = np.cumsum(np.vstack([total, values]), axis=0)[-1]
        total_sq = np.cumsum(np.vstack([total_sq, values**2]), axis=0)[-1]
    mean = total / weight_draws
    var = np.maximum(total_sq / weight_draws - mean**2, 0.0)
    return mean, np.sqrt(var / weight_draws)


def sample_lower_bound_alone(problem, n_samples=1000, seed=0, weight_draws=1000,
                             hill_steps=100):
    """The sampled attack of one problem with its own generator: random box
    points, then one coordinate climb from the best, then a fresh estimate
    at the climbed point; or the best of the noise catalog on a
    sub-Gaussian input set."""
    rng = np.random.default_rng(seed)
    net = problem.network
    if isinstance(problem.input_set, SubGaussianNoise):
        return _sub_gaussian_alone(problem, n_samples, rng)

    box = problem.support_box()
    lo, hi = box.lo, box.hi
    points = lo + rng.random((n_samples, lo.shape[0])) * (hi - lo)
    means, stderrs = objective_estimate(net, problem.objective, points, weight_draws, rng)
    best_idx = int(np.argmax(means))
    best_val, best_err = float(means[best_idx]), float(stderrs[best_idx])
    if hill_steps == 0:
        return best_val, best_err
    step = 0.25 * (hi - lo)
    x = points[best_idx].copy()
    for _ in range(hill_steps):
        improved = False
        for i in range(x.shape[0]):
            if step[i] == 0.0:
                continue
            candidates = []
            for direction in (1.0, -1.0):
                trial = x.copy()
                trial[i] = float(np.clip(trial[i] + direction * step[i], lo[i], hi[i]))
                candidates.append(trial)
            vals, errs = objective_estimate(
                net, problem.objective, np.stack(candidates), min(weight_draws, 200), rng
            )
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val, best_err = float(vals[j]), float(errs[j])
                x = candidates[j]
                improved = True
        if not improved:
            step *= 0.5
            if float(step.max()) < 1e-6 * float((hi - lo).max() + 1e-12):
                break
    final_mean, final_err = objective_estimate(
        net, problem.objective, x[np.newaxis, :], weight_draws, rng
    )
    return float(final_mean[0]), float(final_err[0])


def _sub_gaussian_alone(problem, n, rng):
    input_set = problem.input_set
    net = problem.network
    center = input_set.center
    box = input_set.support_box()
    radius = np.maximum(np.minimum(center - box.lo, box.hi - center), 0.0)
    scale_cap = min(input_set.sigma, input_set.epsilon)
    dim = center.shape[0]

    def estimate(noise_sampler):
        x = center + noise_sampler(n)
        if net.is_deterministic():
            values, _ = objective_estimate(net, problem.objective, x, 1, rng)
        else:
            logits = forward(net.layers, x[:, np.newaxis], WeightDraws(net.layers)(n, rng))
            values = _objective_values(problem.objective, logits[:, 0])
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return mean, stderr

    samplers = [lambda k: np.zeros((k, dim))]
    if scale_cap > 0.0 and np.any(radius > 0.0):
        for s in (scale_cap, 0.5 * scale_cap):
            samplers.append(lambda k, s=s: truncated_normal(rng, s, radius, k))
        two_point = np.minimum(scale_cap, radius)
        samplers.append(lambda k: two_point * (2.0 * (rng.random((k, dim)) < 0.5) - 1.0))
    best_val, best_err = -math.inf, 0.0
    for sampler in samplers:
        val, err = estimate(sampler)
        if val > best_val:
            best_val, best_err = val, err
    return best_val, best_err
