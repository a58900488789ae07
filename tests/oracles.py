"""Reference implementations that the tests compare the verifier against.

None of these runs in a verification.  They are the slow, direct routes:
multipliers evaluated at points, closed-form layer expectations through
per-entry moment generating functions, Monte Carlo layer expectations,
exhaustive dropout patterns, reproducible noisy multiplier stacks, and
the full 3^n enumeration of the softmax output problem.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import special

from funclag.inner.softmax_exact import stationary_points_case_a, stationary_points_case_b
from funclag.model import (
    CanonicalLayer,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    draw_weights,
    forward,
    softmax,
)
from funclag.multipliers import (
    Linear,
    LinExp,
    Multiplier,
    MultiplierStack,
    Quadratic,
    UnsupportedCombination,
    expected_quadratic_coeffs,
    get_params,
    init_stack,
    with_params,
)


def evaluate(lam: Multiplier, y):
    """lam at the rows of an (N, n) array, or a float at one point (n,)."""
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    if isinstance(lam, Linear):
        values = rows @ lam.theta
    elif isinstance(lam, Quadratic):
        values = 0.5 * np.einsum("ni,ij,nj->n", rows, lam.Q, rows) + rows @ lam.q
    elif isinstance(lam, LinExp):
        values = rows @ lam.alpha + np.exp(rows @ lam.gamma + lam.kappa)
    else:
        raise TypeError(f"cannot evaluate {type(lam).__name__}")
    return values if y.ndim == 2 else float(values[0])


def noisy_stack(families, widths, scale: float, seed: int) -> MultiplierStack:
    """``init_stack`` plus reproducible Gaussian noise of the given scale.

    Noise is drawn multiplier by multiplier in parameter order (theta;
    alpha, gamma, kappa; Q, q), and a quadratic's Q is symmetrized.
    """
    rng = np.random.default_rng(seed)
    return MultiplierStack(
        lams=tuple(
            with_params(
                lam,
                {
                    name: value + scale * rng.standard_normal(value.shape)
                    for name, value in get_params(lam).items()
                },
            )
            for lam in init_stack(families, widths).lams
        )
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
    """E over (W, b) of lam(W s(x) + b) at a fixed layer input x.

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

    if isinstance(lam, Linear):
        return float(lam.theta @ mean_out)
    if isinstance(lam, Quadratic):
        c0, m, M = expected_quadratic_coeffs(layer, lam.Q, lam.q)
        return float(c0 + m @ s + 0.5 * s @ M @ s)
    if isinstance(lam, LinExp):
        linear_part = float(lam.alpha @ mean_out)
        # E[exp(gamma.(Ws+b) + kappa)] = exp(kappa) * prod_ij mgf_ij(gamma_i s_j)
        # * prod_i mgf_bias_i(gamma_i), accumulated in log space.
        theta_w = np.outer(lam.gamma, s)
        log_exp = lam.kappa
        log_exp += float(np.sum(weight_log_mgf(layer.weights, theta_w)))
        log_exp += float(np.sum(weight_log_mgf(layer.bias, lam.gamma)))
        return linear_part + float(np.exp(log_exp))
    raise UnsupportedCombination(
        f"no closed-form expectation for {type(lam).__name__}"
    )


def mc_expectation(
    layer: CanonicalLayer, lam: Multiplier, x, n: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of lam(W s(x) + b) over weight draws.

    The weights come from ``draw_weights``, so Gaussian ones are truncated,
    as in the closed-form expectations this oracle validates.  Draws are
    batched, so millions of samples stay cheap.
    """
    rng = np.random.default_rng(seed)
    row = np.asarray(x, dtype=float)[np.newaxis]
    total, total_sq = 0.0, 0.0
    done = 0
    while done < n:
        take = min(100_000, n - done)
        y = forward([layer], row, draw_weights([layer], take, rng))
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


def reference_candidates(m: int, lin: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The plain 3^n loop of max softmax_m(x) + lin . x: (assignment, value, point) per candidate.

    The all-lower start comes first with assignment None, then each
    lo/hi/interior assignment's candidates in enumeration order (base 3,
    first coordinate slowest, all-lower first).  When the fixed exps sum
    below the smallest normal float or above the square root of the
    largest, the stationary points are solved in logits moved down by the
    largest fixed one.  The box maximum is the first candidate attaining
    the largest value.
    """
    n = lo.shape[0]
    yield None, softmax_objective(m, lin, lo), lo.copy()
    for assignment in itertools.product((0, 1, 2), repeat=n):
        free = [j for j in range(n) if assignment[j] == 2]
        x = np.where(np.asarray(assignment) == 1, hi, lo).astype(float)
        if not free:
            yield assignment, softmax_objective(m, lin, x), x
            continue
        fixed = [j for j in range(n) if assignment[j] != 2]
        c = float(np.exp(x[fixed]).sum()) if fixed else 0.0
        shifted = fixed and not np.finfo(float).tiny <= c <= np.sqrt(np.finfo(float).max)
        shift = float(x[fixed].max()) if shifted else 0.0
        if shift:
            c = float(np.exp(x[fixed] - shift).sum())
        if m in free:
            candidates = stationary_points_case_a(lin[free], free.index(m), c)
        else:
            candidates = stationary_points_case_b(lin[free], c, float(np.exp(x[m] - shift)))
        for xs in candidates:
            xs = xs + shift if shift else xs
            if np.any(xs < lo[free] - 1e-9) or np.any(xs > hi[free] + 1e-9):
                continue
            trial = x.copy()
            trial[free] = np.clip(xs, lo[free], hi[free])
            yield assignment, softmax_objective(m, lin, trial), trial

