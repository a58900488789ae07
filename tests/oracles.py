"""Reference implementations that the tests compare the verifier against.

None of these runs in a verification.  They are the slow, direct routes:
multipliers evaluated at points, closed-form layer expectations through
per-entry moment generating functions, Monte Carlo layer expectations,
exhaustive dropout patterns, and reproducible noisy multiplier stacks.
"""

from __future__ import annotations

import itertools

import numpy as np

from funclag.model import (
    CanonicalLayer,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    weight_mean,
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
from funclag.oracle import _draw_untruncated_batch


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
    """Entrywise log moment generating function log E[exp(w * theta)]."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(dist, Deterministic):
        return dist.values * theta
    if isinstance(dist, DiagonalGaussian):
        return dist.mean * theta + 0.5 * dist.stddev**2 * theta**2
    if isinstance(dist, Dropout):
        return np.log(dist.keep * np.exp(dist.values * theta) + (1.0 - dist.keep))
    raise TypeError(f"unknown weight distribution {type(dist).__name__}")


def expected_under_layer(lam: Multiplier, layer: CanonicalLayer, x) -> float:
    """E over (W, b) of lam(W s(x) + b) at a fixed layer input x.

    Linear and quadratic parts need the first two weight moments; the
    exponential part of a linexp multiplier factorizes into per-entry
    moment generating functions because weight entries are independent.
    Gaussian weights use the untruncated moments and mgf.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (layer.in_dim,):
        raise ValueError(f"x must have shape ({layer.in_dim},), got {x.shape}")
    s = layer.apply_activation(x)
    w_mean = weight_mean(layer.weights)
    b_mean = weight_mean(layer.bias)
    mean_out = w_mean @ s + b_mean

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

    Gaussian weights are drawn untruncated, matching the moment and mgf
    semantics of the closed-form expectations this oracle validates.
    Draws are batched, so millions of samples stay cheap.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    s = layer.apply_activation(x)
    total, total_sq = 0.0, 0.0
    done = 0
    while done < n:
        take = min(100_000, n - done)
        w = _draw_untruncated_batch(layer.weights, rng, take)
        b = _draw_untruncated_batch(layer.bias, rng, take)
        y = np.einsum("nij,j->ni", w, s) + b
        values = evaluate(lam, y)
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
