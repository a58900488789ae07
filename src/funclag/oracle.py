"""The random problem generator and the sampled attack.

``random_problem`` builds reproducible random networks and
specifications for fuzz suites and benchmarks.  ``sample_lower_bound``
is a heuristic lower estimate of the specification optimum that
certificates record next to their bound; it never enters the certified
claim.  The brute-force references the tests compare the verifier
against live with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    draw_weights,
    forward,
    mean_weights,
    softmax,
)
from .specs import (
    BoxOfDeltas,
    ExpectedSoftmax,
    LogitDiff,
    SubGaussianNoise,
    VerificationProblem,
)


def random_problem(
    seed: int,
    max_layers: int = 3,
    max_width: int = 6,
    max_classes: int = 4,
    kinds=("adversarial", "robust_ood", "dist_robust_ood"),
) -> tuple[CanonicalNetwork, VerificationProblem]:
    """Reproducible random network + specification for fuzz suites.

    Weights are N(0, 1/width) scaled, layers mix deterministic, Gaussian
    and dropout weights (the first layer stays deterministic so every
    multiplier family applies), epsilon lies in [0.01, 0.1], and inputs
    avoid the clipping boundary.
    """
    rng = np.random.default_rng(seed)
    spec_kind = kinds[int(rng.integers(0, len(kinds)))]
    # the linexp family needs a transition layer after the input problem
    min_layers = 2 if spec_kind == "dist_robust_ood" else 1
    n_layers = int(rng.integers(min_layers, max(max_layers, min_layers) + 1))
    widths = [int(rng.integers(2, max_width + 1)) for _ in range(n_layers)]
    n_classes = int(rng.integers(2, max_classes + 1))
    widths[-1] = n_classes
    input_dim = int(rng.integers(2, max_width + 1))

    dims = [input_dim] + widths
    layers = []
    for i in range(n_layers):
        out_dim, in_dim = dims[i + 1], dims[i]
        scale = 1.0 / np.sqrt(in_dim)
        w_values = scale * rng.standard_normal((out_dim, in_dim))
        b_values = 0.1 * rng.standard_normal(out_dim)
        weight_kind = "deterministic" if i == 0 else rng.choice(["deterministic", "gaussian", "dropout"])
        if weight_kind == "gaussian":
            weights = DiagonalGaussian(
                mean=w_values,
                stddev=0.2 * scale * rng.random((out_dim, in_dim)),
                truncation=3.0,
            )
        elif weight_kind == "dropout":
            weights = Dropout(
                values=w_values,
                keep=0.5 + 0.5 * rng.random((out_dim, in_dim)),
            )
        else:
            weights = Deterministic(values=w_values)
        layers.append(
            CanonicalLayer(
                activation="identity" if i == 0 else "relu",
                weights=weights,
                bias=Deterministic(values=b_values),
            )
        )
    net = CanonicalNetwork(layers=tuple(layers))

    center = 0.2 + 0.6 * rng.random(input_dim)
    epsilon = float(0.01 + 0.09 * rng.random())
    if spec_kind == "adversarial":
        true_label = int(rng.integers(0, n_classes))
        target = int((true_label + 1 + rng.integers(0, n_classes - 1)) % n_classes)
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=center, epsilon=epsilon, clip=False),
            objective=LogitDiff(target=target, true=true_label),
            threshold=0.0,
        )
    elif spec_kind == "robust_ood":
        problem = VerificationProblem(
            network=net,
            input_set=BoxOfDeltas(center=center, epsilon=epsilon, clip=False),
            objective=ExpectedSoftmax(label=int(rng.integers(0, n_classes))),
            threshold=0.5,
        )
    else:
        problem = VerificationProblem(
            network=net,
            input_set=SubGaussianNoise(
                center=center,
                epsilon=epsilon,
                sigma=float(0.02 + 0.1 * rng.random()),
                clip=False,
            ),
            objective=ExpectedSoftmax(label=int(rng.integers(0, n_classes))),
            threshold=0.5,
        )
    return net, problem


# --- sampled lower bounds ---------------------------------------------------


# One batched weight estimate holds at most max(points, _ROW_BUDGET)
# (draw, point) rows per array pass.
_ROW_BUDGET = 1024


def _objective_values(objective, logits: np.ndarray) -> np.ndarray:
    if isinstance(objective, LogitDiff):
        return logits[..., objective.target] - logits[..., objective.true]
    return softmax(logits)[..., objective.label]


def _batch_objective_estimate(net, objective, x, weight_draws, rng):
    """Per-input estimates of the expected objective (mean, stderr).

    Weight draws run in chunks of at most max(N, _ROW_BUDGET) (draw,
    point) rows, and layers before the first stochastic tensor run once.
    The sums accumulate in draw order, so on a net without Gaussian
    tensors the estimate equals, bit for bit, a loop over single draws.
    A Gaussian tail redraw takes its normals after the whole chunk's, so
    there the draws depend on the chunking, though not their distribution.
    """
    if net.is_deterministic():
        # a zero-stddev Gaussian counts as deterministic and draws nothing
        values = _objective_values(objective, forward(net.layers, x, mean_weights(net.layers)))
        return values, np.zeros_like(values)
    first = next(
        i for i, layer in enumerate(net.layers) if layer.weights.noise or layer.bias.noise
    )
    layers = net.layers[first:]
    hidden = forward(net.layers[:first], x, mean_weights(net.layers[:first]))
    per_chunk = max(_ROW_BUDGET // x.shape[0], 1)
    total = np.zeros(x.shape[0])
    total_sq = np.zeros(x.shape[0])
    for done in range(0, weight_draws, per_chunk):
        take = min(per_chunk, weight_draws - done)
        values = _objective_values(
            objective, forward(layers, hidden, draw_weights(layers, take, rng))
        )
        # cumsum adds row after row; a sum over axis 0 is pairwise for one point
        total = np.cumsum(np.vstack([total, values]), axis=0)[-1]
        total_sq = np.cumsum(np.vstack([total_sq, values**2]), axis=0)[-1]
    mean = total / weight_draws
    var = np.maximum(total_sq / weight_draws - mean**2, 0.0)
    stderr = np.sqrt(var / weight_draws)
    return mean, stderr


def sample_lower_bound(
    problem: VerificationProblem,
    n_samples: int = 1000,
    seed: int = 0,
    weight_draws: int = 1000,
    hill_steps: int = 100,
) -> tuple[float, float]:
    """Heuristic lower estimate of the specification optimum.

    Box input sets: the objective is estimated at random box points and
    the best point is refined by coordinate hill climbing.  Sub-Gaussian
    input sets: the expectation is estimated under a small catalog of
    feasible noise distributions (a point mass at zero, truncated
    Gaussians, a symmetric two-point mixture).  Returns (value, stderr);
    never a certificate.  Raises ValueError when ``n_samples`` < 1,
    ``weight_draws`` < 1 or ``hill_steps`` < 0.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if weight_draws < 1:
        raise ValueError("weight_draws must be at least 1")
    if hill_steps < 0:
        raise ValueError("hill_steps must be non-negative")
    rng = np.random.default_rng(seed)
    net = problem.network
    input_set = problem.input_set

    if isinstance(input_set, SubGaussianNoise):
        return _sub_gaussian_lower_bound(problem, n_samples, rng)

    box = problem.support_box()
    lo, hi = box.lo, box.hi
    points = lo + rng.random((n_samples, lo.shape[0])) * (hi - lo)
    means, stderrs = _batch_objective_estimate(net, problem.objective, points, weight_draws, rng)
    best_idx = int(np.argmax(means))
    best_x = points[best_idx].copy()
    best_val, best_err = float(means[best_idx]), float(stderrs[best_idx])

    if hill_steps > 0:
        step = 0.25 * (hi - lo)
        x = best_x.copy()
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
                vals, errs = _batch_objective_estimate(
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
        # fresh estimate at the climbed point avoids max-selection bias
        final_mean, final_err = _batch_objective_estimate(
            net, problem.objective, x[np.newaxis, :], weight_draws, rng
        )
        best_val, best_err = float(final_mean[0]), float(final_err[0])
    return best_val, best_err


def _sub_gaussian_lower_bound(problem, n, rng):
    """Best estimate over a catalog of feasible noise distributions.

    Feasibility means zero mean, i.i.d. coordinates, support inside the
    (possibly clipped) box around the center, and a sub-Gaussian mgf with
    the problem's sigma.  Symmetric truncation radii keep the mean at
    zero even when clipping shrinks one side of the box, and symmetric
    truncated Gaussians with scale <= sigma stay sigma-sub-Gaussian.  A
    coordinate with radius 0 (a clipped center on the box edge) gets no
    noise.
    """
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
            values, _ = _batch_objective_estimate(net, problem.objective, x, 1, rng)
        else:
            # joint (noise, weight) draws: one weight realization per row
            logits = forward(net.layers, x[:, np.newaxis], draw_weights(net.layers, n, rng))
            values = _objective_values(problem.objective, logits[:, 0])
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return mean, stderr

    samplers = [lambda k: np.zeros((k, dim))]
    if scale_cap > 0.0 and np.any(radius > 0.0):
        for s in (scale_cap, 0.5 * scale_cap):
            def trunc_normal(k, s=s):
                draw = np.where(radius > 0.0, rng.normal(0.0, s, size=(k, dim)), 0.0)
                bad = np.abs(draw) > radius
                while np.any(bad):
                    draw = np.where(bad, rng.normal(0.0, s, size=(k, dim)), draw)
                    bad = np.abs(draw) > radius
                return draw

            samplers.append(trunc_normal)
        two_point = np.minimum(scale_cap, radius)
        samplers.append(lambda k: two_point * (2.0 * (rng.random((k, dim)) < 0.5) - 1.0))
    best_val, best_err = -math.inf, 0.0
    for sampler in samplers:
        val, err = estimate(sampler)
        if val > best_val:
            best_val, best_err = val, err
    return best_val, best_err
