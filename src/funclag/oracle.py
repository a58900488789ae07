"""The random problem generator and the sampled attack.

``random_problem`` builds reproducible random networks and
specifications for fuzz suites and benchmarks.  ``sample_lower_bound``
gives heuristic lower estimates of the optima of one spec's problems,
one per label, that certificates record next to their bound; they never
enter the certified claim.  The labels read the same forward passes, and
each gets the value its attack alone would get.  The brute-force
references the tests compare the verifier against live with the tests.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .model import (
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    WeightDraws,
    forward,
    mean_weights,
    softmax,
    truncated_normal,
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
# (draw, point) rows per array pass, counting the points of one label.
_ROW_BUDGET = 1024
# a climb trial's two rows move its coordinate up, then down
_UP_DOWN = np.array([1.0, -1.0])


class _Estimator:
    """What every estimate of one spec's attack reads, built once per attack.

    The objectives' one kind (``diff``: logit differences, else softmax
    objectives) and index arrays (target and true label, or label;
    dummies for the other kind), whether the net draws at all, the mean
    weights of the layers before its first stochastic tensor (every layer
    on a net that draws nothing), and the weight draws of the layers from
    it on and of the whole net.
    """

    def __init__(self, net: CanonicalNetwork, objectives):
        self.diff = isinstance(objectives[0], LogitDiff)
        self.targets, self.trues, self.labels = (
            np.array([getattr(objective, name, 0) for objective in objectives])
            for name in ("target", "true", "label")
        )
        # a zero-stddev Gaussian counts as deterministic and draws nothing
        self.draws = not net.is_deterministic()
        first = net.depth
        if self.draws:
            first = next(
                i for i, layer in enumerate(net.layers) if layer.weights.noise or layer.bias.noise
            )
        self.prefix, self.suffix = net.layers[:first], net.layers[first:]
        self.prefix_weights = mean_weights(self.prefix)
        self.draw_suffix, self.draw_all = WeightDraws(self.suffix), WeightDraws(net.layers)

    def values(self, logits: np.ndarray, cols=None) -> np.ndarray:
        """Objectives at the rows of (..., N, out) logits.

        Every objective at every row, (..., N, L); or with ``cols``, the
        objective ``cols[r]`` at row r, (..., N).
        """
        rows = np.arange(logits.shape[-2])
        if cols is None:
            rows, cols = rows[:, np.newaxis], np.arange(self.labels.size)
        if self.diff:
            return logits[..., rows, self.targets[cols]] - logits[..., rows, self.trues[cols]]
        return softmax(logits)[..., rows, self.labels[cols]]

    def estimate(self, x, weight_draws, rng, points=None, cols=None):
        """Estimates (mean, stderr) of the objectives at every input, shaped as :meth:`values`.

        Weight draws run in chunks of at most max(points, _ROW_BUDGET)
        (draw, point) rows, where ``points`` (default N) is the batch the
        chunks are sized for: a batch of several labels' points passes one
        label's count, so ``rng`` is consumed as by that label alone.  The
        mean prefix runs once; a net that draws nothing leaves ``rng``
        alone.  Each draw is applied to every row, so a row's estimate does
        not depend on the other rows, and the sums accumulate in draw
        order: on a net without Gaussian tensors the estimate equals, bit
        for bit, a loop over single draws.  A Gaussian tail redraw takes
        its normals after the whole chunk's, so there the draws depend on
        the chunking, though not their distribution.
        """
        hidden = forward(self.prefix, x, self.prefix_weights)
        if not self.draws:
            values = self.values(hidden, cols)
            return values, np.zeros_like(values)
        per_chunk = max(_ROW_BUDGET // (points or x.shape[0]), 1)
        total = np.zeros((1, x.shape[0]) if cols is not None else (1, x.shape[0], self.labels.size))
        total_sq = np.zeros_like(total)
        for done in range(0, weight_draws, per_chunk):
            take = min(per_chunk, weight_draws - done)
            values = self.values(
                forward(self.suffix, hidden, self.draw_suffix(take, rng)), cols
            )
            # cumsum adds draw after draw; a sum over axis 0 is pairwise for one point
            total = np.cumsum(np.concatenate([total, values]), axis=0)[-1:]
            total_sq = np.cumsum(np.concatenate([total_sq, values**2]), axis=0)[-1:]
        mean = total[0] / weight_draws
        var = np.maximum(total_sq[0] / weight_draws - mean**2, 0.0)
        stderr = np.sqrt(var / weight_draws)
        return mean, stderr


def sample_lower_bound(
    problems: list[VerificationProblem],
    n_samples: int = 1000,
    seed: int = 0,
    weight_draws: int = 1000,
    hill_steps: int = 100,
) -> list[tuple[float, float]]:
    """Heuristic lower estimates of the specification optima, one per problem.

    The problems share one network and one input set (the labels of one
    spec, as ``build_problem`` expands it); each gets the value it would
    get alone with ``seed``, bit for bit, while every label reads the same
    forward passes.  Box input sets: the objective is estimated at random
    box points and each label's best point is refined by coordinate hill
    climbing, all labels in lockstep.  A climb round goes over the
    coordinates in passes, one estimate each: a pass scores a window of
    coordinates, for each the up and down trials of every label still
    climbing, built from the current points.  It keeps its results up to
    the first coordinate that improves a label, and the next pass starts
    after that coordinate from the moved points, so every trial is the one
    a label alone would score.  On a net that draws nothing the window is
    every coordinate left in the round (a forward pass gives a row the
    bytes it has in any block of two or more rows); on a net that draws it
    is one coordinate, so each coordinate's trials take their own weight
    block and no draws go to trials a cut would discard.  Sub-Gaussian
    input sets: the expectation is estimated under a small catalog of
    feasible noise distributions (a point mass at zero, truncated
    Gaussians, a symmetric two-point mixture).  Returns one (value,
    stderr) per problem; never a certificate.  Raises ValueError when the
    problems do not share one network, one input set and one objective
    kind, or when ``n_samples`` < 1, ``weight_draws`` < 1 or
    ``hill_steps`` < 0.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if weight_draws < 1:
        raise ValueError("weight_draws must be at least 1")
    if hill_steps < 0:
        raise ValueError("hill_steps must be non-negative")
    if not problems:
        return []
    net, input_set = problems[0].network, problems[0].input_set
    if any(p.network is not net or p.input_set is not input_set for p in problems):
        raise ValueError("the problems must share one network and one input set")
    if any(type(p.objective) is not type(problems[0].objective) for p in problems):
        raise ValueError("the problems must share one objective kind")
    estimator = _Estimator(net, [p.objective for p in problems])
    rng = np.random.default_rng(seed)

    if isinstance(input_set, SubGaussianNoise):
        return _sub_gaussian_lower_bounds(net, input_set, estimator, n_samples, rng)

    box = input_set.support_box()
    lo, hi = box.lo, box.hi
    points = lo + rng.random((n_samples, lo.shape[0])) * (hi - lo)
    means, stderrs = estimator.estimate(points, weight_draws, rng)
    best_idx = np.argmax(means, axis=0)
    labels = np.arange(len(problems))
    best_val, best_err = means[best_idx, labels], stderrs[best_idx, labels]
    if hill_steps == 0:
        return list(zip(best_val.tolist(), best_err.tolist()))

    # Each label's climb draws its weights as its own generator would, so
    # the labels still climbing share one generator; a label leaves with a
    # copy of it (on a net that draws, else with it) and takes its final
    # estimate from that.
    x = points[best_idx]
    step = np.tile(0.25 * (hi - lo), (len(problems), 1))
    floor = 1e-6 * float((hi - lo).max() + 1e-12)
    climb_draws = min(weight_draws, 200)
    live = np.ones(len(problems), dtype=bool)
    results = [None] * len(problems)

    def final_estimates(leaving):
        # A fresh estimate at the climbed point avoids max-selection bias.
        # One row per call, as a label alone makes it: a one-row product may
        # take another BLAS path than a block of two or more rows, so batching
        # these rows could change their last bits.
        for k in leaving:
            mean, err = estimator.estimate(
                x[k:k + 1], weight_draws, copy.deepcopy(rng) if estimator.draws else rng,
                cols=labels[k:k + 1],
            )
            results[k] = (float(mean[0]), float(err[0]))

    for _ in range(hill_steps):
        improved = np.zeros(len(problems), dtype=bool)
        # a step is zero only on a zero-width coordinate of the box
        movable = live[:, np.newaxis] & (step != 0.0)
        # the round's (coordinate, label) pairs in coordinate order; pair p's
        # trial rows 2p and 2p + 1 move its label's coordinate up and down
        coords, movers = movable.T.nonzero()
        row_coords, row_labels = coords.repeat(2), movers.repeat(2)
        row_shifts = (step[movers, coords, np.newaxis] * _UP_DOWN).reshape(-1)
        p = 0
        while p < coords.size:
            # a pass scores a window of coordinates: one on a net that draws,
            # so each takes its own weight block, else every one left
            q = coords.size
            if estimator.draws:
                q = int(np.searchsorted(coords, coords[p], side="right"))
            cols, at = row_labels[2 * p:2 * q], row_coords[2 * p:2 * q]
            trials = x[cols]
            rows = np.arange(cols.size)
            shifted = trials[rows, at] + row_shifts[2 * p:2 * q]
            # np.clip's bits without its per-call overhead
            trials[rows, at] = np.minimum(np.maximum(shifted, lo[at]), hi[at])
            means, errs = estimator.estimate(trials, climb_draws, rng, points=2, cols=cols)
            chosen = 2 * np.arange(q - p) + np.argmax(means.reshape(-1, 2), axis=1)
            better = means[chosen] > best_val[movers[p:q]]
            if better.any():
                # the pass ends with the first coordinate that improves a label:
                # the later trials were built from the points before that move
                q = int(np.searchsorted(coords, coords[p + np.argmax(better)], side="right"))
                better = better[:q - p]
                up, chosen = movers[p:q][better], chosen[:q - p][better]
                best_val[up], best_err[up] = means[chosen], errs[chosen]
                x[up] = trials[chosen]
                improved[up] = True
            p = q
        halving = live & ~improved
        step[halving] *= 0.5
        leaving = halving & (step.max(axis=1) < floor)
        final_estimates(np.flatnonzero(leaving))
        live &= ~leaving
        if not live.any():
            break
    final_estimates(np.flatnonzero(live))
    return results


def _sub_gaussian_lower_bounds(net, input_set, estimator, n, rng):
    """Best estimate of each objective over a catalog of feasible noise distributions.

    Feasibility means zero mean, i.i.d. coordinates, support inside the
    (possibly clipped) box around the center, and a sub-Gaussian mgf with
    the set's sigma.  Symmetric truncation radii keep the mean at zero
    even when clipping shrinks one side of the box, and symmetric
    truncated Gaussians with scale <= sigma stay sigma-sub-Gaussian; they
    come from :func:`truncated_normal`, the sampler of Gaussian weights.
    A coordinate with radius 0 (a clipped center on the box edge) gets no
    noise.  Each distribution is sampled once, and one forward pass of
    its rows scores every objective.
    """
    center = input_set.center
    box = input_set.support_box()
    radius = np.maximum(np.minimum(center - box.lo, box.hi - center), 0.0)
    scale_cap = min(input_set.sigma, input_set.epsilon)
    dim = center.shape[0]

    def estimate(noise_sampler):
        x = center + noise_sampler(n)
        if estimator.draws:
            # joint (noise, weight) draws: one weight realization per row
            logits = forward(net.layers, x[:, np.newaxis], estimator.draw_all(n, rng))
            values = estimator.values(logits[:, 0])
        else:
            values, _ = estimator.estimate(x, 1, rng)
        # a contiguous row per objective sums as a lone objective's values do
        per_objective = np.ascontiguousarray(values.T)
        mean = per_objective.mean(axis=1)
        stderr = per_objective.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
        return mean, stderr

    samplers = [lambda k: np.zeros((k, dim))]
    if scale_cap > 0.0 and np.any(radius > 0.0):
        for s in (scale_cap, 0.5 * scale_cap):
            samplers.append(lambda k, s=s: truncated_normal(rng, s, radius, k))
        two_point = np.minimum(scale_cap, radius)
        samplers.append(lambda k: two_point * (2.0 * (rng.random((k, dim)) < 0.5) - 1.0))
    best_val = np.full(estimator.labels.size, -math.inf)
    best_err = np.zeros(estimator.labels.size)
    for sampler in samplers:
        val, err = estimate(sampler)
        better = val > best_val
        best_val[better], best_err[better] = val[better], err[better]
    return list(zip(best_val.tolist(), best_err.tolist()))
