"""Verifiable specification objects and the AUC aggregation metrics.

Three specification types are supported: adversarial robustness (logit
differences over an epsilon box must stay below zero), robust
out-of-distribution detection (expected softmax confidence of every
label over an epsilon box must stay below p_max), and distributionally
robust OOD detection (the same confidence requirement averaged over a
whole family of zero-mean sub-Gaussian noise distributions around an
OOD center).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import Interval
from .model import CanonicalNetwork


class ConfigError(Exception):
    """A specification config does not describe a valid problem."""


class EmptyInput(Exception):
    """Score aggregation received an empty list."""


def _support_box(center: np.ndarray, epsilon: float, clip: bool) -> Interval:
    """The l_inf ball of radius epsilon around center, clipped to [0, 1] if asked."""
    lo = center - epsilon
    hi = center + epsilon
    if clip:
        lo = np.clip(lo, 0.0, 1.0)
        hi = np.clip(hi, 0.0, 1.0)
    return Interval(lo, hi)


@dataclass(frozen=True)
class BoxOfDeltas:
    """Point-mass inputs anywhere in an l_inf ball, optionally clipped to [0, 1]."""

    center: np.ndarray
    epsilon: float
    clip: bool = True

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")

    def support_box(self) -> Interval:
        return _support_box(self.center, self.epsilon, self.clip)


@dataclass(frozen=True)
class SubGaussianNoise:
    """center + noise for every zero-mean, i.i.d.-coordinate noise family
    member with support radius epsilon and sub-Gaussian parameter sigma."""

    center: np.ndarray
    epsilon: float
    sigma: float
    clip: bool = True

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")
        if not self.sigma >= 0:
            raise ConfigError("sigma must be non-negative")

    def support_box(self) -> Interval:
        return _support_box(self.center, self.epsilon, self.clip)


InputSet = BoxOfDeltas | SubGaussianNoise


@dataclass(frozen=True)
class LogitDiff:
    """psi(p) = E[y_target - y_true]: the adversary's margin objective."""

    target: int
    true: int

    def __post_init__(self):
        if self.target == self.true:
            raise ConfigError("target and true labels must differ")

    def coefficients(self, n_classes: int) -> np.ndarray:
        c = np.zeros(n_classes)
        c[self.target] = 1.0
        c[self.true] = -1.0
        return c


@dataclass(frozen=True)
class ExpectedSoftmax:
    """psi(p) = E[softmax_label(y)]: expected confidence in one label."""

    label: int


SpecObjective = LogitDiff | ExpectedSoftmax


@dataclass(frozen=True)
class VerificationProblem:
    """Network + input set + objective + decision threshold."""

    network: CanonicalNetwork
    input_set: InputSet
    objective: SpecObjective
    threshold: float = 0.0

    def __post_init__(self):
        n = self.network.input_dim
        if self.input_set.center.shape != (n,):
            raise ConfigError(
                f"input center has {self.input_set.center.shape[0]} coordinates, "
                f"network expects {n}"
            )
        labels = (
            (self.objective.target, self.objective.true)
            if isinstance(self.objective, LogitDiff)
            else (self.objective.label,)
        )
        for label in labels:
            if not 0 <= label < self.network.output_dim:
                raise ConfigError(f"label {label} out of range")

    def support_box(self) -> Interval:
        return self.input_set.support_box()


_SPEC_TYPES = ("adversarial", "robust_ood", "dist_robust_ood")


def _number(config: dict, key: str, convert=float):
    """config[key] through ``convert``; missing, non-numeric or non-finite is a ConfigError."""
    try:
        value = convert(config[key])
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be numeric, got {config[key]!r}") from exc
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{key} must be finite, got {config[key]!r}")
    return value


def _label(value) -> int:
    """A class label; int() would read true as 1 and truncate 1.7 to 1."""
    if isinstance(value, bool) or int(value) != float(value):
        raise ConfigError(f"true_label must be an integer, got {value!r}")
    return int(value)


def build_problem(net: CanonicalNetwork, config: dict) -> list[VerificationProblem]:
    """Expand a spec config into its per-target verification problems.

    Adversarial configs with true label i expand to one logit-difference
    problem per other label; both OOD types expand to one expected-softmax
    problem per label, the distributionally robust one over a sub-Gaussian
    noise family instead of a worst-case box.
    """
    if not isinstance(config, dict):
        raise ConfigError("spec config must be an object")
    spec_type = config.get("type")
    if spec_type not in _SPEC_TYPES:
        raise ConfigError(f"type must be one of {_SPEC_TYPES}")
    center = _number(config, "input", lambda v: np.asarray(v, dtype=float))
    epsilon = _number(config, "epsilon")
    if center.ndim != 1 or center.shape[0] != net.input_dim:
        raise ConfigError("input must be a vector matching the network input_dim")
    clip = config.get("clip", True)
    if not isinstance(clip, bool):
        raise ConfigError(f"clip must be true or false, got {clip!r}")

    if spec_type == "adversarial":
        if "true_label" not in config:
            raise ConfigError("adversarial specs need true_label")
        if net.output_dim < 2:
            raise ConfigError("adversarial specs need a model with at least two outputs")
        true_label = _number(config, "true_label", _label)
        if not 0 <= true_label < net.output_dim:
            raise ConfigError("true_label out of range")
        input_set = BoxOfDeltas(center=center, epsilon=epsilon, clip=clip)
        return [
            VerificationProblem(
                network=net,
                input_set=input_set,
                objective=LogitDiff(target=j, true=true_label),
                threshold=0.0,
            )
            for j in range(net.output_dim)
            if j != true_label
        ]

    if "p_max" not in config:
        raise ConfigError("OOD specs need p_max")
    p_max = _number(config, "p_max")
    if not 0.0 < p_max < 1.0:
        raise ConfigError("p_max must lie strictly inside (0, 1)")
    if spec_type == "robust_ood":
        input_set = BoxOfDeltas(center=center, epsilon=epsilon, clip=clip)
    else:
        if "sigma" not in config:
            raise ConfigError("dist_robust_ood specs need sigma")
        input_set = SubGaussianNoise(
            center=center, epsilon=epsilon, sigma=_number(config, "sigma"), clip=clip
        )
    return [
        VerificationProblem(
            network=net,
            input_set=input_set,
            objective=ExpectedSoftmax(label=i),
            threshold=p_max,
        )
        for i in range(net.output_dim)
    ]


def _pairwise_auc(positives: np.ndarray, negatives: np.ndarray) -> float:
    """Mann-Whitney statistic with half credit for ties.

    Over the sorted negatives, the left insertion point of a positive
    counts the negatives it beats and the right one adds its ties, so the
    two sums count each win twice and each tie once.
    """
    negatives = np.sort(negatives)
    below = np.searchsorted(negatives, positives, side="left").sum()
    not_above = np.searchsorted(negatives, positives, side="right").sum()
    return float((below + not_above) / (2.0 * len(positives) * len(negatives)))


def _validate_scores(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput(f"{name} is empty")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def guaranteed_auc(ood_upper_bounds, id_scores) -> float:
    """Lower bound on the true in-vs-out ROC AUC from certified bounds.

    Every true OOD confidence is at most its certified upper bound, and
    the pairwise statistic is antitone in the OOD scores, so scoring the
    OOD samples by their bounds can only lower the AUC.
    """
    bounds = _validate_scores(ood_upper_bounds, "ood_upper_bounds")
    ids = _validate_scores(id_scores, "id_scores")
    return _pairwise_auc(ids, bounds)


def adversarial_auc(ood_attack_scores, id_scores) -> float:
    """Upper bound on the true AUC from heuristic attack confidences.

    Attack scores under-estimate the true worst-case OOD confidence, and
    lowering OOD scores raises the pairwise statistic.
    """
    attacks = _validate_scores(ood_attack_scores, "ood_attack_scores")
    ids = _validate_scores(id_scores, "id_scores")
    return _pairwise_auc(ids, attacks)
