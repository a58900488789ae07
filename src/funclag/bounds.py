"""Per-layer boxes via interval arithmetic over inputs and weights.

The propagated boxes contain, with probability 1, every activation that a
network can produce when inputs stay in the given input box and every
random weight stays inside its support interval (truncated support for
Gaussians, the {0, value} hull for dropout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CanonicalNetwork


@dataclass(frozen=True)
class Interval:
    """A box: elementwise lower and upper arrays with lo <= hi, both finite."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must share one shape")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("interval endpoints must be finite")
        if np.any(lo > hi):
            raise ValueError("lo must not exceed hi")


def boxes_to_lists(boxes) -> list:
    """Nested [lo, hi] pairs per layer, the JSON view of a tuple of boxes."""
    return [[[float(lo), float(hi)] for lo, hi in zip(box.lo, box.hi)] for box in boxes]


def interval_affine(x: Interval, w: Interval, b: Interval) -> Interval:
    """Sound interval enclosure of W @ x + b over interval W, x and b.

    Each product W_ij * x_j is bounded by the min/max of its four corner
    products before summation.
    """
    products = np.stack(
        [
            w.lo * x.lo[np.newaxis, :],
            w.lo * x.hi[np.newaxis, :],
            w.hi * x.lo[np.newaxis, :],
            w.hi * x.hi[np.newaxis, :],
        ]
    )
    lo = products.min(axis=0).sum(axis=1) + b.lo
    hi = products.max(axis=0).sum(axis=1) + b.hi
    return Interval(lo, hi)


def interval_activation(x: Interval, activation: str) -> Interval:
    if activation == "relu":
        return Interval(np.maximum(x.lo, 0.0), np.maximum(x.hi, 0.0))
    if activation == "identity":
        return x
    raise ValueError(f"unknown activation {activation!r}")


def propagate_intervals(net: CanonicalNetwork, input_box: Interval) -> tuple[Interval, ...]:
    """The boxes of x_0 (the input) through x_K (the logits).

    Composes weight supports and interval affine maps layer by layer, and
    raises ValueError when a box leaves the finite range; the overflow
    itself is not reported separately.
    """
    if input_box.lo.shape != (net.input_dim,):
        raise ValueError(
            f"input box must have {net.input_dim} coordinates, got {input_box.lo.shape}"
        )
    boxes = [input_box]
    current = input_box
    for layer in net.layers:
        current = interval_activation(current, layer.activation)
        with np.errstate(over="ignore", invalid="ignore"):
            current = interval_affine(
                current, Interval(*layer.weights.support), Interval(*layer.bias.support)
            )
        boxes.append(current)
    return tuple(boxes)
