"""Networks as sequences of possibly stochastic dense layers.

Every layer is stored in the canonical "activation, then affine" form

    x_{k+1} = W * s(x_k) + b

where ``s`` is ``identity`` or ``relu`` and both ``W`` and ``b`` may be
random: deterministic matrices, entrywise-independent diagonal Gaussians
truncated at a fixed number of standard deviations, or Bernoulli dropout
masks applied to a value matrix.  The first layer always has an identity
activation so that raw inputs enter an affine map directly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union

import numpy as np

from .jsonio import is_real, real_array


class ModelError(Exception):
    """Base class for model construction and loading failures."""


class ParseError(ModelError):
    """The model file is not valid JSON."""


class SchemaError(ModelError):
    """The model file does not match the documented schema."""


class ShapeError(ModelError):
    """Matrix shapes within or across layers do not compose."""


class StructureError(ModelError):
    """A layer sequence does not form a valid canonical network."""


_ACTIVATIONS = ("identity", "relu")


def _as_array(values, what: str, ndim: int | None = None) -> np.ndarray:
    arr = real_array(values, what)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _truncated_variance_factor(a: float) -> float:
    """Variance of a standard normal truncated to [-a, a]: 1 - 2 a phi(a) / (2 Phi(a) - 1).

    The direct form cancels for small ``a``; there its series takes over.
    """
    if a < 1e-2:
        return a * a / 3.0 - 2.0 * a**4 / 45.0
    density = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return 1.0 - 2.0 * a * density / math.erf(a / math.sqrt(2.0))


# A weight kind owns its semantics: the first two moments the dual reads
# (``mean``, ``variance``), the bounded ``support`` the boxes read and the
# ``realize`` of every draw.  ``noise`` names the shared block of draws
# ``realize`` takes its entries from (None: deterministic, draws nothing), and
# ``truncation`` the Gaussian cut in standard deviations (None: no tail).


@dataclass(frozen=True)
class Deterministic:
    """A point-mass weight: always equal to ``values``."""

    values: np.ndarray

    noise = None
    truncation = None

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, "values"))

    @property
    def shape(self):
        return self.values.shape

    @property
    def mean(self) -> np.ndarray:
        return self.values

    @property
    def variance(self) -> np.ndarray:
        return np.zeros_like(self.values)

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values, self.values

    def is_point_mass(self) -> bool:
        return True

    def realize(self, noise) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class DiagonalGaussian:
    """Entrywise-independent Gaussian weights N(mean, stddev^2) truncated
    to mean +- truncation * stddev.

    The truncated distribution is the only one: its support bounds the
    boxes, its moments enter the dual and every draw lies inside it.
    """

    mean: np.ndarray
    stddev: np.ndarray
    truncation: float = 3.0

    noise = "normal"

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_array(self.mean, "mean"))
        object.__setattr__(self, "stddev", _as_array(self.stddev, "stddev"))
        object.__setattr__(self, "truncation", float(_as_array(self.truncation, "truncation", 0)))
        if self.stddev.shape != self.mean.shape:
            raise ShapeError("mean and stddev must share one shape")
        if np.any(self.stddev < 0):
            raise ValueError("stddev entries must be non-negative")
        if not self.truncation > 0:
            raise ValueError("truncation multiplier must be positive")

    @property
    def shape(self):
        return self.mean.shape

    @property
    def variance(self) -> np.ndarray:
        return self.stddev**2 * _truncated_variance_factor(self.truncation)

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        radius = self.truncation * self.stddev
        return self.mean - radius, self.mean + radius

    def is_point_mass(self) -> bool:
        return bool(np.all(self.stddev == 0))

    def realize(self, noise: np.ndarray) -> np.ndarray:
        """Draws from standard-normal ``noise`` of shape (take, *shape), already cut."""
        return self.mean + self.stddev * noise


@dataclass(frozen=True)
class Dropout:
    """Dropout weights: values * Bernoulli(keep), independently per entry.

    ``keep`` is the probability that an entry is *retained*, so the mean
    is ``values * keep``.
    """

    values: np.ndarray
    keep: np.ndarray

    noise = "uniform"
    truncation = None

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, "values"))
        object.__setattr__(self, "keep", _as_array(self.keep, "keep"))
        if self.keep.shape != self.values.shape:
            raise ShapeError("values and keep must share one shape")
        if np.any(self.keep < 0) or np.any(self.keep > 1):
            raise ValueError("keep probabilities must lie in [0, 1]")

    @property
    def shape(self):
        return self.values.shape

    @property
    def mean(self) -> np.ndarray:
        return self.values * self.keep

    @property
    def variance(self) -> np.ndarray:
        return self.values**2 * self.keep * (1.0 - self.keep)

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Hull of {0, value}, collapsing at keep = 0 or keep = 1."""
        lo = np.where(self.keep == 1.0, self.values, np.minimum(self.values, 0.0))
        hi = np.where(self.keep == 1.0, self.values, np.maximum(self.values, 0.0))
        return np.where(self.keep == 0.0, 0.0, lo), np.where(self.keep == 0.0, 0.0, hi)

    def is_point_mass(self) -> bool:
        return bool(np.all((self.keep == 0) | (self.keep == 1)))

    def realize(self, noise: np.ndarray) -> np.ndarray:
        """Masked values from uniform ``noise`` of shape (take, *shape)."""
        return self.values * (noise < self.keep)


WeightDistribution = Union[Deterministic, DiagonalGaussian, Dropout]

# the kind name each class is serialized under
_KIND_CLASSES = {"deterministic": Deterministic, "gaussian": DiagonalGaussian, "dropout": Dropout}
_KIND_NAMES = {cls: name for name, cls in _KIND_CLASSES.items()}


@dataclass(frozen=True)
class CanonicalLayer:
    """One canonical layer: x -> W * s(x) + b with s applied to the input."""

    activation: str
    weights: WeightDistribution
    bias: WeightDistribution

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if len(self.weights.shape) != 2:
            raise ShapeError("weights must be a matrix")
        if len(self.bias.shape) != 1:
            raise ShapeError("bias must be a vector")
        if self.bias.shape[0] != self.out_dim:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} does not match output dim {self.out_dim}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def apply_activation(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0) if self.activation == "relu" else x

    def is_deterministic(self) -> bool:
        return self.weights.is_point_mass() and self.bias.is_point_mass()


@dataclass(frozen=True)
class CanonicalNetwork:
    """An ordered sequence of canonical layers; immutable after creation."""

    layers: tuple[CanonicalLayer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise StructureError("network must contain at least one layer")
        if layers[0].activation != "identity":
            raise StructureError("layer 0 must have an identity activation")
        for i in range(1, len(layers)):
            if layers[i].in_dim != layers[i - 1].out_dim:
                raise ShapeError(
                    f"layer {i} expects {layers[i].in_dim} inputs but layer "
                    f"{i - 1} produces {layers[i - 1].out_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def depth(self) -> int:
        return len(self.layers)

    def is_deterministic(self) -> bool:
        return all(layer.is_deterministic() for layer in self.layers)


# --- JSON model format -------------------------------------------------

def _check_keys(obj: dict, expected: set, what: str) -> None:
    keys = set(obj)
    missing = expected - keys
    extra = keys - expected
    if missing:
        raise SchemaError(f"{what}: missing fields {sorted(missing)}")
    if extra:
        raise SchemaError(f"{what}: unexpected fields {sorted(extra)}")


def _weights_from_dict(obj, ndim: int, what: str) -> WeightDistribution:
    """A weight object: its ``kind`` name plus exactly the fields of that kind."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object")
    kind = obj.get("kind")
    cls = _KIND_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"{what}: kind must be one of {sorted(_KIND_CLASSES)}")
    names = [f.name for f in fields(cls)]
    _check_keys(obj, {"kind", *names}, what)
    try:
        dist = cls(**{name: obj[name] for name in names})
    except (ShapeError, ValueError) as exc:
        raise type(exc)(f"{what}: {exc}") from exc
    if len(dist.shape) != ndim:
        raise ShapeError(f"{what} must be {ndim}-dimensional, got shape {dist.shape}")
    return dist


def _weights_to_dict(dist: WeightDistribution) -> dict:
    return {
        "kind": _KIND_NAMES[type(dist)],
        **{f.name: np.asarray(getattr(dist, f.name)).tolist() for f in fields(dist)},
    }


def load_model(path) -> CanonicalNetwork:
    """Load and validate a canonical network from its JSON file format.

    The document must carry exactly the keys ``input_dim`` and ``layers``;
    each layer carries ``activation``, ``weights`` and ``bias`` where the
    weight objects follow the deterministic/gaussian/dropout schema.
    Raises :class:`ParseError`, :class:`SchemaError`, :class:`ShapeError`
    or :class:`ValueError` depending on what is wrong.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    _check_keys(doc, {"input_dim", "layers"}, "model")
    input_dim = doc["input_dim"]
    if not (is_real(input_dim) and isinstance(input_dim, int)) or input_dim <= 0:
        raise SchemaError("input_dim must be a positive integer")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise SchemaError("layers must be a non-empty list")

    layers = []
    for i, entry in enumerate(doc["layers"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"layer {i} must be an object")
        _check_keys(entry, {"activation", "weights", "bias"}, f"layer {i}")
        if entry["activation"] not in _ACTIVATIONS:
            raise SchemaError(f"layer {i}: activation must be one of {_ACTIVATIONS}")
        weights = _weights_from_dict(entry["weights"], 2, f"layer {i} weights")
        bias = _weights_from_dict(entry["bias"], 1, f"layer {i} bias")
        layers.append(
            CanonicalLayer(activation=entry["activation"], weights=weights, bias=bias)
        )

    if layers[0].activation != "identity":
        raise SchemaError("layer 0 must have an identity activation")
    if layers[0].in_dim != doc["input_dim"]:
        raise ShapeError(
            f"layer 0 expects {layers[0].in_dim} inputs but input_dim is {doc['input_dim']}"
        )
    return CanonicalNetwork(layers=tuple(layers))


def model_to_dict(net: CanonicalNetwork) -> dict:
    """Inverse of :func:`load_model`: dump a network to its JSON document."""
    return {
        "input_dim": net.input_dim,
        "layers": [
            {
                "activation": layer.activation,
                "weights": _weights_to_dict(layer.weights),
                "bias": _weights_to_dict(layer.bias),
            }
            for layer in net.layers
        ],
    }


# --- forward passes ----------------------------------------------------


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(layers, h: np.ndarray, weights) -> np.ndarray:
    """Outputs of ``layers`` at the rows of ``h`` (..., N, in) under realized weights.

    ``weights`` holds one realized (W, b) pair per layer, from
    :func:`mean_weights` or a :class:`WeightDraws` call.
    A pair is either one (out, in) matrix and (out,) vector applied to
    every row, or a stack of ``take`` draws, (take, out, in) and
    (take, out), each applied to every row of its slice of ``h``.
    """
    out = h
    for layer, (w, b) in zip(layers, weights):
        out = layer.apply_activation(out) @ w.swapaxes(-1, -2) + b[..., np.newaxis, :]
    return out


def mean_weights(layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """The mean (W, b) of every layer."""
    return [(layer.weights.mean, layer.bias.mean) for layer in layers]


def truncated_normal(rng, scale: float, radius: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` rows of N(0, scale^2) draws cut at +-radius, column by column.

    One block of ``scale`` times standard normals, then only the entries
    past their cut are redrawn, in C order: first by fresh normals where
    the radius is at least the scale, then the rest by uniforms u on
    [-r, r] kept with probability exp(-u^2 / 2 scale^2) >= e^-1/2, so a
    small radius takes few rounds and a radius of 0 gives 0.  With no
    radius below the scale, ``rng`` is consumed by the normals alone.
    """
    # weight draws (unit scale, no cut below 1) skip scaling and splitting
    block = rng.standard_normal((rows, radius.size))
    if scale != 1.0:
        block *= scale
    flat = block.reshape(-1)
    wide = (np.abs(block) > radius).reshape(-1).nonzero()[0]
    thin = wide[:0]
    if np.any(radius < scale):
        narrow = radius[wide % radius.size] < scale
        wide, thin = wide[~narrow], wide[narrow]
    while wide.size:
        flat[wide] = scale * rng.standard_normal(wide.size)
        wide = wide[np.abs(flat[wide]) > radius[wide % radius.size]]
    while thin.size:
        u = radius[thin % radius.size] * rng.uniform(-1.0, 1.0, thin.size)
        flat[thin] = u
        thin = thin[rng.random(thin.size) >= np.exp(-0.5 * (u / scale) ** 2)]
    return block


class WeightDraws:
    """``take`` draws of every (W, b) of ``layers``, stacked on a leading axis.

    One block of standard normals cut at each tensor's truncation
    (:func:`truncated_normal`) covers the Gaussian entries of all draws,
    draw by draw in layer order (weights before bias), and one uniform
    block the dropout entries; a deterministic tensor draws nothing and
    stays unstacked.  So every Gaussian draw lies in the support the
    boxes enclose.  Without Gaussian tensors, ``rng`` is consumed exactly
    as by ``take`` successive draws.  The blocks' widths, cuts and
    columns depend on the layers alone and are laid out once, so a
    caller drawing again and again builds one ``WeightDraws``.
    """

    def __init__(self, layers):
        self.tensors = [dist for layer in layers for dist in (layer.weights, layer.bias)]
        # per tensor, the columns of its entries in its noise kind's block
        self.columns = [None] * len(self.tensors)
        widths = {}
        for noise in ("normal", "uniform"):
            drawn = [i for i, dist in enumerate(self.tensors) if dist.noise == noise]
            sizes = [math.prod(self.tensors[i].shape) for i in drawn]
            for i, size, end in zip(drawn, sizes, itertools.accumulate(sizes)):
                self.columns[i] = slice(end - size, end)
            widths[noise] = sizes
        # the normal block's cut per column, the uniform block's width
        self.cuts = np.array([dist.truncation for dist in self.tensors
                              if dist.noise == "normal"]).repeat(widths["normal"])
        self.uniform_width = sum(widths["uniform"])

    def __call__(self, take: int, rng: np.random.Generator) -> list[tuple]:
        blocks = {}
        if self.cuts.size:
            blocks["normal"] = truncated_normal(rng, 1.0, self.cuts, take)
        if self.uniform_width:
            blocks["uniform"] = rng.random((take, self.uniform_width))
        realized = iter([
            dist.realize(blocks[dist.noise][:, cols].reshape((take, *dist.shape))
                         if dist.noise else None)
            for dist, cols in zip(self.tensors, self.columns)
        ])
        return list(zip(realized, realized))
