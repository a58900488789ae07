"""Functional multiplier families and the layer expectations the dual needs.

A multiplier attaches to one layer boundary and maps that layer's
activation vector to a scalar penalty.  For stochastic layers the dual
needs E[lam(W s(x) + b)] over the weight distribution.  Linear and
quadratic multipliers need only the first and second weight moments
(Gaussian: the truncated mean/variance; dropout: v*p and v^2*p*(1-p)),
and the quadratic coefficients of that expectation live here.  Linexp
multipliers sit only on the output of the deterministic input layer, so
no solve takes an expectation of an exponential over random weights.

Every parameter has a leading row axis, one row per problem of a batch;
a parameter given without it is one row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .jsonio import real_array
from .model import CanonicalLayer


class UnsupportedCombination(Exception):
    """No closed form or sound solver exists for this pairing."""


def _rows(x, name: str, ndim: int) -> np.ndarray:
    """A parameter with ndim axes, the first the row axis; one row may omit it."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == ndim - 1:
        arr = arr[np.newaxis]
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {('a scalar', 'a vector')[ndim - 2]} per row")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Linear:
    """lam(x) = theta . x"""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _rows(self.theta, "theta", 2))


@dataclass(frozen=True)
class LinExp:
    """lam(x) = alpha . x + exp(gamma . x + kappa)"""

    alpha: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _rows(self.alpha, "alpha", 2))
        object.__setattr__(self, "gamma", _rows(self.gamma, "gamma", 2))
        object.__setattr__(self, "kappa", _rows(self.kappa, "kappa", 1))
        if self.alpha.shape != self.gamma.shape or self.kappa.shape != self.alpha.shape[:1]:
            raise ValueError("alpha, gamma and kappa need one row count, alpha and gamma a width")


@dataclass(frozen=True)
class Quadratic:
    """lam(x) = 0.5 * x' Q x + q . x with symmetric Q."""

    Q: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        Q = Q[np.newaxis] if Q.ndim == 2 else Q
        if Q.ndim != 3 or Q.shape[1] != Q.shape[2]:
            raise ValueError("Q must be a square matrix per row")
        Qt = Q.swapaxes(1, 2)
        if not np.allclose(Q, Qt, atol=1e-12):
            raise ValueError("Q must be symmetric")
        Q = 0.5 * (Q + Qt)
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", _rows(self.q, "q", 2))
        if self.q.shape != Q.shape[:2]:
            raise ValueError("Q and q dimensions disagree")


Multiplier = Linear | LinExp | Quadratic

# the family name each class is serialized under
_FAMILY_CLASSES = {"linear": Linear, "linexp": LinExp, "quadratic": Quadratic}
_FAMILY_NAMES = {cls: name for name, cls in _FAMILY_CLASSES.items()}
# each family's parameter names in field order, read once rather than per call
_PARAM_NAMES = {cls: tuple(f.name for f in fields(cls)) for cls in _FAMILY_NAMES}


def param_names(lam: Multiplier) -> tuple[str, ...]:
    """The parameter names of a multiplier, in ``get_params`` order."""
    return _PARAM_NAMES[type(lam)]


def rows(lam: Multiplier) -> int:
    """The number of rows of a multiplier."""
    return getattr(lam, _PARAM_NAMES[type(lam)][0]).shape[0]


def take_rows(lam: Multiplier, index) -> Multiplier:
    """The multiplier of the rows picked by ``index`` (an index array or a slice)."""
    return type(lam)(**{name: getattr(lam, name)[index] for name in param_names(lam)})


def as_quadratic(lam: Multiplier, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q, q) per row such that lam(x) = 0.5 x'Qx + q.x, for the quadratic-family views."""
    if isinstance(lam, Linear):
        return np.zeros((rows(lam), width, width)), lam.theta
    if isinstance(lam, Quadratic):
        return lam.Q, lam.q
    raise UnsupportedCombination(
        f"{type(lam).__name__} has no quadratic representation"
    )


def as_quadratic_adjoint(lam: Multiplier, grad_q_mat: np.ndarray, grad_q: np.ndarray) -> dict:
    """Map one row's gradient in the (Q, q) of ``as_quadratic`` onto lam's parameters.

    A quadratic's symmetric off-diagonal pair Q_ij = Q_ji is one tied
    parameter, as the optimizer updates it.
    """
    if isinstance(lam, Linear):
        return {"theta": grad_q}
    tied = grad_q_mat + grad_q_mat.T
    np.fill_diagonal(tied, np.diag(grad_q_mat))
    return {"Q": tied, "q": grad_q}


def linear_coeffs(lam: Multiplier) -> np.ndarray:
    """The theta rows of a linear multiplier."""
    if isinstance(lam, Linear):
        return lam.theta
    raise UnsupportedCombination(f"{type(lam).__name__} is not linear")


def expected_quadratic_coeffs(
    layer: CanonicalLayer, Q: np.ndarray, q: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Coefficients of E[0.5 (Wy+b)'Q(Wy+b) + q.(Wy+b)] as a quadratic in y.

    Returns (c0, m, M) with the expectation equal to
    c0 + m . y + 0.5 * y' M y.  Only first and second weight moments
    enter; the variance terms contribute to the diagonal of M and to c0
    because weight entries are independent.
    """
    w_mean, w_var = layer.weights.mean, layer.weights.variance
    b_mean, b_var = layer.bias.mean, layer.bias.variance
    diag_q = np.diag(Q)
    M = w_mean.T @ Q @ w_mean + np.diag(w_var.T @ diag_q)
    m = w_mean.T @ (q + Q @ b_mean)
    c0 = float(q @ b_mean + 0.5 * (b_mean @ Q @ b_mean + diag_q @ b_var))
    return c0, m, M


def expected_quadratic_coeffs_adjoint(
    layer: CanonicalLayer, grad_m: np.ndarray, grad_big_m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pull a gradient in (c0, m, M) of ``expected_quadratic_coeffs`` back to (Q, q).

    c0 enters with weight one, as it does in every bound built on it.
    """
    w_mean, w_var = layer.weights.mean, layer.weights.variance
    b_mean, b_var = layer.bias.mean, layer.bias.variance
    grad_q_mat = (
        w_mean @ grad_big_m @ w_mean.T
        + np.diag(w_var @ np.diag(grad_big_m))
        + np.outer(w_mean @ grad_m, b_mean)
        + 0.5 * (np.outer(b_mean, b_mean) + np.diag(b_var))
    )
    return grad_q_mat, w_mean @ grad_m + b_mean


def get_params(lam: Multiplier) -> dict[str, np.ndarray]:
    """The trainable parameter arrays of a multiplier, row axis first."""
    return {name: np.array(getattr(lam, name)) for name in param_names(lam)}


def with_params(lam: Multiplier, params: dict[str, np.ndarray]) -> Multiplier:
    """Rebuild a multiplier of the same family from a parameter dict.

    A quadratic's Q is symmetrized first: an update may have moved Q_ij
    and Q_ji apart.
    """
    if isinstance(lam, Quadratic):
        q_mat = np.asarray(params["Q"], dtype=float)
        params = {**params, "Q": 0.5 * (q_mat + q_mat.swapaxes(-1, -2))}
    return type(lam)(**{name: params[name] for name in param_names(lam)})


# --- stacks --------------------------------------------------------------


def stack_to_jsonable(stack) -> list[dict]:
    """The JSON view of a one-row stack: every parameter without its row axis."""
    if any(rows(lam) != 1 for lam in stack):
        raise ValueError("only a one-row stack has a JSON view")
    return [
        {
            "family": _FAMILY_NAMES[type(lam)],
            "params": {name: arr[0].tolist() for name, arr in get_params(lam).items()},
        }
        for lam in stack
    ]


def stack_from_jsonable(entries) -> tuple[Multiplier, ...]:
    """Rebuild a one-row stack; a family's parameters must be exactly its fields, each
    read by ``real_array`` and without the row axis."""
    lams: list[Multiplier] = []
    for entry in entries:
        family = entry["family"]
        cls = _FAMILY_CLASSES.get(family)
        if cls is None:
            raise UnsupportedCombination(f"unknown multiplier family {family!r}")
        names = list(_PARAM_NAMES[cls])
        params = entry["params"]
        if sorted(params) != sorted(names):
            raise ValueError(f"{family} multiplier needs parameters {names}, got {sorted(params)}")
        values = {name: real_array(params[name], f"{family} parameter {name}") for name in names}
        lam = cls(**values)
        for name in names:
            if values[name].ndim == getattr(lam, name).ndim:
                raise ValueError(f"{family} parameter {name} has one axis too many")
        lams.append(lam)
    return tuple(lams)
