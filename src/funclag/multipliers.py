"""Functional multiplier families and the layer expectations the dual needs.

A multiplier attaches to one layer boundary and maps that layer's
activation vector to a scalar penalty.  For stochastic layers the dual
needs E[lam(W s(x) + b)] over the weight distribution.  Linear and
quadratic multipliers need only the first and second weight moments
(Gaussian: mean/variance; dropout: v*p and v^2*p*(1-p)), and the
quadratic coefficients of that expectation live here.  Linexp
multipliers sit only on the output of the deterministic input layer, so
no solve takes an expectation of an exponential over random weights.

Gaussian expectations deliberately use the *untruncated* moments even
though sampling and support boxes are truncated; the certified output
records this via its metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import CanonicalLayer, weight_mean, weight_variance


class UnsupportedCombination(Exception):
    """No closed form or sound solver exists for this pairing."""


def _vec(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Linear:
    """lam(x) = theta . x"""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _vec(self.theta, "theta"))


@dataclass(frozen=True)
class LinExp:
    """lam(x) = alpha . x + exp(gamma . x + kappa)"""

    alpha: np.ndarray
    gamma: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _vec(self.alpha, "alpha"))
        object.__setattr__(self, "gamma", _vec(self.gamma, "gamma"))
        object.__setattr__(self, "kappa", float(self.kappa))
        if self.alpha.shape != self.gamma.shape:
            raise ValueError("alpha and gamma must share one length")


@dataclass(frozen=True)
class Quadratic:
    """lam(x) = 0.5 * x' Q x + q . x with symmetric Q."""

    Q: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", _vec(self.q, "q"))
        if self.q.shape[0] != Q.shape[0]:
            raise ValueError("Q and q dimensions disagree")


Multiplier = Linear | LinExp | Quadratic

# the family name each class is serialized under
_FAMILY_CLASSES = {"linear": Linear, "linexp": LinExp, "quadratic": Quadratic}
_FAMILY_NAMES = {cls: name for name, cls in _FAMILY_CLASSES.items()}


def as_quadratic(lam: Multiplier, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q, q) such that lam(x) = 0.5 x'Qx + q.x, for the quadratic-family views."""
    if isinstance(lam, Linear):
        return np.zeros((width, width)), lam.theta
    if isinstance(lam, Quadratic):
        return lam.Q, lam.q
    raise UnsupportedCombination(
        f"{type(lam).__name__} has no quadratic representation"
    )


def as_quadratic_adjoint(lam: Multiplier, grad_q_mat: np.ndarray, grad_q: np.ndarray) -> dict:
    """Map a gradient in the (Q, q) of ``as_quadratic`` onto lam's parameters.

    A quadratic's symmetric off-diagonal pair Q_ij = Q_ji is one tied
    parameter, as the optimizer updates it.
    """
    if isinstance(lam, Linear):
        return {"theta": grad_q}
    tied = grad_q_mat + grad_q_mat.T
    np.fill_diagonal(tied, np.diag(grad_q_mat))
    return {"Q": tied, "q": grad_q}


def linear_coeffs(lam: Multiplier) -> np.ndarray:
    """The theta vector of a linear multiplier."""
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
    w_mean = weight_mean(layer.weights)
    w_var = weight_variance(layer.weights)
    b_mean = weight_mean(layer.bias)
    b_var = weight_variance(layer.bias)
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
    w_mean = weight_mean(layer.weights)
    w_var = weight_variance(layer.weights)
    b_mean = weight_mean(layer.bias)
    b_var = weight_variance(layer.bias)
    grad_q_mat = (
        w_mean @ grad_big_m @ w_mean.T
        + np.diag(w_var @ np.diag(grad_big_m))
        + np.outer(w_mean @ grad_m, b_mean)
        + 0.5 * (np.outer(b_mean, b_mean) + np.diag(b_var))
    )
    return grad_q_mat, w_mean @ grad_m + b_mean


def get_params(lam: Multiplier) -> dict[str, np.ndarray]:
    """The trainable parameter arrays of a multiplier (kappa as a 0-d array)."""
    return {f.name: np.array(getattr(lam, f.name)) for f in fields(lam)}


def with_params(lam: Multiplier, params: dict[str, np.ndarray]) -> Multiplier:
    """Rebuild a multiplier of the same family from a parameter dict.

    A quadratic's Q is symmetrized first: an update may have moved Q_ij
    and Q_ji apart.
    """
    if isinstance(lam, Quadratic):
        q_mat = np.asarray(params["Q"], dtype=float)
        params = {**params, "Q": 0.5 * (q_mat + q_mat.T)}
    return type(lam)(**{f.name: params[f.name] for f in fields(lam)})


def zero_param_grads(lam: Multiplier) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in get_params(lam).items()}


# --- stacks --------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierStack:
    """One multiplier per layer boundary, lam_1 .. lam_K.

    Entry k (0-based) attaches to the output of layer k; the multipliers
    at the two ends of the dual (lam_0 and lam_{K+1}) are identically
    zero and never stored.
    """

    lams: tuple[Multiplier, ...]

    def __post_init__(self):
        object.__setattr__(self, "lams", tuple(self.lams))

    def __len__(self) -> int:
        return len(self.lams)

    def __getitem__(self, i: int) -> Multiplier:
        return self.lams[i]


DEFAULT_LINEXP_KAPPA = -10.0


def init_stack(families, widths) -> MultiplierStack:
    """The initial stack, one family name per boundary.

    Every parameter starts at zero except the linexp kappa, which starts
    at a large negative value so the exponential term is effectively off.
    """
    if len(families) != len(widths):
        raise ValueError("families and widths must have equal length")
    lams: list[Multiplier] = []
    for family, width in zip(families, widths):
        if family == "linear":
            lams.append(Linear(theta=np.zeros(width)))
        elif family == "linexp":
            lams.append(
                LinExp(alpha=np.zeros(width), gamma=np.zeros(width), kappa=DEFAULT_LINEXP_KAPPA)
            )
        elif family == "quadratic":
            lams.append(Quadratic(Q=np.zeros((width, width)), q=np.zeros(width)))
        else:
            raise ValueError(f"unknown multiplier family {family!r}")
    return MultiplierStack(lams=tuple(lams))


def stack_to_jsonable(stack: MultiplierStack) -> list[dict]:
    return [
        {
            "family": _FAMILY_NAMES[type(lam)],
            "params": {name: arr.tolist() for name, arr in get_params(lam).items()},
        }
        for lam in stack.lams
    ]


def stack_from_jsonable(entries) -> MultiplierStack:
    """Rebuild a stack; a family's parameters must be exactly its fields, all finite."""
    lams: list[Multiplier] = []
    for entry in entries:
        family = entry["family"]
        cls = _FAMILY_CLASSES.get(family)
        if cls is None:
            raise UnsupportedCombination(f"unknown multiplier family {family!r}")
        names = [f.name for f in fields(cls)]
        params = entry["params"]
        if sorted(params) != sorted(names):
            raise ValueError(f"{family} multiplier needs parameters {names}, got {sorted(params)}")
        values = {name: np.asarray(params[name], dtype=float) for name in names}
        if not all(np.isfinite(arr).all() for arr in values.values()):
            raise ValueError(f"{family} multiplier has a non-finite parameter")
        lams.append(cls(**values))
    return MultiplierStack(lams=tuple(lams))
