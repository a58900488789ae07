"""Dual evaluation and outer minimization of the functional Lagrangian.

The dual value decomposes into per-layer maximizations

    g_0: the input problem over the input set,
    g_k: max_x E[lam_{k+1}(layer_{k+1}(x))] - lam_k(x) over the box X_k,
    g_K: max_x psi(x) - lam_K(x) over the final box,

and the sum upper-bounds the specification optimum for *every* choice of
multipliers (weak duality).  Every inner solve is exact or a sound upper
bound, and a dual evaluation is a pure function of the problem, the
stack and the boxes, so the value that drives a gradient step is also
a value a certificate may hold.

Dispatch has three positions.  A box input problem g_0 is a transition
problem with lam_0 = 0, so g_0 .. g_{K-1} share one transition solver;
the sub-Gaussian input bound is the one special case of position 0, and
g_K has its own solver.  Each solver returns the envelope (Danskin)
gradient of its bound in the adjacent multipliers, and the dual
gradient is their sum.  A pairing no solver supports raises
``UnsupportedCombination``, mostly from the solvers' own coefficient
views (``linear_coeffs``, ``as_quadratic``).
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import inner
from .bounds import Interval, boxes_to_lists, propagate_intervals
from .jsonio import is_real, sha256_of
from .model import CanonicalNetwork, StructureError, model_to_dict
from .multipliers import (
    Linear,
    LinExp,
    Multiplier,
    Quadratic,
    UnsupportedCombination,
    get_params,
    stack_from_jsonable,
    stack_to_jsonable,
    with_params,
    zero_param_grads,
)
from .specs import LogitDiff, SubGaussianNoise, VerificationProblem

@dataclass
class OptimizerConfig:
    """Outer-loop settings; the learning-rate schedule divides by 10."""

    steps: int = 1000
    lr: float = 1e-3
    decay_every: int = 250
    certify_every: int = 50
    early_stop: bool = True


@dataclass
class DualEvaluation:
    """One full dual evaluation: per-layer values, their sum and its gradient.

    ``grads`` holds, per multiplier of the stack, the envelope gradient of
    ``total`` keyed like ``get_params``.
    """

    values: list[float]
    results: list[inner.InnerResult]
    total: float
    grads: list[dict]


def _solve_final(problem, lam_K, box):
    objective = problem.objective
    if isinstance(objective, LogitDiff):
        return inner.final_linear(objective.coefficients(box.lo.shape[0]), lam_K, box)
    if not isinstance(lam_K, Linear):
        raise UnsupportedCombination(
            f"no final-layer solver for {type(lam_K).__name__} with a softmax objective"
        )
    return inner.final_softmax_exact(objective.label, lam_K, box)


def _solve_problem(k, problem, stack, bounds):
    """Solve g_k; on a box input set g_0 is the transition problem with lam_0 = 0."""
    net = problem.network
    K = net.depth
    if k == K:
        return _solve_final(problem, stack[K - 1], bounds[K])
    layer, box, lam_next = net.layers[k], bounds[k], stack[k]
    input_set = problem.input_set
    if k == 0 and isinstance(input_set, SubGaussianNoise):
        if not isinstance(lam_next, LinExp):
            raise UnsupportedCombination("sub-Gaussian input sets need a linexp input multiplier")
        return inner.inner_linexp_input(layer, input_set.center, input_set.sigma, lam_next)
    lam_k = stack[k - 1] if k > 0 else Linear(theta=np.zeros(layer.in_dim))
    if isinstance(lam_k, LinExp):
        return inner.inner_linexp_transition(lam_k, lam_next, layer, box)
    if isinstance(lam_k, Linear) and isinstance(lam_next, Linear):
        return inner.inner_linear(layer, lam_k, lam_next, box)
    return inner.inner_quadratic_bound(layer, lam_k, lam_next, box)


def evaluate_dual(
    problem: VerificationProblem,
    stack: tuple[Multiplier, ...],
    bounds: tuple[Interval, ...],
) -> DualEvaluation:
    """Evaluate the dual at a multiplier stack: a sound bound on the optimum and its gradient.

    The stack holds lam_1 .. lam_K: entry k (0-based) attaches to the
    output of layer k, and the multipliers at the two ends of the dual
    (lam_0 and lam_{K+1}) are identically zero and never stored.  The
    bounds are the boxes of x_0 (the input) through x_K (the logits).
    """
    K = problem.network.depth
    if len(stack) != K:
        raise ValueError(f"stack has {len(stack)} multipliers, network has {K} layers")
    if len(bounds) != K + 1:
        raise ValueError("bounds do not match the network depth")

    results = [_solve_problem(k, problem, stack, bounds) for k in range(K + 1)]
    grads = [zero_param_grads(lam) for lam in stack]
    for k, res in enumerate(results):
        # g_k touches lam_k (stack entry k - 1; g_0's is the fixed zero) and lam_{k+1}
        for i, contribution in zip((k - 1, k), res.grads):
            if contribution and 0 <= i < K:
                for name, value in contribution.items():
                    grads[i][name] = grads[i][name] + np.asarray(value)
    values = [res.value for res in results]
    return DualEvaluation(values=values, results=results, total=float(sum(values)), grads=grads)


# --- outer optimization ---------------------------------------------------


class _Adam:
    """Adam on a list of parameter dicts (beta1 0.9, beta2 0.999, eps 1e-8)."""

    def __init__(self, params: list[dict]):
        self.m = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]
        self.v = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]
        self.t = 0

    def step(self, params: list[dict], grads: list[dict], lr: float) -> list[dict]:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        out = []
        for p, g, m, v in zip(params, grads, self.m, self.v):
            new_p = {}
            for name in p:
                grad = np.asarray(g[name])
                m[name] = b1 * m[name] + (1.0 - b1) * grad
                v[name] = b2 * v[name] + (1.0 - b2) * grad**2
                step = lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
                new_p[name] = p[name] - step
            out.append(new_p)
        return out


def init_stack(problem: VerificationProblem, family: str) -> tuple[Multiplier, ...]:
    """The starting stack of one of the three run families.

    ``linear`` is linear at every boundary; ``linexp`` puts a linexp
    multiplier on the input layer's output and linear ones after it;
    ``quadratic`` is quadratic at every boundary but the logits, which
    stay linear.  Every parameter starts at zero except the linexp kappa,
    which starts at -10 so the exponential term is effectively off.
    """
    widths = [layer.out_dim for layer in problem.network.layers]
    linear = tuple(Linear(theta=np.zeros(n)) for n in widths)
    if family == "linear":
        return linear
    if family == "linexp":
        if not isinstance(problem.input_set, SubGaussianNoise):
            raise UnsupportedCombination("the linexp family needs a sub-Gaussian input set")
        if len(widths) < 2:
            raise UnsupportedCombination("the linexp family needs at least two layers")
        n = widths[0]
        return (LinExp(alpha=np.zeros(n), gamma=np.zeros(n), kappa=-10.0),) + linear[1:]
    if family == "quadratic":
        quadratic = tuple(Quadratic(Q=np.zeros((n, n)), q=np.zeros(n)) for n in widths[:-1])
        return quadratic + linear[-1:]
    raise UnsupportedCombination(f"unknown multiplier family {family!r}")


@dataclass
class Certificate:
    """Machine-checkable outcome of one verification run.

    ``bound`` is the best certified margin (objective bound minus the
    problem threshold), so ``verified`` holds exactly when bound <= 0.
    Trace entries carry raw objective values.
    """

    bound: float
    verified: bool
    stack: tuple[Multiplier, ...]
    trace: list[dict]
    metadata: dict
    fingerprint: dict

    def to_jsonable(self) -> dict:
        return {
            "bound": self.bound,
            "verified": self.verified,
            "trace": self.trace,
            "multipliers": stack_to_jsonable(self.stack),
            "metadata": self.metadata,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_jsonable(cls, doc) -> "Certificate":
        """Load a certificate document; a malformed or inconsistent one raises
        ValueError, and an unknown multiplier family UnsupportedCombination."""
        if not isinstance(doc, dict):
            raise ValueError(f"a certificate is a JSON object, got {type(doc).__name__}")
        bound, verified = doc.get("bound"), doc.get("verified")
        if not isinstance(verified, bool) or not is_real(bound):
            raise ValueError(f"certificate needs a boolean verified and a real bound, "
                             f"got {verified!r} and {bound!r}")
        if not math.isfinite(bound):
            raise ValueError(f"certificate bound {bound!r} is not finite")
        if verified != (bound <= 0.0):
            raise ValueError(f"verified={verified} contradicts bound {bound!r}")
        lams, trace, meta = doc.get("multipliers"), doc.get("trace"), doc.get("metadata")
        digests = doc.get("fingerprint")
        checks = {
            "a non-empty list of multipliers": isinstance(lams, list) and bool(lams),
            "a non-empty trace of objects with an integer step": (
                isinstance(trace, list) and bool(trace)
                and all(isinstance(e, dict) and type(e.get("step")) is int for e in trace)
            ),
            "metadata with a finite threshold and objective_bound = bound + threshold": (
                isinstance(meta, dict) and is_real(meta.get("objective_bound"))
                and is_real(meta.get("threshold")) and math.isfinite(meta["threshold"])
                and meta["objective_bound"] == bound + meta["threshold"]
            ),
            "a fingerprint of exactly model, spec and bounds SHA-256 digests": (
                isinstance(digests, dict) and sorted(digests) == ["bounds", "model", "spec"]
                and all(isinstance(h, str) and re.fullmatch("[0-9a-f]{64}", h)
                        for h in digests.values())
            ),
        }
        for needed, holds in checks.items():
            if not holds:
                raise ValueError(f"certificate needs {needed}")
        try:
            stack = stack_from_jsonable(lams)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"certificate has a malformed multiplier entry: {exc!r}") from exc
        return cls(bound=float(bound), verified=verified, stack=stack, trace=trace,
                   metadata=meta, fingerprint=digests)


def problem_fingerprint(problem: VerificationProblem, bounds: tuple[Interval, ...]) -> dict:
    iset = problem.input_set
    spec_doc = {
        "input_set": {
            "kind": type(iset).__name__,
            "center": iset.center.tolist(),
            "epsilon": iset.epsilon,
            "sigma": getattr(iset, "sigma", None),
            "clip": iset.clip,
        },
        "objective": {
            "kind": type(problem.objective).__name__,
            **(
                {"target": problem.objective.target, "true": problem.objective.true}
                if isinstance(problem.objective, LogitDiff)
                else {"label": problem.objective.label}
            ),
        },
        "threshold": problem.threshold,
    }
    return {
        "model": sha256_of(model_to_dict(problem.network)),
        "spec": sha256_of(spec_doc),
        "bounds": sha256_of(boxes_to_lists(bounds)),
    }


def optimize(
    problem: VerificationProblem,
    config: OptimizerConfig | None = None,
    family: str = "linear",
    bounds: tuple[Interval, ...] | None = None,
    stack: tuple[Multiplier, ...] | None = None,
) -> Certificate:
    """Gradient-based outer minimization with periodic certified values.

    Runs Adam on the multiplier parameters and evaluates each stack once:
    after t updates the dual at stack_t is step t+1's ``train_value``,
    and its gradient takes that step.  At step 0, every
    ``certify_every`` steps and at the last step the same value is step
    t's ``certified_value`` and updates the best sound bound; the run
    stops early as soon as that margin is non-positive.  The certificate
    records the best bound, the stack that achieved it, and the trace.
    A non-finite dual value raises ``FloatingPointError``, and so does a
    numpy overflow or invalid operation after step 0.  An
    ``ArithmeticError`` or a ``np.linalg.LinAlgError`` after step 0 ends
    the run with a ``RuntimeWarning``; the certificate then holds the
    steps completed before it.  One raised at step 0 propagates.
    """
    config = config or OptimizerConfig()
    if config.steps < 0:
        raise ValueError("steps must be non-negative")
    if config.certify_every < 1 or config.decay_every < 1:
        raise ValueError("certify_every and decay_every must be at least 1")
    if not 0.0 < config.lr < math.inf:
        raise ValueError(f"lr must be finite and positive, got {config.lr!r}")
    net = problem.network
    if bounds is None:
        bounds = propagate_intervals(net, problem.support_box())
    if stack is None:
        stack = init_stack(problem, family)

    threshold = problem.threshold
    evaluation = evaluate_dual(problem, stack, bounds)
    value = _finite_total(evaluation)
    trace: list[dict] = [{"step": 0, "train_value": value, "certified_value": value}]
    best_margin = value - threshold
    best_stack = stack

    if config.steps > 0 and (best_margin > 0.0 or not config.early_stop):
        params = [get_params(lam) for lam in stack]
        adam = _Adam(params)
        # an overflow or NaN past step 0 raises FloatingPointError and ends the run
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, config.steps + 1):
                lr = config.lr * (0.1 ** (step // config.decay_every))
                entry = {"step": step, "train_value": value, "certified_value": None}
                try:
                    params = adam.step(params, evaluation.grads, lr)
                    stack = tuple(with_params(lam, p) for lam, p in zip(stack, params))
                    evaluation = evaluate_dual(problem, stack, bounds)
                    value = _finite_total(evaluation)
                except (ArithmeticError, np.linalg.LinAlgError) as exc:
                    # a diverging run keeps the sound bound it already has
                    warnings.warn(
                        f"optimization stopped at step {step} by {type(exc).__name__}: {exc}; "
                        "keeping the best certified bound",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    break
                if step % config.certify_every == 0 or step == config.steps:
                    entry["certified_value"] = value
                    if value - threshold < best_margin:
                        best_margin = value - threshold
                        best_stack = stack
                trace.append(entry)
                if config.early_stop and best_margin <= 0.0:
                    break

    metadata = {
        "family": family,
        "threshold": threshold,
        "objective_bound": best_margin + threshold,
        "gaussian_truncation": _truncation_levels(net),
        "config": {
            "steps": config.steps,
            "lr": config.lr,
            "decay_every": config.decay_every,
            "certify_every": config.certify_every,
            "init": "zeros",
        },
    }
    return Certificate(
        bound=best_margin,
        verified=best_margin <= 0.0,
        stack=best_stack,
        trace=trace,
        metadata=metadata,
        fingerprint=problem_fingerprint(problem, bounds),
    )


def _finite_total(evaluation: DualEvaluation) -> float:
    if not math.isfinite(evaluation.total):
        raise FloatingPointError("the dual value is not finite")
    return evaluation.total


def _truncation_levels(net: CanonicalNetwork) -> list[float | None]:
    """Per layer, the largest Gaussian truncation of its tensors (None: no Gaussian)."""
    return [
        max((d.truncation for d in (layer.weights, layer.bias) if d.truncation is not None),
            default=None)
        for layer in net.layers
    ]


# --- exact multipliers for affine networks --------------------------------


def lambda_star_affine(net: CanonicalNetwork, c) -> tuple[Linear, ...]:
    """The tight linear multipliers for a deterministic affine network.

    Backward recursion lam_K = c . x, lam_k = lam_{k+1}(W_{k+1} x + b_{k+1})
    keeps every multiplier linear (constant offsets telescope out of the
    dual), and the dual evaluates exactly to the specification optimum.
    """
    if not net.is_affine():
        raise StructureError("exact multipliers require an affine deterministic network")
    thetas = [np.asarray(c, dtype=float)]
    for layer in reversed(net.layers[1:]):
        thetas.insert(0, layer.weights.mean.T @ thetas[0])
    return tuple(Linear(theta=t) for t in thetas)
