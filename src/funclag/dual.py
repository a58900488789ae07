"""Dual evaluation and outer minimization of the functional Lagrangian.

The dual value decomposes into per-layer maximizations

    g_0: the input problem over the input set,
    g_k: max_x E[lam_{k+1}(layer_{k+1}(x))] - lam_k(x) over the box X_k,
    g_K: max_x psi(x) - lam_K(x) over the final box,

and the sum upper-bounds the specification optimum for *every* choice of
multipliers (weak duality).  Every inner solve is exact or a sound upper
bound, and a dual evaluation is a pure function of the problem, the
stack, the boxes and the solver options, so the value that drives a
gradient step is also a value a certificate may hold.

Dispatch has three positions.  A box input problem g_0 is a transition
problem with lam_0 = 0, so g_0 .. g_{K-1} share one transition solver;
the sub-Gaussian input bound is the one special case of position 0, and
g_K has its own solver.  Every g_k is differentiated by one rule, the
envelope theorem at its maximizer, except where a solver returns its
gradients itself (the linexp input bound and a quadratic bound without
a witness).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import inner
from .bounds import LayerBounds, propagate_intervals
from .inner.result import UPPER_BOUND
from .jsonio import sha256_of
from .model import CanonicalNetwork, StructureError, model_to_dict
from .multipliers import (
    Linear,
    LinExp,
    Multiplier,
    MultiplierStack,
    Quadratic,
    UnsupportedCombination,
    get_params,
    init_stack,
    stack_from_jsonable,
    stack_to_jsonable,
    with_params,
    zero_param_grads,
)
from .specs import LogitDiff, SubGaussianNoise, VerificationProblem

@dataclass
class SolverOptions:
    """Width cap of the exact softmax output solve, grid size of the bound past it."""

    softmax_grid_n: int = 20
    exact_softmax_cap: int = 12


@dataclass
class OptimizerConfig:
    """Outer-loop settings; the learning-rate schedule divides by 10."""

    steps: int = 1000
    lr: float = 1e-3
    decay_every: int = 250
    certify_every: int = 50
    early_stop: bool = True
    options: SolverOptions = field(default_factory=SolverOptions)


@dataclass
class DualEvaluation:
    """One full dual evaluation: per-layer values and their sum."""

    values: list[float]
    results: list[inner.InnerResult]
    total: float


def _witness_grads(lam_prev: Multiplier, lam_next, layer, res: inner.InnerResult):
    """Envelope gradients (grads_prev, grads_next) of g_k at its maximizer.

    g_k = E[lam_next(W s(x) + b)] - lam_prev(x); g_0 has no lam_prev and
    the final problem no lam_next (None), and a missing multiplier gets
    None.  A linexp lam_prev enters the bound through its dual zeta as
    alpha.x + zeta * (gamma.x + kappa).
    """
    witness = res.witness
    grads_prev = None
    if isinstance(lam_prev, LinExp):
        zeta = res.internal_duals["zeta"]
        grads_prev = {"alpha": -witness, "gamma": -zeta * witness, "kappa": -zeta}
    elif isinstance(lam_prev, Linear):
        grads_prev = {"theta": -witness}
    elif isinstance(lam_prev, Quadratic):
        g_q = -np.outer(witness, witness)
        np.fill_diagonal(g_q, -0.5 * witness**2)
        grads_prev = {"Q": g_q, "q": -witness}
    if lam_next is None:
        return grads_prev, None
    s = layer.apply_activation(witness)
    feat = layer.weights.mean @ s + layer.bias.mean
    if isinstance(lam_next, Linear):
        return grads_prev, {"theta": feat}
    var = layer.weights.variance @ s**2 + layer.bias.variance
    if isinstance(lam_next, Quadratic):
        g_q = np.outer(feat, feat)
        np.fill_diagonal(g_q, 0.5 * (feat**2 + var))
        return grads_prev, {"Q": g_q, "q": feat}
    return grads_prev, None


def _solve_transition(lam_k, lam_next, layer, box, want_grads):
    """max_x E[lam_next(layer(x))] - lam_k(x) over the box; lam_k is zero for g_0."""
    if isinstance(lam_k, LinExp):
        if not isinstance(lam_next, Linear):
            raise UnsupportedCombination("linexp multipliers pair with linear successors")
        return inner.inner_linexp_transition(lam_k, lam_next, layer, box), None
    if isinstance(lam_next, LinExp):
        raise UnsupportedCombination("linexp multipliers are input-side only")
    if isinstance(lam_k, Linear) and isinstance(lam_next, Linear):
        return inner.inner_linear(layer, lam_k, lam_next, box), None
    if isinstance(lam_k, (Linear, Quadratic)) and isinstance(lam_next, (Linear, Quadratic)):
        res = inner.inner_quadratic_bound(layer, lam_k, lam_next, box)
        grads = None
        if want_grads and res.witness is None:
            _, *grads = inner.quadratic_param_grads(layer, lam_k, lam_next, box, res.internal_duals)
        return res, grads
    raise UnsupportedCombination(
        f"no middle-layer solver for ({type(lam_k).__name__}, {type(lam_next).__name__})"
    )


def _solve_final(problem, lam_K, box, options):
    objective = problem.objective
    n = box.lo.shape[0]
    if isinstance(objective, LogitDiff):
        if not isinstance(lam_K, Linear):
            raise UnsupportedCombination("logit objectives need a linear final multiplier")
        return inner.final_linear(objective.coefficients(n), lam_K, box), None

    if not isinstance(lam_K, Linear):
        raise UnsupportedCombination(
            f"no final-layer solver for {type(lam_K).__name__} with a softmax objective"
        )
    m = objective.label
    if n <= options.exact_softmax_cap:
        res = inner.final_softmax_exact(m, lam_K, box, cap=options.exact_softmax_cap)
    else:
        res = inner.final_softmax_affine_bound(m, lam_K, box, n_grid=options.softmax_grid_n)
    return res, None


def _solve_problem(k, problem, stack, bounds, options, want_grads):
    """Solve g_k: (result, explicit grads).

    Explicit grads are a (grads_prev, grads_next) pair, returned only where
    the envelope rule at the witness does not apply; otherwise None.
    """
    net = problem.network
    K = net.depth
    if k == K:
        return _solve_final(problem, stack[K - 1], bounds.box(K), options)
    input_set, lam1 = problem.input_set, stack[0]
    if k == 0 and isinstance(input_set, SubGaussianNoise):
        if not isinstance(lam1, LinExp):
            raise UnsupportedCombination("sub-Gaussian input sets need a linexp input multiplier")
        args = (net.layers[0], input_set.center, input_set.sigma, lam1)
        if want_grads:
            value, grads_next = inner.input_param_grads(*args)
            return inner.InnerResult(value=value, mode=UPPER_BOUND), (None, grads_next)
        return inner.inner_linexp_input(*args), None
    if k == 0 and isinstance(lam1, LinExp):
        raise UnsupportedCombination("linexp input multipliers need a noise family")
    lam_k = stack[k - 1] if k > 0 else Linear(theta=np.zeros(net.layers[0].in_dim))
    return _solve_transition(lam_k, stack[k], net.layers[k], bounds.box(k), want_grads)


def evaluate_dual(
    problem: VerificationProblem,
    stack: MultiplierStack,
    bounds: LayerBounds,
    options: SolverOptions | None = None,
) -> DualEvaluation:
    """Evaluate the dual at a multiplier stack: a sound bound on the optimum."""
    evaluation, _ = _evaluate(problem, stack, bounds, options, False)
    return evaluation


def _evaluate(problem, stack, bounds, options, want_grads):
    options = options or SolverOptions()
    net = problem.network
    K = net.depth
    if len(stack) != K:
        raise ValueError(f"stack has {len(stack)} multipliers, network has {K} layers")
    if len(bounds) != K + 1:
        raise ValueError("bounds do not match the network depth")

    results = []
    grads = [zero_param_grads(lam) for lam in stack.lams] if want_grads else None
    for k in range(K + 1):
        res, explicit = _solve_problem(k, problem, stack, bounds, options, want_grads)
        results.append(res)
        if not want_grads:
            continue
        if explicit is None and res.witness is not None:
            lam_prev = stack[k - 1] if k > 0 else None
            lam_next, layer = (stack[k], net.layers[k]) if k < K else (None, None)
            explicit = _witness_grads(lam_prev, lam_next, layer, res)
        grads_prev, grads_next = explicit or (None, None)
        if grads_prev and k >= 1:
            _accumulate(grads[k - 1], grads_prev)
        if grads_next and k <= K - 1:
            _accumulate(grads[k], grads_next)
    values = [res.value for res in results]
    total = float(sum(values))
    return DualEvaluation(values=values, results=results, total=total), grads


def _accumulate(target: dict, contribution: dict) -> None:
    for name, value in contribution.items():
        target[name] = target[name] + np.asarray(value)


def subgradient(
    problem: VerificationProblem,
    stack: MultiplierStack,
    bounds: LayerBounds,
    options: SolverOptions | None = None,
) -> list[dict]:
    """Envelope subgradient of the dual in the stack parameters."""
    _, grads = _evaluate(problem, stack, bounds, options, True)
    return grads


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


def stack_families(problem: VerificationProblem, family: str) -> list[str]:
    """Per-boundary family names realizing one of the three run families."""
    net = problem.network
    K = net.depth
    if family == "linear":
        return ["linear"] * K
    if family == "linexp":
        if not isinstance(problem.input_set, SubGaussianNoise):
            raise UnsupportedCombination("the linexp family needs a sub-Gaussian input set")
        if K < 2:
            raise UnsupportedCombination("the linexp family needs at least two layers")
        return ["linexp"] + ["linear"] * (K - 1)
    if family == "quadratic":
        return ["quadratic"] * (K - 1) + ["linear"]
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
    stack: MultiplierStack
    trace: list[dict]
    metadata: dict
    fingerprint: dict

    def __post_init__(self):
        # documents read back through from_jsonable come from outside
        if not math.isfinite(self.bound):
            raise ValueError(f"certificate bound {self.bound!r} is not finite")
        if self.verified != (self.bound <= 0.0):
            raise ValueError(f"verified={self.verified} contradicts bound {self.bound!r}")

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
    def from_jsonable(cls, doc: dict) -> "Certificate":
        return cls(
            bound=float(doc["bound"]),
            verified=bool(doc["verified"]),
            stack=stack_from_jsonable(doc["multipliers"]),
            trace=doc["trace"],
            metadata=doc["metadata"],
            fingerprint=doc["fingerprint"],
        )


def problem_fingerprint(problem: VerificationProblem, bounds: LayerBounds) -> dict:
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
        "bounds": sha256_of(bounds.to_lists()),
    }


def optimize(
    problem: VerificationProblem,
    config: OptimizerConfig | None = None,
    family: str = "linear",
    bounds: LayerBounds | None = None,
    stack: MultiplierStack | None = None,
) -> Certificate:
    """Gradient-based outer minimization with periodic certified values.

    Runs Adam on the multiplier parameters and evaluates each stack once:
    after t updates the dual at stack_t, with its gradients while steps
    remain, is step t+1's ``train_value``.  At step 0, every
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
    options = config.options
    if config.steps < 0:
        raise ValueError("steps must be non-negative")
    if config.certify_every < 1 or config.decay_every < 1:
        raise ValueError("certify_every and decay_every must be at least 1")
    if not 0.0 < config.lr < math.inf:
        raise ValueError(f"lr must be finite and positive, got {config.lr!r}")
    if options.softmax_grid_n < 2:
        raise ValueError("softmax_grid_n must be at least 2")
    net = problem.network
    if bounds is None:
        bounds = propagate_intervals(net, problem.support_box())
    if stack is None:
        families = stack_families(problem, family)
        stack = init_stack(families, [layer.out_dim for layer in net.layers])

    threshold = problem.threshold
    evaluation, grads = _evaluate(problem, stack, bounds, options, config.steps > 0)
    value = _finite_total(evaluation)
    trace: list[dict] = [{"step": 0, "train_value": value, "certified_value": value}]
    best_margin = value - threshold
    best_stack = stack

    if config.steps > 0 and (best_margin > 0.0 or not config.early_stop):
        params = [get_params(lam) for lam in stack.lams]
        adam = _Adam(params)
        # an overflow or NaN past step 0 raises FloatingPointError and ends the run
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, config.steps + 1):
                lr = config.lr * (0.1 ** (step // config.decay_every))
                entry = {"step": step, "train_value": value, "certified_value": None}
                try:
                    params = adam.step(params, grads, lr)
                    stack = MultiplierStack(
                        lams=tuple(with_params(lam, p) for lam, p in zip(stack.lams, params))
                    )
                    last = step == config.steps
                    evaluation, grads = _evaluate(problem, stack, bounds, options, not last)
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
                if step % config.certify_every == 0 or last:
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
        "exp_bound_variant": "derivation_consistent",
        "weight_moment_semantics": "untruncated_gaussian",
        "softmax_grid_n": options.softmax_grid_n,
        "exact_softmax_cap": options.exact_softmax_cap,
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


def lambda_star_affine(net: CanonicalNetwork, c) -> MultiplierStack:
    """The tight linear multipliers for a deterministic affine network.

    Backward recursion lam_K = c . x, lam_k = lam_{k+1}(W_{k+1} x + b_{k+1})
    keeps every multiplier linear (constant offsets telescope out of the
    dual), and the dual evaluates exactly to the specification optimum.
    """
    if not net.is_affine():
        raise StructureError("exact multipliers require an affine deterministic network")
    c = np.asarray(c, dtype=float)
    thetas = [np.zeros(0)] * net.depth
    theta = c
    for k in range(net.depth - 1, -1, -1):
        thetas[k] = theta
        theta = net.layers[k].weights.mean.T @ theta
    return MultiplierStack(lams=tuple(Linear(theta=t) for t in thetas))
