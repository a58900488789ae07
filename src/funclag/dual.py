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

A batch of problems (the labels of one spec) shares one dual evaluation:
each multiplier has one row per problem, each layer is solved once for
all rows, and every row gets the bits it gets alone.  The outer loop
keeps Adam's state as four (rows, P) arrays, every parameter of the
stack flattened into columns in ``get_params`` order, so a step is a
few whole-array operations and a row leaves the state by one indexing.

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
from dataclasses import asdict, dataclass

import numpy as np

from . import inner
from .bounds import Interval, boxes_to_lists, propagate_intervals
from .jsonio import is_real, sha256_of
from .model import CanonicalNetwork, model_to_dict
from .multipliers import (
    Linear,
    LinExp,
    Multiplier,
    Quadratic,
    UnsupportedCombination,
    get_params,
    param_names,
    rows,
    stack_from_jsonable,
    stack_to_jsonable,
    with_params,
)
from .specs import LogitDiff, SubGaussianNoise, VerificationProblem

@dataclass
class OptimizerConfig:
    """Outer-loop settings: Adam runs ``steps`` steps at ``lr``, divided by 10 every
    ``decay_every`` steps; with ``early_stop`` a row stops at its first non-positive
    margin."""

    steps: int = 1000
    lr: float = 1e-3
    decay_every: int = 250
    early_stop: bool = True


@dataclass
class DualEvaluation:
    """One full dual evaluation of a batch: per-layer values, their sums and gradients.

    Each value and ``total`` hold one entry per row.  ``grads`` holds, per
    multiplier of the stack, the envelope gradient of ``total`` keyed like ``get_params``.
    """

    values: list[np.ndarray]
    results: list[inner.InnerResult]
    total: np.ndarray
    grads: list[dict]


def _solve_final(problems, lam_K, box):
    if isinstance(problems[0].objective, LogitDiff):
        c = np.array([p.objective.coefficients(box.lo.shape[0]) for p in problems])
        return inner.final_linear(c, lam_K, box)
    if not isinstance(lam_K, Linear):
        raise UnsupportedCombination(
            f"no final-layer solver for {type(lam_K).__name__} with a softmax objective"
        )
    return inner.final_softmax_exact([p.objective.label for p in problems], lam_K, box)


def _solve_problem(k, problems, stack, bounds):
    """Solve g_k for every row; on a box input set g_0 is the transition problem with lam_0 = 0."""
    net = problems[0].network
    K = net.depth
    if k == K:
        return _solve_final(problems, stack[K - 1], bounds[K])
    layer, box, lam_next = net.layers[k], bounds[k], stack[k]
    input_set = problems[0].input_set
    if k == 0 and isinstance(input_set, SubGaussianNoise):
        if not isinstance(lam_next, LinExp):
            raise UnsupportedCombination("sub-Gaussian input sets need a linexp input multiplier")
        return inner.inner_linexp_input(layer, input_set.center, input_set.sigma, lam_next)
    lam_k = stack[k - 1] if k > 0 else Linear(theta=np.zeros((len(problems), layer.in_dim)))
    if isinstance(lam_k, LinExp):
        return inner.inner_linexp_transition(lam_k, lam_next, layer, box)
    if isinstance(lam_k, Linear) and isinstance(lam_next, Linear):
        return inner.inner_linear(layer, lam_k, lam_next, box)
    return inner.inner_quadratic_bound(layer, lam_k, lam_next, box)


def evaluate_dual(
    problems: list[VerificationProblem],
    stack: tuple[Multiplier, ...],
    bounds: tuple[Interval, ...],
) -> DualEvaluation:
    """Evaluate the dual at a multiplier stack: per row, a sound bound and its gradient.

    The problems share one network, one input set and one objective
    kind, and each multiplier holds one row per problem.  The stack holds
    lam_1 .. lam_K: entry k (0-based) attaches to the output of layer k,
    and the multipliers at the two ends of the dual (lam_0 and lam_{K+1})
    are identically zero and never stored.  The bounds are the boxes of
    x_0 (the input) through x_K (the logits).
    """
    first = problems[0]
    if any(p.network is not first.network or p.input_set is not first.input_set
           or type(p.objective) is not type(first.objective) for p in problems):
        raise ValueError("the problems must share a network, an input set and an objective kind")
    K = first.network.depth
    if len(stack) != K:
        raise ValueError(f"stack has {len(stack)} multipliers, network has {K} layers")
    if any(rows(lam) != len(problems) for lam in stack):
        raise ValueError(f"the stack must have one row per problem ({len(problems)})")
    if len(bounds) != K + 1:
        raise ValueError("bounds do not match the network depth")

    results = [_solve_problem(k, problems, stack, bounds) for k in range(K + 1)]
    sums = [{} for _ in stack]
    for k, res in enumerate(results):
        # g_k touches lam_k (stack entry k - 1; g_0's is the fixed zero) and lam_{k+1}
        for i, contribution in zip((k - 1, k), res.grads):
            if contribution and 0 <= i < K:
                for name, value in contribution.items():
                    # the first term adds to 0.0, which turns a -0.0 into 0.0 as a zero array does
                    sums[i][name] = sums[i].get(name, 0.0) + np.asarray(value)
    grads = [
        {name: sums[i][name] if name in sums[i] else np.zeros_like(getattr(lam, name))
         for name in param_names(lam)}
        for i, lam in enumerate(stack)
    ]
    values = [res.value for res in results]
    total = np.array([sum(row) for row in zip(*(v.tolist() for v in values))])
    return DualEvaluation(values=values, results=results, total=total, grads=grads)


# --- outer optimization ---------------------------------------------------


def _param_layout(stack: tuple[Multiplier, ...]) -> list[list[tuple]]:
    """Where each parameter sits in the columns of the optimizer's (rows, P) arrays: per
    multiplier, (name, shape without the row axis, start, stop) in ``get_params`` order."""
    layout, start = [], 0
    for lam in stack:
        entry = []
        for name, arr in get_params(lam).items():
            stop = start + math.prod(arr.shape[1:])
            entry.append((name, arr.shape[1:], start, stop))
            start = stop
        layout.append(entry)
    return layout


def _flat(parts: list[dict]) -> np.ndarray:
    """Per-multiplier dicts of row arrays as one (rows, P) array, in layout order."""
    return np.concatenate([arr.reshape(arr.shape[0], -1)
                           for part in parts for arr in part.values()], axis=1)


def _stack_of(stack: tuple[Multiplier, ...], layout: list[list[tuple]],
              params: np.ndarray) -> tuple[Multiplier, ...]:
    """The stack of ``stack``'s families whose rows are the rows of ``params`` (rows, P),
    laid out by ``layout``."""
    # each parameter copied out contiguous, the layout the solvers' products always had
    return tuple(
        with_params(lam, {name: np.ascontiguousarray(params[:, start:stop]).reshape(-1, *shape)
                          for name, shape, start, stop in entry})
        for lam, entry in zip(stack, layout)
    )


def _advance(problems, stack, bounds, layout, state, t, lr):
    """Step t for a batch: one Adam step (beta1 0.9, beta2 0.999, eps 1e-8) on the state
    (params, grads, m, v), four (rows, P) arrays laid out by ``layout``, then the dual at the
    new stack; returns the new state and the finite totals."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    params, grads, m, v = state
    m = b1 * m + (1.0 - b1) * grads
    v = b2 * v + (1.0 - b2) * grads**2
    params = params - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    evaluation = evaluate_dual(problems, _stack_of(stack, layout, params), bounds)
    return (params, _flat(evaluation.grads), m, v), _finite_totals(evaluation)


FAMILIES = ("linear", "linexp", "quadratic")


def family_layout(family: str, depth: int) -> tuple[type, ...]:
    """The multiplier kinds of a run family's stack on a network of ``depth`` layers.

    ``linear`` is linear at every boundary; ``linexp`` puts a linexp
    multiplier on the input layer's output and linear ones after it;
    ``quadratic`` is quadratic at every boundary but the logits, which
    stay linear.
    """
    if family == "linear":
        return (Linear,) * depth
    if family == "linexp":
        if depth < 2:
            raise UnsupportedCombination("the linexp family needs at least two layers")
        return (LinExp,) + (Linear,) * (depth - 1)
    if family == "quadratic":
        return (Quadratic,) * (depth - 1) + (Linear,)
    raise UnsupportedCombination(f"unknown multiplier family {family!r}")


def init_stack(problems: list[VerificationProblem], family: str) -> tuple[Multiplier, ...]:
    """The starting stack of one of the run families (``family_layout``), one row per
    problem.  Every parameter starts at zero except the linexp kappa, which starts at
    -10 so the exponential term is effectively off.
    """
    b = len(problems)
    widths = [layer.out_dim for layer in problems[0].network.layers]
    if family == "linexp" and not isinstance(problems[0].input_set, SubGaussianNoise):
        raise UnsupportedCombination("the linexp family needs a sub-Gaussian input set")
    zeros = {
        Linear: lambda n: Linear(theta=np.zeros((b, n))),
        LinExp: lambda n: LinExp(alpha=np.zeros((b, n)), gamma=np.zeros((b, n)),
                                 kappa=np.full(b, -10.0)),
        Quadratic: lambda n: Quadratic(Q=np.zeros((b, n, n)), q=np.zeros((b, n))),
    }
    return tuple(zeros[kind](n) for kind, n in zip(family_layout(family, len(widths)), widths))


def _is_count(value, least: int) -> bool:
    """An integer (not a bool) of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _laid_out(stack: tuple[Multiplier, ...], family: str) -> bool:
    """True when ``stack`` has the multiplier kinds ``init_stack`` gives ``family``."""
    try:
        return tuple(map(type, stack)) == family_layout(family, len(stack))
    except UnsupportedCombination:
        return False


@dataclass
class Certificate:
    """Machine-checkable outcome of one verification run.

    ``bound`` is the best certified margin (objective bound minus the
    problem threshold), the least over the trace, so ``verified`` holds
    exactly when bound <= 0.  Trace entries carry raw objective values,
    one per evaluated stack.
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
            "a trace of entries with exactly an integer step (0, 1, ...) and a finite "
            "certified_value": (
                isinstance(trace, list) and bool(trace) and all(
                    isinstance(e, dict) and sorted(e) == ["certified_value", "step"]
                    and type(e["step"]) is int and e["step"] == i
                    and is_real(e["certified_value"]) and math.isfinite(e["certified_value"])
                    for i, e in enumerate(trace)
                )
            ),
            "metadata with a finite threshold and objective_bound = bound + threshold": (
                isinstance(meta, dict) and is_real(meta.get("objective_bound"))
                and is_real(meta.get("threshold")) and math.isfinite(meta["threshold"])
                and meta["objective_bound"] == bound + meta["threshold"]
            ),
            "a family of linear, linexp or quadratic": (
                isinstance(meta, dict) and meta.get("family") in FAMILIES
            ),
            f"a config of exactly {_CONFIG_RULE}": (
                isinstance(meta, dict) and _is_config(meta.get("config"))
            ),
            "a finite real attack_value and attack_stderr, or neither": (
                isinstance(meta, dict) and (
                    "attack_value" not in meta and "attack_stderr" not in meta
                    or all(is_real(meta.get(k)) and math.isfinite(meta[k])
                           for k in ("attack_value", "attack_stderr"))
                )
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
        margins = [e["certified_value"] - meta["threshold"] for e in trace]
        if min(margins) != bound:
            raise ValueError(f"certificate bound {bound!r} is not the least certified margin "
                             f"of its trace, {min(margins)!r}")
        try:
            stack = stack_from_jsonable(lams)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"certificate has a malformed multiplier entry: {exc!r}") from exc
        if not _laid_out(stack, meta["family"]):
            kinds = "+".join(type(lam).__name__ for lam in stack)
            raise ValueError(f"certificate's {kinds} stack is not laid out as the "
                             f"{meta['family']} family's")
        return cls(bound=float(bound), verified=verified, stack=stack, trace=trace,
                   metadata=meta, fingerprint=digests)


_CONFIG_KEYS = ["decay_every", "init", "lr", "steps"]
_CONFIG_RULE = ("an integer steps >= 0, a finite real lr > 0, an integer decay_every >= 1, "
                "init zeros or given, and optionally an integer seed >= 0")


def _is_config(config) -> bool:
    """The run settings ``optimize`` records, plus the seed ``verify`` adds (_CONFIG_RULE)."""
    return (
        isinstance(config, dict)
        and sorted(config) in (_CONFIG_KEYS, sorted(_CONFIG_KEYS + ["seed"]))
        and _is_count(config["steps"], 0)
        and _is_count(config["decay_every"], 1)
        and is_real(config["lr"]) and 0.0 < config["lr"] < math.inf
        and config["init"] in ("zeros", "given")
        and _is_count(config.get("seed", 0), 0)
    )


def fingerprints(problems: list[VerificationProblem], bounds: tuple[Interval, ...]) -> list[dict]:
    """Per problem, the model, spec and bounds digests; the shared two are computed once."""
    model, boxes = sha256_of(model_to_dict(problems[0].network)), sha256_of(boxes_to_lists(bounds))
    out = []
    for problem in problems:
        iset = problem.input_set
        spec_doc = {
            "input_set": {
                "kind": type(iset).__name__,
                "center": iset.center.tolist(),
                "epsilon": iset.epsilon,
                "sigma": getattr(iset, "sigma", None),
                "clip": iset.clip,
            },
            "objective": {"kind": type(problem.objective).__name__,
                          **asdict(problem.objective)},
            "threshold": problem.threshold,
        }
        out.append({"model": model, "spec": sha256_of(spec_doc), "bounds": boxes})
    return out


def optimize(
    problems: list[VerificationProblem],
    config: OptimizerConfig | None = None,
    family: str | None = None,
    bounds: tuple[Interval, ...] | None = None,
    stack: tuple[Multiplier, ...] | None = None,
) -> list[Certificate]:
    """Gradient-based outer minimization of the dual, per problem.

    The problems (a batch, as for ``evaluate_dual``) step together, one
    row each, and each gets the certificate it gets alone.  Runs Adam on
    the multiplier parameters and evaluates each stack once: after t
    updates the dual at stack_t is step t's ``certified_value``, and its
    gradient takes step t+1.  By weak duality every such value is a
    sound bound, so each one can lower the row's best bound, and with
    ``early_stop`` a row stops at its first non-positive margin.  A
    certificate records the best bound, the stack row that achieved it
    (rebuilt from its row of the optimizer's parameters, as the step
    built it), and the trace.  The family defaults to linexp on a
    sub-Gaussian input set and to linear otherwise; the start is
    ``stack`` when given (recorded as ``"given"``), else the family's
    zero stack (``"zeros"``).  A non-finite dual value raises
    ``FloatingPointError``, and so does a numpy overflow or invalid
    operation after step 0.  An ``ArithmeticError`` or a
    ``np.linalg.LinAlgError`` after step 0 ends only the rows that raise
    it alone, each with a ``RuntimeWarning``; their certificates hold the
    steps completed before it.  One raised at step 0 propagates.
    """
    config = config or OptimizerConfig()
    # the settings each certificate records, held to the loader's rule
    settings = {"steps": config.steps, "lr": config.lr, "decay_every": config.decay_every,
                "init": "zeros" if stack is None else "given"}
    if not _is_config(settings):
        raise ValueError(f"optimizer settings must be {_CONFIG_RULE}; got {settings}")
    net = problems[0].network
    if bounds is None:
        bounds = propagate_intervals(net, problems[0].support_box())
    if family is None:
        family = "linexp" if isinstance(problems[0].input_set, SubGaussianNoise) else "linear"
    if stack is None:
        stack = init_stack(problems, family)
    elif not _laid_out(stack, family):
        raise ValueError(f"the given stack is not laid out as the {family} family's")

    thresholds = [p.threshold for p in problems]
    evaluation = evaluate_dual(problems, stack, bounds)
    totals = _finite_totals(evaluation)
    traces = [[{"step": 0, "certified_value": v}] for v in totals]
    best = [v - t for v, t in zip(totals, thresholds)]
    layout = _param_layout(stack)
    # per problem, the parameters of the stack that gave its best bound
    best_params = _flat([get_params(lam) for lam in stack])

    # the rows still stepping, as problem indices
    live = [i for i, margin in enumerate(best)
            if config.steps > 0 and (margin > 0.0 or not config.early_stop)]
    params = best_params[live]
    state = (params, _flat(evaluation.grads)[live], np.zeros_like(params), np.zeros_like(params))
    # an overflow or NaN past step 0 raises FloatingPointError and ends its row
    step = 1
    with np.errstate(over="raise", invalid="raise"):
        while live and step <= config.steps:
            lr = config.lr * (0.1 ** (step // config.decay_every))
            batch = [problems[i] for i in live]
            try:
                state_next, totals = _advance(batch, stack, bounds, layout, state, step, lr)
            except (ArithmeticError, np.linalg.LinAlgError):
                # re-run the step row by row; the rows that raise alone end, and the
                # step is taken again without them
                keep = []
                for j, problem in enumerate(batch):
                    try:
                        _advance([problem], stack, bounds, layout,
                                 tuple(a[[j]] for a in state), step, lr)
                        keep.append(j)
                    except (ArithmeticError, np.linalg.LinAlgError) as exc:
                        # a diverging row keeps the sound bound it already has
                        warnings.warn(f"optimization stopped at step {step} by "
                                      f"{type(exc).__name__}: {exc}; keeping the best "
                                      "certified bound", RuntimeWarning, stacklevel=2)
                if len(keep) == len(live):
                    raise
                live, state = [live[j] for j in keep], tuple(a[keep] for a in state)
                continue
            state = state_next
            for j, i in enumerate(live):
                traces[i].append({"step": step, "certified_value": totals[j]})
                if totals[j] - thresholds[i] < best[i]:
                    best[i] = totals[j] - thresholds[i]
                    best_params[i] = state[0][j]
            if config.early_stop and any(best[i] <= 0.0 for i in live):
                keep = [j for j, i in enumerate(live) if best[i] > 0.0]
                live, state = [live[j] for j in keep], tuple(a[keep] for a in state)
            step += 1

    return [
        Certificate(
            bound=margin,
            verified=margin <= 0.0,
            stack=_stack_of(stack, layout, best_params[[i]]),
            trace=traces[i],
            metadata={
                "family": family,
                "threshold": thresholds[i],
                "objective_bound": margin + thresholds[i],
                "gaussian_truncation": _truncation_levels(net),
                "config": dict(settings),
            },
            fingerprint=fingerprint,
        )
        for i, (margin, fingerprint) in enumerate(zip(best, fingerprints(problems, bounds)))
    ]


def _finite_totals(evaluation: DualEvaluation) -> list[float]:
    totals = evaluation.total.tolist()
    if not all(map(math.isfinite, totals)):
        raise FloatingPointError("the dual value is not finite")
    return totals


def _truncation_levels(net: CanonicalNetwork) -> list[float | None]:
    """Per layer, the largest Gaussian truncation of its tensors (None: no Gaussian)."""
    return [
        max((d.truncation for d in (layer.weights, layer.bias) if d.truncation is not None),
            default=None)
        for layer in net.layers
    ]
