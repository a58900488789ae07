"""Spans at funclag's module boundaries, recorded from outside the program.

The tracer replaces module attributes with timing wrappers and restores
them on ``uninstall``.  It wraps names where callers look them up at
call time: the CLI's from-imported helpers in ``funclag.cli``, the two
names ``optimize`` calls in ``funclag.dual``, and the solvers ``dual``
reaches as ``inner.<name>``.  Helpers reached only through from-imports
(``multipliers``, ``inner.scalaropt``) stay in their callers' self time.
A name missing at the commit under test is listed as absent and counts
0 calls.  Spans live in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute, span name); the span name is the layer metric prefix
CLI_NAMES = [
    ("funclag.cli", "load_model", "model.load_model"),
    ("funclag.cli", "build_problem", "specs.build_problem"),
    ("funclag.cli", "optimize", "dual.optimize"),
    ("funclag.cli", "sample_lower_bound", "oracle.sample_lower_bound"),
    ("funclag.cli", "encode_reals", "jsonio.encode_reals"),
    ("funclag.dual", "evaluate_dual", "dual.certify"),
    ("funclag.dual", "propagate_intervals", "bounds.propagate_intervals"),
]

INNER_SOLVERS = [
    "linear.inner_linear",
    "linear.final_linear",
    "linexp.inner_linexp_input",
    "linexp.input_param_grads",
    "linexp.inner_linexp_transition",
    "linexp.transition_param_grads",
    "quadratic.inner_quadratic_bound",
    "quadratic.quadratic_param_grads",
    "softmax_exact.final_softmax_exact",
    "softmax_bounds.final_softmax_affine_bound",
    "softmax_bounds.final_softmax_quadratic_bound",
    "search.heuristic_inner_max",
]

WRAPPED = CLI_NAMES + [
    ("funclag.inner", qualified.split(".")[1], f"inner.{qualified}")
    for qualified in INNER_SOLVERS
]

ROOT_SPAN = "cli.verify"
CERTIFY_SPAN = "dual.certify"
EXACT_SOFTMAX_SPAN = "inner.softmax_exact.final_softmax_exact"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    # InnerResult.mode of an inner solve, when the result has one
    mode: str | None = None
    # box width n of an exact softmax call (3^n assignments)
    width: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for calls through the wrapped attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.job = ""
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(span_name)
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @contextmanager
    def span(self, name: str):
        """A span the harness opens itself."""
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def _enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, original, name: str):
        signature = inspect.signature(original) if name == EXACT_SOFTMAX_SPAN else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(span)
            mode = getattr(result, "mode", None)
            span.mode = mode if isinstance(mode, str) else None
            if signature is not None:
                box = signature.bind(*args, **kwargs).arguments.get("box")
                span.width = None if box is None else len(box.lo)
            return result

        return wrapper


def to_jsonable(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
