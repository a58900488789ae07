"""Result record shared by all inner maximization solvers, and the one float sum."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EXACT = "exact"
UPPER_BOUND = "upper_bound"


def fold(terms, start=0.0):
    """start + t0 + t1 + ..., left to right in plain float additions.

    Every sum whose bits reach a certificate goes through here.  The
    builtin ``sum`` of floats is compensated (Neumaier) from Python 3.12
    on, so its bits depend on the interpreter; one rounding per term, in
    order, gives the same bits on every version.
    """
    total = start
    for term in terms:
        total = total + term
    return total


@dataclass
class InnerResult:
    """Outcome of one per-layer maximization, one row per row of the multipliers.

    ``mode`` states the guarantee: ``exact`` results carry a feasible
    witness attaining the value, and ``upper_bound`` results dominate the
    true maximum by construction; no other kind of result exists, so any
    value may enter a certificate.  ``value`` holds one bound per row.
    ``grads`` is (grads_prev, grads_next), the envelope (Danskin) gradient
    of each row's value in the parameters of (lam_k, lam_next) at the
    maximizer of the relaxation the solver bounded, each a dict keyed like
    ``get_params`` and None for a side without a multiplier.
    ``internal_duals`` records the auxiliary dual parameters (zeta, kappa,
    ...) a bound construction used, so the same bound can be re-evaluated
    at perturbed duals; no solver reads them back, so a result depends on
    its inputs alone.  Every array has the row axis first.
    """

    value: np.ndarray
    mode: str
    witness: np.ndarray | None = None
    grads: tuple[dict | None, dict | None] = (None, None)
    internal_duals: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in (EXACT, UPPER_BOUND):
            raise ValueError(f"unknown inner-result mode {self.mode!r}")
        self.value = np.asarray(self.value, dtype=float)
