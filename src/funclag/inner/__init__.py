"""Per-layer inner maximization solvers for the dual decomposition.

The package namespace holds the solvers ``dual`` calls as
``inner.<name>``; helpers are imported from their submodules.  Each
solver returns an ``InnerResult`` carrying its bound and the envelope
gradient of that bound in the adjacent multipliers' parameters.
"""

from .linear import final_linear, inner_linear
from .linexp import inner_linexp_input, inner_linexp_transition
from .quadratic import inner_quadratic_bound
from .result import InnerResult
from .softmax_exact import final_softmax_exact

__all__ = [
    "InnerResult",
    "final_linear",
    "final_softmax_exact",
    "inner_linear",
    "inner_linexp_input",
    "inner_linexp_transition",
    "inner_quadratic_bound",
]
