"""Certified upper bounds on probabilistic specifications of small
deterministic and stochastic feed-forward networks via functional
Lagrange multipliers."""

from . import inner
from .bounds import (
    Interval,
    LayerBounds,
    interval_activation,
    interval_affine,
    propagate_intervals,
    weight_support,
)
from .dual import (
    Certificate,
    DualEvaluation,
    OptimizerConfig,
    SolverOptions,
    evaluate_dual,
    lambda_star_affine,
    optimize,
    stack_families,
    subgradient,
)
from .model import (
    CanonicalLayer,
    CanonicalNetwork,
    Deterministic,
    DiagonalGaussian,
    Dropout,
    ModelError,
    ParseError,
    SchemaError,
    ShapeError,
    StructureError,
    forward_sample,
    load_model,
    mean_softmax_estimate,
    model_to_dict,
    softmax,
)
from .multipliers import (
    Linear,
    LinExp,
    Multiplier,
    MultiplierStack,
    Quadratic,
    UnsupportedCombination,
    init_stack,
)
from .oracle import random_problem, sample_lower_bound
from .specs import (
    BoxOfDeltas,
    ConfigError,
    EmptyInput,
    ExpectedSoftmax,
    LogitDiff,
    SubGaussianNoise,
    VerificationProblem,
    adversarial_auc,
    build_problem,
    guaranteed_auc,
)

__version__ = "0.1.0"
