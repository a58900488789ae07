"""Certified upper bounds on probabilistic specifications of small
deterministic and stochastic feed-forward networks via functional
Lagrange multipliers."""

from . import inner
from .bounds import (
    Interval,
    interval_activation,
    interval_affine,
    propagate_intervals,
)
from .dual import (
    Certificate,
    DualEvaluation,
    OptimizerConfig,
    evaluate_dual,
    init_stack,
    optimize,
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
    load_model,
    model_to_dict,
    softmax,
)
from .multipliers import (
    Linear,
    LinExp,
    Multiplier,
    Quadratic,
    UnsupportedCombination,
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
