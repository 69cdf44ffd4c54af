"""Robust Gaussian hypothesis testing under l-infinity bounded perturbations.

The four decision rules (minimum distance, GLRT, minimax linear, pairwise
robust linear), adversary constructions, closed-form error predictors, and a
seeded Monte Carlo experiment engine with a CLI front end.
"""

from .analysis import (
    METHOD_CLT_EXACT,
    METHOD_CLT_LOWER_BOUND,
    METHOD_MONTE_CARLO,
    METHOD_Q_OF_SNR,
    BracketExhaustedError,
    CoordinateMoments,
    ErrorEstimate,
    clt_error,
    cost_difference_moments,
    error_from_snr,
    low_noise_thresholds,
    moment_study,
    sigma_for_target_error,
    snr_glrt,
    snr_minimax,
    y_bound_moments,
)
from .attacks import (
    AttackResult,
    ErrorSurface,
    NNSelection,
    UnsupportedDimensionError,
    binary_sign_attack,
    brute_force_attack_oracle,
    heuristic_agnostic_attack,
    nn_class_glrt,
    nn_class_min_distance,
    noise_aware_attack,
)
from .classifiers import (
    ClassifierKind,
    GlrtClassifier,
    LinearRule,
    MinDistanceClassifier,
    MinimaxLinearClassifier,
    PairwiseRobustLinearClassifier,
    build_classifier,
    minimax_linear_rule,
    per_coordinate_cost_difference,
)
from .engine import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    monte_carlo_error,
    run_experiment,
    run_experiments,
)
from .model import (
    REJECT,
    AttackMode,
    AttackSpec,
    HypothesisModel,
    TwoLevelProfile,
    pairwise_half_difference,
)
from .numerics import gaussian_cdf, gaussian_pdf, q_function, truncated_gaussian_moment

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "gaussian_pdf", "gaussian_cdf", "q_function", "truncated_gaussian_moment",
    # model
    "REJECT", "HypothesisModel", "TwoLevelProfile", "AttackMode", "AttackSpec",
    "pairwise_half_difference",
    # classifiers
    "ClassifierKind", "LinearRule", "minimax_linear_rule", "MinDistanceClassifier",
    "GlrtClassifier", "MinimaxLinearClassifier", "PairwiseRobustLinearClassifier",
    "build_classifier", "per_coordinate_cost_difference",
    # attacks
    "AttackResult", "NNSelection", "ErrorSurface", "UnsupportedDimensionError",
    "binary_sign_attack", "nn_class_min_distance", "nn_class_glrt",
    "heuristic_agnostic_attack", "noise_aware_attack", "brute_force_attack_oracle",
    # analysis
    "CoordinateMoments", "ErrorEstimate",
    "BracketExhaustedError", "y_bound_moments", "cost_difference_moments",
    "clt_error", "snr_minimax", "snr_glrt", "error_from_snr",
    "low_noise_thresholds", "sigma_for_target_error", "moment_study",
    "METHOD_MONTE_CARLO", "METHOD_CLT_EXACT", "METHOD_CLT_LOWER_BOUND",
    "METHOD_Q_OF_SNR",
    # engine
    "ConfigError", "ExperimentConfig", "ExperimentResult",
    "monte_carlo_error", "run_experiment", "run_experiments",
]
