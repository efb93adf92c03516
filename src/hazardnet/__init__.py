"""hazardnet: diffusion network inference from infection cascades.

Two survival-model families over a shared cascade representation: an
additive risk model (nonnegative parent rates through time-shaping kernels)
and a multiplicative one (a baseline rate scaled by signed influences).
Both yield convex maximum-likelihood network inference; the package also
generates Kronecker ground truth, samples cascades exactly by inverse
transform, and evaluates recovery and predictive fit.
"""

from .additive import (
    AdditiveConfig,
    additive_cascade_loglik,
    additive_gradient,
    additive_kkt_violation,
    additive_set_loglik,
    independent_cascade_loglik,
    infer_additive,
)
from .evaluate import (
    DistributionSummary,
    EvalReport,
    cascade_durations,
    cascade_sizes,
    compare_networks,
    duration_bin_edges,
    edge_accuracy,
    ks_statistic,
    parameter_mse,
    predict_distributions,
    split_cascades,
    summarize_cascades,
)
from .fileio import read_cascades, read_network, write_cascades, write_network
from .hazard import (
    infection_cdf,
    infection_cumulative_hazard,
    infection_density,
    infection_hazard,
)
from .multiplicative import (
    MultiplicativeConfig,
    SignedEdge,
    SupportMask,
    build_support,
    extract_signed_edges,
    infer_multiplicative,
    multiplicative_cascade_loglik,
    multiplicative_gradient,
    multiplicative_kkt_violation,
    multiplicative_set_loglik,
)
from .shaping import (
    Baseline,
    BASELINE_VARIANTS,
    CONSTANT,
    EXPONENTIAL,
    INVERSE,
    LINEAR,
    POWER,
    RAYLEIGH,
    SHAPING_VARIANTS,
    ShapingFunction,
)
from .simulate import (
    KRONECKER_SEEDS,
    KroneckerSpec,
    ParamDistribution,
    ScaleOverflowError,
    assign_parameters,
    generate_kronecker,
    infection_time_from_uniform,
    simulate_cascade,
    simulate_set,
)
from .types import (
    ADDITIVE,
    Cascade,
    CascadeSet,
    InferenceResult,
    MULTIPLICATIVE,
    Network,
)

__version__ = "0.1.0"

__all__ = [
    "ADDITIVE",
    "MULTIPLICATIVE",
    "AdditiveConfig",
    "Baseline",
    "BASELINE_VARIANTS",
    "Cascade",
    "CascadeSet",
    "CONSTANT",
    "DistributionSummary",
    "EvalReport",
    "EXPONENTIAL",
    "InferenceResult",
    "INVERSE",
    "KRONECKER_SEEDS",
    "KroneckerSpec",
    "LINEAR",
    "MultiplicativeConfig",
    "Network",
    "ParamDistribution",
    "POWER",
    "RAYLEIGH",
    "ScaleOverflowError",
    "SHAPING_VARIANTS",
    "ShapingFunction",
    "SignedEdge",
    "SupportMask",
    "additive_cascade_loglik",
    "additive_gradient",
    "additive_kkt_violation",
    "additive_set_loglik",
    "assign_parameters",
    "build_support",
    "cascade_durations",
    "cascade_sizes",
    "compare_networks",
    "duration_bin_edges",
    "edge_accuracy",
    "extract_signed_edges",
    "generate_kronecker",
    "independent_cascade_loglik",
    "infection_cdf",
    "infection_cumulative_hazard",
    "infection_density",
    "infection_hazard",
    "infection_time_from_uniform",
    "infer_additive",
    "infer_multiplicative",
    "ks_statistic",
    "multiplicative_cascade_loglik",
    "multiplicative_gradient",
    "multiplicative_kkt_violation",
    "multiplicative_set_loglik",
    "parameter_mse",
    "predict_distributions",
    "read_cascades",
    "read_network",
    "simulate_cascade",
    "simulate_set",
    "split_cascades",
    "summarize_cascades",
    "write_cascades",
    "write_network",
]
