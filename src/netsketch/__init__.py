"""Epsilon-nets, random subspace sketching, and nearest-center reconstruction.

The package is organized around one pipeline: describe a compact function
class, cover it with an epsilon-net in a trigonometric coefficient space,
project the net onto a random low-dimensional subspace, and reconstruct
noisy projected observations by nearest-center decoding.  Supporting
modules estimate covering entropy and coefficient tail decay.
"""

from __future__ import annotations

from .errors import (
    AmbientTooSmallError,
    NetSketchError,
    NetTooLargeError,
    UsageError,
)
from .hilbert import (
    DEFAULT_AMBIENT_DIM,
    PiecewiseDescription,
    Signal,
    analyze_piecewise,
    exact_l2_distance,
    tail_norm,
)
from .function_classes import (
    PiecewiseAnalyticClass,
    PiecewiseSmoothClass,
    SmoothClass,
    TailDecayModel,
    count_tail_violations,
    fit_class_tail_model,
    fit_tail_model,
)
from .nets import DEFAULT_NET_BUDGET, CoveringNet, DecodeResult, build_net
from .jl import (
    DEFAULT_JL_CONSTANT,
    MeasurementOperator,
    apply_operator,
    distortion_ok,
    random_subspace,
)
from .entropy import (
    EntropyScan,
    fit_growth,
    measurement_lower_bound,
    within_measurement_budget,
)
from .reconstructor import (
    PreparedSampler,
    measure,
    preprocess,
    reconstruct,
    truncation_dimension,
    with_new_operator,
)
from .config import ExperimentConfig, load_experiment_config
from .experiment import ExperimentResult, run_experiment, wilson_interval

__version__ = "0.1.0"

__all__ = [
    "AmbientTooSmallError",
    "CoveringNet",
    "DEFAULT_AMBIENT_DIM",
    "DEFAULT_JL_CONSTANT",
    "DEFAULT_NET_BUDGET",
    "DecodeResult",
    "EntropyScan",
    "ExperimentConfig",
    "ExperimentResult",
    "MeasurementOperator",
    "NetSketchError",
    "NetTooLargeError",
    "PiecewiseAnalyticClass",
    "PiecewiseDescription",
    "PiecewiseSmoothClass",
    "PreparedSampler",
    "Signal",
    "SmoothClass",
    "TailDecayModel",
    "UsageError",
    "analyze_piecewise",
    "apply_operator",
    "build_net",
    "count_tail_violations",
    "distortion_ok",
    "exact_l2_distance",
    "fit_class_tail_model",
    "fit_growth",
    "fit_tail_model",
    "load_experiment_config",
    "measure",
    "measurement_lower_bound",
    "preprocess",
    "random_subspace",
    "reconstruct",
    "run_experiment",
    "tail_norm",
    "truncation_dimension",
    "wilson_interval",
    "within_measurement_budget",
    "with_new_operator",
]
