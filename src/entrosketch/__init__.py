"""Streaming Shannon entropy estimation from skewed-stable data sketches."""

from ._backend import BACKEND
from .estimator import (
    BiasTable,
    EstimateResult,
    are,
    asymptotic_std_error,
    bias_correction,
    estimate,
    shipped_bias_table,
)
from .hashing import VariatePlan, item_variate
from .oracle import AccumulationVector, exact_entropies, limit_check
from .sketch import EntropySketch, SketchConfig, new_sketch, sketch_stream
from .stable import (
    G0_PARAMS,
    StableParams,
    UniformExpPair,
    char_fn,
    cms_transform,
    sample_g0,
    sample_positive_stable,
    y_alpha_transform,
)
from .tailbounds import (
    TailBoundResult,
    m_series,
    required_sketch_size,
    tail_constants,
)

__version__ = "0.1.0"

__all__ = [
    "AccumulationVector",
    "BACKEND",
    "BiasTable",
    "EntropySketch",
    "EstimateResult",
    "G0_PARAMS",
    "SketchConfig",
    "StableParams",
    "TailBoundResult",
    "UniformExpPair",
    "VariatePlan",
    "are",
    "asymptotic_std_error",
    "bias_correction",
    "char_fn",
    "cms_transform",
    "estimate",
    "exact_entropies",
    "item_variate",
    "limit_check",
    "m_series",
    "new_sketch",
    "required_sketch_size",
    "sample_g0",
    "sample_positive_stable",
    "shipped_bias_table",
    "sketch_stream",
    "tail_constants",
    "y_alpha_transform",
]
