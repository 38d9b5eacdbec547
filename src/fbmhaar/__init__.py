"""Fractional Brownian motion on [0, 1] via a truncated Haar expansion.

A sample path is a fixed linear functional of 3N + 4 pre-drawn standard
normals, so arbitrary time instants evaluate independently (and hence in
parallel) from one noise bundle.  Closed-form coefficients, an adaptive
quadrature oracle, an exact Cholesky sampler, and validation campaigns
turning the distributional claims into pass/fail reports live in the
submodules; the most used entry points are re-exported here.
"""

from .coefficients import (
    CoefficientKind,
    CoefficientVector,
    HurstParams,
    big_g,
    coeff_f1,
    coeff_f2,
    coeff_g,
    coeff_matrix,
    coeff_vector,
)
from .expansion import (
    GeneratorConfig,
    PathSample,
    eval_w,
    eval_w1,
    eval_w2,
    eval_w3,
    generate_ensemble,
    generate_path,
)
from .haar import (
    DyadicInterval,
    WaveletIndex,
    haar_antiderivative,
    haar_eval,
    haar_eval_shifted,
    split_index,
    support_interval,
)
from .noise import (
    NoiseBundle,
    draw_bundle,
    dump_bundle,
    extend_bundle,
    load_bundle,
)
from .oracle import (
    OracleConvergenceError,
    QuadratureSpec,
    cholesky_sample,
    exact_covariance,
    quad_coefficient,
)
from .validation import (
    CheckRecord,
    RateFit,
    ValidationReport,
    run_brownian_campaign,
    run_coefficient_campaign,
    run_covariance_campaign,
    run_parseval_campaign,
    run_rate_campaign,
)

__all__ = [
    "CoefficientKind",
    "CoefficientVector",
    "CheckRecord",
    "DyadicInterval",
    "GeneratorConfig",
    "HurstParams",
    "NoiseBundle",
    "OracleConvergenceError",
    "PathSample",
    "QuadratureSpec",
    "RateFit",
    "ValidationReport",
    "WaveletIndex",
    "big_g",
    "cholesky_sample",
    "coeff_f1",
    "coeff_f2",
    "coeff_g",
    "coeff_matrix",
    "coeff_vector",
    "draw_bundle",
    "dump_bundle",
    "eval_w",
    "eval_w1",
    "eval_w2",
    "eval_w3",
    "exact_covariance",
    "extend_bundle",
    "generate_ensemble",
    "generate_path",
    "haar_antiderivative",
    "haar_eval",
    "haar_eval_shifted",
    "load_bundle",
    "quad_coefficient",
    "run_brownian_campaign",
    "run_coefficient_campaign",
    "run_covariance_campaign",
    "run_parseval_campaign",
    "run_rate_campaign",
    "split_index",
    "support_interval",
]
