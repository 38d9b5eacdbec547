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
    HurstParams,
    coeff_matrix,
    coeff_vector,
)
from .expansion import (
    Ensemble,
    GeneratorConfig,
    PathSample,
    eval_w,
    generate_ensemble,
    generate_path,
)
from .noise import (
    NoiseBundle,
    draw_bundle,
    dump_bundle,
    load_bundle,
)
from .oracle import (
    OracleConvergenceError,
    cholesky_sample,
    quad_coefficient,
)
from .validation import (
    CheckRecord,
    ValidationReport,
    run_brownian_campaign,
    run_coefficient_campaign,
    run_covariance_campaign,
    run_parseval_campaign,
    run_rate_campaign,
)

__all__ = [
    "CoefficientKind",
    "CheckRecord",
    "Ensemble",
    "GeneratorConfig",
    "HurstParams",
    "NoiseBundle",
    "OracleConvergenceError",
    "PathSample",
    "ValidationReport",
    "cholesky_sample",
    "coeff_matrix",
    "coeff_vector",
    "draw_bundle",
    "dump_bundle",
    "eval_w",
    "generate_ensemble",
    "generate_path",
    "load_bundle",
    "quad_coefficient",
    "run_brownian_campaign",
    "run_coefficient_campaign",
    "run_covariance_campaign",
    "run_parseval_campaign",
    "run_rate_campaign",
]
