import fbmhaar

PUBLIC = [
    "CoefficientKind",
    "CheckRecord",
    "DyadicInterval",
    "Ensemble",
    "GeneratorConfig",
    "HurstParams",
    "NoiseBundle",
    "OracleConvergenceError",
    "PathSample",
    "ValidationReport",
    "WaveletIndex",
    "cholesky_sample",
    "coeff_matrix",
    "coeff_vector",
    "draw_bundle",
    "dump_bundle",
    "eval_w",
    "exact_covariance",
    "generate_ensemble",
    "generate_path",
    "haar_antiderivative",
    "haar_eval",
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


def test_public_surface_is_pinned():
    assert fbmhaar.__all__ == PUBLIC
    assert len(set(fbmhaar.__all__)) == len(fbmhaar.__all__)
    for name in fbmhaar.__all__:
        assert hasattr(fbmhaar, name), name
