import loire

PUBLIC = {
    "least_squares_solve",
    "LoireConfig", "LoireSolution", "default_lambda", "loire_solve",
    "AllRowsOutliers", "BemSolution", "InfeasibleRadius", "OracleConfig",
    "app_bem", "bernoulli_oracle", "default_zero_tol", "detect_support",
    "FactorizationConfig", "FactorizationSolution", "rrf_solve",
    "DetectionMetrics", "LadSolution", "SimInstance", "SimSpec",
    "baseline_lad", "baseline_ols", "compute_metrics", "generate_sim",
    "FrameStack", "PgmError", "read_pgm", "write_pgm",
}


def test_public_surface():
    # the exported names are the ones a program calls; evaluators of the
    # objectives and the scalar shrink are test oracles (tests/oracles.py)
    assert len(loire.__all__) == len(PUBLIC) == 28
    assert set(loire.__all__) == PUBLIC
    for name in loire.__all__:
        assert getattr(loire, name) is not None
    for gone in ("soft_threshold", "loire_objective", "rrf_objective",
                 "bernoulli_log_likelihood", "BenchmarkReport"):
        assert not hasattr(loire, gone)
