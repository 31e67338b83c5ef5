"""Robust regression and low-rank recovery via l1 outlier isolation."""

__version__ = "0.1.0"

from .linalg import least_squares_solve, soft_threshold
from .regression import (LoireConfig, LoireSolution, default_lambda,
                         loire_objective, loire_solve)
from .bernoulli import (AllRowsOutliers, BemSolution, InfeasibleRadius,
                        OracleConfig, app_bem, bernoulli_log_likelihood,
                        bernoulli_oracle, default_zero_tol, detect_support)
from .factorization import (FactorizationConfig, FactorizationSolution, rrf_objective,
                            rrf_solve)
from .benchmark import (BenchmarkReport, DetectionMetrics, LadSolution,
                        SimInstance, SimSpec, baseline_lad, baseline_ols,
                        compute_metrics, generate_sim)
from .pgm import FrameStack, PgmError, read_pgm, write_pgm

__all__ = [
    "least_squares_solve", "soft_threshold",
    "LoireConfig", "LoireSolution", "default_lambda", "loire_objective", "loire_solve",
    "AllRowsOutliers", "BemSolution", "InfeasibleRadius", "OracleConfig",
    "app_bem", "bernoulli_log_likelihood", "bernoulli_oracle",
    "default_zero_tol", "detect_support",
    "FactorizationConfig", "FactorizationSolution", "rrf_objective", "rrf_solve",
    "BenchmarkReport", "DetectionMetrics", "LadSolution", "SimInstance", "SimSpec",
    "baseline_lad", "baseline_ols", "compute_metrics", "generate_sim",
    "FrameStack", "PgmError", "read_pgm", "write_pgm",
]
