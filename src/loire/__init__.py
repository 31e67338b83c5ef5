"""Robust regression and low-rank recovery via l1 outlier isolation."""

__version__ = "0.1.0"

from .linalg import least_squares_solve
from .regression import LoireConfig, LoireSolution, default_lambda, loire_solve
from .bernoulli import (AllRowsOutliers, BemSolution, InfeasibleRadius,
                        OracleConfig, app_bem, bernoulli_oracle, default_zero_tol,
                        detect_support)
from .factorization import FactorizationConfig, FactorizationSolution, rrf_solve
from .benchmark import (DetectionMetrics, LadSolution, SimInstance, SimSpec, baseline_lad,
                        baseline_ols, compute_metrics, generate_sim)
from .pgm import FrameStack, PgmError, read_pgm, write_pgm

__all__ = [
    "least_squares_solve",
    "LoireConfig", "LoireSolution", "default_lambda", "loire_solve",
    "AllRowsOutliers", "BemSolution", "InfeasibleRadius", "OracleConfig",
    "app_bem", "bernoulli_oracle", "default_zero_tol", "detect_support",
    "FactorizationConfig", "FactorizationSolution", "rrf_solve",
    "DetectionMetrics", "LadSolution", "SimInstance", "SimSpec",
    "baseline_lad", "baseline_ols", "compute_metrics", "generate_sim",
    "FrameStack", "PgmError", "read_pgm", "write_pgm",
]
