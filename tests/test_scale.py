"""Units and degenerate inputs at the default lam=None.

Scaling the data by s must scale every output by s with the same support,
for s = 10^k far outside [1e-6, 1e6]; degenerate shapes must give a finite
lam and a clear error or a flagged result.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from loire import (FactorizationConfig, LoireConfig, SimSpec, app_bem, baseline_lad,
                   default_lambda, default_zero_tol,
                   detect_support, generate_sim, loire_solve, rrf_solve)
from loire.cli import main as cli_main

SEEDS = st.integers(0, 2**32 - 1)
POWERS = st.integers(-150, 150)


def _planted_regression(seed):
    # m <= 40 rows, so ||r||^2 stays finite at s = 1e150
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(20, 41)), int(rng.integers(1, 4))
    a = rng.normal(size=(m, n))
    y = a @ rng.normal(size=n) + 0.1 * rng.normal(size=m)
    rows = rng.choice(m, size=1 + m // 20, replace=False)
    y[rows] += rng.choice([-1.0, 1.0], size=rows.size) * rng.uniform(20.0, 40.0, size=rows.size)
    return a, y


def _planted_low_rank(seed):
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(6, 41, size=2))
    r = int(rng.integers(1, min(m, n) // 3 + 1))
    y = rng.uniform(size=(m, r)) @ rng.uniform(size=(r, n)) * 3 + 0.05 * rng.normal(size=(m, n))
    spikes = rng.random((m, n)) < 0.05
    return y + np.where(spikes, rng.uniform(5.0, 10.0, (m, n)), 0.0), r


def _close(scaled, base, s):
    """scaled == s * base up to rounding relative to the array's norm."""
    return np.linalg.norm(scaled / s - base) <= 1e-7 * max(np.linalg.norm(base), 1e-300)


class TestScaleEquivariance:
    @settings(deadline=None)
    @given(SEEDS, POWERS)
    def test_app_bem_scales_with_y(self, seed, k):
        a, y = _planted_regression(seed)
        s = 10.0 ** k
        base = app_bem(a, y, LoireConfig())
        scaled = app_bem(a, s * y, LoireConfig())
        assert scaled.support == base.support
        assert _close(scaled.x, base.x, s) and _close(scaled.b, base.b, s)
        assert scaled.loire.lam * s == pytest.approx(base.loire.lam, rel=1e-9)

    @pytest.mark.parametrize("k", [-150, -20, 0, 20, 150])
    def test_planted_outlier_found_at_every_scale(self, k):
        # a 30x3 problem with one outlier; a stopping rule with an absolute
        # part (tol = 1e-10 (1 + ||y||)) stopped the solve at step 1 for k <= -20
        rng = np.random.default_rng(30)
        a = rng.normal(size=(30, 3))
        y = a @ rng.normal(size=3) + 0.1 * rng.normal(size=30)
        y[7] += 25.0
        s = 10.0 ** k
        sol = app_bem(a, s * y, LoireConfig())
        assert sol.support == (7,) and sol.loire.converged
        assert sol.b[7] / s == pytest.approx(y[7] - a[7] @ sol.x / s, rel=1e-9)

    @settings(deadline=None)
    @given(SEEDS, POWERS)
    def test_app_bem_scales_with_a_and_y(self, seed, k):
        a, y = _planted_regression(seed)
        s = 10.0 ** k
        base = app_bem(a, y, LoireConfig())
        scaled = app_bem(s * a, s * y, LoireConfig())
        assert scaled.support == base.support
        assert _close(scaled.x, base.x, 1.0) and _close(scaled.b, base.b, s)

    @settings(deadline=None)
    @given(SEEDS, POWERS)
    @example(3473, -1)
    def test_rrf_solve_scales_with_y(self, seed, k):
        y, r = _planted_low_rank(seed)
        s = 10.0 ** k
        default = rrf_solve(y, FactorizationConfig(rank=r, max_iter=1)).tol
        scaled = rrf_solve(s * y, FactorizationConfig(rank=r, max_iter=1))
        assert scaled.tol == pytest.approx(s * default, rel=1e-12)
        # The default stop ||ΔB|| <= tol can fire one step apart on y and s y
        # (seed 3473, k = -1: steps 10 and 11), which moves the answer by up
        # to tol itself, 2.06e-7 relative there.  At a tol 1000 times tighter,
        # scaled by s on one side, that step moves it far less than the bound.
        tol = 1e-3 * default
        base = rrf_solve(y, FactorizationConfig(rank=r, tol=tol))
        assume(base.converged)  # a few instances need more than max_iter steps
        scaled = rrf_solve(s * y, FactorizationConfig(rank=r, tol=s * tol))
        assert scaled.converged
        assert _close(scaled.a @ scaled.x, base.a @ base.x, s) and _close(scaled.b, base.b, s)
        assert np.array_equal(detect_support(scaled.b, default_zero_tol(s * y)),
                              detect_support(base.b, default_zero_tol(y)))

    @pytest.mark.parametrize("s", [2.0 ** 500, 2.0 ** -500, 2.0 ** -515])
    def test_first_fit_scales_at_the_edge_of_the_range(self, s):
        # ||s Y||^2 is just inside the float range; the Gram matrix and
        # M Mᵀ A of the first step must neither overflow nor lose the fit
        # (the suite turns any RuntimeWarning into an error)
        y = np.random.default_rng(51).normal(size=(300, 40))
        cfg = FactorizationConfig(rank=3, lam=1.0, max_iter=1)
        for mat in (y, y.T):
            base, scaled = rrf_solve(mat, cfg), rrf_solve(s * mat, cfg)
            fit = np.linalg.norm(mat - base.a @ base.x)
            assert np.linalg.norm(mat - scaled.a @ scaled.x / s) == pytest.approx(fit, rel=1e-12)

    @settings(deadline=None)
    @given(SEEDS, POWERS)
    def test_baseline_lad_scales_with_y(self, seed, k):
        # every pivot rule is a sign or a ratio of residuals, so the vertices
        # visited do not depend on the units of y; scaling by 2^k, which
        # rounds nothing, scales x and the trace bit for bit
        a, y = _planted_regression(seed)
        base = baseline_lad(a, y)
        for s in (10.0 ** k, 2.0 ** k):
            scaled = baseline_lad(a, s * y)
            assert scaled.iterations == base.iterations and scaled.converged
            assert _close(scaled.x, base.x, s)
        assert np.array_equal(scaled.x, s * base.x)
        assert scaled.objective_trace == [s * f for f in base.objective_trace]

    @pytest.mark.parametrize("k", [0, -46])
    def test_oracle_default_radius_scales_with_the_data(self, tmp_path, k):
        # 12 points of a line with gross errors on rows 2 and 9.  The oracle's
        # default radius, 1.05 times appBEM's residual norm plus a floor, must
        # scale with the data: an absolute floor of 1e-12 outweighs the
        # residual at 2^-46 and lets the empty support pass.  Powers of two
        # write exactly to the CSV
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 12)
        y = 1 + 2.5 * x + rng.normal(0, 0.1, 12)
        y[[2, 9]] += [40, -30]
        path = tmp_path / "line.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["x", "y"], *zip(2.0 ** k * x, 2.0 ** k * y)])
        out = tmp_path / "out"
        assert cli_main(["regress", str(path), "--target", "y", "--intercept",
                         "--method", "appbem,oracle", "--timing", "none", "--out", str(out)]) == 0
        sols = {e["method"]: e for e in json.loads((out / "solution.json").read_text())["methods"]}
        assert sols["appbem"]["support"] == sols["oracle"]["support"] == [2]


class TestDegenerateInputs:
    @settings(deadline=None)
    @given(SEEDS)
    def test_wide_system_is_an_exact_fit(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 10))
        a = rng.normal(size=(m, m + int(rng.integers(1, 5))))
        y = 10.0 * rng.normal(size=m)
        lam = default_lambda(a, y)
        assert math.isfinite(lam) and lam > 0
        sol = app_bem(a, y, LoireConfig())
        assert sol.support == () and sol.loire.converged
        assert np.linalg.norm(a @ sol.x - y) <= 1e-9 * np.linalg.norm(y)

    @settings(deadline=None)
    @given(SEEDS)
    def test_duplicated_column_flags_the_same_rows(self, seed):
        a, y = _planted_regression(seed)
        doubled = np.column_stack([a, a[:, :1]])
        assert math.isfinite(default_lambda(doubled, y))
        sol = app_bem(doubled, y, LoireConfig())
        assert sol.support == app_bem(a, y, LoireConfig()).support
        assert np.all(np.isfinite(sol.x)) and sol.loire.converged

    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 7), (30, 30)])
    def test_all_zero_data(self, shape):
        sol = rrf_solve(np.zeros(shape), FactorizationConfig(rank=min(shape)))
        assert sol.lam == 1.0 and sol.converged and sol.iterations == 1
        assert not np.any(sol.b)
        m, n = shape
        reg = loire_solve(np.ones((m, n)), np.zeros(m), LoireConfig())
        assert reg.lam == 1.0 and reg.converged and not np.any(reg.b)
        lad = baseline_lad(np.ones((m, n)), np.zeros(m))
        assert lad.converged and lad.iterations == 1 and not np.any(lad.x)

    @pytest.mark.parametrize("s", [1e-200, 1e155, 1e200])
    def test_out_of_range_data_raises(self, s):
        # past the float range ||y||^2 is inf or 0, so the default tol and
        # ||Δb|| would read the solve as converged after one step
        rng = np.random.default_rng(50)
        a = rng.normal(size=(50, 3))
        y = a @ rng.normal(size=3) + 0.1 * rng.normal(size=50)
        y[4] += 20.0
        y_mat = generate_sim(SimSpec(n=30)).y
        for solve in (lambda: loire_solve(a, s * y, LoireConfig()),
                      lambda: loire_solve(a, s * y, LoireConfig(lam=1.0, tol=1.0)),
                      lambda: baseline_lad(a, s * y),
                      lambda: rrf_solve(s * y_mat, FactorizationConfig(rank=2))):
            with pytest.raises(ValueError, match="overflow or underflow"):
                solve()

    @settings(deadline=None)
    @given(SEEDS)
    def test_full_rank_factorization_is_an_exact_fit(self, seed):
        y, _ = _planted_low_rank(seed)
        sol = rrf_solve(y, FactorizationConfig(rank=min(y.shape)))
        assert math.isfinite(sol.lam) and sol.lam > 0 and sol.converged
        assert not detect_support(sol.b, default_zero_tol(y)).any()
