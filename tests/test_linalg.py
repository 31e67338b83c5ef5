import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loire import least_squares_solve, soft_threshold


class TestLeastSquares:
    def test_identity_system(self):
        x = least_squares_solve(np.eye(2), [1.0, 2.0])
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_mean_of_entries(self):
        x = least_squares_solve([[1.0], [1.0]], [1.0, 3.0])
        np.testing.assert_allclose(x, [2.0])

    def test_minimum_norm_on_rank_deficient(self):
        x = least_squares_solve([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            least_squares_solve(np.ones((3, 2)), np.ones(4))

    def test_zero_size_raises(self):
        with pytest.raises(ValueError):
            least_squares_solve(np.ones((0, 2)), np.ones(0))

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            least_squares_solve([[np.nan], [1.0]], [1.0, 2.0])

    def test_residual_orthogonality(self):
        # A^T (y - A x) = 0 within 1e-8 * ||A|| * ||y|| on random solves
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 40))
            n = int(rng.integers(1, min(m, 10) + 1))
            a = rng.normal(size=(m, n))
            y = rng.normal(size=m) * 5
            x = least_squares_solve(a, y)
            gap = np.abs(a.T @ (y - a @ x)).max()
            assert gap <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(y)


class TestSoftThreshold:
    @pytest.mark.parametrize("v,tau,expected", [
        (1.2, 0.5, 0.7),
        (-0.3, 0.5, 0.0),
        (0.0, 0.0, 0.0),
    ])
    def test_analytic_values(self, v, tau, expected):
        assert soft_threshold(v, tau) == pytest.approx(expected)

    def test_negative_tau_raises(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)
        with pytest.raises(ValueError):  # |v| - NaN would give all-NaN output
            soft_threshold(np.ones(3), math.nan)

    def test_elementwise_on_arrays(self):
        out = soft_threshold(np.array([[1.2, -0.3], [0.0, -2.0]]), 0.5)
        np.testing.assert_allclose(out, [[0.7, 0.0], [0.0, -1.5]])

    def test_is_proximal_operator(self):
        # minimizes tau*|z| + (z - v)^2/2 versus a dense grid scan
        rng = np.random.default_rng(42)
        grid = np.linspace(-15.0, 15.0, 30001)
        for _ in range(1000):
            v = float(rng.uniform(-10, 10))
            tau = float(rng.uniform(0, 5))
            z = soft_threshold(v, tau)
            obj = tau * abs(z) + 0.5 * (z - v) ** 2
            best = np.min(tau * np.abs(grid) + 0.5 * (grid - v) ** 2)
            assert obj <= best + 1e-6

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_shrinks_toward_zero(self, v, tau):
        z = soft_threshold(v, tau)
        assert abs(z) <= abs(v)
        assert z * v >= 0
