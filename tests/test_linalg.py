import numpy as np
import pytest

from loire import least_squares_solve


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

