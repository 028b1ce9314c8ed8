import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scoregap import (
    DimensionMismatchError,
    EmptyDataError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ProjectionMatrix,
    RankTooLargeError,
    ShapeMismatchError,
    ZeroObjectiveError,
    alignment,
    effective_rank,
    maximize_linear_under_quadratic,
    min_norm_least_squares,
    spectral_decomposition,
    subspace_projection,
)

from conftest import random_orthonormal, random_projection, random_spd


# ---------------------------------------------------------------------------
# ProjectionMatrix type

class TestProjectionMatrix:
    def test_identity(self):
        p = ProjectionMatrix.identity(4)
        assert p.rank == 4
        np.testing.assert_allclose(p.matrix, np.eye(4))

    def test_from_basis(self):
        rng = np.random.default_rng(0)
        b = random_orthonormal(rng, 6, 2)
        p = ProjectionMatrix.from_basis(b)
        assert p.rank == 2
        # projects basis vectors to themselves, annihilates the complement
        np.testing.assert_allclose(p.matrix @ b, b, atol=1e-12)

    def test_rejects_non_symmetric(self):
        m = np.array([[1.0, 0.1], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ProjectionMatrix(m, rank=1)

    def test_rejects_non_idempotent(self):
        m = np.array([[0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="idempotent"):
            ProjectionMatrix(m, rank=1)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="rank"):
            ProjectionMatrix(np.eye(3), rank=2)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            ProjectionMatrix(np.zeros((2, 3)), rank=0)

    def test_matrix_is_read_only(self):
        p = ProjectionMatrix.identity(2)
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 5.0

    def test_zero_rank_allowed(self):
        p = ProjectionMatrix(np.zeros((3, 3)), rank=0)
        assert p.rank == 0


# ---------------------------------------------------------------------------
# spectral_decomposition / subspace_projection

class TestSubspaceProjection:
    def test_matches_pinv_oracle_at_full_effective_rank(self):
        # projection onto the row space equals pinv(X) @ X
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(1, d + 1))
            x = rng.standard_normal((r + 3, r)) @ random_orthonormal(rng, d, r).T
            p = subspace_projection(x, r)
            oracle = np.linalg.pinv(x) @ x
            assert p.rank == r
            np.testing.assert_allclose(p.matrix, oracle, atol=1e-9)

    def test_matches_gram_matrix_eigendecomposition(self):
        # top-k right singular vectors are the top-k eigenvectors of X^T X
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 8))
        k = 3
        p = subspace_projection(x, k)
        eigvals, eigvecs = np.linalg.eigh(x.T @ x)
        top = eigvecs[:, np.argsort(eigvals)[::-1][:k]]
        np.testing.assert_allclose(p.matrix, top @ top.T, atol=1e-9)

    def test_projects_spanning_rows_to_themselves(self):
        rng = np.random.default_rng(3)
        basis = random_orthonormal(rng, 7, 3)
        x = rng.standard_normal((10, 3)) @ basis.T
        p = subspace_projection(x, 3)
        np.testing.assert_allclose(p.matrix @ x.T, x.T, atol=1e-9)

    def test_rank_truncates_to_effective_rank(self):
        rng = np.random.default_rng(4)
        basis = random_orthonormal(rng, 6, 2)
        x = rng.standard_normal((9, 2)) @ basis.T
        p = subspace_projection(x, 5)  # data only spans 2 directions
        assert p.rank == 2

    def test_tie_warning_set_when_cut_splits_equal_values(self):
        p = subspace_projection(np.eye(3), 2)  # all singular values equal 1
        assert p.tie_warning

    def test_tie_warning_clear_when_gap_exists(self):
        x = np.diag([3.0, 2.0, 1.0])
        p = subspace_projection(x, 2)
        assert not p.tie_warning

    def test_rank_too_large(self):
        with pytest.raises(RankTooLargeError):
            subspace_projection(np.ones((2, 5)), 3)

    def test_rank_below_one(self):
        with pytest.raises(RankTooLargeError):
            subspace_projection(np.ones((2, 5)), 0)

    def test_empty_data(self):
        with pytest.raises(EmptyDataError):
            subspace_projection(np.zeros((0, 4)), 1)

    def test_non_finite_data(self):
        with pytest.raises(NonFiniteError):
            subspace_projection(np.array([[1.0, np.nan]]), 1)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 6))
        p1 = subspace_projection(x, 4)
        p2 = subspace_projection(x, 4)
        assert np.array_equal(p1.matrix, p2.matrix)


class TestSpectralDecomposition:
    def test_known_diagonal_matrix(self):
        x = np.diag([3.0, 1.0, 2.0])
        dec = spectral_decomposition(x)
        np.testing.assert_allclose(dec.singular_values, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.right_vectors),
                                   np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(6)
        dec = spectral_decomposition(rng.standard_normal((15, 5)))
        for j in range(dec.right_vectors.shape[1]):
            col = dec.right_vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_values_non_increasing(self):
        rng = np.random.default_rng(7)
        dec = spectral_decomposition(rng.standard_normal((30, 9)))
        assert np.all(np.diff(dec.singular_values) <= 0)

    def test_effective_rank(self):
        assert effective_rank(np.array([3.0, 1.0, 1e-14])) == 2
        assert effective_rank(np.array([0.0, 0.0])) == 0
        assert effective_rank(np.array([])) == 0


# ---------------------------------------------------------------------------
# min_norm_least_squares

class TestMinNormLeastSquares:
    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(1, 15))
            d = int(rng.integers(1, 15))
            r = int(rng.integers(1, min(n, d) + 1))
            x = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
            y = rng.standard_normal(n)
            w = min_norm_least_squares(x, y)
            np.testing.assert_allclose(w, np.linalg.pinv(x) @ y, atol=1e-9)

    def test_exact_recovery_full_rank(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 6))
        w_true = rng.standard_normal(6)
        w = min_norm_least_squares(x, x @ w_true)
        np.testing.assert_allclose(w, w_true, atol=1e-9)

    def test_residual_orthogonal_to_column_space(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 9))
        y = rng.standard_normal(12)
        w = min_norm_least_squares(x, y)
        np.testing.assert_allclose(x.T @ (x @ w - y), 0.0, atol=1e-9)

    def test_solution_in_row_space(self):
        rng = np.random.default_rng(11)
        basis = random_orthonormal(rng, 8, 3)
        x = rng.standard_normal((10, 3)) @ basis.T
        w = min_norm_least_squares(x, rng.standard_normal(10))
        np.testing.assert_allclose(basis @ basis.T @ w, w, atol=1e-9)

    def test_zero_matrix_gives_zero(self):
        w = min_norm_least_squares(np.zeros((4, 3)), np.ones(4))
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            min_norm_least_squares(np.ones((3, 2)), np.ones(4))

    def test_empty(self):
        with pytest.raises(EmptyDataError):
            min_norm_least_squares(np.zeros((0, 3)), np.zeros(0))

    @settings(derandomize=True, max_examples=60)
    @given(seed=st.integers(0, 10**6))
    def test_norm_minimality_among_exact_fits(self, seed):
        # adding any kernel direction strictly increases the norm
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 10))
        r = int(rng.integers(1, d))
        basis = random_orthonormal(rng, d, r)
        x = rng.standard_normal((r + 2, r)) @ basis.T
        y = x @ rng.standard_normal(d)
        w = min_norm_least_squares(x, y)
        kernel = rng.standard_normal(d)
        kernel -= basis @ (basis.T @ kernel)
        if np.linalg.norm(kernel) < 1e-8:
            return
        w_alt = w + kernel
        np.testing.assert_allclose(x @ w_alt, y, atol=1e-7)
        assert np.linalg.norm(w_alt) > np.linalg.norm(w)


# ---------------------------------------------------------------------------
# maximize_linear_under_quadratic

class TestMaximizeLinearUnderQuadratic:
    def test_unit_ball_identity_cost(self):
        c = np.array([3.0, 4.0])
        x = maximize_linear_under_quadratic(c, np.eye(2), 1.0)
        np.testing.assert_allclose(x, c / 5.0, atol=1e-12)

    def test_boundary_grid_oracle_2d(self):
        # the entire constraint boundary is x(t) = sqrt(b) L^{-T} (cos t, sin t)
        rng = np.random.default_rng(12)
        for _ in range(10):
            q = random_spd(rng, 2)
            c = rng.standard_normal(2)
            b = float(rng.uniform(0.2, 5.0))
            x_opt = maximize_linear_under_quadratic(c, q, b)
            lower = np.linalg.cholesky(q)
            theta = np.linspace(0, 2 * np.pi, 20001)
            boundary = np.sqrt(b) * np.linalg.solve(
                lower.T, np.stack([np.cos(theta), np.sin(theta)])
            )
            np.testing.assert_allclose(boundary[:, 0] @ q @ boundary[:, 0], b, atol=1e-9)
            assert float(c @ x_opt) >= np.max(c @ boundary) - 1e-9

    def test_monte_carlo_feasible_points(self):
        rng = np.random.default_rng(13)
        d = 5
        q = random_spd(rng, d)
        c = rng.standard_normal(d)
        b = 2.0
        x_opt = maximize_linear_under_quadratic(c, q, b)
        lower = np.linalg.cholesky(q)
        z = rng.standard_normal((20000, d))
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        z *= rng.uniform(0, 1, size=(20000, 1)) ** (1 / d)
        feasible = np.sqrt(b) * np.linalg.solve(lower.T, z.T).T
        quad = np.einsum("ij,jk,ik->i", feasible, q, feasible)
        assert np.all(quad <= b + 1e-9)
        assert float(c @ x_opt) >= np.max(feasible @ c)

    def test_constraint_active(self):
        rng = np.random.default_rng(14)
        q = random_spd(rng, 4)
        c = rng.standard_normal(4)
        for b in (0.5, 1.0, 7.3):
            x = maximize_linear_under_quadratic(c, q, b)
            assert abs(x @ q @ x - b) <= 1e-9 * max(1.0, b)

    def test_stationarity(self):
        # at the optimum the objective gradient is parallel to the constraint's
        rng = np.random.default_rng(15)
        q = random_spd(rng, 6)
        c = rng.standard_normal(6)
        x = maximize_linear_under_quadratic(c, q, 3.0)
        g = q @ x
        np.testing.assert_allclose(c / np.linalg.norm(c), g / np.linalg.norm(g), atol=1e-10)

    @settings(derandomize=True, max_examples=40)
    @given(seed=st.integers(0, 10**6), scale=st.floats(0.01, 100.0))
    def test_direction_invariance_under_objective_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 8))
        q = random_spd(rng, d)
        c = rng.standard_normal(d)
        if np.linalg.norm(c) < 1e-6:
            return
        x1 = maximize_linear_under_quadratic(c, q, 1.5)
        x2 = maximize_linear_under_quadratic(scale * c, q, 1.5)
        np.testing.assert_allclose(x1, x2, atol=1e-8 * max(1.0, np.max(np.abs(x1))))

    def test_rejects_zero_objective(self):
        with pytest.raises(ZeroObjectiveError):
            maximize_linear_under_quadratic(np.zeros(3), np.eye(3), 1.0)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="positive"):
            maximize_linear_under_quadratic(np.ones(2), np.eye(2), 0.0)

    def test_rejects_asymmetric(self):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            maximize_linear_under_quadratic(np.ones(2), q, 1.0)

    def test_rejects_indefinite(self):
        q = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            maximize_linear_under_quadratic(np.ones(2), q, 1.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            maximize_linear_under_quadratic(np.ones(3), np.eye(2), 1.0)


# ---------------------------------------------------------------------------
# alignment

class TestAlignment:
    def test_identity_pair_is_one(self):
        p = ProjectionMatrix.identity(5)
        assert alignment(p, p, 5000, 0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair_is_zero(self):
        p1 = ProjectionMatrix(np.diag([1.0, 0.0]), rank=1)
        p2 = ProjectionMatrix(np.diag([0.0, 1.0]), rank=1)
        assert alignment(p1, p2, 5000, 0) == pytest.approx(0.0, abs=1e-12)

    def test_equal_projection_mean_is_rank_over_dim(self):
        # E||Px||^2 = rank/d for x uniform on the sphere
        rng = np.random.default_rng(16)
        p = random_projection(rng, 6, 3)
        value = alignment(p, p, 200_000, 17)
        assert value == pytest.approx(0.5, abs=0.01)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(18)
        p1 = random_projection(rng, 5, 2)
        p2 = random_projection(rng, 5, 3)
        a = alignment(p1, p2, 70_001, 9)  # crosses a block boundary
        b = alignment(p1, p2, 70_001, 9)
        assert a == b

    def test_seed_changes_value(self):
        rng = np.random.default_rng(19)
        p1 = random_projection(rng, 5, 2)
        p2 = random_projection(rng, 5, 3)
        assert alignment(p1, p2, 1000, 0) != alignment(p1, p2, 1000, 1)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(20)
        p1 = random_projection(rng, 7, 2)
        p2 = random_projection(rng, 7, 4)
        assert alignment(p1, p2, 20_000, 3) == pytest.approx(
            alignment(p2, p1, 20_000, 3), abs=1e-12
        )

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            d = int(rng.integers(2, 9))
            p1 = random_projection(rng, d, int(rng.integers(1, d + 1)))
            p2 = random_projection(rng, d, int(rng.integers(1, d + 1)))
            value = alignment(p1, p2, 50_000, 4)
            assert -0.02 <= value <= 1.0 + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            alignment(ProjectionMatrix.identity(2), ProjectionMatrix.identity(3), 10, 0)

    def test_bad_sample_count(self):
        p = ProjectionMatrix.identity(2)
        with pytest.raises(ValueError):
            alignment(p, p, 0, 0)
