import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scoregap import (
    DimensionMismatchError,
    EmptyDataError,
    NonFiniteError,
    ProjectionMatrix,
    RankTooLargeError,
    ShapeMismatchError,
    alignment,
    effective_rank,
    min_norm_least_squares,
    subspace_projection,
)

from scoregap.linalg import RANK_TOL

from conftest import random_orthonormal, random_projection


# ---------------------------------------------------------------------------
# ProjectionMatrix type

class TestProjectionMatrix:
    def test_identity(self):
        p = ProjectionMatrix.identity(4)
        assert p.rank == 4
        np.testing.assert_allclose(p.matrix, np.eye(4))

    def test_built_on_a_basis(self):
        rng = np.random.default_rng(0)
        b = random_orthonormal(rng, 6, 2)
        p = ProjectionMatrix(b)
        assert p.rank == 2 and p.dim == 6
        # projects basis vectors to themselves, annihilates the complement
        np.testing.assert_allclose(p.matrix @ b, b, atol=1e-12)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(p.apply(x), p.matrix @ x, atol=1e-12)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectionMatrix(np.array([[1.0], [1e-3]]))

    def test_rejects_non_symmetric(self):
        m = np.array([[1.0, 0.1], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ProjectionMatrix.from_matrix(m)

    def test_rejects_non_idempotent(self):
        m = np.array([[0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="idempotent"):
            ProjectionMatrix.from_matrix(m)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            ProjectionMatrix.from_matrix(np.zeros((2, 3)))

    def test_matrix_is_read_only(self):
        p = ProjectionMatrix.identity(2)
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            p.basis[0, 0] = 5.0

    def test_matrix_formed_on_first_use(self):
        rng = np.random.default_rng(1)
        p = random_projection(rng, 5, 2)
        alignment(p, p)
        assert "matrix" not in vars(p)  # neither construction nor alignment forms it
        assert p.matrix is p.matrix
        m = p.basis @ p.basis.T
        np.testing.assert_array_equal(p.matrix, (m + m.T) / 2.0)

    def test_zero_rank_allowed(self):
        p = ProjectionMatrix(np.zeros((3, 0)))
        assert p.rank == 0 and p.dim == 3
        np.testing.assert_array_equal(p.matrix, np.zeros((3, 3)))
        np.testing.assert_array_equal(p.apply(np.ones(3)), np.zeros(3))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), data=st.data())
    def test_dense_round_trip(self, seed, d, data):
        r = data.draw(st.integers(0, d))
        rng = np.random.default_rng(seed)
        v = random_orthonormal(rng, d, r)
        m = v @ v.T
        p = ProjectionMatrix.from_matrix((m + m.T) / 2.0)
        assert p.rank == r
        # same span: each basis lies in the other's range
        np.testing.assert_allclose(p.basis @ (p.basis.T @ v), v, atol=1e-12)
        np.testing.assert_allclose(p.matrix, m, atol=1e-12)
        e = rng.standard_normal((d, d))
        e = e + e.T
        e /= np.max(np.abs(e))
        with pytest.raises(ValueError):
            ProjectionMatrix.from_matrix(m + 1e-6 * e)


# ---------------------------------------------------------------------------
# subspace_projection

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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), d=st.integers(1, 12),
           data=st.data())
    def test_matches_the_svd_of_the_data_itself(self, seed, n, d, data):
        # tall, square and wide draws; rank-deficient ones; and ones whose
        # singular values are all equal, so a cut below the full rank is a tie
        rng = np.random.default_rng(seed)
        m = min(n, d)
        true_rank = data.draw(st.integers(0, m), label="true_rank")
        k = data.draw(st.integers(1, m), label="k")
        if data.draw(st.booleans(), label="tied"):
            x = random_orthonormal(rng, n, true_rank) @ random_orthonormal(rng, d, true_rank).T
        else:
            x = rng.standard_normal((n, true_rank)) @ rng.standard_normal((true_rank, d))
        x *= 10.0 ** rng.uniform(-3, 3)
        p = subspace_projection(x, k)

        _, s, vt = np.linalg.svd(x, full_matrices=False)
        rank = min(k, effective_rank(s))
        tie = bool(k < s.size and s[k - 1] > 0 and s[k - 1] - s[k] <= RANK_TOL * s[0])
        assert (p.rank, p.tie_warning) == (rank, tie)
        if not tie:  # a tied cut has no unique projection to compare
            # P has 2-norm 1, so this bound is relative
            np.testing.assert_allclose(p.matrix, vt[:rank].T @ vt[:rank], rtol=0, atol=1e-12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), d=st.integers(1, 8),
           exponent=st.integers(-900, 900))
    def test_power_of_two_scaling_changes_no_bit(self, seed, n, d, exponent):
        # the QR and SVD run on the data scaled to max |x| < 1, so any
        # power-of-two rescaling that stays normal gives the same projection
        x = np.random.default_rng(seed).standard_normal((n, d))
        k = min(n, d)
        p, q = subspace_projection(x, k), subspace_projection(np.ldexp(x, exponent), k)
        assert np.array_equal(p.basis, q.basis) and p.tie_warning == q.tie_warning

    def test_entries_near_the_float_limit(self):
        x = np.array([[1.0, 1.0, -1e308], [0.5, 2.0, 2.0], [0.5, 0.5, 0.5]])
        p = subspace_projection(x, 1)
        np.testing.assert_allclose(np.abs(p.basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)

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
# alignment

def dense_alignment(p1, p2, n_samples, seed):
    """Monte-Carlo oracle: mean and standard error of <P1 x, P2 x> over x = g/||g||."""
    x = np.random.default_rng(seed).standard_normal((n_samples, p1.dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    values = np.sum((x @ p1.matrix) * (x @ p2.matrix), axis=1)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_samples))


SAMPLE_COUNTS = [1000, 4096, 65536, 70_001]
ROUNDOFF = 1e-12


def _random_pair(seed, d, r1, r2):
    rng = np.random.default_rng(seed)
    return random_projection(rng, d, r1), random_projection(rng, d, r2)


_pairs = st.integers(1, 12).flatmap(lambda d: st.tuples(
    st.integers(0, 2**32 - 1), st.just(d), st.integers(0, d), st.integers(0, d)))


class TestAlignment:
    @pytest.mark.parametrize("n_samples", SAMPLE_COUNTS)
    @pytest.mark.parametrize("d, r1, r2", [(1, 1, 1), (2, 1, 1), (7, 2, 4), (64, 16, 20)])
    def test_matches_dense_estimator(self, d, r1, r2, n_samples):
        # the exact value is the mean the sampler estimated: within 5 standard errors
        rng = np.random.default_rng(d)
        p1, p2 = random_projection(rng, d, r1), random_projection(rng, d, r2)
        mean, se = dense_alignment(p1, p2, n_samples, 5)
        assert abs(alignment(p1, p2) - mean) <= 5.0 * se + ROUNDOFF

    @pytest.mark.parametrize("n_samples", SAMPLE_COUNTS)
    def test_rank_zero_and_equal_subspaces_match_dense_estimator(self, n_samples):
        rng = np.random.default_rng(8)
        p, zero = random_projection(rng, 7, 3), ProjectionMatrix(np.zeros((7, 0)))
        assert alignment(zero, p) == 0.0 == dense_alignment(zero, p, n_samples, 6)[0]
        assert alignment(p, p) == pytest.approx(3 / 7, rel=ROUNDOFF, abs=0.0)
        mean, se = dense_alignment(p, p, n_samples, 6)
        assert abs(alignment(p, p) - mean) <= 5.0 * se + ROUNDOFF

    def test_identity_pair_is_one(self):
        p = ProjectionMatrix.identity(5)
        assert alignment(p, p) == 1.0

    def test_orthogonal_pair_is_zero(self):
        p1 = ProjectionMatrix(np.array([[1.0], [0.0]]))
        p2 = ProjectionMatrix(np.array([[0.0], [1.0]]))
        assert alignment(p1, p2) == 0.0

    @pytest.mark.parametrize("d, axes1, axes2", [(2, (0,), (1,)), (6, (0, 1), (2, 3, 4)),
                                                 (5, (), (0, 1, 2, 3, 4)), (4, (1, 3), (0, 2))])
    def test_disjoint_spans_are_exactly_zero(self, d, axes1, axes2):
        p1, p2 = (ProjectionMatrix(np.eye(d)[:, list(axes)]) for axes in (axes1, axes2))
        assert alignment(p1, p2) == 0.0 == alignment(p2, p1)
        # in a rotated basis the cosines are roundoff, not exact zeros
        q = random_orthonormal(np.random.default_rng(d), d, d)
        assert 0.0 <= alignment(*(ProjectionMatrix(q @ p.basis) for p in (p1, p2))) <= ROUNDOFF

    def test_equal_projection_mean_is_rank_over_dim(self):
        # E||Px||^2 = rank/d for x uniform on the sphere
        rng = np.random.default_rng(16)
        for d, r in [(1, 1), (6, 3), (7, 0), (64, 16), (64, 64)]:
            p = random_projection(rng, d, r)
            assert alignment(p, p) == pytest.approx(r / d, rel=ROUNDOFF, abs=0.0)

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(1, 12))
            r1, r2 = (int(r) for r in rng.integers(0, d + 1, size=2))
            value = alignment(random_projection(rng, d, r1), random_projection(rng, d, r2))
            assert 0.0 <= value <= min(r1, r2) / d * (1.0 + ROUNDOFF)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pair=_pairs)
    def test_symmetric_in_arguments(self, pair):
        p1, p2 = _random_pair(*pair)
        assert alignment(p1, p2) == pytest.approx(alignment(p2, p1), rel=ROUNDOFF, abs=1e-15)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pair=_pairs, q_seed=st.integers(0, 2**32 - 1))
    def test_unchanged_by_a_common_change_of_basis(self, pair, q_seed):
        p1, p2 = _random_pair(*pair)
        d = p1.dim
        q = random_orthonormal(np.random.default_rng(q_seed), d, d)
        rotated = [ProjectionMatrix(q @ p.basis) for p in (p1, p2)]
        assert alignment(*rotated) == pytest.approx(alignment(p1, p2), rel=1e-10, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            alignment(ProjectionMatrix.identity(2), ProjectionMatrix.identity(3))
