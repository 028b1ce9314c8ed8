import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scoregap import (
    ConfigError,
    CostMatrix,
    DimensionMismatchError,
    EmptyPeerSetError,
    NonFiniteError,
    NotPositiveDefiniteError,
    PeerDataset,
    ProjectionMatrix,
    ShapeMismatchError,
    Subgroup,
    best_response,
    estimate_rule_analytic,
    estimate_rule_empirical,
    movement,
    utility,
)

from conftest import random_orthonormal, random_projection, random_spd, random_subgroup


class TestCostMatrix:
    def test_scaled_solve_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 6)
        v = rng.standard_normal(6)
        y, k = CostMatrix(a).scaled_solve(v)
        assert 0.5 <= np.max(np.abs(y)) < 1.0
        np.testing.assert_allclose(np.ldexp(y, k), np.linalg.solve(a, v), rtol=1e-10)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_a=st.floats(-300.0, 300.0), log_v=st.floats(-300.0, 300.0),
           zeros=st.integers(0, 6))
    def test_scaled_solve_returns_y_in_its_range(self, seed, log_a, log_v, zeros):
        # max |y| in [1/2, 1) whatever the scales of A and v, and of A's eigenvalues (10**-6 to 10**6),
        # so `movement` reads its overflow off k alone; y = 0 only for v = 0
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        q = random_orthonormal(rng, d, d)
        a = q @ np.diag(10.0 ** rng.uniform(-6.0, 6.0, size=d)) @ q.T
        v = rng.standard_normal(d) * 10.0 ** log_v
        v[:zeros] = 0.0
        y, k = CostMatrix((a + a.T) * 10.0 ** log_a).scaled_solve(v)
        top = np.max(np.abs(y))
        assert 0.5 <= top < 1.0 if v.any() else top == 0.0

    def test_scaled_solve_of_a_cost_wider_than_the_float_range(self):
        # the diagonal spans 1e310, yet A^{-1} v = (1e-300, 1e10); y holds the first entry as a subnormal
        y, k = CostMatrix(np.diag([1e300, 1e-10])).scaled_solve(np.array([1.0, 1.0]))
        np.testing.assert_allclose(np.ldexp(y, k), [1e-300, 1e10], rtol=1e-12)

    @pytest.mark.parametrize("j", [-300, -1, 37, 300])
    def test_scaling_the_cost_by_a_power_of_two_changes_only_the_exponent(self, j):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 4) * np.outer([1e-5, 1.0, 3.0, 1e4], [1e-5, 1.0, 3.0, 1e4])
        v = rng.standard_normal(4)
        y, k = CostMatrix(a).scaled_solve(v)
        y_scaled, k_scaled = CostMatrix(np.ldexp(a, j)).scaled_solve(v)
        assert (y_scaled == y).all() and k_scaled == k - j

    def test_quad(self):
        cost = CostMatrix(np.diag([2.0, 3.0]))
        assert cost.quad(np.array([1.0, 1.0])) == pytest.approx(5.0)

    def test_keeps_a_read_only_copy_of_the_callers_matrix(self):
        a = np.diag([2.0, 3.0])
        cost = CostMatrix(a)
        a[:] = 7.0
        np.testing.assert_array_equal(cost.matrix, np.diag([2.0, 3.0]))
        assert cost.quad(np.array([1.0, 1.0])) == 5.0
        assert not cost.matrix.flags.writeable

    def test_identity_and_scaled(self):
        np.testing.assert_array_equal(CostMatrix.identity(3).matrix, np.eye(3))
        np.testing.assert_array_equal(
            CostMatrix(4.0 * np.eye(2)).matrix, 4.0 * np.eye(2)
        )

    @pytest.mark.parametrize("spec, want", [
        (None, np.eye(2)),
        (4.0, 4.0 * np.eye(2)),
        (np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[2.0, 0.5], [0.5, 1.0]])),
    ])
    def test_from_spec_builds_each_kind(self, spec, want):
        np.testing.assert_array_equal(CostMatrix.from_spec(spec, 2, "costs.group1", "feature count").matrix, want)

    @pytest.mark.parametrize("spec, message", [
        (np.eye(3), "costs.group1: dimension 3 does not match feature count 2"),
        (np.array([[1.0, 0.0], [0.0, -1.0]]), "costs.group1: Cholesky failed; cost matrix is not positive definite"),
    ])
    def test_from_spec_names_the_field(self, spec, message):
        with pytest.raises(ConfigError) as info:
            CostMatrix.from_spec(spec, 2, "costs.group1", "feature count")
        assert str(info.value) == message

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefiniteError):
            CostMatrix(np.array([[1.0, 0.2], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_symmetry_is_judged_relative_to_scale(self, scale):
        a = random_spd(np.random.default_rng(2), 4) * scale
        roundoff, asymmetric = a.copy(), a.copy()
        roundoff[0, 1] += 1e-13 * scale
        asymmetric[0, 1] += 1e-6 * scale
        CostMatrix(roundoff)
        with pytest.raises(NotPositiveDefiniteError, match="not symmetric"):
            CostMatrix(asymmetric)

    def test_asymmetry_of_exactly_the_tolerance_is_accepted(self):
        # max |A - A^T| = 1e-10 = SYMMETRY_TOL * max |A|
        CostMatrix(np.array([[1.0, 1e-10], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            CostMatrix(np.diag([1.0, -2.0]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            CostMatrix(np.diag([1.0, 0.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            CostMatrix(np.ones((2, 3)))


class TestPeerDataset:
    def test_empty_raises(self):
        with pytest.raises(EmptyPeerSetError):
            PeerDataset(features=np.zeros((0, 3)), scores=np.zeros(0))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            PeerDataset(features=np.ones((3, 2)), scores=np.ones(2))

    def test_from_rule_and_consistency(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4))
        w = rng.standard_normal(4)
        peers = PeerDataset.from_rule(x, w)
        assert peers.check_consistent(w)
        assert not peers.check_consistent(w + 0.1)

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e8])
    def test_consistency_does_not_depend_on_units(self, c):
        # scores summed in another order differ from x @ w by roundoff only,
        # while the wrong rule misses by 0.1 per unit of the features
        rng = np.random.default_rng(3)
        x = c * rng.standard_normal((50, 6))
        w = rng.standard_normal(6)
        peers = PeerDataset(features=x, scores=(x * w).sum(axis=1))
        assert peers.check_consistent(w)
        assert not peers.check_consistent(w + 0.1)

    def test_keeps_read_only_copies_of_the_callers_arrays(self):
        x, w = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0])
        y = x @ w
        peers = PeerDataset(features=x, scores=y)
        x[:], y[:] = 5.0, 9.0
        np.testing.assert_array_equal(peers.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(peers.scores, [-1.0, -1.0])
        assert peers.check_consistent(w)
        assert not peers.features.flags.writeable and not peers.scores.flags.writeable

    def test_the_zero_rule_is_consistent_with_zero_scores(self):
        # the residual and its scale are both 0, and 0 counts as zero
        peers = PeerDataset.from_rule(np.ones((2, 3)), np.zeros(3))
        assert peers.check_consistent(np.zeros(3))

    def test_consistency_dim_check(self):
        peers = PeerDataset(features=np.ones((2, 3)), scores=np.ones(2))
        with pytest.raises(DimensionMismatchError):
            peers.check_consistent(np.ones(4))


class TestSubgroup:
    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Subgroup(name="g", cost=CostMatrix.identity(3),
                     projection=ProjectionMatrix.identity(4))


class TestEstimation:
    def test_analytic_is_projected_rule(self):
        rng = np.random.default_rng(4)
        p = random_projection(rng, 6, 2)
        w = rng.standard_normal(6)
        np.testing.assert_allclose(estimate_rule_analytic(p, w), p.matrix @ w, atol=1e-12)

    def test_empirical_equals_analytic_on_spanning_peers(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(1, d + 1))
            p = random_projection(rng, d, r)
            w = rng.standard_normal(d)
            x = rng.standard_normal((r + 4, d)) @ p.matrix
            peers = PeerDataset.from_rule(x, w)
            np.testing.assert_allclose(
                estimate_rule_empirical(peers), estimate_rule_analytic(p, w), atol=1e-8
            )

    def test_empirical_underspanning_projects_to_observed_span(self):
        # fewer peer directions than the subgroup's nominal subspace: the fit
        # recovers the projection onto what was actually seen
        rng = np.random.default_rng(6)
        basis = random_orthonormal(rng, 8, 4)
        seen = basis[:, :2]
        w = rng.standard_normal(8)
        x = rng.standard_normal((6, 2)) @ seen.T
        peers = PeerDataset.from_rule(x, w)
        np.testing.assert_allclose(
            estimate_rule_empirical(peers), seen @ seen.T @ w, atol=1e-8
        )

    def test_empirical_noisy_scores_match_pinv(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        peers = PeerDataset(features=x, scores=y)
        np.testing.assert_allclose(
            estimate_rule_empirical(peers), np.linalg.pinv(x) @ y, atol=1e-9
        )

    def test_analytic_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            estimate_rule_analytic(ProjectionMatrix.identity(3), np.ones(4))


class TestMovement:
    def test_closed_form(self):
        rng = np.random.default_rng(8)
        g = random_subgroup(rng, 6, rank=4)
        w = rng.standard_normal(6)
        oracle = np.linalg.solve(g.cost.matrix, g.projection.matrix @ w)
        np.testing.assert_allclose(movement(g, w), oracle, atol=1e-10)

    @settings(derandomize=True, max_examples=50)
    @given(seed=st.integers(0, 10**6), lam=st.floats(-5.0, 5.0))
    def test_linearity_in_the_rule(self, seed, lam):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        g = random_subgroup(rng, d)
        w1 = rng.standard_normal(d)
        w2 = rng.standard_normal(d)
        lhs = movement(g, w1 + lam * w2)
        rhs = movement(g, w1) + lam * movement(g, w2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1.0, abs(lam)))

    def test_dim_mismatch(self):
        rng = np.random.default_rng(9)
        g = random_subgroup(rng, 3)
        with pytest.raises(DimensionMismatchError):
            movement(g, np.ones(4))

    # A^{-1} w = (w_1 * 1e300, w_2) for the cost diag(1e-300, 1) and P = I.
    TINY = Subgroup(name="tiny", cost=CostMatrix(np.diag([1e-300, 1.0])), projection=ProjectionMatrix(np.eye(2)))

    def test_past_the_float_range_names_the_subgroup(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step in (movement, lambda g, w: best_response(g, np.zeros(2), w)):
                with pytest.raises(NonFiniteError, match="^tiny: movement overflows to a non-finite value$"):
                    step(self.TINY, [1e300, 1.0])

    def test_near_the_float_limit_stays_finite(self):
        w = np.array([1.79e8, 1.0])  # 1.79e308, just below the largest float
        y, k = self.TINY.cost.scaled_solve(w)
        assert k == 1024
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = movement(self.TINY, w)
        assert np.isfinite(got).all()
        assert got.tobytes() == np.ldexp(y, k).tobytes()


class TestBestResponse:
    def test_shift_does_not_depend_on_start(self):
        rng = np.random.default_rng(10)
        g = random_subgroup(rng, 5)
        w = rng.standard_normal(5)
        x1 = rng.standard_normal(5)
        x2 = rng.standard_normal(5)
        np.testing.assert_allclose(
            best_response(g, x1, w) - x1, best_response(g, x2, w) - x2, atol=1e-12
        )

    def test_beats_random_alternatives(self):
        rng = np.random.default_rng(11)
        g = random_subgroup(rng, 6)
        w = rng.standard_normal(6)
        x = rng.standard_normal(6)
        star = best_response(g, x, w)
        u_star = utility(g, x, star, w)
        for scale in (1e-3, 0.1, 1.0, 10.0):
            candidates = star + scale * rng.standard_normal((200, 6))
            for cand in candidates:
                assert utility(g, x, cand, w) <= u_star + 1e-12

    def test_gradient_vanishes_at_best_response(self):
        rng = np.random.default_rng(12)
        g = random_subgroup(rng, 5)
        w = rng.standard_normal(5)
        x = rng.standard_normal(5)
        star = best_response(g, x, w)
        h = 1e-5
        grad = np.zeros(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            grad[i] = (utility(g, x, star + e, w) - utility(g, x, star - e, w)) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-8


class TestUtility:
    def test_hand_computed_value(self):
        g = Subgroup(
            name="g",
            cost=CostMatrix(np.diag([2.0, 1.0])),
            projection=ProjectionMatrix(np.array([[1.0], [0.0]])),
        )
        w = np.array([3.0, 5.0])
        x = np.array([0.0, 0.0])
        x_new = np.array([1.0, 2.0])
        # perceived rule (3, 0): score 3*1; cost 0.5*(2*1 + 1*4) = 3
        assert utility(g, x, x_new, w) == pytest.approx(0.0)

    def test_no_move_no_cost(self):
        rng = np.random.default_rng(13)
        g = random_subgroup(rng, 4)
        w = rng.standard_normal(4)
        x = rng.standard_normal(4)
        est = g.projection.matrix @ w
        assert utility(g, x, x, w) == pytest.approx(float(est @ x), abs=1e-12)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(14)
        g = random_subgroup(rng, 3)
        with pytest.raises(DimensionMismatchError):
            utility(g, np.ones(3), np.ones(3), np.ones(2))
