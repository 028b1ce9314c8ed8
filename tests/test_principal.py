from unittest import mock

import numpy as np
import pytest

from scoregap import (
    CostMatrix,
    DegenerateObjectiveError,
    DimensionMismatchError,
    NonFiniteError,
    PopulationModel,
    ProjectionMatrix,
    Subgroup,
    disparity_example,
    group_optimal_rule,
    movement,
    welfare_gain,
    welfare_maximizing_rule,
)

from conftest import random_population, random_unit_rules


def _degenerate_population():
    # both groups see only the first axis while w* points along the second
    p = ProjectionMatrix(np.array([[1.0], [0.0]]))
    ident = CostMatrix.identity(2)
    return PopulationModel(
        group1=Subgroup(name="a", cost=ident, projection=p),
        group2=Subgroup(name="b", cost=ident, projection=p),
        w_star=np.array([0.0, 1.0]),
    )


E1 = np.array([[1.0], [0.0]])
SKEW = np.array([[2.0, 1.0], [1.0, 1.0]])  # its inverse is [[1, -1], [-1, 2]], so every solve below is exact


class TestPopulationModel:
    def test_pull_direction_oracle(self):
        rng = np.random.default_rng(0)
        pop = random_population(rng, d=7)
        for gid in (1, 2):
            g = pop.group(gid)
            oracle = g.projection.matrix @ np.linalg.solve(g.cost.matrix, pop.w_star)
            np.testing.assert_allclose(pop.pull_direction(gid), oracle, atol=1e-10)

    def test_gain_direction_is_sum_of_pulls(self):
        rng = np.random.default_rng(1)
        pop = random_population(rng, d=5)
        np.testing.assert_allclose(
            pop.gain_direction, pop.pull_direction(1) + pop.pull_direction(2), atol=1e-12
        )

    def test_degenerate_flag(self):
        assert _degenerate_population().degenerate
        rng = np.random.default_rng(2)
        assert not random_population(rng, d=4).degenerate

    def test_group_lookup(self):
        rng = np.random.default_rng(3)
        pop = random_population(rng, d=3)
        assert pop.group(1) is pop.group1
        assert pop.group(2) is pop.group2
        with pytest.raises(ValueError):
            pop.group(3)

    def test_keeps_a_read_only_copy_of_w_star(self):
        rng = np.random.default_rng(4)
        pop = random_population(rng, d=3)
        w = pop.w_star.copy()
        copy = PopulationModel(group1=pop.group1, group2=pop.group2, w_star=w)
        w[:] = 0.0
        np.testing.assert_array_equal(copy.w_star, pop.w_star)
        np.testing.assert_array_equal(copy.unit_pulls, pop.unit_pulls)
        assert not copy.w_star.flags.writeable

    @pytest.mark.parametrize("basis2, cost2, w_star, attribute, value", [
        # ||P_g z|| = 1 = tolerance(||z||) for both groups, since 1 + 1e16 rounds to 1e16
        (E1, np.eye(2), [1.0, 1e8], "zero_pulls", (True, True)),
        # ||t_1|| = 1 = tolerance(||t_1|| + ||t_2||), with ||t_2|| = 1e8 - 1
        (np.eye(2)[:, 1:], np.eye(2), [1.0, 1e8 - 1.0], "zero_pulls", (True, False)),
        # t_1 = (1e8 + 1, 0) and t_2 = (1 - 1e8, 0): ||s|| = 2 = tolerance(||t_1|| + ||t_2||)
        (E1, SKEW, [1e8 + 1.0, 2e8], "degenerate", True),
        # s = (1, 1e8) and group 1 sees e1: n_1 = 1 = tolerance(||s||); n_2 = ||s||, held at 2**-e = 2**-27
        (np.eye(2), SKEW, [33333334.0, 66666667.0], "perceived", (0.0, 1e8 * 2.0 ** -27)),
    ])
    def test_a_value_at_exactly_its_tolerance_is_zero(self, basis2, cost2, w_star, attribute, value):
        pop = PopulationModel(
            group1=Subgroup(name="a", cost=CostMatrix.identity(2), projection=ProjectionMatrix(E1)),
            group2=Subgroup(name="b", cost=CostMatrix(cost2), projection=ProjectionMatrix(basis2)),
            w_star=np.array(w_star),
        )
        assert getattr(pop, attribute) == value

    def test_a_cost_solve_past_the_float_range_names_its_subgroup(self):
        # a stand-in for a balanced cost so nearly singular that its solve overflows
        g = Subgroup(name="a", cost=CostMatrix.identity(2), projection=ProjectionMatrix.identity(2))
        with mock.patch("numpy.linalg.solve", return_value=np.array([np.inf, 1.0])):
            with pytest.raises(NonFiniteError, match="^a: cost solve overflows to a non-finite value$"):
                PopulationModel(group1=g, group2=g, w_star=np.ones(2))

    def test_a_gain_direction_past_the_float_range_raises(self):
        # each pull fits (1e308 < 2**1024), but t_1 + t_2 = 2e308 does not
        g = Subgroup(name="a", cost=CostMatrix.identity(2), projection=ProjectionMatrix.identity(2))
        pop = PopulationModel(group1=g, group2=g, w_star=np.array([1e200, 1e308]))
        np.testing.assert_array_equal(pop.pull_direction(1), [1e200, 1e308])
        with pytest.raises(NonFiniteError, match="^gain direction overflows to a non-finite value$"):
            pop.gain_direction
        pop = PopulationModel(group1=g, group2=g, w_star=np.array([1e200, 8e307]))
        np.testing.assert_array_equal(pop.gain_direction, [2e200, 1.6e308])

    def test_dim_mismatch(self):
        g3 = Subgroup(name="a", cost=CostMatrix.identity(3),
                      projection=ProjectionMatrix.identity(3))
        g4 = Subgroup(name="b", cost=CostMatrix.identity(4),
                      projection=ProjectionMatrix.identity(4))
        with pytest.raises(DimensionMismatchError):
            PopulationModel(group1=g3, group2=g4, w_star=np.ones(3))
        with pytest.raises(DimensionMismatchError):
            PopulationModel(group1=g3, group2=g3, w_star=np.ones(5))


class TestWelfareGain:
    def test_equals_sum_of_movement_gains(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pop = random_population(rng)
            w = rng.standard_normal(pop.dim)
            oracle = float(
                (movement(pop.group1, w) + movement(pop.group2, w)) @ pop.w_star
            )
            assert welfare_gain(pop, w) == pytest.approx(oracle, abs=1e-12)

    def test_linear_functional_of_the_rule(self):
        rng = np.random.default_rng(5)
        pop = random_population(rng, d=5)
        w = rng.standard_normal(5)
        assert welfare_gain(pop, w) == pytest.approx(
            float(w @ pop.gain_direction), abs=1e-10
        )

    def test_dim_mismatch(self):
        rng = np.random.default_rng(6)
        pop = random_population(rng, d=3)
        with pytest.raises(DimensionMismatchError):
            welfare_gain(pop, np.ones(4))


class TestWelfareMaximizingRule:
    def test_unit_norm_and_direction(self):
        rng = np.random.default_rng(7)
        pop = random_population(rng, d=8)
        w = welfare_maximizing_rule(pop)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10)
        s = pop.gain_direction
        np.testing.assert_allclose(w, s / np.linalg.norm(s), atol=1e-10)
        # the rule is a direction: rescaling w* leaves it unchanged
        for c in (1e-3, 7.5, 1e3):
            scaled = PopulationModel(group1=pop.group1, group2=pop.group2, w_star=c * pop.w_star)
            np.testing.assert_allclose(welfare_maximizing_rule(scaled), w, rtol=0, atol=1e-12)

    def test_beats_random_unit_rules(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pop = random_population(rng)
            w = welfare_maximizing_rule(pop)
            best = welfare_gain(pop, w)
            rules = random_unit_rules(rng, 2000, pop.dim)
            gains = rules @ pop.gain_direction
            assert best >= np.max(gains) - 1e-9

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateObjectiveError):
            welfare_maximizing_rule(_degenerate_population())


class TestGroupOptimalRule:
    def test_direction_is_normalized_pull(self):
        rng = np.random.default_rng(11)
        pop = random_population(rng, d=7)
        for gid in (1, 2):
            t = pop.pull_direction(gid)
            np.testing.assert_allclose(
                group_optimal_rule(pop, gid), t / np.linalg.norm(t), atol=1e-10
            )

    def test_maximizes_group_gain(self):
        rng = np.random.default_rng(12)
        pop = random_population(rng, d=5)
        for gid in (1, 2):
            w = group_optimal_rule(pop, gid)
            best = float(movement(pop.group(gid), w) @ pop.w_star)
            rules = random_unit_rules(rng, 2000, 5)
            gains = rules @ pop.pull_direction(gid)
            assert best >= np.max(gains) - 1e-9

    def test_degenerate_group_raises(self):
        with pytest.raises(DegenerateObjectiveError):
            group_optimal_rule(_degenerate_population(), 1)

    @pytest.mark.parametrize("gid", [0, 3])
    def test_a_group_id_other_than_1_or_2_raises(self, gid):
        # gid 0 would otherwise index group 2's pull
        with pytest.raises(ValueError, match=f"^group id must be 1 or 2, got {gid}$"):
            group_optimal_rule(disparity_example(0.3), gid)
