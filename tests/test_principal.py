import numpy as np
import pytest

from scoregap import (
    CostMatrix,
    DegenerateObjectiveError,
    DimensionMismatchError,
    PopulationModel,
    ProjectionMatrix,
    Subgroup,
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
