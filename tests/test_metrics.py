import numpy as np
import pytest

from scoregap import (
    CostMatrix,
    DimensionMismatchError,
    PopulationModel,
    ProjectionMatrix,
    Subgroup,
    ZeroProjectedRuleError,
    disparity_example,
    improvement_difference,
    improvement_report,
    movement,
    optimal_per_unit_improvement,
    per_unit_improvement,
    total_improvement,
    welfare_gain,
    welfare_maximizing_rule,
)

from conftest import random_population, random_unit_rules


class TestTotalImprovement:
    def test_is_movement_gain(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pop = random_population(rng)
            w = rng.standard_normal(pop.dim)
            for gid in (1, 2):
                oracle = float(movement(pop.group(gid), w) @ pop.w_star)
                assert total_improvement(pop, gid, w) == pytest.approx(oracle, abs=1e-12)

    def test_two_axis_construction_values(self):
        for eps in (0.1, 0.5, 0.9):
            pop = disparity_example(eps)
            w = welfare_maximizing_rule(pop)
            assert total_improvement(pop, 1, w) == pytest.approx(eps**2, abs=1e-12)
            assert total_improvement(pop, 2, w) == pytest.approx(1 - eps**2, abs=1e-12)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(1)
        pop = random_population(rng, d=3)
        with pytest.raises(DimensionMismatchError):
            total_improvement(pop, 1, np.ones(4))


class TestPerUnitImprovement:
    def test_ratio_definition(self):
        rng = np.random.default_rng(2)
        pop = random_population(rng, d=5)
        w = rng.standard_normal(5)
        for gid in (1, 2):
            perceived = pop.group(gid).projection.matrix @ w
            expected = total_improvement(pop, gid, w) / np.linalg.norm(perceived)
            assert per_unit_improvement(pop, gid, w) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariant_in_the_rule(self):
        rng = np.random.default_rng(3)
        pop = random_population(rng, d=6)
        w = rng.standard_normal(6)
        for scale in (7.3, 1e-14):
            assert per_unit_improvement(pop, 1, w) == pytest.approx(
                per_unit_improvement(pop, 1, scale * w), abs=1e-9
            )

    def test_zero_perceived_rule_raises(self):
        pop = disparity_example(0.3)
        # group 1 sees only the first axis; a rule along the second is invisible
        with pytest.raises(ZeroProjectedRuleError):
            per_unit_improvement(pop, 1, np.array([0.0, 1.0]))


class TestOptimalPerUnitImprovement:
    def test_equals_pull_norm(self):
        rng = np.random.default_rng(4)
        pop = random_population(rng, d=7)
        for gid in (1, 2):
            assert optimal_per_unit_improvement(pop, gid) == pytest.approx(
                float(np.linalg.norm(pop.pull_direction(gid))), abs=1e-12
            )

    def test_is_the_maximum_over_unit_rules(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pop = random_population(rng, d=4)
            for gid in (1, 2):
                star = optimal_per_unit_improvement(pop, gid)
                t = pop.pull_direction(gid)
                # the bound is attained at the normalized pull direction
                attained = per_unit_improvement(pop, gid, t / np.linalg.norm(t))
                assert attained == pytest.approx(star, abs=1e-10)
                # and no random unit rule beats it
                for w in random_unit_rules(rng, 2000, 4):
                    if np.linalg.norm(pop.group(gid).projection.matrix @ w) < 1e-9:
                        continue
                    assert per_unit_improvement(pop, gid, w) <= star + 1e-9

    def test_rank_zero_projection_raises(self):
        pop = PopulationModel(
            group1=Subgroup(name="blind", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix(np.zeros((2, 0)))),
            group2=Subgroup(name="sighted", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix.identity(2)),
            w_star=np.array([1.0, 1.0]),
        )
        with pytest.raises(ZeroProjectedRuleError):
            optimal_per_unit_improvement(pop, 1)


class TestImprovementDifference:
    def test_is_gap_of_totals(self):
        rng = np.random.default_rng(6)
        pop = random_population(rng, d=5)
        w = rng.standard_normal(5)
        expected = total_improvement(pop, 1, w) - total_improvement(pop, 2, w)
        assert improvement_difference(pop, w) == pytest.approx(expected, abs=1e-12)


class TestImprovementReport:
    def test_matches_individual_metrics(self):
        rng = np.random.default_rng(7)
        pop = random_population(rng, d=6)
        w = welfare_maximizing_rule(pop)
        rep = improvement_report(pop, w)
        assert rep["I1"] == pytest.approx(total_improvement(pop, 1, w), abs=1e-12)
        assert rep["I2"] == pytest.approx(total_improvement(pop, 2, w), abs=1e-12)
        assert rep["uI1"] == pytest.approx(per_unit_improvement(pop, 1, w), abs=1e-12)
        assert rep["uI2"] == pytest.approx(per_unit_improvement(pop, 2, w), abs=1e-12)
        assert rep["uI1_star"] == pytest.approx(
            optimal_per_unit_improvement(pop, 1), abs=1e-12
        )
        assert rep["welfare"] == pytest.approx(welfare_gain(pop, w), abs=1e-12)
        assert rep["difference"] == pytest.approx(improvement_difference(pop, w), abs=1e-12)

    def test_welfare_is_sum_of_totals(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pop = random_population(rng)
            w = rng.standard_normal(pop.dim)
            rep = improvement_report(pop, w)
            assert rep["welfare"] == pytest.approx(rep["I1"] + rep["I2"], abs=1e-9)

    def test_undefined_ratios_become_none(self):
        pop = disparity_example(0.3)
        rep = improvement_report(pop, np.array([0.0, 1.0]))
        assert rep["uI1"] is None
        assert rep["I1"] == pytest.approx(0.0, abs=1e-15)
        assert rep["uI2"] is not None

    def test_rank_zero_optimal_is_none(self):
        pop = PopulationModel(
            group1=Subgroup(name="blind", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix(np.zeros((2, 0)))),
            group2=Subgroup(name="sighted", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix.identity(2)),
            w_star=np.array([1.0, 1.0]),
        )
        rep = improvement_report(pop, np.array([1.0, 0.0]))
        assert rep["uI1_star"] is None
        assert rep["uI1"] is None

    def test_keys_are_the_document_metrics(self):
        rng = np.random.default_rng(9)
        pop = random_population(rng, d=4)
        rep = improvement_report(pop, welfare_maximizing_rule(pop))
        assert set(rep) == {
            "welfare", "difference", "I1", "I2", "uI1", "uI2", "uI1_star", "uI2_star",
        }
