import numpy as np
import pytest

from scoregap import (
    CostMatrix,
    DegenerateObjectiveError,
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

    @pytest.mark.parametrize("gid", [0, 3])
    def test_a_group_id_other_than_1_or_2_raises(self, gid):
        # gid 0 would otherwise index group 2's pull
        with pytest.raises(ValueError, match=f"^group id must be 1 or 2, got {gid}$"):
            total_improvement(disparity_example(0.3), gid, np.array([0.0, 1.0]))


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

    @pytest.mark.parametrize("w", [[1e-170, 1e-170], [1e160, 1e160], [1.0, 1.0]])
    def test_a_rule_of_any_scale(self, w):
        # the norms are taken at a power-of-two scale of w, so no square underflows or overflows
        assert per_unit_improvement(disparity_example(0.5), 1, np.array(w)) == pytest.approx(0.5, rel=1e-15)

    def test_zero_perceived_rule_raises(self):
        pop = disparity_example(0.3)
        # group 1 sees only the first axis; a rule along the second is invisible
        with pytest.raises(ZeroProjectedRuleError):
            per_unit_improvement(pop, 1, np.array([0.0, 1.0]))
        # the zero rule: ||P_g w|| and its tolerance are both 0
        with pytest.raises(ZeroProjectedRuleError):
            per_unit_improvement(pop, 1, np.zeros(2))


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
    """The report reads the welfare rule's metrics from the closed forms the guarantee checks judge."""

    def test_matches_individual_metrics(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pop = random_population(rng)
            w = welfare_maximizing_rule(pop)
            rep = improvement_report(pop)
            scale = rep["welfare"]
            for gid in (1, 2):
                assert rep[f"I{gid}"] == pytest.approx(total_improvement(pop, gid, w), abs=1e-12 * scale)
                assert rep[f"uI{gid}"] == pytest.approx(per_unit_improvement(pop, gid, w), rel=1e-12, abs=1e-12 * scale)
                assert rep[f"uI{gid}_star"] == optimal_per_unit_improvement(pop, gid)
            assert rep["welfare"] == pytest.approx(welfare_gain(pop, w), rel=1e-12)
            assert rep["difference"] == pytest.approx(improvement_difference(pop, w), abs=1e-12 * scale)

    def test_welfare_is_sum_of_totals(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pop = random_population(rng)
            rep = improvement_report(pop)
            assert rep["welfare"] == pytest.approx(rep["I1"] + rep["I2"], rel=1e-12)
            w = rng.standard_normal(pop.dim)  # and so it is for any rule
            total = total_improvement(pop, 1, w) + total_improvement(pop, 2, w)
            assert welfare_gain(pop, w) == pytest.approx(total, abs=1e-9)

    def test_undefined_ratios_become_none(self):
        # group 1 sees e_1 and e_2 while w* = e_3, so it perceives none of the welfare rule
        pop = PopulationModel(
            group1=Subgroup(name="blind", cost=CostMatrix.identity(3),
                            projection=ProjectionMatrix(np.eye(3)[:, :2])),
            group2=Subgroup(name="sighted", cost=CostMatrix.identity(3),
                            projection=ProjectionMatrix.identity(3)),
            w_star=np.array([0.0, 0.0, 1.0]),
        )
        rep = improvement_report(pop)
        assert pop.perceived[0] == 0.0
        assert (rep["uI1"], rep["I1"], rep["uI1_star"]) == (None, 0.0, 0.0)
        assert rep["uI2"] == rep["uI2_star"] == rep["I2"] == rep["welfare"] == 1.0

    def test_rank_zero_optimal_is_none(self):
        pop = PopulationModel(
            group1=Subgroup(name="blind", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix(np.zeros((2, 0)))),
            group2=Subgroup(name="sighted", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix.identity(2)),
            w_star=np.array([1.0, 1.0]),
        )
        rep = improvement_report(pop)
        assert rep["uI1_star"] is None
        assert rep["uI1"] is None

    def test_a_degenerate_population_has_no_report(self):
        pop = PopulationModel(
            group1=Subgroup(name="blind", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix(np.zeros((2, 0)))),
            group2=Subgroup(name="blind too", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix(np.zeros((2, 0)))),
            w_star=np.array([1.0, 1.0]),
        )
        with pytest.raises(DegenerateObjectiveError):
            improvement_report(pop)

    def test_keys_are_the_document_metrics(self):
        rng = np.random.default_rng(9)
        pop = random_population(rng, d=4)
        rep = improvement_report(pop)
        assert set(rep) == {
            "welfare", "difference", "I1", "I2", "uI1", "uI2", "uI1_star", "uI2_star",
        }
