import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scoregap import (
    ConditionCheck,
    CostMatrix,
    DegenerateObjectiveError,
    EpsilonOutOfRangeError,
    PopulationModel,
    ProjectionMatrix,
    ScoregapError,
    Subgroup,
    ZeroProjectedRuleError,
    check_do_no_harm,
    check_equal_improvement,
    check_per_unit_optimality,
    check_sufficient_per_unit,
    condition_report,
    conditions,
    disparity_example,
    improvement_difference,
    optimal_per_unit_improvement,
    per_unit_improvement,
    total_improvement,
    welfare_maximizing_rule,
)

from conftest import (
    assert_entry_agrees,
    orthogonal_population,
    random_orthonormal,
    random_population,
    random_projection,
    random_spd,
    random_unit_rules,
    scaled_population,
    zero_pull_population,
)


def _identical_population(rng, d=5):
    g = Subgroup(name="g", cost=CostMatrix(random_spd(rng, d)),
                 projection=random_projection(rng, d, 3))
    twin = Subgroup(name="h", cost=g.cost, projection=g.projection)
    return PopulationModel(group1=g, group2=twin, w_star=rng.standard_normal(d))


def _degenerate_population():
    p = ProjectionMatrix(np.array([[1.0], [0.0]]))
    ident = CostMatrix.identity(2)
    return PopulationModel(
        group1=Subgroup(name="a", cost=ident, projection=p),
        group2=Subgroup(name="b", cost=ident, projection=p),
        w_star=np.array([0.0, 1.0]),
    )


def _per_unit_false_population():
    # group 1 sees everything but pays anisotropic costs; group 2 sees one
    # axis; the deployed rule tilts away from group 1's best direction
    return PopulationModel(
        group1=Subgroup(name="full", cost=CostMatrix(np.diag([1.0, 2.0])),
                        projection=ProjectionMatrix.identity(2)),
        group2=Subgroup(name="axis", cost=CostMatrix.identity(2),
                        projection=ProjectionMatrix(np.array([[1.0], [0.0]]))),
        w_star=np.array([1.0, 1.0]),
    )


def _blocked_perception_population():
    # group 1's pull is nonzero yet exactly cancelled inside its own span by
    # group 2's pull, so the welfare rule is invisible to group 1
    v = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
    return PopulationModel(
        group1=Subgroup(name="plane", cost=CostMatrix.identity(3),
                        projection=ProjectionMatrix(np.eye(3)[:, :2])),
        group2=Subgroup(name="line", cost=CostMatrix(np.diag([2.0, 1.0, 0.4])),
                        projection=ProjectionMatrix(v[:, None])),
        w_star=np.array([1.0, 0.0, 1.0]),
    )


def _zero_pull_population():
    # w* lies in the kernel of group 1's subspace, identity costs
    return PopulationModel(
        group1=Subgroup(name="plane", cost=CostMatrix.identity(3),
                        projection=ProjectionMatrix(np.eye(3)[:, :2])),
        group2=Subgroup(name="full", cost=CostMatrix.identity(3),
                        projection=ProjectionMatrix.identity(3)),
        w_star=np.array([0.0, 0.0, 1.0]),
    )


def _zero_pull_in_view_population():
    # w* = (1, -1) lies in the kernel of group 1's line (1, 1), while the welfare rule, e1, does not
    return PopulationModel(
        group1=Subgroup(name="diagonal", cost=CostMatrix.identity(2),
                        projection=ProjectionMatrix(np.array([[1.0], [1.0]]) / np.sqrt(2.0))),
        group2=Subgroup(name="axis", cost=CostMatrix.identity(2),
                        projection=ProjectionMatrix(np.array([[1.0], [0.0]]))),
        w_star=np.array([1.0, -1.0]),
    )


def _harmful_population():
    # group 1 sees e1 and moves by t_1 = (1, 0); group 2 sees (1, 1)/sqrt(2) and
    # its cost sends it to t_2 = (-4.5, -4.5), so s = (-3.5, -4.5) harms group 1
    return PopulationModel(
        group1=Subgroup(name="axis", cost=CostMatrix.identity(2),
                        projection=ProjectionMatrix(np.array([[1.0], [0.0]]))),
        group2=Subgroup(name="diagonal", cost=CostMatrix(np.array([[2.0, 0.1], [0.1, 0.01]])),
                        projection=ProjectionMatrix(np.array([[1.0], [1.0]]) / np.sqrt(2.0))),
        w_star=np.array([1.0, 0.0]),
    )


def _near_proportional_population(c):
    # shared rank-2 span, A2 = 3 A1 + 1e-3 E: the unit pulls differ by
    # 3e-5, so the per-unit shortfalls are 3e-11 and 3e-10 of sqrt(G_gg)
    rng = np.random.default_rng(19)
    projection = random_projection(rng, 4, 2)
    a1 = random_spd(rng, 4)
    a2 = 3.0 * a1 + 1e-3 * np.diag([1.0, 0.0, 0.0, 0.0])
    return PopulationModel(
        group1=Subgroup(name="g1", cost=CostMatrix(c * a1), projection=projection),
        group2=Subgroup(name="g2", cost=CostMatrix(c * a2), projection=projection),
        w_star=np.ones(4),
    )


@pytest.mark.parametrize("gid", [-1, 0, 3])
@pytest.mark.parametrize("checker", [check_do_no_harm, check_per_unit_optimality, check_sufficient_per_unit])
def test_checkers_reject_a_group_id_other_than_1_or_2(checker, gid):
    # gid 0 must not index group 2's entries from the end, nor gid 3 fall off them
    with pytest.raises(ValueError, match=f"^group id must be 1 or 2, got {gid}$"):
        checker(disparity_example(0.3), gid)


class TestDoNoHarm:
    def test_orthogonal_subspaces_always_pass(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            pop = orthogonal_population(rng)
            for gid in (1, 2):
                assert check_do_no_harm(pop, gid).verdict

    def test_proportional_costs_always_pass(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            pop = scaled_population(rng, scale=3.0)
            for gid in (1, 2):
                assert check_do_no_harm(pop, gid).verdict

    def test_verdict_matches_improvement_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pop = random_population(rng)
            w = welfare_maximizing_rule(pop)
            for gid in (1, 2):
                check = check_do_no_harm(pop, gid)
                gain = total_improvement(pop, gid, w)
                if abs(check.value) >= check.tolerance:
                    assert check.verdict == (gain >= 0)

    def test_value_is_scaled_improvement(self):
        rng = np.random.default_rng(4)
        pop = random_population(rng, d=6)
        w = welfare_maximizing_rule(pop)
        s_norm = np.linalg.norm(pop.gain_direction)
        for gid in (1, 2):
            check = check_do_no_harm(pop, gid)
            assert check.value == pytest.approx(
                total_improvement(pop, gid, w) * s_norm, abs=1e-9 * max(1.0, s_norm)
            )

    def test_boundary_flag_near_zero(self):
        rng = np.random.default_rng(5)
        pop = orthogonal_population(rng, d=4)
        # zero out group 1's stake: w* orthogonal to its subspace (identity costs)
        ident = CostMatrix.identity(4)
        g1 = Subgroup(name="g1", cost=ident, projection=pop.group1.projection)
        g2 = Subgroup(name="g2", cost=ident, projection=pop.group2.projection)
        basis2 = pop.group2.projection.matrix
        w_star = basis2 @ np.ones(4)
        pop2 = PopulationModel(group1=g1, group2=g2, w_star=w_star)
        check = check_do_no_harm(pop2, 1)
        assert check.verdict and check.boundary

    def test_clear_verdicts_are_not_boundary(self):
        # a tie with zero is flagged only within the tolerance, held or failed
        pop = _harmful_population()
        harmed, helped = check_do_no_harm(pop, 1), check_do_no_harm(pop, 2)
        assert (harmed.verdict, harmed.boundary) == (False, False)
        assert (helped.verdict, helped.boundary) == (True, False)
        assert (harmed.value, helped.value) == (pytest.approx(-3.5), pytest.approx(36.0))

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateObjectiveError):
            check_do_no_harm(_degenerate_population(), 1)


class TestEqualImprovement:
    def test_identical_subgroups_equal(self):
        rng = np.random.default_rng(6)
        check = check_equal_improvement(_identical_population(rng))
        assert check.verdict
        assert check.value == pytest.approx(0.0, abs=1e-12)

    def test_a_held_equality_is_never_boundary(self):
        check = check_equal_improvement(_identical_population(np.random.default_rng(7)))
        assert (check.verdict, check.boundary) == (True, False)

    def test_two_axis_value_frozen(self):
        check = check_equal_improvement(disparity_example(0.1))
        assert not check.verdict
        assert check.value == pytest.approx(-0.98, abs=1e-12)

    def test_scalar_is_difference_times_gain_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pop = random_population(rng)
            w = welfare_maximizing_rule(pop)
            expected = improvement_difference(pop, w) * np.linalg.norm(pop.gain_direction)
            check = check_equal_improvement(pop)
            assert check.value == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))

    def test_equal_implies_do_no_harm(self):
        rng = np.random.default_rng(8)
        seen_equal = 0
        for _ in range(50):
            pop = _identical_population(rng, d=int(rng.integers(2, 8)))
            if check_equal_improvement(pop).verdict:
                seen_equal += 1
                assert check_do_no_harm(pop, 1).verdict
                assert check_do_no_harm(pop, 2).verdict
        assert seen_equal > 0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateObjectiveError):
            check_equal_improvement(_degenerate_population())


class TestPerUnitOptimality:
    def test_two_axis_construction_passes_both(self):
        pop = disparity_example(0.1)
        for gid in (1, 2):
            check = check_per_unit_optimality(pop, gid)
            assert check.verdict
            assert abs(check.value) <= 1e-12

    def test_equal_span_scaled_identity_costs_pass(self):
        # same full span, identity-proportional costs: each group's pull is
        # parallel to the deployed rule, so both reach their own optimum
        rng = np.random.default_rng(9)
        w_star = rng.standard_normal(4)
        pop = PopulationModel(
            group1=Subgroup(name="cheap", cost=CostMatrix.identity(4),
                            projection=ProjectionMatrix.identity(4)),
            group2=Subgroup(name="costly", cost=CostMatrix(2.0 * np.eye(4)),
                            projection=ProjectionMatrix.identity(4)),
            w_star=w_star,
        )
        for gid in (1, 2):
            assert check_per_unit_optimality(pop, gid).verdict

    def test_genuine_failure_detected(self):
        pop = _per_unit_false_population()
        check1 = check_per_unit_optimality(pop, 1)
        assert not check1.verdict
        assert check1.value > check1.tolerance
        assert check_per_unit_optimality(pop, 2).verdict

    def test_failure_confirmed_by_brute_force(self):
        # an exhaustive scan over unit rules must find strictly better
        # per-unit improvement for group 1 than the welfare rule delivers
        pop = _per_unit_false_population()
        w = welfare_maximizing_rule(pop)
        achieved = per_unit_improvement(pop, 1, w)
        rng = np.random.default_rng(10)
        rules = random_unit_rules(rng, 100_000, 2)
        best_seen = achieved
        for rule in rules:
            if np.linalg.norm(pop.group1.projection.matrix @ rule) < 1e-9:
                continue
            best_seen = max(best_seen, per_unit_improvement(pop, 1, rule))
        star = optimal_per_unit_improvement(pop, 1)
        assert best_seen > achieved + 1e-3
        assert best_seen <= star + 1e-9
        assert check_per_unit_optimality(pop, 1).value == pytest.approx(
            star - achieved, abs=1e-9
        )

    def test_scalar_is_per_unit_shortfall(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pop = random_population(rng)
            w = welfare_maximizing_rule(pop)
            for gid in (1, 2):
                check = check_per_unit_optimality(pop, gid)
                expected = (
                    optimal_per_unit_improvement(pop, gid)
                    - per_unit_improvement(pop, gid, w)
                )
                assert check.value == pytest.approx(expected, abs=1e-9)
                assert check.value >= -1e-12
                # the solve-based form <A_g^{-1} (u_hat - v_hat), w*>
                g = pop.group(gid)
                t = g.projection.matrix @ np.linalg.solve(g.cost.matrix, pop.w_star)
                v = g.projection.matrix @ pop.gain_direction
                diff = t / np.linalg.norm(t) - v / np.linalg.norm(v)
                solved = float(np.linalg.solve(g.cost.matrix, diff) @ pop.w_star)
                assert check.value == pytest.approx(solved, abs=1e-9)

    def test_zero_pull_direction_meets_its_optimum(self):
        # every rule gains group 1 its per-unit optimum, 0, while it perceives the welfare rule
        pop = _zero_pull_in_view_population()
        assert pop.zero_pulls == (True, False) and pop.perceived[0] > 0.1
        assert check_per_unit_optimality(pop, 1) == ConditionCheck(verdict=True, value=0.0, tolerance=0.0)
        assert check_sufficient_per_unit(pop, 1) is None

    @pytest.mark.parametrize("make", [_zero_pull_population, _blocked_perception_population],
                             ids=["zero-pull", "blocked"])
    def test_invisible_welfare_rule_has_no_verdict(self, make):
        pop = make()
        # sanity: the construction does what its name says
        assert pop.zero_pulls == (make is _zero_pull_population, False)
        perceived = pop.group1.projection.matrix @ pop.gain_direction
        assert np.linalg.norm(perceived) < 1e-12
        check = check_per_unit_optimality(pop, 1)
        assert (check.verdict, check.value, check.boundary) == (None, None, False)
        w = welfare_maximizing_rule(pop)
        with pytest.raises(ZeroProjectedRuleError):  # so uI_1 has no value either
            per_unit_improvement(pop, 1, w)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateObjectiveError):
            check_per_unit_optimality(_degenerate_population(), 1)


class TestSufficientPerUnit:
    def test_orthogonal_subspaces_return_unit_ratio(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            pop = orthogonal_population(rng)
            for gid in (1, 2):
                c = check_sufficient_per_unit(pop, gid)
                if c is None:
                    # only possible when this group has no stake at all
                    assert np.linalg.norm(pop.pull_direction(gid)) <= 1e-12
                else:
                    assert c == pytest.approx(1.0, abs=1e-9)

    def test_shared_span_proportional_responses(self):
        # both response maps proportional: ratios d/(1+d) and 1/(1+d)
        rng = np.random.default_rng(13)
        d = 4
        projection = random_projection(rng, d, 2)
        a1 = random_spd(rng, d)
        pop = PopulationModel(
            group1=Subgroup(name="g1", cost=CostMatrix(a1), projection=projection),
            group2=Subgroup(name="g2", cost=CostMatrix(a1 / d), projection=projection),
            w_star=rng.standard_normal(d),
        )
        c1 = check_sufficient_per_unit(pop, 1)
        c2 = check_sufficient_per_unit(pop, 2)
        assert c1 == pytest.approx(1.0 / (1.0 + d), abs=1e-9)
        assert c2 == pytest.approx(d / (1.0 + d), abs=1e-9)

    def test_returned_ratio_implies_per_unit_verdict(self):
        rng = np.random.default_rng(14)
        families = [
            lambda: orthogonal_population(rng),
            lambda: scaled_population(rng),
            lambda: _identical_population(rng, d=int(rng.integers(2, 8))),
        ]
        hits = 0
        for _ in range(60):
            pop = families[int(rng.integers(0, len(families)))]()
            for gid in (1, 2):
                if check_sufficient_per_unit(pop, gid) is not None:
                    hits += 1
                    assert check_per_unit_optimality(pop, gid).verdict
        assert hits > 50

    def test_generic_instances_return_none(self):
        rng = np.random.default_rng(15)
        nones = 0
        for _ in range(30):
            pop = random_population(rng)
            for gid in (1, 2):
                if check_sufficient_per_unit(pop, gid) is None:
                    nones += 1
        assert nones > 40  # collinearity is exceptional, not typical

    def test_ratio_exists_exactly_when_per_unit_verdict_holds(self):
        rng = np.random.default_rng(20)
        for make in (random_population, orthogonal_population, scaled_population):
            for _ in range(20):
                pop = make(rng)
                for gid in (1, 2):
                    verdict = check_per_unit_optimality(pop, gid).verdict
                    assert (check_sufficient_per_unit(pop, gid) is not None) == verdict

    def test_not_necessary_for_the_verdict(self):
        # scaled identity costs on half the axes: verdict true, ratio exists;
        # the genuine-failure instance: verdict false, ratio absent
        pop_false = _per_unit_false_population()
        assert check_sufficient_per_unit(pop_false, 1) is None
        assert not check_per_unit_optimality(pop_false, 1).verdict

    @pytest.mark.parametrize("make", [_zero_pull_population, _blocked_perception_population])
    def test_a_zero_vector_gives_none(self, make):
        # group 1's pull, or its view of the welfare rule, is zero: no multiplier relates them
        assert check_sufficient_per_unit(make(), 1) is None

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateObjectiveError):
            check_sufficient_per_unit(_degenerate_population(), 1)


class TestConditionReport:
    def test_structure_and_consistency(self):
        rng = np.random.default_rng(16)
        pop = random_population(rng, d=5)
        report = condition_report(pop)
        assert report["do_no_harm"]["group1"]["verdict"] == check_do_no_harm(pop, 1).verdict
        assert report["equal_improvement"]["value"] == check_equal_improvement(pop).value
        assert set(report) == {
            "do_no_harm", "equal_improvement", "per_unit_optimal",
            "fast_path", "sufficient_c",
        }
        assert set(report["do_no_harm"]) == {"group1", "group2"}

    def test_fast_path_orthogonal(self):
        assert condition_report(disparity_example(0.2))["fast_path"] == "orthogonal_subspaces"

    def test_fast_path_scaled_equal(self):
        rng = np.random.default_rng(17)
        pop = scaled_population(rng, d=4, scale=3.0)
        assert condition_report(pop)["fast_path"] == "scaled_equal"

    @pytest.mark.parametrize("cos, orthogonal", [(1e-9, True), (1e-6, False)])
    def test_orthogonal_spans_are_judged_on_the_principal_angle(self, cos, orthogonal):
        # two lines at angle theta, cos(theta) = cos
        line2 = np.array([cos, np.sqrt(1.0 - cos * cos), 0.0])
        pop = PopulationModel(
            group1=Subgroup(name="g1", cost=CostMatrix.identity(3),
                            projection=ProjectionMatrix(np.eye(3)[:, :1])),
            group2=Subgroup(name="g2", cost=CostMatrix.identity(3),
                            projection=ProjectionMatrix(line2[:, None])),
            w_star=np.ones(3),
        )
        fast = condition_report(pop)["fast_path"]
        assert (fast == "orthogonal_subspaces") == orthogonal

    @pytest.mark.parametrize("sin, same", [(1e-9, True), (1e-6, False)])
    def test_same_span_is_judged_on_the_principal_angle(self, sin, same):
        # planes sharing e1 whose second directions meet at angle theta,
        # sin(theta) = sin, with proportional costs
        basis2 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - sin * sin)], [0.0, sin]])
        a1 = np.diag([1.0, 2.0, 3.0])
        pop = PopulationModel(
            group1=Subgroup(name="g1", cost=CostMatrix(a1),
                            projection=ProjectionMatrix(np.eye(3)[:, :2])),
            group2=Subgroup(name="g2", cost=CostMatrix(2.5 * a1),
                            projection=ProjectionMatrix(basis2)),
            w_star=np.ones(3),
        )
        fast = condition_report(pop)["fast_path"]
        assert (fast == "scaled_equal") == same

    @pytest.mark.parametrize("basis2, cost2, fast", [
        # alignment * d = cos^2 = tolerance(tolerance()) exactly
        ([1e-8, 1.0], np.eye(2), "orthogonal_subspaces"),
        # ||V_2 - V_1 V_1^T V_2|| = tolerance() exactly
        ([1.0, 1e-8], np.eye(2), "scaled_equal"),
        # max |A_2 - c A_1| = tolerance(max |A_2|) exactly, at the costs' unit scale
        ([1.0, 0.0], np.array([[1.0, 1e-8], [1e-8, 1.0]]), "scaled_equal"),
    ])
    def test_a_structure_at_exactly_its_tolerance_takes_the_fast_path(self, basis2, cost2, fast):
        pop = PopulationModel(
            group1=Subgroup(name="g1", cost=CostMatrix.identity(2), projection=ProjectionMatrix(np.eye(2)[:, :1])),
            group2=Subgroup(name="g2", cost=CostMatrix(cost2), projection=ProjectionMatrix(np.array(basis2)[:, None])),
            w_star=np.array([0.3, 0.7]),
        )
        assert condition_report(pop)["fast_path"] == fast

    def test_fast_path_sufficient_ratios(self):
        # same span, costs not proportional, yet both pulls align with the rule
        pop = PopulationModel(
            group1=Subgroup(name="g1", cost=CostMatrix(np.diag([1.0, 2.0])),
                            projection=ProjectionMatrix.identity(2)),
            group2=Subgroup(name="g2", cost=CostMatrix(np.diag([2.0, 7.0])),
                            projection=ProjectionMatrix.identity(2)),
            w_star=np.array([1.0, 0.0]),
        )
        report = condition_report(pop)
        assert report["fast_path"] == "sufficient_cg"
        assert report["sufficient_c"]["group1"] == pytest.approx(1.0 / 1.5, abs=1e-9)
        assert report["sufficient_c"]["group2"] == pytest.approx(0.5 / 1.5, abs=1e-9)

    @pytest.mark.parametrize("c", [1.0, 1e-8])
    def test_near_proportional_costs_are_judged_relative(self, c):
        # the costs are 1e-3 away from proportional at every unit scale,
        # while both pulls stay collinear with the perceived welfare rule
        report = condition_report(_near_proportional_population(c))
        assert report["fast_path"] == "sufficient_cg"
        for gid in (1, 2):
            assert report["per_unit_optimal"][f"group{gid}"]["verdict"]
            assert report["sufficient_c"][f"group{gid}"] is not None

    def test_runs_each_per_unit_check_once(self, monkeypatch):
        calls = []

        def counted(pop, gid):
            calls.append(gid)
            return check_per_unit_optimality(pop, gid)

        pop = _per_unit_false_population()
        monkeypatch.setattr(conditions, "check_per_unit_optimality", counted)
        report = condition_report(pop)
        assert calls == [1, 2]
        assert report["sufficient_c"] == {"group1": None, "group2": check_sufficient_per_unit(pop, 2)}

    def test_degenerate_raises_the_checkers_error(self):
        with pytest.raises(DegenerateObjectiveError,
                           match="^welfare gain is zero for every rule; guarantee checks are vacuous$"):
            condition_report(_degenerate_population())

    def test_one_multiplier_is_no_fast_path(self):
        # the spans are neither orthogonal nor the same, and only t_2 is collinear with P_2 s
        report = condition_report(_harmful_population())
        assert report["sufficient_c"] == {"group1": None, "group2": pytest.approx(1.125)}
        assert report["fast_path"] is None

    def test_no_fast_path_on_generic_instance(self):
        rng = np.random.default_rng(18)
        pop = random_population(rng, d=6)
        assert condition_report(pop)["fast_path"] is None


_FAMILIES = {
    "random": random_population,
    "orthogonal": orthogonal_population,
    "scaled": scaled_population,
    "zero_pull": zero_pull_population,
}


def _population(seed, family):
    return _FAMILIES[family](np.random.default_rng(seed))


def _rebuilt(pop, w_scale=1.0, cost_scale=1.0, q=None, swap=False):
    """The same population with w* and the costs scaled, the basis rotated
    by q (applied to w*, the costs and the projections) or the groups swapped."""
    q = np.eye(pop.dim) if q is None else q
    groups = [
        Subgroup(name=g.name, cost=CostMatrix(cost_scale * (q @ g.cost.matrix @ q.T)),
                 projection=ProjectionMatrix(q @ g.projection.basis))
        for g in pop.groups
    ]
    if swap:
        groups.reverse()
    return PopulationModel(group1=groups[0], group2=groups[1], w_star=w_scale * (q @ pop.w_star))


def _verdicts(pop, swap=False):
    """What no change of units or basis may move: every verdict and boundary
    flag, the fast path and which sufficient_c exist (or the report's error),
    with the groups relabelled when swap is set."""
    try:
        report = condition_report(pop)
    except ScoregapError as exc:
        return type(exc).__name__
    label = {"group1": "group2", "group2": "group1"} if swap else {}
    out = {"fast_path": report["fast_path"],
           "equal_improvement": report["equal_improvement"]["verdict"]}
    for key in ("do_no_harm", "per_unit_optimal"):
        for group, check in report[key].items():
            out[key, label.get(group, group)] = (check["verdict"], check["boundary"])
    for group, c in report["sufficient_c"].items():
        out["sufficient_c", label.get(group, group)] = c is None
    return out


_seeds = st.integers(0, 2**32 - 1)
_families = st.sampled_from(sorted(_FAMILIES))
_log_scales = st.floats(-8.0, 8.0)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seed=_seeds, family=_families)
def test_an_entry_agrees_with_itself(seed, family):
    assert_entry_agrees(_population(seed, family))


class TestInvariance:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=_seeds, family=_families, log_c=_log_scales)
    def test_scaling_w_star(self, seed, family, log_c):
        pop = _population(seed, family)
        assert _verdicts(_rebuilt(pop, w_scale=10.0 ** log_c)) == _verdicts(pop)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=_seeds, family=_families, log_c=_log_scales)
    def test_scaling_costs(self, seed, family, log_c):
        pop = _population(seed, family)
        assert _verdicts(_rebuilt(pop, cost_scale=10.0 ** log_c)) == _verdicts(pop)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=_seeds, family=_families, q_seed=_seeds)
    def test_orthogonal_change_of_basis(self, seed, family, q_seed):
        pop = _population(seed, family)
        q = random_orthonormal(np.random.default_rng(q_seed), pop.dim, pop.dim)
        assert _verdicts(_rebuilt(pop, q=q)) == _verdicts(pop)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=_seeds, family=_families)
    def test_group_swap(self, seed, family):
        pop = _population(seed, family)
        assert _verdicts(_rebuilt(pop, swap=True), swap=True) == _verdicts(pop)


class TestDisparityExample:
    def test_improvement_ratio(self):
        for eps in (0.1, 0.3, 0.6):
            pop = disparity_example(eps)
            w = welfare_maximizing_rule(pop)
            ratio = total_improvement(pop, 1, w) / total_improvement(pop, 2, w)
            assert ratio == pytest.approx(eps**2 / (1 - eps**2), abs=1e-12)

    def test_frozen_ratio_at_eps_tenth(self):
        pop = disparity_example(0.1)
        w = welfare_maximizing_rule(pop)
        ratio = total_improvement(pop, 1, w) / total_improvement(pop, 2, w)
        assert ratio == pytest.approx(0.01 / 0.99, abs=1e-12)

    def test_balanced_at_inverse_sqrt_two(self):
        pop = disparity_example(1.0 / np.sqrt(2.0))
        w = welfare_maximizing_rule(pop)
        assert total_improvement(pop, 1, w) == pytest.approx(0.5, abs=1e-12)
        assert total_improvement(pop, 2, w) == pytest.approx(0.5, abs=1e-12)
        check = check_equal_improvement(pop)
        assert check.verdict
        assert abs(check.value) <= 1e-12

    def test_ratio_solves_target_inequality(self):
        # eps = sqrt(a/(1+a)) lands exactly on ratio a; anything smaller
        # drops strictly below the target
        for alpha in (0.05, 0.5, 2.0):
            eps = float(np.sqrt(alpha / (1 + alpha)))
            pop = disparity_example(eps)
            w = welfare_maximizing_rule(pop)
            ratio = total_improvement(pop, 1, w) / total_improvement(pop, 2, w)
            assert ratio == pytest.approx(alpha, abs=1e-10)
            pop_small = disparity_example(0.9 * eps)
            w_small = welfare_maximizing_rule(pop_small)
            ratio_small = (
                total_improvement(pop_small, 1, w_small)
                / total_improvement(pop_small, 2, w_small)
            )
            assert ratio_small < alpha

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5])
    def test_out_of_range(self, eps):
        with pytest.raises(EpsilonOutOfRangeError):
            disparity_example(eps)
