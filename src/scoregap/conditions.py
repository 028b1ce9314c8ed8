"""Guarantee checkers for the welfare-maximizing rule.

Each guarantee (no subgroup harmed, equal gains, per-unit-optimal gains)
reduces to the sign or vanishing of one scalar built from the subgroup
pull directions. Checkers return the raw scalar together with a verdict
judged against a scale-aware tolerance, so callers can always re-judge.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateObjectiveError, EpsilonOutOfRangeError, ZeroProjectedRuleError
from .agents import CostMatrix, Subgroup
from .linalg import ProjectionMatrix
from .principal import DEGENERATE_NORM_TOL, PopulationModel

# Base relative tolerance for condition scalars; scaled by the instance's
# magnitude in tol_cond.
COND_TOL = 1e-8

# Collinearity threshold for the positive-multiple test: normalized
# difference at most this.
COLLINEAR_TOL = 1e-8

# Structural detections (orthogonal subspaces, proportional costs) compare
# matrix entries at this absolute/relative level.
STRUCT_TOL = 1e-10


def tol_cond(pop: PopulationModel) -> float:
    """Scale-aware tolerance for condition scalars.

    The scalars are quadratic in w_star and in the response maps A_g^{-1} P_g,
    so the exact-arithmetic zero blurs to a band proportional to
    ||w_star||^2 times the squared largest response operator norm.
    """
    m = float(max(np.linalg.norm(g.response, 2) for g in pop.groups))
    wnorm = float(np.linalg.norm(pop.w_star))
    return COND_TOL * max(1.0, wnorm * wnorm * m * m)


@dataclass(frozen=True)
class ConditionCheck:
    """Verdict on one scalar condition.

    For inequality conditions the verdict is value >= -tolerance and
    `boundary` flags |value| < tolerance (a statistical tie with zero);
    for equality conditions the verdict is |value| <= tolerance and
    boundary is always False.
    """

    verdict: bool
    value: float
    tolerance: float
    boundary: bool = False


def _inequality_check(value: float, tol: float) -> ConditionCheck:
    return ConditionCheck(
        verdict=bool(value >= -tol),
        value=float(value),
        tolerance=tol,
        boundary=bool(abs(value) < tol),
    )


def _equality_check(value: float, tol: float) -> ConditionCheck:
    return ConditionCheck(verdict=bool(abs(value) <= tol), value=float(value), tolerance=tol)


def _require_nondegenerate(pop: PopulationModel) -> None:
    if pop.degenerate:
        raise DegenerateObjectiveError(
            "welfare gain is zero for every rule; guarantee checks are vacuous"
        )


def check_do_no_harm(pop: PopulationModel, gid: int) -> ConditionCheck:
    """Does the welfare-maximizing rule leave subgroup gid no worse off?

    The condition scalar is <t_g, t_1 + t_2>, whose sign equals the sign of
    subgroup gid's improvement under the welfare-maximizing rule.
    """
    _require_nondegenerate(pop)
    value = float(pop.pull_direction(gid) @ pop.gain_direction)
    return _inequality_check(value, tol_cond(pop))


def check_equal_improvement(pop: PopulationModel) -> ConditionCheck:
    """Do both subgroups improve by the same amount under the welfare rule?

    The scalar is <t_1 - t_2, t_1 + t_2>, which equals the improvement gap
    at the welfare-maximizing rule times the rule's unnormalized length.
    """
    _require_nondegenerate(pop)
    value = float((pop.pull_direction(1) - pop.pull_direction(2)) @ pop.gain_direction)
    return _equality_check(value, tol_cond(pop))


def _pull_and_perceived(pop: PopulationModel, gid: int) -> Tuple[np.ndarray, float, np.ndarray, float]:
    """(t_g, ||t_g||, P_g (t_1 + t_2), ||P_g (t_1 + t_2)||)."""
    t = pop.pull_direction(gid)
    perceived = pop.group(gid).projection.apply(pop.gain_direction)
    return t, float(np.linalg.norm(t)), perceived, float(np.linalg.norm(perceived))


def check_per_unit_optimality(pop: PopulationModel, gid: int) -> ConditionCheck:
    """Does subgroup gid get its best possible per-unit gain under the welfare rule?

    The scalar is <A_g^{-1} (u_hat - v_hat), w_star> with u_hat the unit
    pull direction and v_hat the unit perceived welfare rule; it equals the
    subgroup's per-unit shortfall (always >= 0 in exact arithmetic) and
    vanishes exactly when the welfare rule is per-unit optimal for gid.
    """
    _require_nondegenerate(pop)
    t, t_norm, perceived, p_norm = _pull_and_perceived(pop, gid)
    if t_norm <= DEGENERATE_NORM_TOL:
        raise ZeroProjectedRuleError(
            f"subgroup {gid}'s pull direction is zero; per-unit optimum undefined"
        )
    if p_norm <= DEGENERATE_NORM_TOL:
        raise ZeroProjectedRuleError(
            f"subgroup {gid} perceives a zero welfare rule; per-unit gain undefined"
        )
    diff = t / t_norm - perceived / p_norm
    value = float(pop.group(gid).cost.solve(diff) @ pop.w_star)
    return _equality_check(value, tol_cond(pop))


def check_sufficient_per_unit(pop: PopulationModel, gid: int) -> Optional[float]:
    """Structural sufficient test for per-unit optimality of subgroup gid.

    Returns c_g > 0 when the pull direction t_g is a positive multiple of
    the perceived welfare direction P_g (t_1 + t_2), which forces the
    welfare rule to look like the subgroup's own optimum from inside its
    span. Returns None when the vectors are not positive multiples; a None
    says nothing either way about the guarantee itself.
    """
    _require_nondegenerate(pop)
    t, t_norm, perceived, p_norm = _pull_and_perceived(pop, gid)
    if t_norm <= DEGENERATE_NORM_TOL or p_norm <= DEGENERATE_NORM_TOL:
        return None
    if float(t @ perceived) <= 0.0:
        return None
    if float(np.linalg.norm(t / t_norm - perceived / p_norm)) > COLLINEAR_TOL:
        return None
    return t_norm / p_norm


def _orthogonal_subspaces(pop: PopulationModel) -> bool:
    overlap = pop.group1.projection.matrix @ pop.group2.projection.matrix
    return bool(np.max(np.abs(overlap)) <= STRUCT_TOL)


def _scaled_equal(pop: PopulationModel) -> bool:
    p1 = pop.group1.projection.matrix
    p2 = pop.group2.projection.matrix
    if np.max(np.abs(p1 - p2)) > STRUCT_TOL:
        return False
    a1 = pop.group1.cost.matrix
    a2 = pop.group2.cost.matrix
    ratio = np.trace(a2) / np.trace(a1)
    if ratio <= 0:
        return False
    scale = max(1.0, float(np.max(np.abs(a2))))
    return bool(np.max(np.abs(a2 - ratio * a1)) <= STRUCT_TOL * scale)


@dataclass(frozen=True)
class ConditionReport:
    """Every guarantee checked at once for one population.

    fast_path, when set, names a structural shortcut this instance
    satisfies: "orthogonal_subspaces" (disjoint perceived spans),
    "scaled_equal" (same span, proportional costs), or "sufficient_cg"
    (both pull directions positively collinear with the perceived welfare
    direction, with the multipliers in sufficient_c).
    """

    do_no_harm: Tuple[ConditionCheck, ConditionCheck]
    equal_improvement: ConditionCheck
    per_unit_optimal: Tuple[ConditionCheck, ConditionCheck]
    tolerance: float
    fast_path: Optional[str] = None
    sufficient_c: Tuple[Optional[float], Optional[float]] = (None, None)

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("do_no_harm", "per_unit_optimal", "sufficient_c"):
            out[key] = {f"group{gid}": value for gid, value in enumerate(out[key], start=1)}
        return out


def condition_report(pop: PopulationModel) -> ConditionReport:
    """Run all checkers and detect structural fast paths."""
    _require_nondegenerate(pop)
    c1, c2 = (check_sufficient_per_unit(pop, gid) for gid in (1, 2))
    if _orthogonal_subspaces(pop):
        fast = "orthogonal_subspaces"
    elif _scaled_equal(pop):
        fast = "scaled_equal"
    elif c1 is not None and c2 is not None:
        fast = "sufficient_cg"
    else:
        fast = None
    return ConditionReport(
        do_no_harm=tuple(check_do_no_harm(pop, gid) for gid in (1, 2)),
        equal_improvement=check_equal_improvement(pop),
        per_unit_optimal=tuple(check_per_unit_optimality(pop, gid) for gid in (1, 2)),
        tolerance=tol_cond(pop),
        fast_path=fast,
        sufficient_c=(c1, c2),
    )


def disparity_example(epsilon: float) -> PopulationModel:
    """Two-dimensional instance with an arbitrarily lopsided improvement split.

    Each subgroup sees one coordinate axis, costs are identity, and the
    true quality direction is (eps, sqrt(1 - eps^2)). Both subgroups get
    per-unit-optimal treatment, yet total improvements split eps^2 to
    1 - eps^2, so the ratio tends to zero as eps does.
    """
    eps = float(epsilon)
    if not (0.0 < eps < 1.0):
        raise EpsilonOutOfRangeError(f"epsilon must lie strictly in (0, 1), got {epsilon}")
    p1 = ProjectionMatrix(np.diag([1.0, 0.0]), rank=1)
    p2 = ProjectionMatrix(np.diag([0.0, 1.0]), rank=1)
    ident = CostMatrix.identity(2)
    w_star = np.array([eps, np.sqrt(1.0 - eps * eps)])
    return PopulationModel(
        group1=Subgroup(name="axis1", cost=ident, projection=p1),
        group2=Subgroup(name="axis2", cost=ident, projection=p2),
        w_star=w_star,
    )
