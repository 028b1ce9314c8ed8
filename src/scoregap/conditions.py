"""Guarantee checkers for the welfare-maximizing rule.

Each guarantee (no subgroup harmed, equal gains, per-unit-optimal gains)
reduces to the sign or vanishing of one scalar, a closed form in five
numbers the PopulationModel caches: the Gram matrix G = T T^T of the
pull directions t_g = P_g A_g^{-1} w_star, and n_g = ||P_g s|| with
s = t_1 + t_2. Each scalar is judged against REL_TOL times its own
scale, so no verdict depends on the units of w_star or of the costs, or
on the basis. ||s|| is taken from s itself, since sqrt(G_11 + 2 G_12 + G_22)
cancels where degeneracy is decided:

    quantity              value                             scale
    do_no_harm g          G_gg + G_12                       (||t_1|| + ||t_2||) ||s||
    equal_improvement     G_11 - G_22                       G_11 + G_22
    per_unit_optimal g    sqrt(G_gg) - (G_gg + G_12) / n_g  sqrt(G_gg)
    degenerate (s ~ 0)    ||s||                             ||t_1|| + ||t_2||
    t_g ~ 0               ||t_g||                           ||t_1|| + ||t_2||
    n_g ~ 0               n_g                               ||s||
    P_g w ~ 0 (metrics)   ||P_g w||                         ||w||
    orthogonal spans      ||V_1^T V_2||_F                   1
    same span             ||V_2 - V_1 V_1^T V_2||_F         1
    proportional costs    max |A_2 - c A_1|                 max |A_2|

V_g is group g's orthonormal basis, so the span tests are norms of the
cosines and of the sines of the principal angles; c = tr A_2 / tr A_1.

Checkers return the raw scalar together with its tolerance, so callers
can always re-judge.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .errors import DegenerateObjectiveError, EpsilonOutOfRangeError, ZeroProjectedRuleError
from .agents import CostMatrix, Subgroup
from .linalg import REL_TOL, ProjectionMatrix
from .principal import PopulationModel


@dataclass(frozen=True)
class ConditionCheck:
    """Verdict on one scalar condition.

    `tolerance` is REL_TOL times the scalar's scale. For inequality
    conditions the verdict is value >= -tolerance and `boundary` flags
    |value| < tolerance (a statistical tie with zero); for equality
    conditions the verdict is |value| <= tolerance and boundary is
    always False.
    """

    verdict: bool
    value: float
    tolerance: float
    boundary: bool = False


def _inequality_check(value: float, scale: float) -> ConditionCheck:
    tol = REL_TOL * float(scale)
    return ConditionCheck(
        verdict=bool(value >= -tol),
        value=float(value),
        tolerance=tol,
        boundary=bool(abs(value) < tol),
    )


def _equality_check(value: float, scale: float) -> ConditionCheck:
    tol = REL_TOL * float(scale)
    return ConditionCheck(verdict=bool(abs(value) <= tol), value=float(value), tolerance=tol)


def _require_nondegenerate(pop: PopulationModel) -> None:
    if pop.degenerate:
        raise DegenerateObjectiveError(
            "welfare gain is zero for every rule; guarantee checks are vacuous"
        )


def check_do_no_harm(pop: PopulationModel, gid: int) -> ConditionCheck:
    """Does the welfare-maximizing rule leave subgroup gid no worse off?

    The condition scalar is <t_g, s> = G_gg + G_12, whose sign equals the
    sign of subgroup gid's improvement under the welfare-maximizing rule.
    """
    _require_nondegenerate(pop)
    g = pop.gram
    value = g[gid - 1, gid - 1] + g[0, 1]
    return _inequality_check(value, pop.pull_scale * np.linalg.norm(pop.gain_direction))


def check_equal_improvement(pop: PopulationModel) -> ConditionCheck:
    """Do both subgroups improve by the same amount under the welfare rule?

    The scalar is <t_1 - t_2, s> = G_11 - G_22, which equals the
    improvement gap at the welfare-maximizing rule times ||s||.
    """
    _require_nondegenerate(pop)
    g = pop.gram
    return _equality_check(g[0, 0] - g[1, 1], g[0, 0] + g[1, 1])


def check_per_unit_optimality(pop: PopulationModel, gid: int) -> ConditionCheck:
    """Does subgroup gid get its best possible per-unit gain under the welfare rule?

    The scalar is ||t_g|| - <t_g, P_g s> / n_g = sqrt(G_gg) - (G_gg + G_12) / n_g,
    the subgroup's per-unit shortfall (always >= 0 in exact arithmetic);
    it vanishes exactly when t_g is a positive multiple of P_g s.
    """
    _require_nondegenerate(pop)
    gg = pop.gram[gid - 1, gid - 1]
    t_norm = float(np.sqrt(gg))
    n = pop.perceived[gid - 1]
    if t_norm <= REL_TOL * pop.pull_scale:
        raise ZeroProjectedRuleError(
            f"subgroup {gid}'s pull direction is zero; per-unit optimum undefined"
        )
    if n <= REL_TOL * np.linalg.norm(pop.gain_direction):
        raise ZeroProjectedRuleError(
            f"subgroup {gid} perceives a zero welfare rule; per-unit gain undefined"
        )
    return _equality_check(t_norm - (gg + pop.gram[0, 1]) / n, t_norm)


def check_sufficient_per_unit(pop: PopulationModel, gid: int) -> Optional[float]:
    """The multiplier c_g > 0 with t_g = c_g P_g s, or None.

    t_g is a positive multiple of the perceived welfare direction P_g s
    exactly when the per-unit scalar vanishes, so this returns
    ||t_g|| / n_g when check_per_unit_optimality holds, and None when it
    fails or either vector is zero.
    """
    try:
        check = check_per_unit_optimality(pop, gid)
    except ZeroProjectedRuleError:
        return None
    if not check.verdict:
        return None
    return float(np.sqrt(pop.gram[gid - 1, gid - 1])) / pop.perceived[gid - 1]


def _orthogonal_subspaces(pop: PopulationModel) -> bool:
    v1, v2 = pop.group1.projection.basis, pop.group2.projection.basis
    return bool(np.linalg.norm(v1.T @ v2) <= REL_TOL)


def _scaled_equal(pop: PopulationModel) -> bool:
    v1, v2 = pop.group1.projection.basis, pop.group2.projection.basis
    if v1.shape != v2.shape or np.linalg.norm(v2 - v1 @ (v1.T @ v2)) > REL_TOL:
        return False
    a1, a2 = pop.group1.cost.matrix, pop.group2.cost.matrix
    ratio = np.trace(a2) / np.trace(a1)
    return bool(np.max(np.abs(a2 - ratio * a1)) <= REL_TOL * np.max(np.abs(a2)))


def condition_report(pop: PopulationModel) -> dict:
    """The result document's `conditions` mapping: every guarantee at once.

    `do_no_harm` and `per_unit_optimal` hold each subgroup's ConditionCheck
    as a dict under `group1`/`group2`; `sufficient_c` holds the
    check_sufficient_per_unit multipliers the same way. `fast_path`, when
    set, names a structural shortcut this instance satisfies:
    "orthogonal_subspaces" (disjoint perceived spans), "scaled_equal"
    (same span, proportional costs), or "sufficient_cg" (both pull
    directions positively collinear with the perceived welfare direction).
    """
    _require_nondegenerate(pop)
    harm = [check_do_no_harm(pop, gid) for gid in (1, 2)]
    equal = check_equal_improvement(pop)
    per_unit = [check_per_unit_optimality(pop, gid) for gid in (1, 2)]
    c1, c2 = (check_sufficient_per_unit(pop, gid) for gid in (1, 2))
    if _orthogonal_subspaces(pop):
        fast = "orthogonal_subspaces"
    elif _scaled_equal(pop):
        fast = "scaled_equal"
    elif c1 is not None and c2 is not None:
        fast = "sufficient_cg"
    else:
        fast = None
    return {
        "do_no_harm": {"group1": asdict(harm[0]), "group2": asdict(harm[1])},
        "equal_improvement": asdict(equal),
        "per_unit_optimal": {"group1": asdict(per_unit[0]), "group2": asdict(per_unit[1])},
        "fast_path": fast,
        "sufficient_c": {"group1": c1, "group2": c2},
    }


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
    p1 = ProjectionMatrix(np.array([[1.0], [0.0]]))
    p2 = ProjectionMatrix(np.array([[0.0], [1.0]]))
    ident = CostMatrix.identity(2)
    w_star = np.array([eps, np.sqrt(1.0 - eps * eps)])
    return PopulationModel(
        group1=Subgroup(name="axis1", cost=ident, projection=p1),
        group2=Subgroup(name="axis2", cost=ident, projection=p2),
        w_star=w_star,
    )
