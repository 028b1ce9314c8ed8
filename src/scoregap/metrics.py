"""Improvement metrics for deployed scoring rules.

Total improvement of a subgroup is the true-quality gain of its movement.
Per-unit improvement normalizes by the length of the rule the subgroup
actually perceives, which makes groups with very different visibility
comparable; it is undefined when the perceived rule is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .errors import ZeroProjectedRuleError
from .agents import movement
from .principal import DEGENERATE_NORM_TOL, PopulationModel, welfare_gain


def total_improvement(model: PopulationModel, gid: int, w) -> float:
    """True-quality gain of subgroup gid's movement under rule w."""
    wv = model.as_rule(w)
    return float(movement(model.group(gid), wv) @ model.w_star)


def per_unit_improvement(model: PopulationModel, gid: int, w) -> float:
    """Total improvement per unit of perceived rule: I_g(w) / ||P_g w||.

    Raises ZeroProjectedRuleError when the subgroup perceives a zero rule,
    in which case the ratio has no value.
    """
    per_unit = _group_improvement(model, gid, model.as_rule(w)).per_unit
    if per_unit is None:
        raise ZeroProjectedRuleError(
            f"subgroup {gid} perceives a zero rule; per-unit improvement undefined"
        )
    return per_unit


def optimal_per_unit_improvement(model: PopulationModel, gid: int) -> float:
    """Largest per-unit improvement subgroup gid can get from any rule.

    Equals ||t_g|| for pull direction t_g = P_g A_g^{-1} w_star: writing the
    perceived rule as v = P_g w, the ratio <v, A_g^{-1} w_star> / ||v|| over
    nonzero v in the perceived span is maximized at v parallel to t_g.
    Raises ZeroProjectedRuleError when the subgroup perceives nothing at
    all (rank-zero projection), since every ratio is then undefined.
    """
    optimal = _optimal_per_unit(model, gid)
    if optimal is None:
        raise ZeroProjectedRuleError(
            f"subgroup {gid} has a rank-zero projection; per-unit improvement undefined"
        )
    return optimal


def improvement_difference(model: PopulationModel, w) -> float:
    """Gap in total improvement between subgroup 1 and subgroup 2 under w."""
    wv = model.as_rule(w)
    return total_improvement(model, 1, wv) - total_improvement(model, 2, wv)


@dataclass(frozen=True)
class GroupImprovement:
    """One subgroup's metrics under a deployed rule.

    per_unit and optimal_per_unit are None when undefined (zero perceived
    rule, or rank-zero projection respectively).
    """

    total: float
    per_unit: Optional[float]
    optimal_per_unit: Optional[float]
    perceived_norm: float


@dataclass(frozen=True)
class ImprovementReport:
    """All improvement metrics of one rule on one two-subgroup population."""

    group1: GroupImprovement
    group2: GroupImprovement
    welfare: float
    difference: float

    def to_dict(self) -> dict:
        return asdict(self)


def _optimal_per_unit(model: PopulationModel, gid: int) -> Optional[float]:
    if model.group(gid).projection.rank == 0:
        return None
    return float(np.linalg.norm(model.pull_direction(gid)))


def _group_improvement(model: PopulationModel, gid: int, w: np.ndarray) -> GroupImprovement:
    perceived = model.group(gid).projection.apply(w)
    norm = float(np.linalg.norm(perceived))
    total = total_improvement(model, gid, w)
    return GroupImprovement(
        total=total,
        per_unit=total / norm if norm > DEGENERATE_NORM_TOL else None,
        optimal_per_unit=_optimal_per_unit(model, gid),
        perceived_norm=norm,
    )


def improvement_report(model: PopulationModel, w) -> ImprovementReport:
    """Compute every metric at once, with undefined ratios reported as None."""
    wv = model.as_rule(w)
    g1, g2 = (_group_improvement(model, gid, wv) for gid in (1, 2))
    return ImprovementReport(
        group1=g1,
        group2=g2,
        welfare=welfare_gain(model, wv),
        difference=g1.total - g2.total,
    )
