"""Improvement metrics for deployed scoring rules.

Total improvement of a subgroup is the true-quality gain of its movement.
Per-unit improvement normalizes by the length of the rule the subgroup
actually perceives, which makes groups with very different visibility
comparable; it is undefined when the perceived rule is zero.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ZeroProjectedRuleError
from .linalg import REL_TOL
from .principal import PopulationModel, welfare_gain


def total_improvement(model: PopulationModel, gid: int, w) -> float:
    """True-quality gain of subgroup gid's movement under rule w: <w, t_gid>."""
    return float(model.as_rule(w) @ model.pull_direction(gid))


def per_unit_improvement(model: PopulationModel, gid: int, w) -> float:
    """Total improvement per unit of perceived rule: I_g(w) / ||P_g w||.

    Raises ZeroProjectedRuleError when the subgroup perceives a zero rule,
    in which case the ratio has no value.
    """
    per_unit = _per_unit(model, gid, model.as_rule(w))
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


def _optimal_per_unit(model: PopulationModel, gid: int) -> Optional[float]:
    if model.group(gid).projection.rank == 0:
        return None
    return float(np.linalg.norm(model.pull_direction(gid)))


def _per_unit(model: PopulationModel, gid: int, w: np.ndarray) -> Optional[float]:
    """I_g(w) / ||P_g w||, or None when ||P_g w|| <= REL_TOL * ||w||."""
    norm = float(np.linalg.norm(model.group(gid).projection.basis.T @ w))
    if norm <= REL_TOL * float(np.linalg.norm(w)):
        return None
    return total_improvement(model, gid, w) / norm


def improvement_report(model: PopulationModel, w) -> dict:
    """The result document's `metrics` mapping for rule w.

    Holds `welfare`, `difference` and, per subgroup g, the total `I{g}`,
    per-unit `uI{g}` and optimal per-unit `uI{g}_star` improvements, with
    undefined ratios reported as None.
    """
    wv = model.as_rule(w)
    totals = [total_improvement(model, gid, wv) for gid in (1, 2)]
    report = {"welfare": welfare_gain(model, wv), "difference": totals[0] - totals[1]}
    for gid, total in enumerate(totals, start=1):
        report[f"I{gid}"] = total
        report[f"uI{gid}"] = _per_unit(model, gid, wv)
        report[f"uI{gid}_star"] = _optimal_per_unit(model, gid)
    return report
