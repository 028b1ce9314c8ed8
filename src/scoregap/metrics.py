"""Improvement metrics for deployed scoring rules.

Total improvement of a subgroup is the true-quality gain of its movement.
Per-unit improvement normalizes by the length of the rule the subgroup
actually perceives, which makes groups with very different visibility
comparable; it is undefined when the perceived rule is zero.
`improvement_report` reads the welfare rule's metrics from the closed forms
the conditions module judges, I_g = (G_gg + G_12) / ||s||, uI_g =
(G_gg + G_12) / n_g and uI_g_star = sqrt(G_gg), so a verdict and its metric
are one float.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateObjectiveError, ZeroProjectedRuleError
from .linalg import tolerance, unit_exponent
from .principal import PopulationModel


def total_improvement(model: PopulationModel, gid: int, w) -> float:
    """True-quality gain of subgroup gid's movement under rule w: <w, t_gid>."""
    return model.in_units(model.as_rule(w) @ model.unit_pull(gid))


def per_unit_improvement(model: PopulationModel, gid: int, w) -> float:
    """Total improvement per unit of perceived rule: I_g(w) / ||P_g w||.

    The ratio has no scale, so it is taken at w 2**-e_w. Raises
    ZeroProjectedRuleError when the subgroup perceives a zero rule
    (||P_g w|| <= tolerance(||w||)), in which case the ratio has no value.
    """
    wv = model.as_rule(w)
    wv = np.ldexp(wv, -unit_exponent(wv))
    norm = float(np.linalg.norm(model.group(gid).projection.basis.T @ wv))
    if norm <= tolerance(np.linalg.norm(wv)):
        raise ZeroProjectedRuleError(f"subgroup {gid} perceives a zero rule; per-unit improvement undefined")
    return total_improvement(model, gid, wv) / norm


def optimal_per_unit_improvement(model: PopulationModel, gid: int) -> float:
    """Largest per-unit improvement subgroup gid can get from any rule.

    Equals ||t_g|| = sqrt(G_gg) for pull direction t_g = P_g A_g^{-1} w_star:
    writing the perceived rule as v = P_g w, the ratio <v, A_g^{-1} w_star> / ||v||
    over nonzero v in the perceived span is maximized at v parallel to t_g.
    Raises ZeroProjectedRuleError when the subgroup perceives nothing at
    all (rank-zero projection), since every ratio is then undefined.
    """
    if model.group(gid).projection.rank == 0:
        raise ZeroProjectedRuleError(
            f"subgroup {gid} has a rank-zero projection; per-unit improvement undefined"
        )
    return model.in_units(np.sqrt(model.gram[gid - 1, gid - 1]))


def improvement_difference(model: PopulationModel, w) -> float:
    """Gap in total improvement between subgroup 1 and subgroup 2 under w."""
    wv = model.as_rule(w)
    return total_improvement(model, 1, wv) - total_improvement(model, 2, wv)


def improvement_report(model: PopulationModel) -> dict:
    """The result document's `metrics` mapping for the welfare-maximizing rule s / ||s||.

    Holds `welfare` = ||s||, `difference` and, per subgroup g, the total `I{g}`,
    per-unit `uI{g}` and optimal per-unit `uI{g}_star` improvements, None
    where n_g = 0 and where P_g = 0. Raises DegenerateObjectiveError where s = 0.
    """
    if model.degenerate:
        raise DegenerateObjectiveError("welfare gain is zero for every rule; no maximizer exists")
    g, norm = model.gram, model.gain_norm
    report = {"welfare": model.in_units(norm), "difference": model.in_units((g[0, 0] - g[1, 1]) / norm)}
    for gid, n in enumerate(model.perceived, start=1):
        inner = g[gid - 1, gid - 1] + g[0, 1]
        report[f"I{gid}"] = model.in_units(inner / norm)
        report[f"uI{gid}"] = model.in_units(inner / n) if n else None
        report[f"uI{gid}_star"] = optimal_per_unit_improvement(model, gid) if model.group(gid).projection.rank else None
    return report
