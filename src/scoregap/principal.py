"""The principal's side: welfare objectives and optimal rule deployment.

Welfare gain of a rule is the total true-quality improvement it induces
across both subgroups. Because each subgroup's movement is linear in the
deployed rule, the gain is a linear functional of the rule, and the
welfare-maximizing unit rule is that functional's direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegenerateObjectiveError, DimensionMismatchError
from .agents import Subgroup
from .linalg import REL_TOL, alignment, as_vector, frozen


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Two subgroups plus the true quality direction the principal cares about.

    Caches the subgroups' pull directions t_g = P_g A_g^{-1} w_star (the
    gradient of each subgroup's improvement in the deployed rule) as the
    rows of `pulls`, and their sum s, which is the gradient of total
    welfare. Every guarantee is a closed form in five more cached numbers:
    the 2x2 Gram matrix `gram` = T T^T of the pulls and `perceived` =
    (n_1, n_2) with n_g = ||P_g s|| = ||V_g^T s|| for the basis V_g.
    `alignment` is the overlap tr(P_1 P_2)/d of the two perceived subspaces.
    """

    group1: Subgroup
    group2: Subgroup
    w_star: np.ndarray

    def __post_init__(self):
        if self.group1.dim != self.group2.dim:
            raise DimensionMismatchError(
                f"subgroup dims differ: {self.group1.dim} vs {self.group2.dim}"
            )
        w = as_vector(self.w_star, "w_star", self.group1.dim)
        object.__setattr__(self, "w_star", frozen(w))
        pulls = frozen([g.projection.apply(g.cost.solve(w)) for g in self.groups])
        gain = frozen(pulls[0] + pulls[1])
        object.__setattr__(self, "pulls", pulls)
        object.__setattr__(self, "_gain_direction", gain)
        object.__setattr__(self, "gram", frozen(pulls @ pulls.T))
        perceived = tuple(float(np.linalg.norm(g.projection.basis.T @ gain)) for g in self.groups)
        object.__setattr__(self, "perceived", perceived)
        object.__setattr__(self, "alignment", alignment(*(g.projection for g in self.groups)))

    @property
    def dim(self) -> int:
        return self.group1.dim

    @property
    def groups(self) -> Tuple[Subgroup, Subgroup]:
        return (self.group1, self.group2)

    def group(self, gid: int) -> Subgroup:
        if gid not in (1, 2):
            raise ValueError(f"group id must be 1 or 2, got {gid}")
        return self.group1 if gid == 1 else self.group2

    def pull_direction(self, gid: int) -> np.ndarray:
        """t_g = P_g A_g^{-1} w_star; <w, t_g> is subgroup g's gain under w."""
        if gid not in (1, 2):
            raise ValueError(f"group id must be 1 or 2, got {gid}")
        return self.pulls[gid - 1]

    @property
    def gain_direction(self) -> np.ndarray:
        """t_1 + t_2; <w, .> gives total welfare gain of deploying w."""
        return self._gain_direction

    @property
    def pull_scale(self) -> float:
        """||t_1|| + ||t_2||, the scale against which s or one pull counts as zero."""
        return float(np.sqrt(self.gram[0, 0]) + np.sqrt(self.gram[1, 1]))

    @property
    def degenerate(self) -> bool:
        """True when no unit rule produces any welfare gain."""
        return bool(np.linalg.norm(self._gain_direction) <= REL_TOL * self.pull_scale)

    def as_rule(self, w) -> np.ndarray:
        """w as a finite vector of the model's dimension; raises otherwise."""
        return as_vector(w, "w", self.dim)


def welfare_gain(model: PopulationModel, w) -> float:
    """Total true-quality improvement both subgroups gain under rule w: <w, t_1 + t_2>."""
    return float(model.as_rule(w) @ model.gain_direction)


def _unit_rule(model: PopulationModel, direction: np.ndarray, message: str) -> np.ndarray:
    """The unit rule w maximizing <direction, w>: direction / ||direction||."""
    if np.linalg.norm(direction) <= REL_TOL * model.pull_scale:
        raise DegenerateObjectiveError(message)
    return np.sqrt(1.0 / float(direction @ direction)) * direction


def welfare_maximizing_rule(model: PopulationModel) -> np.ndarray:
    """Unit rule maximizing total welfare gain: (t_1 + t_2) / ||t_1 + t_2||.

    Raises DegenerateObjectiveError when the welfare gain is zero for
    every rule.
    """
    return _unit_rule(model, model.gain_direction, "welfare gain is zero for every rule; no maximizer exists")


def group_optimal_rule(model: PopulationModel, gid: int) -> np.ndarray:
    """Unit rule maximizing subgroup gid's own improvement."""
    return _unit_rule(
        model,
        model.pull_direction(gid),
        f"subgroup {gid} cannot gain under any rule; no maximizer exists",
    )
