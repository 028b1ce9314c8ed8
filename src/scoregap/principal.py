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

from .errors import DegenerateObjectiveError, DimensionMismatchError, NonFiniteError
from .agents import Subgroup
from .linalg import alignment, as_vector, frozen, tolerance, unit_exponent


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Two subgroups plus the true quality direction the principal cares about.

    Holds the pull directions t_g = P_g A_g^{-1} w_star (the gradient of
    subgroup g's improvement in the deployed rule) once, at one power of
    two: `unit_pulls` U has rows U_g = t_g 2**-e and `unit_gain` is
    u = U_1 + U_2 = s 2**-e, s being the gradient of total welfare. Each
    t_g is P_g y 2**k for CostMatrix.scaled_solve's (y, k) of w_star, and
    e = `exponent` is the largest pull's, so no step overflows; a pull
    past the float range is a NonFiniteError naming its subgroup.
    Every guarantee is a closed form in `gram` = U U^T, `perceived` =
    (n_1, n_2) with n_g = ||V_g^T u|| for the basis V_g, and `gain_norm` =
    ||u||; `in_units` scales a value back exactly. `alignment` is tr(P_1 P_2)/d.
    Zeros are decided once: t_g = 0 where ||P_g z|| <= tolerance(||z||) for the solve's z, and
    U_g = 0 where t_g ~ 0, then u = 0 where s ~ 0, both judged against `pull_scale` =
    (||t_1|| + ||t_2||) 2**-e; `zero_pulls` and `degenerate` read those zeros. Last,
    n_g = 0 where n_g <= tolerance(||u||): the subgroup perceives none of the welfare rule.
    """

    group1: Subgroup
    group2: Subgroup
    w_star: np.ndarray

    def __post_init__(self):
        if self.group1.dim != self.group2.dim:
            raise DimensionMismatchError(f"subgroup dims differ: {self.group1.dim} vs {self.group2.dim}")
        w = as_vector(self.w_star, "w_star", self.group1.dim)
        object.__setattr__(self, "w_star", frozen(w))
        pulls = []  # (y, shift, top) per group: t_g = y 2**shift, max |t_g| < 2**top
        for g in self.groups:
            z, shift = g.cost.scaled_solve(w)
            if not np.isfinite(z).all():  # B all but singular; see CostMatrix.scaled_solve
                raise NonFiniteError(f"{g.name}: cost solve overflows to a non-finite value")
            y = g.projection.apply(z)
            if np.linalg.norm(y) <= tolerance(np.linalg.norm(z)):  # P_g z is roundoff of the solve
                y = np.zeros_like(y)
            top = shift + unit_exponent(y)
            if y.any() and top > 1024:  # max |t_g| >= 2**(top - 1), past the largest float
                raise NonFiniteError(f"{g.name}: pull direction overflows to a non-finite value")
            pulls.append((y, shift, top))
        exponent = max((top for y, _, top in pulls if y.any()), default=0)  # a zero pull has no say
        units = np.array([np.ldexp(y, shift - exponent) for y, shift, _ in pulls])
        norms = np.sqrt(np.diag(units @ units.T))  # as `gram` takes them, to the last bit
        object.__setattr__(self, "pull_scale", float(norms[0] + norms[1]))
        units[norms <= tolerance(self.pull_scale)] = 0.0
        gain = units[0] + units[1]
        if np.linalg.norm(gain) <= tolerance(self.pull_scale):
            gain[:] = 0.0
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "unit_pulls", frozen(units))
        object.__setattr__(self, "unit_gain", frozen(gain))
        object.__setattr__(self, "gram", frozen(units @ units.T))
        object.__setattr__(self, "gain_norm", float(np.linalg.norm(gain)))
        object.__setattr__(self, "zero_pulls", tuple(not u.any() for u in units))
        object.__setattr__(self, "degenerate", not gain.any())
        perceived = [float(np.linalg.norm(g.projection.basis.T @ gain)) for g in self.groups]
        object.__setattr__(self, "perceived", tuple(n if n > tolerance(self.gain_norm) else 0.0 for n in perceived))
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

    def unit_pull(self, gid: int) -> np.ndarray:
        """U_g = t_g 2**-e; <w, U_g> 2**e is subgroup g's gain under w."""
        self.group(gid)  # checks gid
        return self.unit_pulls[gid - 1]

    def pull_direction(self, gid: int) -> np.ndarray:
        """t_g = P_g A_g^{-1} w_star, exactly U_g 2**e within the float range."""
        return np.ldexp(self.unit_pull(gid), self.exponent)

    @property
    def gain_direction(self) -> np.ndarray:
        """s = t_1 + t_2, exactly u 2**e; <w, s> is the welfare gain of w. NonFiniteError past the float range."""
        if self.exponent + unit_exponent(self.unit_gain) > 1024:  # max |s| >= 2**1024, past the largest float
            raise NonFiniteError("gain direction overflows to a non-finite value")
        return np.ldexp(self.unit_gain, self.exponent)

    def in_units(self, value: float, power: int = 1) -> float:
        """A value taken from U (or u) in the units of w_star: value * 2**(power * e), exact within the float range."""
        return float(np.ldexp(value, power * self.exponent))

    def as_rule(self, w) -> np.ndarray:
        """w as a finite vector of the model's dimension; raises otherwise."""
        return as_vector(w, "w", self.dim)


def welfare_gain(model: PopulationModel, w) -> float:
    """Total true-quality improvement both subgroups gain under rule w: <w, t_1 + t_2>."""
    return model.in_units(model.as_rule(w) @ model.unit_gain)


def _unit_rule(unit: np.ndarray, message: str) -> np.ndarray:
    """The unit rule w maximizing <unit, w> for a direction taken at 2**-e: unit / ||unit||; raises where unit = 0."""
    if not unit.any():
        raise DegenerateObjectiveError(message)
    return np.sqrt(1.0 / float(unit @ unit)) * unit


def welfare_maximizing_rule(model: PopulationModel) -> np.ndarray:
    """Unit rule maximizing total welfare gain: (t_1 + t_2) / ||t_1 + t_2||.

    Raises DegenerateObjectiveError when the welfare gain is zero for every rule.
    """
    return _unit_rule(model.unit_gain, "welfare gain is zero for every rule; no maximizer exists")


def group_optimal_rule(model: PopulationModel, gid: int) -> np.ndarray:
    """Unit rule maximizing subgroup gid's own improvement."""
    return _unit_rule(model.unit_pull(gid), f"subgroup {gid} cannot gain under any rule; no maximizer exists")
