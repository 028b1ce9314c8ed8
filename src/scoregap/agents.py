"""Subgroup behavior: rule estimation, effort movement, best response.

A subgroup sees scored peers whose feature vectors span a subspace, fits
the scoring rule by minimum-norm regression (which recovers exactly the
projection of the true rule onto that span), and then shifts its features
to maximize estimated score minus a quadratic effort cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyPeerSetError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
    naming,
)
from .linalg import (
    SYMMETRY_TOL, ProjectionMatrix, as_matrix, as_vector, frozen, min_norm_least_squares, tolerance, unit_exponent,
)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Symmetric positive-definite effort cost.

    Moving features by delta costs (1/2) delta^T A delta. Construction
    checks symmetry against SYMMETRY_TOL times the largest entry, so the
    verdict does not depend on the cost's units, and positive
    definiteness with a Cholesky factorization; inverse applications are
    linear solves, so A^{-1} is never formed explicitly. `scaled_solve` uses
    B = D A D 2**-m, D = diag(2**-h), its powers of two set by the diagonal
    so that every entry of B lies below 2 and scaling A by 2**k changes only m.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.matrix, "cost matrix", square=True)
        if np.max(np.abs(a - a.T)) > SYMMETRY_TOL * np.max(np.abs(a)):
            raise NotPositiveDefiniteError("cost matrix is not symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "Cholesky failed; cost matrix is not positive definite"
            ) from exc
        object.__setattr__(self, "matrix", frozen(a))
        e = np.frexp(np.diag(a))[1]
        m = int(e.max() + e.min()) // 2
        h = (e - m) // 2
        object.__setattr__(self, "_balanced", (frozen(np.ldexp(a, -np.add.outer(h, h) - m)), h, m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def scaled_solve(self, v: np.ndarray) -> tuple[np.ndarray, int]:
        """(y, k) with A^{-1} v = y 2**k and max |y| in [1/2, 1), or y = 0, for a vector v.

        A^{-1} v = D z 2**(e_v - m) for B z = D v 2**-e_v, e_v = unit_exponent(v): z overflows only
        if ||B^{-1}|| passes about 2**500, as max |D v 2**-e_v| < 2**524."""
        balanced, h, m = self._balanced
        e_v = unit_exponent(v)
        z = np.linalg.solve(balanced, np.ldexp(v, -h - e_v))
        exps = (np.frexp(z)[1] - h)[z != 0]  # the frexp exponents of D z
        k = int(exps.max()) if exps.size else 0
        return np.ldexp(z, -h - k), k + e_v - m

    def quad(self, delta: np.ndarray) -> float:
        """delta^T A delta."""
        return float(delta @ self.matrix @ delta)

    @classmethod
    def identity(cls, dim: int) -> "CostMatrix":
        return cls(np.eye(dim))

    @classmethod
    def from_spec(cls, spec, dim: int, field: str, dim_label: str) -> "CostMatrix":
        """I for None, that multiple of I for a number, else the matrix; a non-SPD or non-`dim` one is a ConfigError."""
        if spec is None:
            return cls.identity(dim)
        with naming(field):
            cost = cls(spec * np.eye(dim) if isinstance(spec, float) else spec)
        if cost.dim != dim:
            raise ConfigError(f"{field}: dimension {cost.dim} does not match {dim_label} {dim}")
        return cost


@dataclass(frozen=True, eq=False)
class PeerDataset:
    """Observed peers: feature rows with the scores the deployed rule gave them."""

    features: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.features, "peer features")
        y = as_vector(self.scores, "peer scores")
        if x.shape[0] == 0:
            raise EmptyPeerSetError("peer dataset has no rows")
        if y.shape[0] != x.shape[0]:
            raise ShapeMismatchError(
                f"{y.shape[0]} scores for {x.shape[0]} peer rows"
            )
        object.__setattr__(self, "features", frozen(x))
        object.__setattr__(self, "scores", frozen(y))

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def check_consistent(self, w: np.ndarray) -> bool:
        """True when max |features @ w - scores| <= tolerance(max_i sum_j |x_ij w_j|).

        That scale bounds each score's roundoff in any summation order, so
        the verdict does not depend on the units of the features or the rule.
        """
        wv = as_vector(w, "w", self.dim)
        scale = np.max(np.abs(self.features) @ np.abs(wv))
        return bool(np.max(np.abs(self.features @ wv - self.scores)) <= tolerance(scale))

    @classmethod
    def from_rule(cls, features, w) -> "PeerDataset":
        x = as_matrix(features, "peer features")
        return cls(features=x, scores=x @ as_vector(w, "w", x.shape[1]))


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup's observable span (projection P) and effort cost (A).

    Both live in the same feature dimension. Under a deployed rule w the
    subgroup moves by A^{-1} P w (see `movement`).
    """

    name: str
    cost: CostMatrix
    projection: ProjectionMatrix

    def __post_init__(self):
        if self.cost.dim != self.projection.dim:
            raise DimensionMismatchError(
                f"cost dim {self.cost.dim} != projection dim {self.projection.dim}"
            )

    @property
    def dim(self) -> int:
        return self.projection.dim


def estimate_rule_analytic(projection: ProjectionMatrix, w) -> np.ndarray:
    """Rule a subgroup infers from peers spanning the projected subspace.

    Minimum-norm regression on peers whose features span range(P) recovers
    P w exactly, so the estimate is computed directly as the projection of
    the deployed rule.
    """
    return projection.apply(as_vector(w, "w", projection.dim))


def estimate_rule_empirical(peers: PeerDataset) -> np.ndarray:
    """Rule fitted from observed peers by minimum-norm least squares.

    When peer scores are exact evaluations of a deployed rule, the fit
    equals the projection of that rule onto the span of the peer features.
    """
    return min_norm_least_squares(peers.features, peers.scores)


def movement(group: Subgroup, w) -> np.ndarray:
    """Feature change a subgroup makes when rule w is deployed: A^{-1} P w. NonFiniteError past the float range."""
    y, k = group.cost.scaled_solve(group.projection.apply(as_vector(w, "w", group.dim)))
    if y.any() and k > 1024:  # max |y| >= 1/2, so max |y 2**k| >= 2**1024
        raise NonFiniteError(f"{group.name}: movement overflows to a non-finite value")
    return np.ldexp(y, k)


def best_response(group: Subgroup, x, w) -> np.ndarray:
    """Utility-maximizing new feature vector from initial position x.

    The quadratic program has the closed form x + A^{-1} P w; the optimal
    shift does not depend on the starting point.
    """
    return as_vector(x, "x", group.dim) + movement(group, w)


def utility(group: Subgroup, x, x_new, w) -> float:
    """Estimated score at x_new minus the quadratic cost of moving from x.

    u = <P w, x_new> - (1/2) (x_new - x)^T A (x_new - x).
    """
    xv = as_vector(x, "x", group.dim)
    xn = as_vector(x_new, "x_new", group.dim)
    est = group.projection.apply(as_vector(w, "w", group.dim))
    delta = xn - xv
    return float(est @ xn) - 0.5 * group.cost.quad(delta)
