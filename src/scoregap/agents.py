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
    DimensionMismatchError,
    EmptyPeerSetError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
)
from .linalg import REL_TOL, SYMMETRY_TOL, ProjectionMatrix, as_matrix, as_vector, frozen, min_norm_least_squares


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Symmetric positive-definite effort cost.

    Moving features by delta costs (1/2) delta^T A delta. Construction
    checks symmetry against SYMMETRY_TOL times the largest entry, so the
    verdict does not depend on the cost's units, and positive
    definiteness with a Cholesky factorization; inverse applications are
    linear solves, so A^{-1} is never formed explicitly.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.matrix, "cost matrix")
        if a.shape[0] != a.shape[1]:
            raise ShapeMismatchError(f"cost matrix must be square, got {a.shape}")
        if np.max(np.abs(a - a.T)) > SYMMETRY_TOL * np.max(np.abs(a)):
            raise NotPositiveDefiniteError("cost matrix is not symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "Cholesky failed; cost matrix is not positive definite"
            ) from exc
        object.__setattr__(self, "matrix", frozen(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def solve(self, v: np.ndarray) -> np.ndarray:
        """A^{-1} v for a vector or a matrix right-hand side."""
        return np.linalg.solve(self.matrix, v)

    def quad(self, delta: np.ndarray) -> float:
        """delta^T A delta."""
        return float(delta @ self.matrix @ delta)

    @classmethod
    def identity(cls, dim: int) -> "CostMatrix":
        return cls(np.eye(dim))

    @classmethod
    def scaled_identity(cls, dim: int, scale: float) -> "CostMatrix":
        return cls(scale * np.eye(dim))


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

    @property
    def size(self) -> int:
        return self.features.shape[0]

    def check_consistent(self, w: np.ndarray) -> bool:
        """True when max |features @ w - scores| <= REL_TOL max_i sum_j |x_ij w_j|.

        That scale bounds each score's roundoff in any summation order, so
        the verdict does not depend on the units of the features or the rule.
        """
        wv = as_vector(w, "w")
        if wv.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"rule has dim {wv.shape[0]}, peers have dim {self.dim}"
            )
        scale = np.max(np.abs(self.features) @ np.abs(wv))
        return bool(np.max(np.abs(self.features @ wv - self.scores)) <= REL_TOL * scale)

    @classmethod
    def from_rule(cls, features, w) -> "PeerDataset":
        x = as_matrix(features, "peer features")
        wv = as_vector(w, "w")
        return cls(features=x, scores=x @ wv)


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
    wv = as_vector(w, "w")
    if wv.shape[0] != projection.dim:
        raise DimensionMismatchError(
            f"rule has dim {wv.shape[0]}, projection has dim {projection.dim}"
        )
    return projection.apply(wv)


def estimate_rule_empirical(peers: PeerDataset) -> np.ndarray:
    """Rule fitted from observed peers by minimum-norm least squares.

    When peer scores are exact evaluations of a deployed rule, the fit
    equals the projection of that rule onto the span of the peer features.
    """
    return min_norm_least_squares(peers.features, peers.scores)


def movement(group: Subgroup, w) -> np.ndarray:
    """Feature change a subgroup makes when rule w is deployed: A^{-1} P w."""
    wv = as_vector(w, "w")
    if wv.shape[0] != group.dim:
        raise DimensionMismatchError(
            f"rule has dim {wv.shape[0]}, subgroup has dim {group.dim}"
        )
    return group.cost.solve(group.projection.apply(wv))


def best_response(group: Subgroup, x, w) -> np.ndarray:
    """Utility-maximizing new feature vector from initial position x.

    The quadratic program has the closed form x + A^{-1} P w; the optimal
    shift does not depend on the starting point.
    """
    xv = as_vector(x, "x")
    if xv.shape[0] != group.dim:
        raise DimensionMismatchError(
            f"x has dim {xv.shape[0]}, subgroup has dim {group.dim}"
        )
    return xv + movement(group, w)


def utility(group: Subgroup, x, x_new, w) -> float:
    """Estimated score at x_new minus the quadratic cost of moving from x.

    u = <P w, x_new> - (1/2) (x_new - x)^T A (x_new - x).
    """
    xv = as_vector(x, "x")
    xn = as_vector(x_new, "x_new")
    wv = as_vector(w, "w")
    if not (xv.shape[0] == xn.shape[0] == wv.shape[0] == group.dim):
        raise DimensionMismatchError(
            f"dims (x={xv.shape[0]}, x_new={xn.shape[0]}, w={wv.shape[0]}) "
            f"must all equal subgroup dim {group.dim}"
        )
    est = group.projection.apply(wv)
    delta = xn - xv
    return float(est @ xn) - 0.5 * group.cost.quad(delta)
