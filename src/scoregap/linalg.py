"""Deterministic linear-algebra primitives.

Everything downstream is built out of three operations: truncated-SVD
subspace projections, minimum-norm least squares, and a Monte-Carlo
overlap measure for pairs of projections. All functions are pure; given identical inputs
(and seeds) they return identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDataError,
    NonFiniteError,
    RankTooLargeError,
    ShapeMismatchError,
)

# Singular values below RANK_TOL * sigma_max count as zero, both for
# effective rank and for the pseudo-inverse.
RANK_TOL = 1e-10

SYMMETRY_TOL = 1e-10
IDEMPOTENCE_TOL = 1e-9  # scaled by dim
TRACE_TOL = 1e-8

_ALIGNMENT_BLOCK = 65536  # samples per RNG block; fixed so runs are reproducible


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float 1-D array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ShapeMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float 2-D array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def frozen(arr) -> np.ndarray:
    """Read-only float copy, for arrays that immutable objects hold."""
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """Orthogonal projection onto a subspace of R^d.

    The matrix must be symmetric and idempotent, with trace equal to the
    stated rank. `subspace_projection` sets `tie_warning` when the rank
    cut fell inside a tied singular-value block (the projection
    is then not unique).
    """

    matrix: np.ndarray
    rank: int
    tie_warning: bool = False

    def __post_init__(self):
        p = as_matrix(self.matrix, "projection")
        d = p.shape[0]
        if p.shape[0] != p.shape[1]:
            raise ShapeMismatchError(f"projection must be square, got {p.shape}")
        if np.max(np.abs(p - p.T)) > SYMMETRY_TOL:
            raise ValueError("projection is not symmetric")
        if np.linalg.norm(p @ p - p, "fro") > IDEMPOTENCE_TOL * d:
            raise ValueError("projection is not idempotent")
        if abs(np.trace(p) - self.rank) > TRACE_TOL:
            raise ValueError(
                f"trace {np.trace(p):.12g} does not match rank {self.rank}"
            )
        object.__setattr__(self, "matrix", frozen(p))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    @classmethod
    def identity(cls, dim: int) -> "ProjectionMatrix":
        return cls(np.eye(dim), rank=dim)

    @classmethod
    def from_basis(cls, basis: np.ndarray) -> "ProjectionMatrix":
        """Projection onto the span of orthonormal columns."""
        b = as_matrix(basis, "basis")
        p = b @ b.T
        return cls((p + p.T) / 2.0, rank=b.shape[1])


def effective_rank(singular_values: np.ndarray) -> int:
    """Number of singular values above RANK_TOL * sigma_max."""
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def subspace_projection(data, k: int) -> ProjectionMatrix:
    """Orthogonal projection onto the span of the top-k right singular vectors.

    Args:
        data: n x d matrix whose rows sample the subspace.
        k: target rank, 1 <= k <= min(n, d).

    Returns:
        ProjectionMatrix whose rank is the effective rank: min(k, number of
        nonzero singular values). When the cut k falls inside a tied
        singular-value block the result carries tie_warning=True, since the
        projection is then not unique.
    """
    x = as_matrix(data, "data")
    n, d = x.shape
    if n == 0:
        raise EmptyDataError("data matrix has zero rows")
    if k < 1:
        raise RankTooLargeError(f"rank k must be >= 1, got {k}")
    if k > min(n, d):
        raise RankTooLargeError(f"rank k={k} exceeds min(n, d)={min(n, d)}")

    _, s, vt = np.linalg.svd(x, full_matrices=False)
    r = min(k, effective_rank(s))

    tie = False
    if k < s.size and s[k - 1] > 0:
        tie = bool(s[k - 1] - s[k] <= RANK_TOL * s[0])

    if r == 0:
        p = np.zeros((d, d))
    else:
        v = vt[:r].T
        p = v @ v.T
        p = (p + p.T) / 2.0
    return ProjectionMatrix(matrix=p, rank=r, tie_warning=tie)


def min_norm_least_squares(x_mat, y) -> np.ndarray:
    """Minimum-Euclidean-norm minimizer of ||X w - y||^2.

    The solution lies in the row space of X and the residual X w - y is
    orthogonal to the column space. Singular values below
    RANK_TOL * sigma_max are treated as zero.
    """
    x = as_matrix(x_mat, "X")
    yv = as_vector(y, "y")
    if x.shape[0] == 0:
        raise EmptyDataError("X has zero rows")
    if yv.shape[0] != x.shape[0]:
        raise ShapeMismatchError(
            f"len(y)={yv.shape[0]} does not match n={x.shape[0]}"
        )
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    r = effective_rank(s)
    if r == 0:
        return np.zeros(x.shape[1])
    coeff = (u[:, :r].T @ yv) / s[:r]
    return vt[:r].T @ coeff


def alignment(p1: ProjectionMatrix, p2: ProjectionMatrix, n_samples: int, seed: int) -> float:
    """Average overlap <P1 x, P2 x> over uniform unit vectors x.

    Sampling is uniform on the sphere via normalized Gaussian draws from a
    PCG64 generator seeded with `seed`, processed in fixed-size blocks, so
    the value is a deterministic function of (p1, p2, n_samples, seed) and
    symmetric in the two projections. Values near 1 mean heavily
    overlapping subspaces; near 0, nearly orthogonal ones.
    """
    if p1.dim != p2.dim:
        raise DimensionMismatchError(f"projection dims differ: {p1.dim} vs {p2.dim}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    d = p1.dim
    total = 0.0
    remaining = n_samples
    while remaining > 0:
        block = min(remaining, _ALIGNMENT_BLOCK)
        x = rng.standard_normal((block, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        total += float(np.sum((x @ p1.matrix) * (x @ p2.matrix)))
        remaining -= block
    return total / n_samples
