"""Deterministic linear-algebra primitives.

Everything downstream is built out of three operations: truncated-SVD
subspace projections, each stored as an orthonormal basis of its range,
minimum-norm least squares, and a Monte-Carlo overlap measure for pairs
of projections. All functions are pure; given identical inputs (and
seeds) they return identical outputs.
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

# A scalar counts as zero (or as equal to another) when it is at most
# REL_TOL times its natural scale; the conditions module lists the scales.
REL_TOL = 1e-8

# Largest |M - M^T| allowed per unit of max |M| (cost matrices).
SYMMETRY_TOL = 1e-10

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
    """Orthogonal projection onto a subspace of R^d, stored as its basis.

    `basis` V is d x r (r = 0 for the zero projection), accepted when
    max |V^T V - I| <= REL_TOL. P x is V (V^T x). `matrix` is the dense,
    symmetrized V V^T, formed here: formed lazily inside `alignment`,
    between its large sample blocks, it raised the peak RSS of `analyze`.
    See subspace_projection for `tie_warning`.
    """

    basis: np.ndarray
    tie_warning: bool = False

    def __post_init__(self):
        v = as_matrix(self.basis, "basis")
        if np.max(np.abs(v.T @ v - np.eye(v.shape[1])), initial=0.0) > REL_TOL:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", frozen(v))
        p = self.basis @ self.basis.T
        object.__setattr__(self, "matrix", frozen((p + p.T) / 2.0))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ v)

    @classmethod
    def identity(cls, dim: int) -> "ProjectionMatrix":
        return cls(np.eye(dim))

    @classmethod
    def from_matrix(cls, m) -> "ProjectionMatrix":
        """Projection onto the eigenvectors V of m with eigenvalue above 1/2.

        Accepts m when max |m - V V^T| <= REL_TOL: a projection has 2-norm
        1, so this one relative check covers symmetry, idempotence and trace.
        """
        p = as_matrix(m, "projection")
        if p.shape[0] != p.shape[1]:
            raise ShapeMismatchError(f"projection must be square, got {p.shape}")
        eigvals, eigvecs = np.linalg.eigh(p)
        out = cls(eigvecs[:, eigvals > 0.5])
        err = np.max(np.abs(p - out.matrix), initial=0.0)
        if err > REL_TOL:
            raise ValueError(f"not a symmetric idempotent matrix: max |P - V V^T| = {err:.3g}")
        return out


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
    tie = bool(k < s.size and s[k - 1] > 0 and s[k - 1] - s[k] <= RANK_TOL * s[0])
    return ProjectionMatrix(vt[:r].T, tie_warning=tie)


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
