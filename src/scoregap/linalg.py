"""Deterministic linear-algebra primitives.

Everything downstream is built out of three operations: truncated-SVD
subspace projections, each stored as an orthonormal basis of its range,
minimum-norm least squares, and the overlap tr(P1 P2)/d of a pair of
projections. All functions are pure; given identical inputs they return
identical outputs.

`as_vector` and `as_matrix` are the one reader of outside values: every
array that enters the program, from a config, a model file, a w* file or
a library caller, becomes a finite float array of the checked shape
through them, and each error they raise starts with the name it was given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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


def _as_array(value, name: str, ndim: int) -> np.ndarray:
    """value as a finite float array with `ndim` axes; errors start with `name`."""
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise NonFiniteError(f"{name}: contains non-finite values") from None
    except (TypeError, ValueError):
        raise ShapeMismatchError(f"{name}: expected a list of numbers") from None
    if arr.ndim != ndim:
        raise ShapeMismatchError(f"{name}: expected a {ndim}-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name}: contains non-finite values")
    return arr


def as_vector(v, name: str = "vector", dim: Optional[int] = None) -> np.ndarray:
    """v as a finite float 1-D array, of length `dim` when given."""
    arr = _as_array(v, name, 1)
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"{name}: expected {dim} values, got shape {arr.shape}")
    return arr


def as_matrix(m, name: str = "matrix", square: bool = False) -> np.ndarray:
    """m as a finite float 2-D array, square when `square` is set."""
    arr = _as_array(m, name, 2)
    if square and arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"{name}: expected a square matrix, got shape {arr.shape}")
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
    symmetrized V V^T, formed on first use (`from_matrix` checks a model
    file's projection against it; nothing else in the pipeline reads it).
    See subspace_projection for `tie_warning`.
    """

    basis: np.ndarray
    tie_warning: bool = False

    def __post_init__(self):
        v = as_matrix(self.basis, "basis")
        if np.max(np.abs(v.T @ v - np.eye(v.shape[1])), initial=0.0) > REL_TOL:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", frozen(v))

    @cached_property
    def matrix(self) -> np.ndarray:
        p = self.basis @ self.basis.T
        return frozen((p + p.T) / 2.0)

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
        p = as_matrix(m, "projection", square=True)
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


def unit_exponent(x: np.ndarray) -> int:
    """e, the frexp exponent of max |x|: the QR and SVD of x * 2**-e cannot overflow and give x's V bit for bit."""
    return int(np.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1])


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

    x = np.ldexp(x, -unit_exponent(x))  # so that the QR cannot overflow; V does not change
    _, s, vt = np.linalg.svd(np.linalg.qr(x, mode="r"), full_matrices=False)  # R-SVD: no n x d U
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


def alignment(p1: ProjectionMatrix, p2: ProjectionMatrix) -> float:
    """Average overlap <P1 x, P2 x> over uniform unit vectors x, exactly.

    E[x x^T] = I/d, so the average is tr(P1 P2)/d = ||V1^T V2||_F^2 / d:
    the sum of the squared cosines of the principal angles between the
    two spans, over d. It is symmetric in the projections, 0 for
    orthogonal spans, r/d for two equal rank-r spans and at most
    min(r1, r2)/d.
    """
    if p1.dim != p2.dim:
        raise DimensionMismatchError(f"projection dims differ: {p1.dim} vs {p2.dim}")
    cosines = p1.basis.T @ p2.basis
    return float(np.sum(cosines * cosines)) / p1.dim
