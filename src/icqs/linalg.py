"""Dense linear algebra for small real matrices.

Thin numpy-backed routines that pin down the numerical semantics the rest of
the solver relies on: positive definiteness is decided by an explicit pivot
threshold inside the Cholesky loop, eigenvalues come back sorted descending
with orthonormal columns, and singular values are taken as square roots of
the Gram-matrix spectrum.  Everything here works on plain float64 ndarrays;
matrices are dense and small (a few dozen rows at most), so no attempt is
made to exploit sparsity or bandedness.

All functions are pure and all returned arrays are fresh, so values can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NotPositiveDefinite

# Absolute pivot floor below which a Cholesky pivot counts as non-positive.
PD_TOLERANCE = 1e-10
# Relative reconstruction error allowed for the symmetric eigendecomposition.
EIGEN_TOLERANCE = 1e-9
# Relative residual allowed for positive definite solves.
SOLVE_TOLERANCE = 1e-9

_SYMMETRY_RTOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite float64 2-D array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return ``a`` as a finite float64 1-D array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _symmetric(Q: np.ndarray) -> bool:
    if Q.shape[0] != Q.shape[1]:
        return False
    scale = max(1.0, float(np.abs(Q).max()))
    return bool(np.abs(Q - Q.T).max() <= _SYMMETRY_RTOL * scale)


def require_symmetric(Q: np.ndarray, name: str = "matrix") -> np.ndarray:
    Q = as_matrix(Q, name)
    if not _symmetric(Q):
        raise DimensionMismatch(f"{name} must be symmetric")
    return Q


def cholesky(Q: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower-triangular L with L @ L.T == Q for symmetric positive definite Q.

    `require_symmetric` checks Q first, calling it ``name`` in its errors;
    the factorization is `cholesky_unchecked`'s.
    """
    return cholesky_unchecked(require_symmetric(Q, name))


def cholesky_unchecked(Q: np.ndarray) -> np.ndarray:
    """`cholesky` of a Q that `require_symmetric` already returned.

    Q's finiteness and symmetry are not checked again.  The loop runs column
    by column so the failing pivot can be reported: a pivot at or below
    ``PD_TOLERANCE`` raises NotPositiveDefinite.
    """
    n = Q.shape[0]
    L = np.zeros_like(Q)
    for j in range(n):
        pivot = Q[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= PD_TOLERANCE:
            raise NotPositiveDefinite(j, float(pivot))
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (Q[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    ``eigenvectors[:, i]`` is the unit eigenvector paired with
    ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])


def sym_eigen(Q: np.ndarray) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix, sorted descending.

    ``Q`` is not validated: its callers pass a matrix already checked by
    `require_symmetric` or symmetric by construction, and, as in LAPACK's
    syevd, only its lower triangle is read.
    """
    try:
        values, vectors = np.linalg.eigh(Q)
    except np.linalg.LinAlgError as exc:  # pathological scaling
        raise NonConvergence(str(exc)) from exc
    order = np.argsort(values)[::-1]
    return SymEigen(eigenvalues=values[order], eigenvectors=vectors[:, order])


def singular_values(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Singular values of A, descending, as sqrt of the Gram spectrum.

    `as_matrix` checks A first, calling it ``name`` in its errors.

    Going through A.T @ A costs some accuracy for tiny singular values, but
    the matrices here never exceed a few dozen rows and every consumer works
    at tolerances far above the induced error.
    """
    A = as_matrix(A, name)
    if A.shape[0] < A.shape[1]:
        A = A.T  # Gram matrix of the smaller side; nonzero spectrum matches
    gram = A.T @ A
    gram = 0.5 * (gram + gram.T)
    values = sym_eigen(gram).eigenvalues
    # Gram eigenvalues carry O(eps * lambda_max) noise; without a floor the
    # square root inflates exact zeros to ~1e-7 * ||A||.
    floor = 64.0 * np.finfo(np.float64).eps * max(float(values[0]), 0.0)
    return np.sqrt(np.where(values > floor, values, 0.0))


def solve_spd(Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Q x = b for symmetric positive definite Q.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    Q = as_matrix(Q)
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.shape[0] != Q.shape[0]:
        raise DimensionMismatch(
            f"rhs has leading dimension {rhs.shape[0]}, expected {Q.shape[0]}"
        )
    L = cholesky(Q)
    y = np.linalg.solve(L, rhs)
    return np.linalg.solve(L.T, y)


def solve_with_factor(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L @ L.T) x = b given a precomputed Cholesky factor."""
    return np.linalg.solve(L.T, np.linalg.solve(L, b))
