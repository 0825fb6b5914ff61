"""Complex-arithmetic substrate: polynomials from roots, eigenvalues, null
spaces and tolerant multiset matching.

Polynomials are 1-D complex ndarrays with coefficients in ascending degree
order; matrices are 2-D complex ndarrays.  All routines reject non-finite
input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_EIG_DIM = 16


def _as_finite_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_poly(coeffs) -> np.ndarray:
    """Normalize to ascending-coefficient form with nonzero leading term.

    The zero polynomial is returned as a single zero coefficient.
    """
    c = _as_finite_array(coeffs, "poly")
    if c.ndim != 1 or c.size == 0:
        raise ValueError("polynomial must be a nonempty 1-D coefficient array")
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def poly_from_roots(roots, leading: complex = 1.0) -> np.ndarray:
    """Monic-from-roots times `leading`, ascending coefficients."""
    c = np.polynomial.polynomial.polyfromroots(np.asarray(roots, dtype=complex))
    return as_poly(leading * c)


def eigenvalues(m) -> np.ndarray:
    """Eigenvalue multiset of a square matrix (dimension <= 16)."""
    m = _as_finite_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] > MAX_EIG_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds supported maximum {MAX_EIG_DIM}")
    return np.linalg.eigvals(m)


def _null_dims(s: np.ndarray, tol: float, scale: float) -> np.ndarray:
    """Count of singular values (last axis, descending) at or below tol * max(largest, scale)."""
    return np.sum(s <= tol * np.maximum(s[..., :1], scale), axis=-1)


def cokernel_basis(m, tol: float = 1e-8, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of ker(M^H), columns of the returned array.

    Rank is decided by singular values below tol * (largest singular value).
    An optional external `scale` floors the reference: without it, a matrix
    whose entries are all roundoff-sized looks full-rank to the relative
    test.
    """
    m = _as_finite_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    u, s, _ = np.linalg.svd(m)
    return u[:, m.shape[0] - int(_null_dims(s, tol, scale)) :]


def cokernel_dims(ms, tol: float = 1e-8, scale: float = 0.0) -> np.ndarray:
    """dim ker(M^H) of each matrix in a (k, r, r) stack, by the rule of cokernel_basis."""
    ms = _as_finite_array(ms, "matrices")
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"matrices must be a stack of square matrices, got shape {ms.shape}")
    return _null_dims(np.linalg.svd(ms, compute_uv=False), tol, scale)


def numerical_rank(m, tol: float = 1e-8) -> int:
    m = _as_finite_array(m, "matrix")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a minimal-cost assignment between two complex multisets."""

    ok: bool
    pairs: tuple[tuple[int, int], ...]
    max_distance: float

    def __bool__(self) -> bool:
        return self.ok


def multiset_match(s, t, tol: float) -> MatchResult:
    """Minimal-cost bijection between equal-size multisets of complex numbers.

    Succeeds iff the worst matched pairwise distance is <= tol; on failure
    the best achieved bound is reported in max_distance.
    """
    s = _as_finite_array(s, "S").ravel()
    t = _as_finite_array(t, "T").ravel()
    if s.size != t.size:
        raise ValueError(f"multiset sizes differ: {s.size} vs {t.size}")
    if s.size == 0:
        return MatchResult(True, (), 0.0)
    # imported here: scipy.optimize dominates the package's import time
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(s[:, None] - t[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(np.max(cost[rows, cols]))
    pairs = tuple(zip(rows.tolist(), cols.tolist()))
    return MatchResult(worst <= tol, pairs, worst)
