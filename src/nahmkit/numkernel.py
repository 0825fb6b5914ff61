"""Complex-arithmetic substrate: eigenvalues, null spaces and tolerant
multiset matching.

Matrices are 2-D complex ndarrays.  All routines reject non-finite input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_finite_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def eigenvalues(m) -> np.ndarray:
    """Eigenvalue multiset of a square matrix."""
    m = _as_finite_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return np.linalg.eigvals(m)


def rank_mask(s: np.ndarray, tol: float = 1e-8, scale: float = 0.0) -> np.ndarray:
    """The rank rule: which singular values (last axis, descending) exceed tol * max(largest, scale)."""
    return s > tol * np.maximum(s[..., :1], scale)


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
    return u[:, int(np.sum(rank_mask(s, tol, scale))) :]


def cokernel_dims(ms, tol: float = 1e-8, scale: float | np.ndarray = 0.0) -> np.ndarray:
    """dim ker(M^H) of each matrix in a (k, r, r) stack, by the rule of cokernel_basis.

    scale is one floor for the whole stack or a (k,) array, one per matrix.
    """
    ms = _as_finite_array(ms, "matrices")
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"matrices must be a stack of square matrices, got shape {ms.shape}")
    scale = np.asarray(scale, dtype=float)[..., None]
    return np.sum(~rank_mask(np.linalg.svd(ms, compute_uv=False), tol, scale), axis=-1)


def numerical_rank(m, tol: float = 1e-8) -> int:
    m = _as_finite_array(m, "matrix")
    return int(np.sum(rank_mask(np.linalg.svd(m, compute_uv=False), tol)))


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a bottleneck assignment: a bijection minimising the worst cost."""

    ok: bool
    pairs: tuple[tuple[int, int], ...]
    max_distance: float

    def __bool__(self) -> bool:
        return self.ok


def _perfect_matching(adj: np.ndarray) -> list[int] | None:
    """Column of each row in a perfect matching of a square boolean biadjacency, or None.

    Kuhn's augmenting paths, each found by a breadth-first search so that
    no recursion limit applies.
    """
    n = adj.shape[0]
    neighbours = [np.flatnonzero(row).tolist() for row in adj]
    col_of_row, row_of_col = [-1] * n, [-1] * n
    for root in range(n):
        came_from = [-1] * n  # row that reached each visited column
        queue, free_col = [root], -1
        for u in queue:
            for v in neighbours[u]:
                if came_from[v] < 0:
                    came_from[v] = u
                    if row_of_col[v] < 0:
                        free_col = v
                        break
                    queue.append(row_of_col[v])
            if free_col >= 0:
                break
        if free_col < 0:
            return None
        v = free_col
        while v >= 0:  # flip the path: each row on it takes the column that reached it
            u = came_from[v]
            next_v = col_of_row[u]
            col_of_row[u], row_of_col[v] = v, u
            v = next_v
    return col_of_row


def bottleneck_match(cost, tol: float) -> MatchResult:
    """Bijection of rows to columns of a square cost matrix minimising the worst cost.

    Succeeds iff that minimal worst cost, reported in max_distance, is
    <= tol.  When the row-wise nearest columns are distinct they are the
    answer, since the largest row minimum bounds every bijection from
    below; otherwise the distinct costs above that bound are bisected with
    a perfect-matching test on each threshold graph.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be square, got shape {cost.shape}")
    n = cost.shape[0]
    if n == 0:
        return MatchResult(True, (), 0.0)
    cols = cost.argmin(axis=1).tolist()
    if len(set(cols)) < n:
        floor = max(cost.min(axis=1).max(), cost.min(axis=0).max())
        levels = np.unique(cost[cost >= floor])
        lo, hi = 0, len(levels) - 1
        cols = _perfect_matching(cost <= levels[hi])
        while lo < hi:
            mid = (lo + hi) // 2
            found = _perfect_matching(cost <= levels[mid])
            if found is None:
                lo = mid + 1
            else:
                hi, cols = mid, found
    worst = float(cost[np.arange(n), cols].max())
    return MatchResult(worst <= tol, tuple(enumerate(cols)), worst)


def multiset_match(s, t, tol: float) -> MatchResult:
    """Bottleneck bijection between equal-size multisets of complex numbers.

    Decides whether a bijection moves no point by more than tol;
    max_distance is the minimal worst pairwise distance over all
    bijections.
    """
    s = _as_finite_array(s, "S").ravel()
    t = _as_finite_array(t, "T").ravel()
    if s.size != t.size:
        raise ValueError(f"multiset sizes differ: {s.size} vs {t.size}")
    return bottleneck_match(np.abs(s[:, None] - t[None, :]), tol)
