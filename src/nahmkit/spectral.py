"""Spectral set computation, branch tracking and asymptotic fits.

For a deformation parameter xi the spectral set Sigma_xi is the zero set of
det(theta - (xi/2) dz).  Rank-factoring the residues linearizes this
rational eigenproblem: the r_hat spectral points are the eigenvalues of an
r_hat x r_hat Schur complement K(xi) (Su & Bai, SIAM J. Matrix Anal. Appl.
2011).  K is rational in xi, so the asymptotic fits track no branch: they take
the power sums tr K^k as trapezoid means over circles, exact up to aliasing
(Trefethen & Weideman, SIAM Rev. 2014), and solve Newton's identities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ExplicitHiggsField
from .numkernel import cokernel_dims, rank_mask

# direction of the radial approach paths and first circle node: off the real and imaginary axes
DIRECTION = np.exp(0.37j)

# smallest continuation step, as a fraction of a path segment
MIN_STEP = 2.0**-12

# trapezoid nodes on each circle of the asymptotic fits
CIRCLE_NODES = 32


class SpectralError(RuntimeError):
    pass


class NonGenericError(SpectralError):
    """A spectral point lies on a puncture p_j, where theta_xi is undefined.

    The sampled xi then sits over the locus where a branch meets a
    puncture, and no cokernel exists there.
    """


@dataclass(frozen=True)
class SpectralSample:
    xi: complex
    points: tuple[complex, ...]
    coker_dims: tuple[int, ...]

    @property
    def total_coker_dim(self) -> int:
        return sum(self.coker_dims)


@dataclass(frozen=True)
class BranchPath:
    label: tuple
    samples: tuple[tuple[complex, complex], ...]  # (xi, q)
    coker_dims: tuple[int, ...]


def _schur_roots(field: ExplicitHiggsField, xi: complex) -> np.ndarray:
    """The r_hat spectral points at xi, as eigenvalues of an r_hat x r_hat matrix.

    Each residue is rank-factored once per field (field.residue_factors),
    C_j = U_j V_j^H with r - r_j columns, so
    theta_xi(z) = D + U (zI - P)^-1 V^H with D = (A - xi)/2 and
    P = diag(p_j, each repeated r - r_j times).  By the Schur complement
    det theta_xi(z) prod_j (z - p_j)^(r - r_j) = det D det(zI - K) with
    K = P - V^H D^-1 U, so the spectral points are exactly the eigenvalues
    of K: the forced roots at the punctures never appear.  A 1-D array of k
    values of xi gives the (k, r_hat) stack of points.

    Raises SpectralError, naming the first such node, when xi hits a leading
    eigenvalue (a puncture of the transform).  A point landing on a puncture
    is not checked here: see _punctured and _generic.
    """
    xi = np.asarray(xi, dtype=complex)
    hit = np.any(np.abs(xi[..., None] - field.a_diag) <= 1e-12 * field.scale(), axis=-1)
    if hit.any():
        raise SpectralError(f"xi={xi[hit][0]} is a puncture of the transform")
    u, vh, p_all = field.residue_factors
    d = (field.a_diag - xi[..., None]) / 2
    return np.linalg.eigvals(np.diag(p_all) - vh @ (u / d[..., :, None]))


def _punctured(field: ExplicitHiggsField, roots: np.ndarray) -> np.ndarray:
    """Whether some point of roots lies on a puncture, where theta_xi is undefined, per node (leading axes)."""
    return np.any(np.abs(roots[..., None] - field.punctures) <= 1e-12 * field.scale(), axis=(-2, -1))


def _generic(field: ExplicitHiggsField, xi: complex, roots: np.ndarray) -> np.ndarray:
    """roots, solved at xi; NonGenericError at the first node with a point on a puncture."""
    hit = _punctured(field, roots)
    if hit.any():
        q = roots[hit][0]
        gap = np.abs(q[:, None] - field.punctures)
        i, j = np.unravel_index(gap.argmin(), gap.shape)
        raise NonGenericError(
            f"spectral point {q[i]} at xi={np.asarray(xi, dtype=complex)[hit][0]} lies on the puncture {field.punctures[j]}"
        )
    return roots


def char_poly_at(field: ExplicitHiggsField, xi: complex) -> np.ndarray:
    """Characteristic polynomial of theta_xi in z, degree r_hat, ascending.

    Its roots are the spectral points and its leading coefficient is
    det((A - xi)/2): it is det theta_xi(z) times prod_j (z - p_j)^(r - r_j).
    Raises SpectralError at a puncture of the transform.
    """
    leading = complex(np.prod((field.a_diag - xi) / 2))
    return leading * np.polynomial.polynomial.polyfromroots(_generic(field, xi, _schur_roots(field, xi)))


def _coker_dims(field: ExplicitHiggsField, xi, roots: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Cokernel dimension of theta_xi at each root, from one stacked SVD.

    roots is (r_hat,) at one xi or (k, r_hat) over k values of xi; each
    node's rank floor is max(scale, |xi|/2).
    """
    xi = np.asarray(xi, dtype=complex)[..., None]
    ms = field.matrix_at(roots) - (xi / 2)[..., None, None] * np.eye(field.rank)
    floor = np.broadcast_to(np.maximum(field.scale(), np.abs(xi) / 2), roots.shape)
    return cokernel_dims(ms.reshape(-1, field.rank, field.rank), tol, scale=floor.ravel()).reshape(roots.shape)


def spectral_points(
    field: ExplicitHiggsField,
    xi: complex,
    tol: float = 1e-8,
) -> SpectralSample:
    """Spectral points, sorted, with the cokernel dimension of theta_xi at each."""
    roots = _generic(field, xi, _schur_roots(field, xi))
    dims = _coker_dims(field, xi, roots, tol)
    order = np.lexsort((roots.imag, roots.real))
    return SpectralSample(complex(xi), tuple(roots[order].tolist()), tuple(dims[order].tolist()))


def points_simple(points: np.ndarray, sep_tol: float = 1e-6) -> bool:
    """Whether the points are pairwise separated by more than sep_tol * max(|points|, 1)."""
    if points.size < 2:
        return True
    d = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min()) > sep_tol * float(np.max(np.abs(points), initial=1.0))


class _StepRejected(Exception):
    pass


def _unambiguous_match(cost: np.ndarray) -> np.ndarray:
    """Column of the nearest new point for each old point (row) of cost.

    cost is one (n, n) matrix or a (..., n, n) stack of them.  A matching is
    accepted only when it is a bijection and unambiguous: every matched
    distance must be smaller than half the distance to any competing point
    (in either multiset), which also makes it the unique minimal-cost
    assignment.  A rejected matrix raises _StepRejected; in a stack, its
    columns are all -1 instead.
    """
    if not cost.shape[-1]:  # r_hat = 0: nothing to match
        return np.zeros(cost.shape[:-1], dtype=int)
    cols = cost.argmin(axis=-1)
    bijective = np.all(np.sort(cols, axis=-1) == np.arange(cols.shape[-1]), axis=-1)
    # on a bijection, masking the matched entries leaves exactly the rivals
    # of each pair in its row and in its column
    masked = cost.copy()
    np.put_along_axis(masked, cols[..., None], np.inf, axis=-1)
    rivals = np.minimum(masked.min(axis=-1), np.take_along_axis(masked.min(axis=-2), cols, axis=-1))
    matched = np.take_along_axis(cost, cols[..., None], axis=-1)[..., 0]
    accepted = bijective & ~np.any(matched > 0.5 * rivals, axis=-1)
    if cost.ndim == 2 and not accepted:
        raise _StepRejected
    return np.where(accepted[..., None], cols, -1)


def _advance_segment(field, a, b, pts, end):
    """Labels continuing pts from xi=a to end, the points solved at xi=b.

    Only a segment whose whole-step match was rejected, or whose end is on a
    puncture, comes here, so the first step is half the segment.  The
    segment is walked in the fraction t of the way from a to b, the last step
    matching against end itself.  An ambiguous match, or a point on a
    puncture, halves the step and keeps the points already accepted; the
    step never grows again, and below MIN_STEP the segment fails.  Returns
    the index of each continued point in end.
    """
    t, h = 0.0, 0.5
    while t < 1.0:
        # t and h are dyadic, so t + h never overshoots 1
        stop = t + h
        new = end if stop == 1.0 else _schur_roots(field, a + (b - a) * stop)
        try:
            if _punctured(field, new):
                raise _StepRejected
            cols = _unambiguous_match(np.abs(pts[:, None] - new[None, :]))
        except _StepRejected:
            h /= 2
            if h < MIN_STEP:
                raise SpectralError(
                    f"unresolved branch collision between xi={a} and xi={b}"
                ) from None
        else:
            t, pts = stop, new[cols]
    return cols


def track_branches(field: ExplicitHiggsField, path) -> list[BranchPath]:
    """Continue the spectral points along a xi-path.

    One batched solve gives the points at every node and one batched match
    pairs consecutive nodes; labels carry through by composing the matches,
    starting from the sorted order of spectral_points at the first node.
    Only a rejected segment, or one ending on a puncture, is walked by
    _advance_segment.  The cokernel dimensions of all nodes come from one
    stacked SVD.
    """
    path = [complex(x) for x in path]
    if len(path) < 1:
        raise ValueError("empty path")
    xs = np.array(path)
    roots = _schur_roots(field, xs)
    _generic(field, xs[0], roots[0])
    steps = _unambiguous_match(np.abs(roots[:-1, :, None] - roots[1:, None, :]))
    rejected = _punctured(field, roots[1:]) | np.any(steps < 0, axis=-1)
    labels = np.empty(roots.shape, dtype=int)
    labels[0] = np.lexsort((roots[0].imag, roots[0].real))
    for i, step in enumerate(steps):
        if rejected[i]:
            labels[i + 1] = _advance_segment(field, path[i], path[i + 1], roots[i, labels[i]], roots[i + 1])
        else:
            labels[i + 1] = step[labels[i]]
    points = np.take_along_axis(roots, labels, axis=1)
    dims = np.take_along_axis(_coker_dims(field, xs, roots), labels, axis=1)
    return [
        BranchPath(
            ("branch", i),
            tuple(zip(path, points[:, i].tolist())),
            tuple(dims[:, i].tolist()),
        )
        for i in range(roots.shape[1])
    ]


def approach_path(center: complex, r_from: float, r_to: float, radii) -> list:
    """Nodes center + rho * DIRECTION along a ray, ordered from r_from to r_to.

    rho runs geometrically from r_from to r_to, 8 nodes per decade, plus
    every radius in radii; nodes that coincide are kept once.
    """
    n = max(2, int(np.ceil(8 * abs(np.log10(r_from / r_to)))) + 1)
    nodes = set(center + rho * DIRECTION for rho in np.geomspace(r_from, r_to, n))
    nodes = nodes | set(center + rho * DIRECTION for rho in radii)
    return sorted(nodes, key=lambda x: abs(x - center), reverse=r_from > r_to)


def _power_sums(values: np.ndarray, count: int) -> np.ndarray:
    """Mean over rows (circle nodes) of sum_i values_i^k, for k = 1..count."""
    return np.mean(np.sum(values[..., None] ** np.arange(1, count + 1), axis=-2), axis=0)


def _roots_from_power_sums(sums) -> np.ndarray:
    """Roots of the monic polynomial whose roots have the power sums sums (Newton's identities)."""
    coeffs = [1.0 + 0j]
    for k in range(1, len(sums) + 1):
        coeffs.append(-sum(coeffs[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    return np.roots(coeffs)


def _circle(field: ExplicitHiggsField, center: complex, radius: float, direction: complex, name: str):
    """Offsets w on |w| = radius from the phase of direction, and the (CIRCLE_NODES, r_hat) points at center + w."""
    xi = center + radius * np.exp(1j * (np.angle(direction) + 2 * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES))
    try:
        # the offset of the rounded node, exact (Sterbenz) when radius << |center|
        return xi - center, _generic(field, xi, _schur_roots(field, xi))
    except NonGenericError as exc:
        raise SpectralError(f"{name}={radius}: {exc}") from None


@dataclass(frozen=True)
class PunctureBranchFit:
    """One escaping branch near a transform puncture xi_l.

    estimates[i] is q(xi) * (xi - xi_l) at radii[i], as a contour value; the
    expected limit is 2 * lambda^inf_k for the corresponding group entry.
    """

    radii: tuple[float, ...]
    estimates: tuple[complex, ...]

    @property
    def residue(self) -> complex:
        return self.estimates[-1]

    @property
    def drift(self) -> float:
        if len(self.estimates) < 2:
            return 0.0
        return abs(self.estimates[-1] - self.estimates[-2])


def fit_puncture_asymptotics(
    field: ExplicitHiggsField,
    xi_l: complex,
    radii=(1e-2, 1e-3, 1e-4),
    direction: complex = DIRECTION,
) -> list[PunctureBranchFit]:
    """Fits of the escaping branches as xi approaches a leading eigenvalue xi_l.

    w K(xi_l + w) is analytic for |w| below the distance d to the next leading
    eigenvalue, so on a circle |w| = rho < d/2 the mean S_k of w^k sum_i q_i^k
    is sum (2 lambda^inf)^k.  The branches number the rank of the Hankel matrix
    [S_{i+j+1}], so a zero residue, which no power sum sees, is no branch.
    estimates[i] is the root at radii[i] nearest the innermost one.
    """
    radii = sorted((float(r) for r in radii), reverse=True)
    in_group = np.abs(field.a_diag - xi_l) <= 1e-12 * field.scale()
    d = np.min(np.abs(field.a_diag[~in_group] - xi_l), initial=np.inf)
    if radii[0] >= d / 2:
        raise SpectralError(f"rho={radii[0]} is not below half the distance {d} to the next leading eigenvalue")
    m, unit = int(in_group.sum()), 2 * field.scale()
    sums = [_power_sums(w[:, None] * q, 2 * m - 1) for w, q in (_circle(field, xi_l, r, direction, "rho") for r in radii)]
    # S_k in units of (2 * scale)^k, so that the field scale floors the rank rule
    ij = np.add.outer(np.arange(m), np.arange(m))
    e = int(np.sum(rank_mask(np.linalg.svd(sums[-1][ij] / unit ** (ij + 1), compute_uv=False), 1e-8, 1.0)))
    roots = [_roots_from_power_sums(s[:e]) for s in sums]
    # a repeated residue is counted once by the rank and leaves later power sums unmatched
    if np.any(np.abs(_power_sums(roots[-1][None], 2 * m - 1) - sums[-1]) > 1e-8 * unit ** np.arange(1, 2 * m)):
        raise SpectralError(f"rho={radii[-1]}: the residues at xi={xi_l} are not distinct")
    return [PunctureBranchFit(tuple(radii), tuple(complex(r[np.abs(r - x).argmin()]) for r in roots)) for x in roots[-1]]


@dataclass(frozen=True)
class InfinityBranchFit:
    """One branch as |xi| grows: q(xi) ~ p_hat + 2*lam_hat/xi."""

    p_hat: complex
    lam_hat: complex
    puncture_index: int
    residual: float


def fit_infinity_asymptotics(
    field: ExplicitHiggsField,
    radii=(1e2, 3e2, 1e3),
    direction: complex = DIRECTION,
) -> list[InfinityBranchFit]:
    """Fits q = p_j + 2*lam/xi of the branches converging to each puncture p_j.

    On each circle |xi| = R the r - r_j points nearest p_j must lie within half
    its distance to any other puncture; then S_k = mean xi^k sum (q - p_j)^k is
    sum (2 lam)^k, and p_hat is p_j plus the mean of sum (q - p_j) / (r - r_j).
    Values are the innermost radius's; residual is the largest gap to the
    other radii and to the rule on the even nodes alone.
    """
    radii = sorted(float(r) for r in radii)
    if radii[0] < 10 * field.scale():
        raise ValueError("innermost radius must dominate the field scale")
    p = field.punctures
    sizes = np.sum(field.residue_factors[2][:, None] == p, axis=0)
    if not sizes.any():  # r_hat = 0: no spectral point, no branch
        return []
    half_gap = np.min(np.abs(p[:, None] - p) + np.diag(np.full(p.size, np.inf)), axis=1, initial=np.inf) / 2
    fits = {j: [] for j in np.flatnonzero(sizes)}  # (p_hat, 2 lam) per radius and node rule
    for radius in radii:
        xi, q = _circle(field, 0.0, radius, direction, "R")
        near = np.argmin(np.abs(q[..., None] - p), axis=-1)
        dq = q - p[near]
        if np.any(np.sum(near[..., None] == np.arange(p.size), axis=1) != sizes) or np.any(np.abs(dq) >= half_gap[near]):
            raise SpectralError(f"R={radius}: the spectral points are not cleanly separated by puncture")
        for nodes in (slice(None), slice(None, None, 2)):
            for j, est in fits.items():
                group = np.where(near[nodes] == j, dq[nodes], 0)
                two_lam = _roots_from_power_sums(_power_sums(xi[nodes, None] * group, sizes[j]))
                est.append((p[j] + group.sum(axis=1).mean() / sizes[j], two_lam))
    return [
        InfinityBranchFit(complex(p_hat), complex(x / 2), int(j), float(max(max(abs(ph - p_hat), np.abs(r - x).min()) for ph, r in rest)))
        for j, ((p_hat, two_lam), *rest) in fits.items()
        for x in two_lam
    ]


def transformed_eigenvalue_samples(field: ExplicitHiggsField, xi: complex) -> np.ndarray:
    """Eigenvalue multiset of the transformed Higgs field at xi: -Sigma_xi / 2."""
    return -_generic(field, xi, _schur_roots(field, xi)) / 2


def reducedness_probe(
    field: ExplicitHiggsField,
    n_samples: int = 1000,
    seed: int | None = None,
    sep_tol: float = 1e-6,
) -> float:
    """Fraction of sampled xi at which all spectral points are simple.

    A sample within 0.1 * scale of a leading eigenvalue is redrawn; one
    with a point on a puncture counts as not simple.
    """
    rng = np.random.default_rng(seed)
    scale = field.scale()
    xs = np.empty(0, dtype=complex)
    while xs.size < n_samples:
        re, im = (rng.uniform(-3, 3, size=(n_samples - xs.size, 2)) * scale).T
        draw = re + 1j * im
        xs = np.concatenate([xs, draw[np.all(np.abs(draw[:, None] - field.a_diag) >= 0.1 * scale, axis=1)]])
    roots = _schur_roots(field, xs)
    simple = [not hit and points_simple(q, sep_tol) for q, hit in zip(roots, _punctured(field, roots))]
    return sum(simple) / n_samples
