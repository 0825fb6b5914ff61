"""Spectral set computation, branch tracking and asymptotic fits.

For a deformation parameter xi the spectral set Sigma_xi is the zero set of
det(theta - (xi/2) dz).  Rank-factoring the residues linearizes this
rational eigenproblem: the r_hat spectral points are the eigenvalues of an
r_hat x r_hat Schur complement (Su & Bai, SIAM J. Matrix Anal. Appl. 2011).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ExplicitHiggsField
from .numkernel import cokernel_dims

# direction of the radial approach paths: off the real and imaginary axes
DIRECTION = np.exp(0.37j)

# smallest continuation step, as a fraction of a path segment
MIN_STEP = 2.0**-12


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
    of K: the forced roots at the punctures never appear.

    Raises SpectralError when xi hits a leading eigenvalue (a puncture of
    the transform) and NonGenericError when a point lands on a puncture,
    where theta_xi is undefined.
    """
    scale = field.scale()
    if np.any(np.abs(xi - field.a_diag) <= 1e-12 * scale):
        raise SpectralError(f"xi={xi} is a puncture of the transform")
    if field.punctures.size == 0:
        raise SpectralError("field has no finite singularity; spectral set is empty")
    u, vh, p_all = field.residue_factors
    d = (field.a_diag - xi) / 2
    roots = np.linalg.eigvals(np.diag(p_all) - vh @ (u / d[:, None]))
    gap = np.abs(roots[:, None] - field.punctures[None, :])
    if gap.size and gap.min() <= 1e-12 * scale:
        i, j = np.unravel_index(gap.argmin(), gap.shape)
        raise NonGenericError(
            f"spectral point {roots[i]} at xi={xi} lies on the puncture {field.punctures[j]}"
        )
    return roots


def char_poly_at(field: ExplicitHiggsField, xi: complex) -> np.ndarray:
    """Characteristic polynomial of theta_xi in z, degree r_hat, ascending.

    Its roots are the spectral points and its leading coefficient is
    det((A - xi)/2): it is det theta_xi(z) times prod_j (z - p_j)^(r - r_j).
    Raises SpectralError at a puncture of the transform.
    """
    leading = complex(np.prod((field.a_diag - xi) / 2))
    return leading * np.polynomial.polynomial.polyfromroots(_schur_roots(field, xi))


def _coker_dims(field: ExplicitHiggsField, xi: complex, roots: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Cokernel dimension of theta_xi at each root, from one stacked SVD."""
    ms = field.matrix_at(roots) - (xi / 2) * np.eye(field.rank)
    return cokernel_dims(ms, tol, scale=max(field.scale(), abs(xi) / 2))


def spectral_points(
    field: ExplicitHiggsField,
    xi: complex,
    tol: float = 1e-8,
) -> SpectralSample:
    """Spectral points, sorted, with the cokernel dimension of theta_xi at each."""
    roots = _schur_roots(field, xi)
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

    The matching is accepted only when it is a bijection and unambiguous:
    every matched distance must be smaller than half the distance to any
    competing point (in either multiset), which also makes it the unique
    minimal-cost assignment.  Raises _StepRejected otherwise.
    """
    if not cost.size:  # r_hat = 0: nothing to match
        return np.zeros(0, dtype=int)
    cols = cost.argmin(axis=1)
    if np.unique(cols).size != cols.size:
        raise _StepRejected
    rows = np.arange(cols.size)
    # cols is a bijection, so masking the matched entries leaves exactly the
    # rivals of each pair in its row and in its column
    masked = cost.copy()
    masked[rows, cols] = np.inf
    rivals = np.minimum(masked.min(axis=1), masked.min(axis=0)[cols])
    if np.any(cost[rows, cols] > 0.5 * rivals):
        raise _StepRejected
    return cols


def _advance_segment(field, a, b, pts):
    """Continue pts from xi=a to xi=b, halving only a rejected step.

    The segment is walked in the fraction t of the way from a to b, the last
    step solving at exactly b.  An ambiguous match, or a point on a
    puncture, halves the step and keeps the points already accepted; the
    step never grows again, and below MIN_STEP the segment fails.
    """
    t, h = 0.0, 1.0
    while t < 1.0:
        # t and h are dyadic, so t + h never overshoots 1
        end = t + h
        try:
            new = _schur_roots(field, b if end == 1.0 else a + (b - a) * end)
            pts = new[_unambiguous_match(np.abs(pts[:, None] - new[None, :]))]
        except (_StepRejected, NonGenericError):
            h /= 2
            if h < MIN_STEP:
                raise SpectralError(
                    f"unresolved branch collision between xi={a} and xi={b}"
                ) from None
        else:
            t = end
    return pts


def track_branches(field: ExplicitHiggsField, path) -> list[BranchPath]:
    """Continue the spectral points along a xi-path.

    Each segment is walked by _advance_segment.  Samples and cokernel
    dimensions are recorded at the requested path nodes only.
    """
    path = [complex(x) for x in path]
    if len(path) < 1:
        raise ValueError("empty path")
    first = spectral_points(field, path[0])
    nodes = [np.array(first.points, dtype=complex)]
    for a, b in zip(path[:-1], path[1:]):
        nodes.append(_advance_segment(field, a, b, nodes[-1]))
    dims = [first.coker_dims] + [_coker_dims(field, xi, pts) for xi, pts in zip(path[1:], nodes[1:])]
    return [
        BranchPath(
            ("branch", i),
            tuple((xi, complex(pts[i])) for xi, pts in zip(path, nodes)),
            tuple(int(d[i]) for d in dims),
        )
        for i in range(nodes[0].size)
    ]


def approach_path(center: complex, r_from: float, r_to: float, radii, direction: complex = DIRECTION) -> list:
    """Nodes center + rho * direction along a ray, ordered from r_from to r_to.

    rho runs geometrically from r_from to r_to, 8 nodes per decade, plus
    every radius in radii; nodes that coincide are kept once.
    """
    n = max(2, int(np.ceil(8 * abs(np.log10(r_from / r_to)))) + 1)
    nodes = set(center + rho * direction for rho in np.geomspace(r_from, r_to, n))
    nodes = nodes | set(center + rho * direction for rho in radii)
    return sorted(nodes, key=lambda x: abs(x - center), reverse=r_from > r_to)


@dataclass(frozen=True)
class PunctureBranchFit:
    """One escaping branch near a transform puncture xi_l.

    estimates[i] is q(xi) * (xi - xi_l) at radii[i]; the expected limit is
    2 * lambda^inf_k for the corresponding group entry.
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
    """Fits of the escaping branches as xi approaches a leading eigenvalue.

    Escaping branches are classified at the innermost radius by magnitude:
    |q| must exceed scale/sqrt(radius), which separates the 1/radius growth
    from the bounded branches for the supported instance scales.  The
    estimate at a requested radius rho is the constant term of a quadratic
    fit of q(xi)*(xi - xi_l) over the samples in [rho, 10*rho], which kills
    the O(rho) contamination from the next expansion term.
    """
    xi_l = complex(xi_l)
    radii = sorted(float(r) for r in radii)
    r_inner, r_outer = radii[0], radii[-1]
    # one extra decade above the outermost radius feeds its fit window
    branches = track_branches(field, approach_path(xi_l, 10 * r_outer, r_inner, radii, direction))
    scale = field.scale()
    fits = []
    for br in branches:
        xi_in, q_in = br.samples[-1]
        if abs(q_in) <= scale / np.sqrt(r_inner):
            continue
        ests = []
        for rho in sorted(radii, reverse=True):
            window = [
                (xi - xi_l, q * (xi - xi_l))
                for xi, q in br.samples
                if rho * (1 - 1e-9) <= abs(xi - xi_l) <= 10 * rho * (1 + 1e-9)
            ]
            d = np.array([w[0] for w in window])
            e = np.array([w[1] for w in window])
            design = np.column_stack([np.ones_like(d), d, d * d])
            sol, *_ = np.linalg.lstsq(design, e, rcond=None)
            ests.append((rho, complex(sol[0])))
        fits.append(
            PunctureBranchFit(tuple(t[0] for t in ests), tuple(t[1] for t in ests))
        )
    return fits


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
    """Least-squares fit q = p + 2*lam/xi per branch along a radial escape path.

    Branches partition into groups of size r - r_j converging to each p_j;
    each fit is assigned to the nearest puncture.
    """
    radii = sorted(float(r) for r in radii)
    r_inner, r_outer = radii[0], radii[-1]
    if r_inner < 10 * field.scale():
        raise ValueError("innermost radius must dominate the field scale")
    branches = track_branches(field, approach_path(0.0, r_inner, r_outer, radii, direction))
    fits = []
    for br in branches:
        xs = np.array([xi for xi, _ in br.samples])
        qs = np.array([q for _, q in br.samples])
        # two correction orders beyond p + 2*lam/xi keep the 1/xi term clean;
        # column scaling tames the wildly different magnitudes of the powers
        design = np.column_stack([np.ones_like(xs), 1.0 / xs, xs**-2.0, xs**-3.0])
        norms = np.linalg.norm(design, axis=0)
        sol, *_ = np.linalg.lstsq(design / norms, qs, rcond=None)
        sol = sol / norms
        p_hat, two_lam = sol[0], sol[1]
        resid = float(np.max(np.abs(design @ sol - qs))) if xs.size else 0.0
        j = int(np.argmin(np.abs(field.punctures - p_hat)))
        fits.append(InfinityBranchFit(complex(p_hat), complex(two_lam / 2), j, resid))
    return fits


def transformed_eigenvalue_samples(field: ExplicitHiggsField, xi: complex) -> np.ndarray:
    """Eigenvalue multiset of the transformed Higgs field at xi: -Sigma_xi / 2."""
    return -_schur_roots(field, xi) / 2


def reducedness_probe(
    field: ExplicitHiggsField,
    n_samples: int = 1000,
    seed: int | None = None,
    sep_tol: float = 1e-6,
) -> float:
    """Fraction of sampled xi at which all spectral points are simple."""
    rng = np.random.default_rng(seed)
    scale = field.scale()
    good = 0
    done = 0
    while done < n_samples:
        xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * scale
        if any(abs(xi - a) < 0.1 * scale for a in field.a_diag):
            continue
        done += 1
        try:
            roots = _schur_roots(field, xi)
        except NonGenericError:
            continue
        if points_simple(roots, sep_tol):
            good += 1
    return good / n_samples
