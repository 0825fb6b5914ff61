"""Explicit rational Higgs fields theta(z) = (A/2 + sum_j C_j/(z - p_j)) dz.

The leading matrix A is diagonal with equal entries grouped contiguously;
the Higgs leading term at infinity is A/2.  Parabolic weights live in an
optional annotation: they are metric data, not derivable from the field.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moduli import (
    ConnectionData,
    DataError,
    HiggsData,
    InfinityGroup,
    LogPoint,
    SingularityData,
    WeightedEigen,
    connection_to_higgs,
)
from .numkernel import eigenvalues, numerical_rank


@dataclass(frozen=True)
class WeightAnnotation:
    """Parabolic weights carried alongside a field.

    log_weights[j] lists one weight per bundle coordinate at puncture j,
    aligned with the canonically sorted eigenvalues of C_j (zeros first);
    inf_weights[l] lists one weight per entry of infinity group l, aligned
    with the sorted eigenvalues of the l-th diagonal block of sum_j C_j.
    """

    log_weights: tuple[tuple[float, ...], ...]
    inf_weights: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ExplicitHiggsField:
    a_diag: np.ndarray  # (r,) diagonal of the leading matrix A
    punctures: np.ndarray  # (n,)
    residues: np.ndarray  # (n, r, r)
    weights: WeightAnnotation | None = None

    def __post_init__(self):
        a = np.asarray(self.a_diag, dtype=complex)
        p = np.asarray(self.punctures, dtype=complex)
        c = np.asarray(self.residues, dtype=complex)
        if a.ndim != 1:
            raise DataError("a_diag must be 1-D")
        r = a.size
        if c.shape != (p.size, r, r):
            raise DataError(f"residues shape {c.shape} incompatible with rank {r} and {p.size} punctures")
        if len(set(p.tolist())) != p.size:
            raise DataError("punctures must be distinct")
        for arr in (a, p, c):
            if arr.size and not np.all(np.isfinite(arr)):
                raise DataError("field has non-finite entries")
        a.setflags(write=False)
        p.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a_diag", a)
        object.__setattr__(self, "punctures", p)
        object.__setattr__(self, "residues", c)

    @property
    def rank(self) -> int:
        return self.a_diag.size

    def group_slices(self) -> list[tuple[complex, slice]]:
        """Contiguous runs of equal A-entries as (xi, slice) pairs."""
        out: list[tuple[complex, slice]] = []
        a = self.a_diag
        start = 0
        for i in range(1, a.size + 1):
            if i == a.size or a[i] != a[start]:
                out.append((complex(a[start]), slice(start, i)))
                start = i
        seen = [xi for xi, _ in out]
        if len(set(seen)) != len(seen):
            raise DataError("equal A-entries must be contiguous")
        return out

    def matrix_at(self, z) -> np.ndarray:
        """theta(z) stripped of the dz factor.

        A 1-D array of k points gives the (k, r, r) stack of values.
        """
        diff = np.asarray(z, dtype=complex)[..., None] - self.punctures
        hit = np.nonzero(diff == 0)[-1]
        if hit.size:
            raise ZeroDivisionError(f"evaluation at puncture {self.punctures[hit[0]]}")
        return np.einsum("...j,jab->...ab", 1 / diff, self.residues) + np.diag(self.a_diag / 2)

    @cached_property
    def residue_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked rank factorization (U, V^H, p_all) of the residues.

        C_j = U_j V_j^H with r - r_j columns, by the relative rank rule of
        numkernel.numerical_rank; U = [U_1 ... U_n] is r x r_hat, V^H stacks
        the V_j^H rows, and p_all repeats p_j r - r_j times.  Read-only.
        """
        u, s, vh = np.linalg.svd(self.residues)
        keep = s > 1e-8 * s[:, :1]
        factors = (
            np.ascontiguousarray((u * s[:, None, :]).transpose(1, 0, 2)[:, keep]),
            vh[keep],
            np.broadcast_to(self.punctures[:, None], keep.shape)[keep],
        )
        for arr in factors:
            arr.setflags(write=False)
        return factors

    @cached_property
    def _scale(self) -> float:
        vals = [1.0, float(np.max(np.abs(self.a_diag), initial=0.0))]
        if self.punctures.size:
            vals.append(float(np.max(np.abs(self.punctures))))
            vals.append(float(np.max(np.abs(self.residues))))
        return max(vals)

    def scale(self) -> float:
        """Magnitude scale of the field data, for relative tolerances."""
        return self._scale


def model_field(hd: HiggsData) -> tuple[ExplicitHiggsField, HiggsData]:
    """The diagonal rational field realizing a Higgs datum.

    A = diag of xi values with multiplicity, C_j = diag of the lambda^j
    entries.  Returns the field together with the self-consistent datum
    re-extracted from it: the infinity residue eigenvalues of the diagonal
    model are the per-coordinate sums of the lambda^j, which may differ
    from hd's stated lambda^inf.  The returned datum is the ground truth
    for spectral tests.
    """
    r = hd.rank
    a = np.concatenate([[g.xi] * g.multiplicity for g in hd.inf_groups]).astype(complex)
    punctures = np.array([lp.position for lp in hd.log_points], dtype=complex)
    residues = np.array([np.diag([e.value for e in lp.entries]) for lp in hd.log_points], dtype=complex)
    annotation = WeightAnnotation(
        log_weights=tuple(_zeros_first_weights(lp) for lp in hd.log_points),
        inf_weights=tuple(tuple(e.weight for e in g.entries) for g in hd.inf_groups),
    )
    field = ExplicitHiggsField(a, punctures, residues, annotation)
    c_total = residues.sum(axis=0) if punctures.size else np.zeros((r, r), dtype=complex)
    inf_groups = []
    k = 0
    for g in hd.inf_groups:
        m = g.multiplicity
        block_eigs = np.diag(c_total)[k : k + m]
        inf_groups.append(
            InfinityGroup(
                g.xi,
                tuple(WeightedEigen(v, e.weight) for v, e in zip(block_eigs, g.entries)),
            )
        )
        k += m
    extracted = HiggsData(r, hd.degree, hd.log_points, tuple(inf_groups))
    return field, extracted


def realize(data: SingularityData, realization: dict) -> tuple[ExplicitHiggsField, HiggsData]:
    """Explicit field for a datum: the diagonal model or a conjugated variant.

    realization is a spec's realization block, {"mode": ..., "seed": s}:
    mode "diagonal" gives model_field(data); mode "random" conjugates each
    residue of it by a well-conditioned matrix drawn from seed s.  The
    returned HiggsData is re-extracted from the field and is the ground
    truth for spectral comparisons.
    """
    hd = connection_to_higgs(data) if isinstance(data, ConnectionData) else data
    field, extracted = model_field(hd)
    if realization["mode"] == "diagonal":
        return field, extracted
    rng = np.random.default_rng(realization["seed"])
    residues = np.empty_like(field.residues)
    for j in range(field.punctures.size):
        g = _well_conditioned(rng, field.rank)
        residues[j] = g @ field.residues[j] @ np.linalg.inv(g)
    conj = ExplicitHiggsField(field.a_diag, field.punctures, residues, field.weights)
    return conj, extract_data(conj, weights=field.weights, degree=hd.degree)


def _zeros_first_weights(lp: LogPoint) -> tuple[float, ...]:
    entries = sorted(lp.entries, key=lambda e: (e.value != 0, _canon_key(e.value)))
    return tuple(e.weight for e in entries)


def _canon_key(v: complex):
    return (round(v.real, 12), round(v.imag, 12))


def random_field(
    r: int,
    punctures,
    ranks,
    seed: int | None = None,
    groups: tuple[int, ...] | None = None,
    conjugate: bool = True,
) -> ExplicitHiggsField:
    """Deterministic random field with prescribed regular dimensions.

    ranks[j] is the regular dimension r_j at puncture j: C_j is conjugated
    from diag(0 x r_j, lambda_1..lambda_{r-r_j}) by a random matrix with
    singular values in [1/2, 2] (condition <= 4); the lambda are nonzero,
    distinct and bounded away from 0.
    """
    if not 1 <= r <= 8:
        raise ValueError("rank must be between 1 and 8")
    punctures = np.asarray(punctures, dtype=complex)
    ranks = list(ranks)
    if len(ranks) != punctures.size:
        raise ValueError("one regular dimension per puncture required")
    if any(not 0 <= rj < r for rj in ranks):
        raise ValueError("regular dimension must be in 0..r-1; r_j = r means C_j = 0, no singularity")
    rng = np.random.default_rng(seed)
    if groups is None:
        groups = (1,) * r
    if sum(groups) != r:
        raise ValueError("group multiplicities must sum to the rank")
    xis: list[complex] = []
    while len(xis) < len(groups):
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(v - w) > 0.4 for w in xis):
            xis.append(v)
    a = np.concatenate([[xi] * m for xi, m in zip(xis, groups)]).astype(complex)
    residues = np.empty((punctures.size, r, r), dtype=complex)
    for j, rj in enumerate(ranks):
        lams: list[complex] = []
        while len(lams) < r - rj:
            rad = rng.uniform(0.3, 1.2)
            phi = rng.uniform(0, 2 * np.pi)
            v = complex(rad * np.cos(phi), rad * np.sin(phi))
            if all(abs(v - w) > 0.1 for w in lams):
                lams.append(v)
        d = np.diag([0.0] * rj + lams).astype(complex)
        if conjugate:
            g = _well_conditioned(rng, r)
            residues[j] = g @ d @ np.linalg.inv(g)
        else:
            residues[j] = d
    return ExplicitHiggsField(a, punctures, residues)


def _well_conditioned(rng, r: int) -> np.ndarray:
    x = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    q1, _ = np.linalg.qr(x)
    y = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    q2, _ = np.linalg.qr(y)
    s = rng.uniform(0.5, 2.0, size=r)
    return q1 @ np.diag(s) @ q2


def extract_data(
    field: ExplicitHiggsField,
    weights: WeightAnnotation | None = None,
    tol: float = 1e-8,
    degree: int = 0,
) -> HiggsData:
    """Singularity datum of an explicit field.

    Per puncture: lambda^j = eigenvalues of C_j with the regular count from
    its numerical nullity; infinity groups from the contiguous runs of equal
    A-entries, with lambda^inf the eigenvalues of the corresponding diagonal
    block of sum_j C_j.  Weights come from the annotation (zeros where
    absent).
    """
    if weights is None:
        weights = field.weights
    r = field.rank
    slices = field.group_slices()
    log_points = []
    for j, (p, c) in enumerate(zip(field.punctures, field.residues)):
        eigs = eigenvalues(c)
        nullity = r - numerical_rank(c, tol)
        order = np.argsort(np.abs(eigs))
        eigs = eigs[order]
        vals = [0.0 + 0j] * nullity + sorted(eigs[nullity:].tolist(), key=_canon_key)
        ws = weights.log_weights[j] if weights is not None else (0.0,) * r
        entries = tuple(WeightedEigen(v, w) for v, w in zip(vals, ws))
        log_points.append(LogPoint(complex(p), entries))
    c_total = field.residues.sum(axis=0) if field.punctures.size else np.zeros((r, r), dtype=complex)
    inf_groups = []
    for l, (xi, sl) in enumerate(slices):
        block = c_total[sl, sl]
        vals = sorted(eigenvalues(block).tolist(), key=_canon_key)
        ws = weights.inf_weights[l] if weights is not None else (0.0,) * len(vals)
        inf_groups.append(InfinityGroup(xi, tuple(WeightedEigen(v, w) for v, w in zip(vals, ws))))
    return HiggsData(r, degree, tuple(log_points), tuple(inf_groups))


def deform_field(field: ExplicitHiggsField, xi: complex) -> ExplicitHiggsField:
    """theta -> theta - (xi/2) dz, i.e. A -> A - xi * Id."""
    return ExplicitHiggsField(field.a_diag - xi, field.punctures, field.residues, field.weights)


# ---------------------------------------------------------------------------
# local polar models and the deformation gauge identity


@dataclass(frozen=True)
class LocalForm:
    """Coefficients of a matrix-free scalar local 1-form.

    The frame is (dr/r, dtheta, dz, dzbar); absent terms are zero.
    """

    drr: complex = 0.0
    dtheta: complex = 0.0
    dz: complex = 0.0
    dzbar: complex = 0.0

    def __add__(self, other: "LocalForm") -> "LocalForm":
        return LocalForm(
            self.drr + other.drr,
            self.dtheta + other.dtheta,
            self.dz + other.dz,
            self.dzbar + other.dzbar,
        )

    def __sub__(self, other: "LocalForm") -> "LocalForm":
        return LocalForm(
            self.drr - other.drr,
            self.dtheta - other.dtheta,
            self.dz - other.dz,
            self.dzbar - other.dzbar,
        )

    def max_abs(self) -> float:
        return max(abs(self.drr), abs(self.dtheta), abs(self.dz), abs(self.dzbar))


@dataclass(frozen=True)
class LocalModels:
    d_plus: LocalForm
    phi: LocalForm
    d_full: LocalForm


def local_models_at(
    value: complex,
    weight: float,
    picture: str = "connection",
    point: complex | None = None,
    position: complex = 0.0,
) -> LocalModels:
    """Polar local models of one (eigenvalue, weight) entry at a puncture.

    Connection picture: D+ = d + i Re(mu) dtheta, Phi = (Re mu - beta) dr/r
    - Im(mu) dtheta, D = d + i mu dtheta + (Re mu - beta) dr/r, satisfying
    D = D+ + Phi coefficientwise.  Higgs picture: the dz-coefficient
    lambda/(z - p) at the given point.
    """
    mu = complex(value)
    if picture == "connection":
        d_plus = LocalForm(dtheta=1j * mu.real)
        phi = LocalForm(drr=mu.real - weight, dtheta=-mu.imag)
        d_full = LocalForm(drr=mu.real - weight, dtheta=1j * mu)
        return LocalModels(d_plus, phi, d_full)
    if picture == "higgs":
        if point is None:
            raise ValueError("higgs picture needs an evaluation point")
        z = complex(point)
        if z == position:
            raise ZeroDivisionError("evaluation at the puncture itself")
        coeff = mu / (z - position)
        form = LocalForm(dz=coeff)
        return LocalModels(LocalForm(), form, form)
    raise ValueError(f"unknown picture {picture!r}")


def gauge_relation_check(omega: LocalForm, xi: complex, z: complex) -> float:
    """Residual of the gauge identity between the two deformation pictures.

    dlog of exp[(conj(xi) conj(z) - xi z)/2] is (conj(xi) dzbar - xi dz)/2,
    so omega - xi dz - dlog g and omega - (xi/2) dz - (xi/2)* dzbar agree
    coefficientwise; the residual is 0 in exact arithmetic.
    """
    xi = complex(xi)
    dlog = LocalForm(dz=-xi / 2, dzbar=xi.conjugate() / 2)
    lhs = omega - LocalForm(dz=xi) - dlog
    rhs = omega - LocalForm(dz=xi / 2, dzbar=xi.conjugate() / 2)
    return (lhs - rhs).max_abs()
