"""Singularity data for both sides of the nonabelian Hodge dictionary.

A datum consists of a rank, a degree, a list of logarithmic points (each
carrying one weighted eigenvalue per bundle coordinate) and a list of
infinity groups (leading-term eigenvalue plus weighted residue eigenvalues,
one group per leading eigenvalue).  The same shape serves the Higgs side
(lambda, alpha) and the connection side (mu, beta).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Structurally invalid singularity data."""


def _frac(x: float) -> float:
    """Representative of x mod 1 in [0, 1)."""
    f = x - math.floor(x)
    return 0.0 if f == 1.0 else f


@dataclass(frozen=True)
class WeightedEigen:
    value: complex
    weight: float

    def __post_init__(self):
        v = complex(self.value)
        if not (cmath.isfinite(v) and math.isfinite(self.weight)):
            raise DataError("non-finite eigenvalue or weight")
        if not 0.0 <= self.weight < 1.0:
            raise DataError(f"weight {self.weight} outside [0, 1)")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class LogPoint:
    position: complex
    entries: tuple[WeightedEigen, ...]

    def __post_init__(self):
        p = complex(self.position)
        if not cmath.isfinite(p):
            raise DataError("non-finite puncture position")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise DataError("log point needs at least one entry")

    @property
    def reg_count(self) -> int:
        return sum(1 for e in self.entries if e.value == 0)

    @property
    def singular_entries(self) -> tuple[WeightedEigen, ...]:
        return tuple(e for e in self.entries if e.value != 0)


@dataclass(frozen=True)
class InfinityGroup:
    xi: complex
    entries: tuple[WeightedEigen, ...]

    def __post_init__(self):
        x = complex(self.xi)
        if not cmath.isfinite(x):
            raise DataError("non-finite leading eigenvalue")
        object.__setattr__(self, "xi", x)
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise DataError("infinity group needs at least one entry")

    @property
    def multiplicity(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SingularityData:
    """Shared shape of HiggsData and ConnectionData."""

    rank: int
    degree: int
    log_points: tuple[LogPoint, ...]
    inf_groups: tuple[InfinityGroup, ...]

    def __post_init__(self):
        object.__setattr__(self, "log_points", tuple(self.log_points))
        object.__setattr__(self, "inf_groups", tuple(self.inf_groups))
        if self.rank < 1:
            raise DataError("rank must be positive")
        if int(self.degree) != self.degree:
            raise DataError("degree must be an integer")
        for lp in self.log_points:
            if len(lp.entries) != self.rank:
                raise DataError(
                    f"log point at {lp.position} has {len(lp.entries)} entries, expected rank {self.rank}"
                )
        total = sum(g.multiplicity for g in self.inf_groups)
        if total != self.rank:
            raise DataError(f"infinity multiplicities sum to {total}, expected rank {self.rank}")
        positions = [lp.position for lp in self.log_points]
        if len(set(positions)) != len(positions):
            raise DataError("puncture positions must be pairwise distinct")
        xis = [g.xi for g in self.inf_groups]
        if len(set(xis)) != len(xis):
            raise DataError("leading eigenvalues must be pairwise distinct across groups")

    @property
    def r_hat(self) -> int:
        """Rank of the transformed bundle: sum over punctures of residue ranks."""
        return sum(self.rank - lp.reg_count for lp in self.log_points)

    def all_weights(self) -> list[float]:
        ws = [e.weight for lp in self.log_points for e in lp.entries]
        ws += [e.weight for g in self.inf_groups for e in g.entries]
        return ws


class HiggsData(SingularityData):
    """Singularity datum of a parabolic Higgs bundle: (lambda, alpha) entries."""


class ConnectionData(SingularityData):
    """Singularity datum of a meromorphic integrable connection: (mu, beta) entries."""


def _map_entries(data: SingularityData, f, out_cls):
    log_points = tuple(
        LogPoint(lp.position, tuple(f(e) for e in lp.entries)) for lp in data.log_points
    )
    inf_groups = tuple(
        InfinityGroup(g.xi, tuple(f(e) for e in g.entries)) for g in data.inf_groups
    )
    return out_cls(data.rank, data.degree, log_points, inf_groups)


def connection_to_higgs(cd: ConnectionData) -> HiggsData:
    """Nonabelian Hodge dictionary: (mu, beta) -> ((mu - beta)/2, frac(Re mu))."""

    def f(e: WeightedEigen) -> WeightedEigen:
        lam = (e.value - e.weight) / 2
        alpha = _frac(e.value.real)
        return WeightedEigen(lam, alpha)

    return _map_entries(cd, f, HiggsData)


def higgs_to_connection(hd: HiggsData) -> ConnectionData:
    """Inverse dictionary; beta is the representative of alpha - 2 Re(lambda) in [0, 1)."""

    def f(e: WeightedEigen) -> WeightedEigen:
        beta = _frac(e.weight - 2 * e.value.real)
        mu = 2 * e.value + beta
        return WeightedEigen(mu, beta)

    return _map_entries(hd, f, ConnectionData)


@dataclass(frozen=True)
class HypothesisReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_hypothesis(hd: HiggsData) -> HypothesisReport:
    """Genericity of the Higgs-side datum.

    At each puncture the nonzero residue eigenvalues must be pairwise
    distinct and carry nonzero weights, with zero weights exactly on the
    zero eigenvalues; at infinity every group must have nonzero, pairwise
    distinct eigenvalues and nonzero weights.
    """
    violations: list[str] = []
    for j, lp in enumerate(hd.log_points):
        nonzero = [e.value for e in lp.entries if e.value != 0]
        if len(set(nonzero)) != len(nonzero):
            violations.append(f"log point {j} at {lp.position}: duplicate nonzero residue eigenvalues")
        for k, e in enumerate(lp.entries):
            if (e.weight != 0) != (e.value != 0):
                violations.append(
                    f"log point {j} entry {k}: weight must be nonzero iff eigenvalue is nonzero"
                )
    for l, g in enumerate(hd.inf_groups):
        vals = [e.value for e in g.entries]
        if any(v == 0 for v in vals):
            violations.append(f"infinity group {l} (xi={g.xi}): vanishing residue eigenvalue")
        if len(set(vals)) != len(vals):
            violations.append(f"infinity group {l} (xi={g.xi}): duplicate residue eigenvalues")
        for k, e in enumerate(g.entries):
            if e.weight == 0:
                violations.append(f"infinity group {l} entry {k}: vanishing weight")
    return HypothesisReport(not violations, tuple(violations))


def check_connection_hypothesis(cd: ConnectionData) -> HypothesisReport:
    """Genericity on the connection side, checked through the dictionary.

    mu - beta distinct and nonzero on singular components with Re(mu) not an
    integer is exactly the Higgs-side condition on (lambda, alpha).
    """
    return check_hypothesis(connection_to_higgs(cd))


def hypothesis_report(data: SingularityData) -> HypothesisReport:
    """Genericity hypothesis of a datum of either kind."""
    if isinstance(data, HiggsData):
        return check_hypothesis(data)
    return check_connection_hypothesis(data)


def parabolic_degree(data: SingularityData) -> float:
    return data.degree + sum(data.all_weights())


def slope(data: SingularityData) -> float:
    return parabolic_degree(data) / data.rank


@dataclass(frozen=True)
class RealizabilityReport:
    residue_identity_residual: float
    parabolic_degree_residual: float
    tol: float
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.warnings


def realizability_checks(cd: ConnectionData, tol: float = 1e-12) -> RealizabilityReport:
    """Residue-theorem degree identity and parabolic-degree vanishing.

    deg = sum Re(mu^inf) - sum_j sum Re(mu^j), and deg_par = 0, both within
    tol.  Violations are warnings, never errors: the transform is defined on
    data violating them.
    """
    inf_sum = sum(e.value.real for g in cd.inf_groups for e in g.entries)
    log_sum = sum(e.value.real for lp in cd.log_points for e in lp.entries)
    res_a = abs(cd.degree - (inf_sum - log_sum))
    res_b = abs(parabolic_degree(cd))
    warnings = []
    if res_a > tol:
        warnings.append(f"residue-theorem degree identity fails with residual {res_a:.3e}")
    if res_b > tol:
        warnings.append(f"parabolic degree is {res_b:.3e}, expected 0")
    return RealizabilityReport(res_a, res_b, tol, tuple(warnings))


def critical_weight_zero(mu: complex, beta: float) -> bool:
    """Whether 0 is a critical weight of the local model at a puncture.

    The determinant equation nu^2 - (Re mu - beta)^2 - |n + mu|^2 = 0 with
    Re nu = 0 forces nu = Re mu - beta = n + mu = 0; with beta in [0, 1)
    and n an integer this holds only for mu = beta = 0.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta {beta} outside [0, 1)")
    mu = complex(mu)
    if mu.real - beta != 0 or mu.imag != 0:
        return False
    # remaining condition: n + mu = 0 for some integer n
    return mu.real == round(mu.real)


@dataclass(frozen=True)
class TransformabilityReport:
    ok: bool
    r_hat: int
    offending_groups: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def transformability_check(hd: SingularityData) -> TransformabilityReport:
    """Each infinity-group multiplicity must fit in the transformed rank."""
    r_hat = hd.r_hat
    offending = tuple(l for l, g in enumerate(hd.inf_groups) if g.multiplicity > r_hat)
    return TransformabilityReport(not offending, r_hat, offending)


# ---------------------------------------------------------------------------
# random instance generators (deterministic under seed)


def _random_unit_complex(rng, low=0.3, high=1.5) -> complex:
    r = rng.uniform(low, high)
    phi = rng.uniform(0, 2 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def _distinct_values(rng, count, low=0.3, high=1.5, min_sep=0.05) -> list[complex]:
    vals: list[complex] = []
    while len(vals) < count:
        v = _random_unit_complex(rng, low, high)
        if all(abs(v - w) > min_sep for w in vals):
            vals.append(v)
    return vals


def random_higgs_data(
    rng=None,
    seed: int | None = None,
    max_rank: int = 5,
    max_punctures: int = 4,
) -> HiggsData:
    """A random generic, transformable Higgs datum.

    Satisfies check_hypothesis and transformability_check by construction;
    resamples the puncture rank profile until the transform fits.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    while True:
        rank = int(rng.integers(1, max_rank + 1))
        n = int(rng.integers(1, max_punctures + 1))
        reg_counts = [int(rng.integers(0, rank)) for _ in range(n)]
        r_hat = sum(rank - c for c in reg_counts)
        # group multiplicities partition the rank
        mults: list[int] = []
        left = rank
        while left > 0:
            m = int(rng.integers(1, left + 1))
            mults.append(m)
            left -= m
        if r_hat >= 1 and max(mults) <= r_hat:
            break
    degree = int(rng.integers(-3, 4))
    positions = _distinct_values(rng, n, low=0.0, high=2.0, min_sep=0.3)
    log_points = []
    for j in range(n):
        sing = rank - reg_counts[j]
        vals = _distinct_values(rng, sing)
        entries = [WeightedEigen(0.0, 0.0)] * reg_counts[j] + [
            WeightedEigen(v, rng.uniform(0.05, 0.95)) for v in vals
        ]
        log_points.append(LogPoint(positions[j], tuple(entries)))
    xis = _distinct_values(rng, len(mults), low=0.5, high=2.5, min_sep=0.3)
    inf_groups = []
    for l, m in enumerate(mults):
        vals = _distinct_values(rng, m)
        inf_groups.append(
            InfinityGroup(xis[l], tuple(WeightedEigen(v, rng.uniform(0.05, 0.95)) for v in vals))
        )
    return HiggsData(rank, degree, tuple(log_points), tuple(inf_groups))


def random_connection_data(
    rng=None,
    seed: int | None = None,
    max_rank: int = 5,
    max_punctures: int = 4,
) -> ConnectionData:
    """A random generic, transformable connection datum (via the dictionary)."""
    return higgs_to_connection(random_higgs_data(rng=rng, seed=seed, max_rank=max_rank, max_punctures=max_punctures))
