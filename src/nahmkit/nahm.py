"""The Nahm transform on singularity data, its inverse, and bookkeeping.

On data level the transform swaps puncture positions with leading-term
eigenvalues (up to sign) and negates residue eigenvalues, preserving
weights, degree and parabolic degree.  Applying it twice recovers the
pullback of the input under z -> -z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moduli import (
    ConnectionData,
    HiggsData,
    InfinityGroup,
    LogPoint,
    SingularityData,
    WeightedEigen,
    connection_to_higgs,
    hypothesis_report,
    transformability_check,
)
from .numkernel import bottleneck_match, multiset_match


class TransformError(ValueError):
    """A transform precondition failed; the message names the clause."""


def transform(data: SingularityData) -> SingularityData:
    """Transform of a Higgs or connection datum satisfying the genericity hypothesis.

    The output has the input's kind, rank r_hat and the same degree, one
    logarithmic point at each leading eigenvalue xi_l with entries
    (-lambda^inf_k, alpha^inf_k) padded by regular (0, 0) entries, and one
    infinity group per original puncture with leading eigenvalue -p_j and
    entries (-lambda^j_k, alpha^j_k) over the singular component; on the
    connection side the same sign rules act on (mu, beta).  Raises
    TypeError for any other type and TransformError when the hypothesis
    or transformability fails.
    """
    if not isinstance(data, (HiggsData, ConnectionData)):
        raise TypeError(f"unsupported data type {type(data).__name__}")
    hyp = hypothesis_report(data)
    if not hyp.ok:
        raise TransformError("hypothesis failed: " + "; ".join(hyp.violations))
    report = transformability_check(data)
    if not report.ok:
        raise TransformError(
            f"transformability failed: infinity groups {report.offending_groups} "
            f"have multiplicity exceeding transformed rank {report.r_hat}"
        )
    r_hat = report.r_hat
    log_points = []
    for g in data.inf_groups:
        entries = [WeightedEigen(-e.value, e.weight) for e in g.entries]
        entries += [WeightedEigen(0.0, 0.0)] * (r_hat - g.multiplicity)
        log_points.append(LogPoint(g.xi, tuple(entries)))
    inf_groups = []
    for lp in data.log_points:
        entries = tuple(WeightedEigen(-e.value, e.weight) for e in lp.singular_entries)
        inf_groups.append(InfinityGroup(-lp.position, entries))
    return type(data)(r_hat, data.degree, tuple(log_points), tuple(inf_groups))


def higgs_transform(hd: HiggsData) -> HiggsData:
    """Transform of a Higgs datum; see transform."""
    return transform(hd)


def connection_transform(cd: ConnectionData) -> ConnectionData:
    """Transform of a connection datum; see transform."""
    return transform(cd)


def pullback_minus(data: SingularityData) -> SingularityData:
    """Pullback under z -> -z: negate positions and leading eigenvalues.

    A simple pole at p with residue lambda pulls back to a simple pole at
    -p with the same residue, and the leading coefficient at infinity
    changes sign; residues, weights, rank and degree are fixed.
    """
    log_points = tuple(LogPoint(-lp.position, lp.entries) for lp in data.log_points)
    inf_groups = tuple(InfinityGroup(-g.xi, g.entries) for g in data.inf_groups)
    return type(data)(data.rank, data.degree, log_points, inf_groups)


def inverse_transform(data: SingularityData) -> SingularityData:
    """Inverse of the transform: pullback_minus composed with the forward map."""
    return pullback_minus(transform(data))


def _paired_components(a: SingularityData, b: SingularityData, tol: float):
    """Log points paired by position, then infinity groups by leading eigenvalue.

    Yields (match, location, entries_a, entries_b) per pair, where match is
    the MatchResult of the positions (or leading eigenvalues) of that kind
    and location names the component of a.
    """
    for comps_a, comps_b, key, name in (
        (a.log_points, b.log_points, "position", "log point {}"),
        (a.inf_groups, b.inf_groups, "xi", "infinity group xi={}"),
    ):
        m = multiset_match([getattr(c, key) for c in comps_a], [getattr(c, key) for c in comps_b], tol)
        for i, j in m.pairs:
            yield m, name.format(getattr(comps_a[i], key)), comps_a[i].entries, comps_b[j].entries


def data_match(a: SingularityData, b: SingularityData, tol: float = 1e-12):
    """Multiset comparison of two data of the same kind.

    Returns (ok, residual): log points are matched by position, infinity
    groups by leading eigenvalue, entries within by value and weight
    together, each a bottleneck matching within tol.  On success the
    residual is the worst matched distance over all components; on failure
    it is the minimal worst distance of the first component that fails, or
    inf when the kinds, ranks, degrees or counts differ.
    """
    if type(a) is not type(b) or a.rank != b.rank or a.degree != b.degree:
        return False, float("inf")
    if len(a.log_points) != len(b.log_points) or len(a.inf_groups) != len(b.inf_groups):
        return False, float("inf")
    worst = 0.0
    for m, _, ea, eb in _paired_components(a, b, tol):
        if not m.ok:
            return False, m.max_distance
        ok, res = _entries_match(ea, eb, tol)
        if not ok:
            return False, res
        worst = max(worst, m.max_distance, res)
    return True, worst


def _entries_match(ea, eb, tol):
    """Bottleneck match of entries on the cost max(|value delta|, |weight delta|)."""
    if len(ea) != len(eb):
        return False, float("inf")
    a, b = (np.array([[e.value, e.weight] for e in es]) for es in (ea, eb))
    m = bottleneck_match(np.abs(a[:, None, :] - b[None, :, :]).max(axis=-1), tol)
    return m.ok, m.max_distance


@dataclass(frozen=True)
class InvolutionReport:
    ok: bool
    residual: float
    rank_recovered: bool
    precondition_failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def involution_check(data: SingularityData, tol: float = 1e-12) -> InvolutionReport:
    """Verify transform(transform(data)) == pullback_minus(data)."""
    try:
        once = transform(data)
        twice = transform(once)
    except TransformError as exc:
        return InvolutionReport(False, float("inf"), False, precondition_failure=str(exc))
    ok, residual = data_match(twice, pullback_minus(data), tol)
    rank_ok = twice.rank == data.rank
    return InvolutionReport(ok and rank_ok, residual, rank_ok)


@dataclass(frozen=True)
class BookkeepingRecord:
    """Topology of the induced vs transformed extension.

    induced_degree = r_hat + rank + degree; the transformed extension keeps
    the input degree while every nonzero parabolic weight is shifted from
    -1 + alpha (induced) to alpha (transformed); both extensions have the
    same parabolic degree.
    """

    r_hat: int
    induced_degree: int
    transformed_degree: int
    induced_weights: tuple[float, ...]
    transformed_weights: tuple[float, ...]

    @property
    def identity_residual(self) -> float:
        lhs = self.induced_degree + sum(self.induced_weights)
        rhs = self.transformed_degree + sum(self.transformed_weights)
        return abs(lhs - rhs)


def extension_bookkeeping(data: SingularityData) -> BookkeepingRecord:
    transformed = transform(data)
    nonzero = tuple(w for w in transformed.all_weights() if w != 0)
    return BookkeepingRecord(
        r_hat=data.r_hat,
        induced_degree=data.r_hat + data.rank + data.degree,
        transformed_degree=data.degree,
        induced_weights=tuple(w - 1.0 for w in nonzero),
        transformed_weights=nonzero,
    )


@dataclass(frozen=True)
class TransformReport:
    input: SingularityData
    output: SingularityData
    r_hat: int
    induced_degree: int
    transformed_degree: int
    induced_weights: tuple[float, ...]
    hypothesis_preserved: bool


def transform_report(data: SingularityData) -> TransformReport:
    out = transform(data)
    book = extension_bookkeeping(data)
    preserved = hypothesis_report(out).ok == hypothesis_report(data).ok
    return TransformReport(
        input=data,
        output=out,
        r_hat=book.r_hat,
        induced_degree=book.induced_degree,
        transformed_degree=book.transformed_degree,
        induced_weights=book.induced_weights,
        hypothesis_preserved=preserved,
    )


@dataclass(frozen=True)
class EntryDiscrepancy:
    location: str
    value_delta: complex
    weight_delta: float


@dataclass(frozen=True)
class DictionaryConsistencyReport:
    """Per-entry differences between the two routes from connection data.

    Route A: dictionary after the connection transform; route B: Higgs
    transform after the dictionary.  The two published descriptions are not
    literally compatible for generic weights, so this reports and never
    asserts.
    """

    discrepancies: tuple[EntryDiscrepancy, ...]

    @property
    def max_value_delta(self) -> float:
        return max((abs(d.value_delta) for d in self.discrepancies), default=0.0)


def dictionary_consistency_report(cd: ConnectionData) -> DictionaryConsistencyReport:
    via_connection = connection_to_higgs(connection_transform(cd))
    via_higgs = higgs_transform(connection_to_higgs(cd))
    diffs: list[EntryDiscrepancy] = []
    for _, location, ea, eb in _paired_components(via_connection, via_higgs, 1e-9):
        m = multiset_match([e.value for e in ea], [e.value for e in eb], float("inf"))
        for i, j in m.pairs:
            diffs.append(EntryDiscrepancy(location, ea[i].value - eb[j].value, ea[i].weight - eb[j].weight))
    return DictionaryConsistencyReport(tuple(diffs))
