"""Invariant suites shared by the CLI `verify` subcommand and the tests.

Each check returns a CheckResult; a suite is a named list of results with
wall time and the seeds that generated its corpus.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fields, moduli, nahm, spectral
from .moduli import ConnectionData, HiggsData, SingularityData


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    residual: float
    tol: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple[CheckResult, ...]
    seed: int
    wall_time: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _result(name, residual, tol, detail="") -> CheckResult:
    return CheckResult(name, residual <= tol, float(residual), float(tol), detail)


def involution_suite(count: int = 200, seed: int = 0, max_rank: int = 5, max_punctures: int = 4) -> VerificationReport:
    """Involutivity, degree and parabolic-degree preservation, hypothesis symmetry."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst_inv = 0.0
    worst_par = 0.0
    failures = []
    for kind in ("higgs", "connection"):
        for i in range(count):
            if kind == "higgs":
                data: SingularityData = moduli.random_higgs_data(rng=rng, max_rank=max_rank, max_punctures=max_punctures)
            else:
                data = moduli.random_connection_data(rng=rng, max_rank=max_rank, max_punctures=max_punctures)
            rep = nahm.involution_check(data, tol)
            if not rep.ok:
                failures.append(f"{kind} instance {i}: residual {rep.residual:.3e}")
                continue
            worst_inv = max(worst_inv, rep.residual)
            out = nahm.transform(data)
            if out.degree != data.degree:
                failures.append(f"{kind} instance {i}: degree changed")
            worst_par = max(worst_par, abs(moduli.parabolic_degree(out) - moduli.parabolic_degree(data)))
            if moduli.hypothesis_report(out).ok != moduli.hypothesis_report(data).ok:
                failures.append(f"{kind} instance {i}: hypothesis not preserved")
    checks = [
        CheckResult("involutivity", not failures, worst_inv, tol, "; ".join(failures[:3])),
        _result("parabolic degree preservation", worst_par, tol),
    ]
    return VerificationReport("involution", tuple(checks), seed, time.perf_counter() - start)


def bookkeeping_suite(count: int = 200, seed: int = 0) -> VerificationReport:
    """r_hat formula, induced/transformed degrees, weight-shift identity."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    failures = []
    for i in range(count):
        hd = moduli.random_higgs_data(rng=rng)
        rec = nahm.extension_bookkeeping(hd)
        expected_r_hat = sum(hd.rank - lp.reg_count for lp in hd.log_points)
        if rec.r_hat != expected_r_hat:
            failures.append(f"instance {i}: r_hat {rec.r_hat} != {expected_r_hat}")
        if rec.induced_degree != rec.r_hat + hd.rank + hd.degree:
            failures.append(f"instance {i}: induced degree mismatch")
        if rec.transformed_degree != hd.degree:
            failures.append(f"instance {i}: transformed degree changed")
        worst = max(worst, rec.identity_residual)
    checks = [
        CheckResult("degree formulas", not failures, 0.0, 0.0, "; ".join(failures[:3])),
        _result("weight-shift identity", worst, tol),
    ]
    return VerificationReport("bookkeeping", tuple(checks), seed, time.perf_counter() - start)


def dictionary_suite(count: int = 10_000, seed: int = 0) -> VerificationReport:
    """Dictionary roundtrip exactness and critical-weight brute-force agreement."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    for _ in range(count):
        mu = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        beta = rng.uniform(0, 1)
        e = moduli.WeightedEigen(mu, beta)
        cd = _single_entry_connection(e)
        back = moduli.higgs_to_connection(moduli.connection_to_higgs(cd))
        b = back.log_points[0].entries[0]
        worst = max(worst, abs(b.value - mu), abs(b.weight - beta))
    disagreements = 0
    for _ in range(count):
        if rng.uniform() < 0.01:
            mu, beta = 0j, 0.0
        else:
            mu = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
            beta = rng.uniform(0, 1)
        fast = moduli.critical_weight_zero(mu, beta)
        slow = _critical_weight_bruteforce(mu, beta)
        if fast != slow:
            disagreements += 1
    checks = [
        _result("dictionary roundtrip", worst, tol),
        CheckResult("critical weight vs brute force", disagreements == 0, float(disagreements), 0.0),
    ]
    return VerificationReport("dictionary", tuple(checks), seed, time.perf_counter() - start)


def _single_entry_connection(e) -> ConnectionData:
    lp = moduli.LogPoint(0.0, (e,))
    g = moduli.InfinityGroup(1.0, (moduli.WeightedEigen(0.5, 0.5),))
    return ConnectionData(1, 0, (lp,), (g,))


def _critical_weight_bruteforce(mu: complex, beta: float, n_max: int = 1000) -> bool:
    ns = np.arange(-n_max, n_max + 1)
    vals = (mu.real - beta) ** 2 + np.abs(ns + mu) ** 2
    return bool(np.min(vals) == 0.0)


GAUGE_TOL = 1e-14
DECOMPOSITION_TOL = 1e-12


def gauge_residual(rng) -> float:
    """Gauge identity residual at one draw of (omega, xi, z), in that order, from rng."""
    omega = fields.LocalForm(*(complex(a, b) for a, b in rng.uniform(-3, 3, size=(4, 2))))
    xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    return fields.gauge_relation_check(omega, xi, z)


def decomposition_residual(value: complex, weight: float) -> float:
    """Coefficientwise residual of D = D+ + Phi for one connection-side entry."""
    models = fields.local_models_at(value, weight, picture="connection")
    return (models.d_full - (models.d_plus + models.phi)).max_abs()


def local_identity_suite(count: int = 1000, seed: int = 0) -> VerificationReport:
    """Gauge identity residual and D = D+ + Phi coefficientwise."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_gauge = 0.0
    worst_decomp = 0.0
    for _ in range(count):
        worst_gauge = max(worst_gauge, gauge_residual(rng))
        mu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        beta = rng.uniform(0, 1)
        worst_decomp = max(worst_decomp, decomposition_residual(mu, beta))
    checks = [
        _result("gauge relation", worst_gauge, GAUGE_TOL),
        _result("polar decomposition D = D+ + Phi", worst_decomp, DECOMPOSITION_TOL),
    ]
    return VerificationReport("local identities", tuple(checks), seed, time.perf_counter() - start)


def spectral_fiber_suite(
    n_fields: int = 50,
    n_xi: int = 20,
    seed: int = 0,
    max_rank: int = 4,
    max_punctures: int = 3,
) -> VerificationReport:
    """Spectral point count, cokernel dimension sum and reducedness on a random corpus."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    count_fail = []
    coker_fail = []
    non_simple = 0
    total_xi = 0
    for i in range(n_fields):
        r = int(rng.integers(1, max_rank + 1))
        n = int(rng.integers(1, max_punctures + 1))
        punctures = []
        while len(punctures) < n:
            p = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if all(abs(p - q) > 0.4 for q in punctures):
                punctures.append(p)
        ranks = [int(rng.integers(0, r)) for _ in range(n)]
        f = fields.random_field(r, punctures, ranks, seed=int(rng.integers(0, 2**32)))
        r_hat = sum(r - rj for rj in ranks)
        scale = f.scale()
        for _ in range(n_xi):
            xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * scale
            if any(abs(xi - a) < 0.2 for a in f.a_diag):
                continue
            total_xi += 1
            sample = spectral.spectral_points(f, xi)
            if len(sample.points) != r_hat:
                count_fail.append(f"field {i}: {len(sample.points)} points, expected {r_hat}")
            if sample.total_coker_dim != r_hat:
                coker_fail.append(f"field {i}: coker sum {sample.total_coker_dim} != {r_hat}")
            if not spectral.points_simple(np.array(sample.points)):
                non_simple += 1
    checks = [
        CheckResult("spectral point count = r_hat", not count_fail, float(len(count_fail)), 0.0, "; ".join(count_fail[:3])),
        CheckResult("cokernel dimension sum = r_hat", not coker_fail, float(len(coker_fail)), 0.0, "; ".join(coker_fail[:3])),
        CheckResult("reducedness fraction = 1", non_simple == 0, float(non_simple), 0.0, f"{total_xi} generic samples"),
    ]
    return VerificationReport("spectral fiber", tuple(checks), seed, time.perf_counter() - start)


def instance_suite(data: SingularityData) -> VerificationReport:
    """Checks applicable to a single ingested datum."""
    start = time.perf_counter()
    checks = []
    hyp = moduli.hypothesis_report(data)
    checks.append(CheckResult("genericity hypothesis", hyp.ok, 0.0, 0.0, "; ".join(hyp.violations[:3])))
    tr = moduli.transformability_check(data)
    checks.append(CheckResult("transformability", tr.ok, 0.0, 0.0, f"r_hat={tr.r_hat}"))
    if hyp.ok and tr.ok:
        inv = nahm.involution_check(data)
        checks.append(_result("involutivity", inv.residual, 1e-12))
        roundtrip = nahm.inverse_transform(nahm.transform(data))
        ok, res = nahm.data_match(roundtrip, data, 1e-12)
        checks.append(CheckResult("inverse roundtrip", ok, res, 1e-12))
        if isinstance(data, HiggsData):
            rec = nahm.extension_bookkeeping(data)
            checks.append(_result("weight-shift identity", rec.identity_residual, 1e-12))
    if isinstance(data, ConnectionData):
        real = moduli.realizability_checks(data)
        checks.append(
            CheckResult(
                "realizability (warnings only)",
                True,
                max(real.residue_identity_residual, real.parabolic_degree_residual),
                float("inf"),
                "; ".join(real.warnings),
            )
        )
    return VerificationReport("instance", tuple(checks), 0, time.perf_counter() - start)


def full_corpus_suites(count: int, seed: int) -> list[VerificationReport]:
    return [
        involution_suite(count=count, seed=seed),
        bookkeeping_suite(count=count, seed=seed),
        dictionary_suite(count=min(10_000, max(100, count * 10)), seed=seed),
        local_identity_suite(count=1000, seed=seed),
        spectral_fiber_suite(n_fields=min(50, max(5, count // 10)), seed=seed),
    ]
