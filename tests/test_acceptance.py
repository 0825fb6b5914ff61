"""Acceptance gate: one check per structural claim, fixed tolerances.

Each test prints a single [PASS]/[FAIL] line for its criterion; run with
`pytest -s tests/test_acceptance.py` to see them all.
"""

import time

import numpy as np
import pytest

from nahmkit.fields import ExplicitHiggsField, realize
from nahmkit.moduli import (
    ConnectionData,
    InfinityGroup,
    LogPoint,
    WeightedEigen,
    parabolic_degree,
    random_higgs_data,
    realizability_checks,
)
from nahmkit.nahm import extension_bookkeeping, higgs_transform, transform
from nahmkit.numkernel import multiset_match
from nahmkit.spectral import fit_infinity_asymptotics, fit_puncture_asymptotics
from nahmkit.verification import (
    dictionary_suite,
    involution_suite,
    local_identity_suite,
    spectral_fiber_suite,
)

SEED = 20240817


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _scalar(lam, a=0.0, p=0.0):
    return ExplicitHiggsField(
        np.array([a], dtype=complex),
        np.array([p], dtype=complex),
        np.array([[[lam]]], dtype=complex),
    )


def test_criterion_1_involutivity():
    start = time.perf_counter()
    rep = involution_suite(count=200, seed=SEED, max_rank=5, max_punctures=4)
    elapsed = time.perf_counter() - start
    ok = rep.ok and elapsed < 2.0
    _report(
        1,
        "transform^2 = (-1)-pullback on 200+200 instances, tol 1e-12",
        ok,
        f"worst residual {rep.checks[0].residual:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_bookkeeping():
    rng = np.random.default_rng(SEED)
    worst_shift = 0.0
    worst_par = 0.0
    exact_ok = True
    for _ in range(200):
        hd = random_higgs_data(rng=rng, max_rank=5, max_punctures=4)
        rec = extension_bookkeeping(hd)
        r_hat = sum(hd.rank - lp.reg_count for lp in hd.log_points)
        exact_ok &= rec.r_hat == r_hat
        exact_ok &= rec.induced_degree == r_hat + hd.rank + hd.degree
        exact_ok &= rec.transformed_degree == hd.degree
        worst_shift = max(worst_shift, rec.identity_residual)
        worst_par = max(worst_par, abs(parabolic_degree(transform(hd)) - parabolic_degree(hd)))
    ok = exact_ok and worst_shift <= 1e-12 and worst_par <= 1e-12
    _report(
        2,
        "r_hat/degree formulas exact, weight shift and deg_par to 1e-12",
        ok,
        f"shift {worst_shift:.2e}, deg_par {worst_par:.2e}",
    )


def test_criterion_3_spectral_fiber():
    start = time.perf_counter()
    rep = spectral_fiber_suite(n_fields=50, n_xi=20, seed=SEED, max_rank=4, max_punctures=3)
    elapsed = time.perf_counter() - start
    ok = rep.ok and elapsed < 30.0
    _report(
        3,
        "root count = r_hat, coker sum = r_hat (sv tol 1e-8), reduced fibers",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_4_puncture_asymptotics():
    rng = np.random.default_rng(SEED)
    ok = True
    detail = ""
    for trial in range(3):
        hd = random_higgs_data(rng=rng, max_rank=5, max_punctures=4)
        field, extracted = realize(hd, {"mode": "random", "seed": trial})
        for g in extracted.inf_groups:
            fits = fit_puncture_asymptotics(field, g.xi, radii=(1e-2, 1e-3, 1e-4))
            if len(fits) != g.multiplicity:
                ok, detail = False, f"branch count {len(fits)} != {g.multiplicity}"
                continue
            want = [2 * e.value for e in g.entries]
            for i, rho in enumerate(fits[0].radii):
                m = multiset_match([f.estimates[i] for f in fits], want, 1e-8)
                if not m.ok:
                    ok, detail = False, f"residual {m.max_distance:.2e} at radius {rho:g}"
    # closed form: a rank-1 diagonal model has q*(xi - xi_l) = 2*lam at every radius
    worst = 0.0
    for lam in (0.5, -0.3 + 0.8j, 1.2 - 0.4j):
        (fit,) = fit_puncture_asymptotics(_scalar(lam, a=1.0, p=0.3), 1.0)
        worst = max(worst, max(abs(est - 2 * lam) for est in fit.estimates))
    ok = ok and worst <= 1e-10
    _report(
        4,
        "m_l escaping branches, residues to 1e-8 at every radius, diagonal models to 1e-10",
        ok,
        detail or f"diagonal worst {worst:.2e}",
    )


def test_criterion_5_infinity_asymptotics():
    rng = np.random.default_rng(SEED)
    ok = True
    detail = ""
    for trial in range(3):
        hd = random_higgs_data(rng=rng, max_rank=5, max_punctures=4)
        field, extracted = realize(hd, {"mode": "random", "seed": trial})
        fits = fit_infinity_asymptotics(field)
        counts = {}
        for fit in fits:
            counts[fit.puncture_index] = counts.get(fit.puncture_index, 0) + 1
        want_counts = {
            j: hd.rank - lp.reg_count for j, lp in enumerate(extracted.log_points)
        }
        if counts != {j: c for j, c in want_counts.items() if c}:
            ok, detail = False, f"partition {counts} != {want_counts}"
            continue
        for j, lp in enumerate(extracted.log_points):
            got = [fit.lam_hat for fit in fits if fit.puncture_index == j]
            want = [e.value for e in lp.singular_entries]
            m = multiset_match(got, want, 1e-8)
            if not m.ok:
                ok, detail = False, f"lam residual {m.max_distance:.2e}"
            p_err = max(
                abs(fit.p_hat - lp.position) for fit in fits if fit.puncture_index == j
            )
            if p_err > 1e-8:
                ok, detail = False, f"p residual {p_err:.2e}"
    # closed form q = 2*lam/xi for the rank-1 diagonal model
    worst = 0.0
    for lam in (0.5, -0.3 + 0.8j, 1.2 - 0.4j):
        (fit,) = fit_infinity_asymptotics(_scalar(lam))
        worst = max(worst, abs(fit.lam_hat - lam), abs(fit.p_hat))
    ok = ok and worst <= 1e-10
    _report(
        5,
        "branch partition by puncture, (p, lam) to 1e-8, diagonal models exact",
        ok,
        detail or f"diagonal worst {worst:.2e}",
    )


def test_criterion_6_transformed_field_consistency():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    ok = True
    detail = ""
    for trial in range(3):
        hd = random_higgs_data(rng=rng, max_rank=5, max_punctures=4)
        field, extracted = realize(hd, {"mode": "random", "seed": 100 + trial})
        that = higgs_transform(extracted)
        # log points of the transform: residues of -q/2 give the entry values
        for lp in that.log_points:
            fits = fit_puncture_asymptotics(field, lp.position)
            got = [-fit.residue / 2 for fit in fits]
            want = [e.value for e in lp.singular_entries]
            m = multiset_match(got, want, 1e-8)
            if not m.ok:
                ok, detail = False, f"log residual {m.max_distance:.2e}"
            worst = max(worst, m.max_distance)
        # infinity groups of the transform: leading -p_j, residues -lam^j
        fits = fit_infinity_asymptotics(field)
        by_group = {}
        for fit in fits:
            by_group.setdefault(fit.puncture_index, []).append(fit)
        xi_got = [-fs[0].p_hat for fs in by_group.values()]
        xi_want = [g.xi for g in that.inf_groups]
        mx = multiset_match(xi_got, xi_want, 1e-8)
        if not mx.ok:
            ok, detail = False, f"leading residual {mx.max_distance:.2e}"
        worst = max(worst, mx.max_distance)
        for g in that.inf_groups:
            j = min(
                by_group, key=lambda k: abs(-by_group[k][0].p_hat - g.xi)
            )
            got = [-fit.lam_hat for fit in by_group[j]]
            want = [e.value for e in g.entries]
            m = multiset_match(got, want, 1e-8)
            if not m.ok:
                ok, detail = False, f"inf residual {m.max_distance:.2e}"
            worst = max(worst, m.max_distance)
    _report(
        6,
        "-Sigma_xi/2 asymptotics reproduce the data-level transform to 1e-8",
        ok,
        detail or f"worst residual {worst:.2e}",
    )


def test_criterion_7_dictionary_and_critical_weights():
    rep = dictionary_suite(count=10_000, seed=SEED)
    _report(
        7,
        "dictionary roundtrip to 1e-12 and critical-weight scan on 10^4 entries",
        rep.ok,
        f"roundtrip residual {rep.checks[0].residual:.2e}",
    )


def test_criterion_8_local_identities():
    rep = local_identity_suite(count=1000, seed=SEED)
    _report(
        8,
        "gauge relation to 1e-14 and D = D+ + Phi to 1e-12 on 10^3 samples",
        rep.ok,
        f"gauge {rep.checks[0].residual:.2e}, decomposition {rep.checks[1].residual:.2e}",
    )


def test_criterion_9_realizability_warnings():
    good = ConnectionData(
        1,
        -1,
        (LogPoint(0.0, (WeightedEigen(0.5 + 0.2j, 0.3),)),),
        (InfinityGroup(1.0, (WeightedEigen(-0.5 - 0.1j, 0.7),)),),
    )
    rep = realizability_checks(good)
    ok = rep.ok and rep.residue_identity_residual <= 1e-12
    ok = ok and rep.parabolic_degree_residual <= 1e-12
    perturbed = ConnectionData(
        1,
        -1,
        (LogPoint(0.0, (WeightedEigen(1.0 + 0.2j, 0.3),)),),
        (InfinityGroup(1.0, (WeightedEigen(-0.5 - 0.1j, 0.7),)),),
    )
    bad = realizability_checks(perturbed)
    ok = ok and not bad.ok and bad.residue_identity_residual == pytest.approx(0.5)
    _report(
        9,
        "realizability residuals <= 1e-12, perturbations flagged with residual",
        ok,
        f"flagged residual {bad.residue_identity_residual:.2f}",
    )
