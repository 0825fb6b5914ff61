"""Tests of the benchmark itself: oracles, gates, deadline, tracer, output contract.

Run from the repository root:  python3 -m pytest -q bench/selftest.py
(The file name keeps it out of the package's own test collection; the
minimum-size runs take about a minute.)
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _rank1_root(a, lam, p, xi):
    # (a - xi)/2 + lam/(z - p) = 0
    return p - 2 * lam / (a - xi)


@pytest.mark.parametrize("xi", [0.5 + 0.3j, 1e2 * np.exp(0.37j), 1e3 * np.exp(0.37j), 1.0 + 1e-4j])
def test_oracle_matches_rank1_exact_root(xi):
    a, lam, p = 1.0, -0.3 + 0.8j, 0.3
    (root,) = oracle.diagonal_roots([a], [[lam]], [p], xi)
    exact = _rank1_root(a, lam, p, xi)
    assert abs(root - exact) <= 1e-12 * max(1.0, abs(exact))


def test_oracle_rejects_perturbed_roots():
    hd_model = ([0.5, 0.5, -1.0], [[0.0, 0.4, 0.9j], [0.7, 0.0, -0.5]], [0.0, 1.0 + 0.5j])
    xi = 3.0 - 1.0j
    exact = oracle.diagonal_roots(*hd_model, xi)
    assert exact.size == 4  # r_hat = (3 - 1) + (3 - 1)
    assert oracle.root_error(exact[::-1], exact) <= 1e-15
    bumped = exact.copy()
    bumped[1] += 1e-6 * max(1.0, abs(bumped[1]))
    assert oracle.root_error(bumped, exact) > oracle.ROOT_TOL
    assert oracle.root_error(exact[:-1], exact) == float("inf")


def test_oracle_agrees_with_solver_where_it_is_sound():
    from nahmkit import fields, moduli, spectral

    hd = moduli.random_higgs_data(seed=1)
    field, _ = fields.model_field(hd)
    xi = 0.9 + 0.4j
    got = spectral.spectral_points(field, xi).points
    assert oracle.root_error(got, oracle.diagonal_roots(*oracle.diagonal_model(hd), xi)) <= oracle.ROOT_TOL


@dataclass
class _InfFit:
    p_hat: complex
    lam_hat: complex
    puncture_index: int


@dataclass
class _PuncFit:
    estimates: tuple


def test_fit_gates_accept_exact_and_reject_perturbed():
    from nahmkit import moduli

    hd = moduli.random_higgs_data(seed=5)
    exact = [
        _InfFit(lp.position, e.value, j)
        for j, lp in enumerate(hd.log_points)
        for e in lp.singular_entries
    ]
    assert oracle.infinity_gate(exact, hd) == ""
    off = list(exact)
    off[0] = _InfFit(off[0].p_hat, off[0].lam_hat + 2e-3, off[0].puncture_index)
    assert "lambda residual" in oracle.infinity_gate(off, hd)
    assert "partition" in oracle.infinity_gate(exact[1:], hd)

    group = hd.inf_groups[0]
    fits = [_PuncFit((2 * e.value,) * 3) for e in group.entries]
    assert oracle.puncture_gate(fits, group) == ""
    fits[0] = _PuncFit((2 * group.entries[0].value + 2e-3,) * 3)
    assert "residue residual" in oracle.puncture_gate(fits, group)
    assert "branch count" in oracle.puncture_gate(fits[:-1], group)


def test_scan_gate_checks_structure_and_closed_form():
    model = ([1.0], [[0.5]], [0.0])
    xi = 1.0 + 1e-3j
    q = complex(oracle.diagonal_roots(*model, xi)[0])
    row = f"{xi.real!r},{xi.imag!r},0,{q.real!r},{q.imag!r},1"
    header = "xi_re,xi_im,branch,q_re,q_im,coker_dim"
    assert workloads.scan_gate(f"{header}\n{row}\n", 1, model) == ""
    assert "cokernel" in workloads.scan_gate(f"{header}\n{row[:-1]}2\n", 1, model)
    assert "rows" in workloads.scan_gate(f"{header}\n{row}\n", 2, model)
    bad = f"{xi.real!r},{xi.imag!r},0,{q.real!r},{q.imag * (1 + 1e-6)!r},1"
    assert "closed form" in workloads.scan_gate(f"{header}\n{bad}\n", 1, model)


def test_deadline_interrupts_a_python_loop():
    def spin():
        while True:
            pass

    with harness.Runner(0.2) as runner:
        start = time.perf_counter()
        res = runner.run(workloads.Op("spin", spin, lambda _: ""))
        assert time.perf_counter() - start < 1.0
        after = runner.run(workloads.Op("ok", lambda: None, lambda _: ""))
    assert res.timed_out and not res.ok and res.seconds >= 0.2
    assert after.ok and not after.timed_out


def test_tracer_records_self_time_and_absent_targets(monkeypatch):
    from nahmkit import cli, fields, moduli, spectral

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("gone.layer", "nahmkit.spectral", "no_such_attr", True),))
    hd = moduli.random_higgs_data(seed=2)
    field, _ = fields.model_field(hd)
    original = spectral.spectral_points
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin_op(0, "probe")
        start = time.perf_counter_ns()
        spectral.spectral_points(field, 0.7 + 0.2j)
        wall = time.perf_counter_ns() - start
        assert workloads.run_cli(cli, ["--help"])[0] == 0
    finally:
        tr.uninstall()
    assert spectral.spectral_points is original
    assert "main" not in vars(cli.main)  # the click command's own method is back
    totals = tr.totals()
    assert totals["cli.main"][0] == 1
    del totals["cli.main"]  # outside the wall-clock window below
    assert tr.absent == ["gone.layer"]
    assert totals["spectral.spectral_points"][:1] == [1]
    assert totals["fields.matrix_at"][0] > 0
    # self times partition the outermost span, which the wall clock encloses
    self_ns = [stat[1] for name, stat in totals.items() if not name.startswith("#")]
    assert all(ns > 0 for ns in self_ns) and sum(self_ns) <= wall


def test_a_failed_op_makes_the_run_incorrect():
    import run

    assert run._correct(0) and not run._correct(1)


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_minimum_run_emits_every_metric(workload):
    spec = _bench_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scan-around", "--seed", "0", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
