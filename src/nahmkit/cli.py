"""Command-line interface: ingestion, verification orchestration, CSV/JSON emission.

Exit codes: 0 all checks pass, 1 a check or numerical run failed, 2 the
input could not be parsed.
"""
from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import fields, moduli, nahm, spectral, verification
from .moduli import ConnectionData
from .serialize import SpecError, data_from_dict, data_to_dict, realization_from_dict

PARSE_ERROR = 2
CHECK_FAILURE = 1


def _fail_parse(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(PARSE_ERROR)


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        _fail_parse(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail_parse(f"{path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        _fail_parse(f"{path}: top-level value must be an object")
    return obj


def _load_data(path: str):
    obj = _load_spec(path)
    try:
        data = data_from_dict(obj)
        realization = realization_from_dict(obj.get("realization"))
    except SpecError as exc:
        _fail_parse(str(exc))
    return data, realization


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_csv(branches, destination) -> None:
    """Branch samples as CSV, rows ordered by path index then branch label."""
    destination.write("xi_re,xi_im,branch,q_re,q_im,coker_dim\n")
    if not branches:
        return
    n_samples = len(branches[0].samples)
    for i in range(n_samples):
        for b, br in enumerate(branches):
            xi, q = br.samples[i]
            dim = br.coker_dims[i]
            destination.write(
                f"{_fmt(xi.real)},{_fmt(xi.imag)},{b},{_fmt(q.real)},{_fmt(q.imag)},{dim}\n"
            )


def _echo_report(report: verification.VerificationReport) -> bool:
    for c in report.checks:
        status = "PASS" if c.ok else "FAIL"
        line = f"[{status}] {report.suite} :: {c.name} (residual {c.residual:.3e}, tol {c.tol:.3e})"
        if c.detail:
            line += f" -- {c.detail}"
        click.echo(line)
    return report.ok


@click.group()
def main():
    """Nahm transform of singularity data: transform, verify, scan."""


@main.command()
@click.argument("spec", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Write the JSON report here instead of stdout.")
def transform(spec, out):
    """Transform the datum in SPEC and emit a JSON report."""
    data, _ = _load_data(spec)
    try:
        report = nahm.transform_report(data)
    except nahm.TransformError as exc:
        click.echo(f"transform failed: {exc}", err=True)
        sys.exit(CHECK_FAILURE)
    payload = {
        "input": data_to_dict(report.input),
        "output": data_to_dict(report.output),
        "r_hat": report.r_hat,
        "induced_degree": report.induced_degree,
        "transformed_degree": report.transformed_degree,
        "induced_weights": list(report.induced_weights),
        "hypothesis_preserved": report.hypothesis_preserved,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@main.command()
@click.argument("spec", type=click.Path())
def involution(spec):
    """Check transform^2 = pullback under z -> -z on the datum in SPEC."""
    data, _ = _load_data(spec)
    report = nahm.involution_check(data)
    if report.precondition_failure:
        click.echo(f"[FAIL] involution :: precondition failed -- {report.precondition_failure}")
        sys.exit(CHECK_FAILURE)
    status = "PASS" if report.ok else "FAIL"
    click.echo(
        f"[{status}] involution :: transform^2 = (-1)-pullback "
        f"(residual {report.residual:.3e}, rank recovered: {report.rank_recovered})"
    )
    sys.exit(0 if report.ok else CHECK_FAILURE)


@main.command()
@click.argument("spec", type=click.Path(), required=False)
@click.option("--count", type=click.IntRange(min=1), default=200, show_default=True, help="Random instances per suite.")
@click.option("--seed", type=click.IntRange(min=0), default=0, envvar="NAHMKIT_SEED", show_default=True)
def verify(spec, count, seed):
    """Run the invariant suites on SPEC, or on a random corpus without it."""
    if spec is not None:
        data, _ = _load_data(spec)
        reports = [verification.instance_suite(data)]
    else:
        reports = verification.full_corpus_suites(count, seed)
    ok = all([_echo_report(r) for r in reports])
    total = sum(len(r.checks) for r in reports)
    passed = sum(1 for r in reports for c in r.checks if c.ok)
    click.echo(f"{passed}/{total} checks passed")
    sys.exit(0 if ok else CHECK_FAILURE)


@main.command(name="spectral-scan")
@click.argument("spec", type=click.Path())
@click.option("--xi-path", default=None, help="Semicolon-separated xi nodes, each 're,im'.")
@click.option("--around", type=int, default=None, help="Infinity-group index to approach.")
@click.option("--radii", default="1e-2,1e-3,1e-4", show_default=True, help="Approach radii for --around.")
@click.option("--out", type=click.Path(), default=None, help="CSV destination (default stdout).")
def spectral_scan(spec, xi_path, around, radii, out):
    """Track spectral branches along a xi-path and emit CSV."""
    data, realization = _load_data(spec)
    if (xi_path is None) == (around is None):
        _fail_parse("exactly one of --xi-path and --around is required")
    if xi_path is not None:
        try:
            path = [complex(*map(float, node.split(","))) for node in xi_path.split(";") if node]
        except (TypeError, ValueError):
            _fail_parse(f"--xi-path {xi_path!r} is not a ';'-separated list of 're,im' pairs")
        if not path:
            _fail_parse("--xi-path is empty")
        if not np.all(np.isfinite(path)):
            _fail_parse(f"--xi-path {xi_path!r} has a non-finite node")
    else:
        if not 0 <= around < len(data.inf_groups):
            _fail_parse(f"--around {around} out of range (datum has {len(data.inf_groups)} infinity groups)")
        try:
            rr = sorted(float(t) for t in radii.split(","))
        except ValueError:
            _fail_parse(f"--radii {radii!r} is not a comma-separated list of numbers")
        if not rr or rr[0] <= 0 or not np.all(np.isfinite(rr)):
            _fail_parse("--radii must be positive and finite")
        path = spectral.approach_path(data.inf_groups[around].xi, rr[-1], rr[0], rr)
    field, _ = fields.realize(data, realization)
    try:
        branches = spectral.track_branches(field, path)
    except spectral.SpectralError as exc:
        click.echo(f"spectral scan failed: {exc}", err=True)
        sys.exit(CHECK_FAILURE)
    if out is None:
        emit_csv(branches, sys.stdout)
    else:
        with open(out, "w") as fh:
            emit_csv(branches, fh)


@main.command(name="local-check")
@click.argument("spec", type=click.Path())
@click.option("--count", type=click.IntRange(min=1), default=1000, show_default=True, help="Random gauge-identity samples.")
@click.option("--seed", type=click.IntRange(min=0), default=0, envvar="NAHMKIT_SEED", show_default=True)
def local_check(spec, count, seed):
    """Polar-model decomposition and gauge identity for the datum in SPEC."""
    data, _ = _load_data(spec)
    cd = data if isinstance(data, ConnectionData) else moduli.higgs_to_connection(data)
    entries = [e for lp in cd.log_points for e in lp.entries]
    worst_decomp = max((verification.decomposition_residual(e.value, e.weight) for e in entries), default=0.0)
    rng = np.random.default_rng(seed)
    worst_gauge = max((verification.gauge_residual(rng) for _ in range(count)), default=0.0)
    tol_decomp, tol_gauge = verification.DECOMPOSITION_TOL, verification.GAUGE_TOL
    ok_decomp = worst_decomp <= tol_decomp
    ok_gauge = worst_gauge <= tol_gauge
    click.echo(f"[{'PASS' if ok_decomp else 'FAIL'}] local :: D = D+ + Phi (residual {worst_decomp:.3e}, tol {tol_decomp:g})")
    click.echo(f"[{'PASS' if ok_gauge else 'FAIL'}] local :: gauge relation (residual {worst_gauge:.3e}, tol {tol_gauge:g})")
    sys.exit(0 if ok_decomp and ok_gauge else CHECK_FAILURE)


if __name__ == "__main__":
    main()
