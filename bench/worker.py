"""One benchmark process: set up a workload, then time it (and optionally trace it).

Started by run.py, never by hand.  Protocol on stdout: the line ``READY``
once set-up is done (the parent times set-up up to that line), then, unless
``--setup-only``, one JSON line with the raw measurements.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up as a user pays it: the CLI module first, then the inputs
    import nahmkit.cli  # noqa: F401

    sys.path.insert(0, HERE)
    import harness
    import workloads

    ops = workloads.build(args.workload, args.seed, os.path.join(args.workdir, "specs"))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out: dict = {}
    with harness.Runner(args.deadline) as runner:
        timed_seconds = args.seconds / 2 if args.trace else args.seconds
        results, wall = runner.loop(ops, timed_seconds)
        out["untraced"] = _summarize(results, wall)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            import tracer

            tr = tracer.Tracer()
            tr.install()
            try:
                traced, traced_wall = runner.loop(
                    ops, 0, limit=len(results), on_op=lambda i, op: tr.begin_op(i, op.kind)
                )
            finally:
                tr.uninstall()
            out["traced"] = _summarize(traced, traced_wall)
            out["layers"] = tr.totals()
            out["absent"] = tr.absent
            with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
                json.dump({"absent": tr.absent, "per_op": tr.per_op}, fh)
    if args.trace:
        with harness.Runner(PROBE_DEADLINE_S) as runner:
            out["oracle"] = _oracle_probe(runner, args.seed)
            out["fit_gates"] = _fit_probe(runner, args.seed)
    print(json.dumps(out), flush=True)
    return 0


def _summarize(results, wall) -> dict:
    return {
        "wall_s": wall,
        "latency_s": [r.seconds for r in results],
        "ok": [r.ok for r in results],
        "timed_out": [r.timed_out for r in results],
        "reasons": sorted({r.reason for r in results if r.reason})[:20],
    }


PROBE_RADII = {"r1": 1.0, "r1e2": 1e2, "r1e3": 1e3}
PROBE_DATA = 20
# the probes run generator-default data, where failing fits take up to 36 s;
# successful ones take at most about 0.35 s
PROBE_DEADLINE_S = 2.0


def _oracle_probe(runner, seed: int) -> dict:
    """Closed-form error of single solves on diagonal models, per xi regime.

    xi = R e^{0.37i} for R in {1, 1e2, 1e3}, and xi_l + 1e-3 e^{0.37i} next
    to the first infinity group ("near").  A raise, timeout or count
    mismatch is an infinite error; the maximum reported is over finite
    errors, and every error above oracle.ROOT_TOL counts as wrong.
    """
    import numpy as np

    import oracle
    import workloads
    from nahmkit import fields, moduli, spectral

    rng = np.random.default_rng([seed, 4])
    direction = np.exp(0.37j)
    errs: dict[str, list[float]] = {k: [] for k in (*PROBE_RADII, "near")}
    for _ in range(PROBE_DATA):
        hd = moduli.random_higgs_data(rng=rng)
        field, _ = fields.model_field(hd)
        model = oracle.diagonal_model(hd)
        xis = {k: r * direction for k, r in PROBE_RADII.items()}
        xis["near"] = hd.inf_groups[0].xi + 1e-3 * direction
        for key, xi in xis.items():
            res = runner.run(workloads.Op("probe", lambda xi=xi: spectral.spectral_points(field, xi).points, lambda _: ""))
            errs[key].append(oracle.root_error(res.output, oracle.diagonal_roots(*model, xi)) if res.ok else float("inf"))
    return {
        key: {
            "err_max": max([e for e in vals if np.isfinite(e)], default=0.0),
            "wrong": sum(1 for e in vals if not e <= oracle.ROOT_TOL),
            "solves": len(vals),
        }
        for key, vals in errs.items()
    }


def _fit_probe(runner, seed: int) -> dict:
    """Fit gate misses on generator-default diagonal models, per fit.

    fit_infinity_asymptotics and fit_puncture_asymptotics (first group) on
    PROBE_DATA diagonal models drawn at the generator defaults, judged by
    the gates of acceptance criteria 5 and 4; a raise or a timeout is a miss.
    """
    import numpy as np

    import oracle
    import workloads
    from nahmkit import fields, moduli, spectral

    rng = np.random.default_rng([seed, 5])
    missed = {"infinity": 0, "puncture": 0}
    for _ in range(PROBE_DATA):
        hd = moduli.random_higgs_data(rng=rng)
        field, truth = fields.model_field(hd)
        group = truth.inf_groups[0]
        ops = {
            "infinity": workloads.Op(
                "probe", lambda: spectral.fit_infinity_asymptotics(field),
                lambda fits: oracle.infinity_gate(fits, truth),
            ),
            "puncture": workloads.Op(
                "probe", lambda: spectral.fit_puncture_asymptotics(field, group.xi),
                lambda fits: oracle.puncture_gate(fits, group),
            ),
        }
        for key, op in ops.items():
            missed[key] += not runner.run(op).ok
    return missed


if __name__ == "__main__":
    sys.exit(main())
