"""nahmkit benchmark: end-to-end timings gated on correctness, plus a layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload scan-around --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 1

Workloads (closed loop, one client, one op at a time; see workloads.py):
verify-corpus, scan-around, or ``all`` to run both in turn.

With ``--trace 0`` set-up (interpreter start until the first op can be
issued) is measured on SETUP_STARTS fresh processes: the one that runs the
closed loop for ``--seconds``, and probes that stop once set up, half started
before it and half after.  With ``--trace 1`` one process runs the loop
untraced for half the time, then the same ops again with per-layer spans
installed, then the defect probes on generator-default data (closed-form
solves and fit gates; see worker.py).

A human-readable report goes to stdout; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Every op runs under a
per-workload deadline (DEADLINE_S); a raise, a timeout or a missed gate is a
failed op, and a run with a failed op is not correct.
Spans of a traced run are written to .bench-out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-corpus", "scan-around")
# Per-op deadlines, well above the slowest successful op: 0.61 s for
# scan-around (all ops of seeds 0-39 on a 2-core VM) and about 1 s per
# verify-corpus op.  They only stop a hang: every op passes today, and a timed-out op
# fails the run.
DEADLINE_S = {"verify-corpus": 10.0, "scan-around": 5.0}
# set-up probes spread over the run, so that their median covers the host's
# speed over the whole run rather than over the few seconds before it
SETUP_STARTS = 9
TAIL_BEYOND = 10

# metrics in the JSON result; op_tail_ms and fail_frac are printed in the
# report only (see bench/README.md: the tail is not steady from seed to
# seed, and fail_frac is 0 on a sound program, which `correct` checks)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # matrices are at most 13x13: BLAS threads only add contention
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def _start(args, workdir, procs: list, setup_only: bool, importtime: bool = False):
    """Start one worker (recorded in procs); return (set-up seconds, process, stderr path)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--deadline", str(DEADLINE_S[args.workload]),
        "--workdir", workdir,
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=_env(), cwd=ROOT)
    procs.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        _reap(proc)
        raise WorkerError(f"worker did not finish set-up:\n{_tail(err_path)}")
    return setup, proc, err_path


def _reap(proc, timeout: float = 30.0) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        raise WorkerError("worker overran its time budget and was killed") from None
    return out


def _tail(path: str, lines: int = 20) -> str:
    with open(path) as fh:
        return "".join(fh.readlines()[-lines:])


def _finish(proc, err_path, budget: float) -> dict:
    out = _reap(proc, budget)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{_tail(err_path)}")
    return json.loads(out.strip().splitlines()[-1])


def _tail_latency(lat: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND ops beyond it, and its value."""
    ordered = sorted(lat)
    n = len(ordered)
    if n <= TAIL_BEYOND:  # too few ops for any such percentile: report the maximum
        return 100.0, ordered[-1]
    k = n - TAIL_BEYOND - 1
    return 100.0 * k / n, ordered[k]


def _end_to_end(setups, raw) -> tuple[dict, dict]:
    u = raw["untraced"]
    lat = u["latency_s"]
    n = len(lat)
    ok = sum(u["ok"])
    pct, tail = _tail_latency(lat)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / u["wall_s"],
        "op_p50_ms": 1e3 * statistics.median(lat),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    info = {
        "op_tail_ms": 1e3 * tail,
        "op_tail_percentile": round(pct, 2),
        "ops": n,
        "fail_frac": (n - ok) / n,
        "timeouts": sum(u["timed_out"]),
        "setup_starts_s": setups,
        "failure_reasons": u["reasons"],
    }
    return values, info


def _import_times(err_path: str) -> dict:
    """Cumulative -X importtime of the nahmkit package and of scipy.optimize, in ms."""
    found = {"import.nahmkit_ms": 0.0, "import.scipy_optimize_ms": 0.0}
    names = {"nahmkit": "import.nahmkit_ms", "scipy.optimize": "import.scipy_optimize_ms"}
    with open(err_path) as fh:
        for line in fh:
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line[len("import time:"):].split("|")
            key = names.get(module.strip())
            if key is not None and cumulative.strip().isdigit():
                found[key] = max(found[key], int(cumulative) / 1e3)
    return found


def _layers(raw) -> dict:
    import tracer  # only the layer names; nothing is installed here

    n = len(raw["traced"]["latency_s"])
    totals = raw["layers"]
    out = {}
    for name, *_ in tracer.TARGETS:
        calls, self_ns, raised = totals.get(name, (0, 0, 0))
        out[f"{name}.calls"] = (calls / n, "1/op")
        out[f"{name}.self_ms"] = (self_ns / 1e6 / n, "ms/op")
        if name in (tracer.SOLVE, tracer.TRACK):
            out[f"{name}.raised"] = (raised / n, "1/op")
    nodes = totals.get("#nodes", (0, 0, 0))[0]
    solves = totals.get("#track_solves", (0, 0, 0))[0]
    out["spectral.track.nodes"] = (nodes / n, "1/op")
    out["spectral.track.nodes_per_solve"] = (nodes / solves if solves else 0.0, "1")
    for key, rec in raw["oracle"].items():
        out[f"spectral.oracle_err_max.{key}"] = (rec["err_max"], "rel")
        out[f"spectral.oracle_wrong.{key}"] = (float(rec["wrong"]), "count")
    for key, missed in raw["fit_gates"].items():
        out[f"spectral.fit_gate_missed.{key}"] = (float(missed), "count")
    out["trace.overhead_frac"] = (raw["traced"]["wall_s"] / raw["untraced"]["wall_s"] - 1.0, "1")
    return out


def run_one(args) -> dict:
    """Measure one workload; returns the result object."""
    workdir = os.path.join(ROOT, ".bench-out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # the traced loop runs the untraced ops again; the whole run stays well under 180 s
    budget = 2 * args.seconds + 60
    procs: list = []
    try:
        if args.trace:
            _, proc, err_path = _start(args, workdir, procs, setup_only=False, importtime=True)
            raw = _finish(proc, err_path, budget)
            layers = _layers(raw)
            layers.update({k: (v, "ms") for k, v in _import_times(err_path).items()})
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
            info = {"absent_layers": raw["absent"], "oracle_probe": raw["oracle"]}
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(ROOT, ".bench-out", f"spans-{args.workload}-{args.seed}.json"))
        else:
            setups = [_setup_probe(args, workdir, procs) for _ in range(SETUP_STARTS // 2)]
            setup, proc, err_path = _start(args, workdir, procs, setup_only=False)
            setups.append(setup)
            raw = _finish(proc, err_path, budget)
            setups += [_setup_probe(args, workdir, procs) for _ in range(SETUP_STARTS - len(setups))]
            values, info = _end_to_end(setups, raw)
            metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    finally:
        for proc in procs:  # only reached alive when the parent itself is interrupted
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    u = raw["untraced"]
    attempted = len(u["ok"])
    failed = attempted - sum(u["ok"])
    return {
        "info": {"workload": args.workload, **info, **_environment(args)},
        "result": {
            "correct": _correct(failed),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _setup_probe(args, workdir, procs) -> float:
    """Set-up seconds of one fresh process that stops once it is ready."""
    setup, proc, err_path = _start(args, workdir, procs, setup_only=True)
    _reap(proc)
    if proc.returncode != 0:
        raise WorkerError(f"set-up probe exited {proc.returncode}:\n{_tail(err_path)}")
    return setup


def _correct(failed: int) -> bool:
    """The oracle passes its own check, and no op failed."""
    return _oracle_self_check() and failed == 0


def _oracle_self_check() -> bool:
    """The oracle must reproduce a known closed form before it may judge ops."""
    import oracle

    # rank 1, one puncture: (a - xi)/2 + lam/(z - p) = 0  =>  z = p - 2 lam / (a - xi)
    a, lam, p, xi = 0.7 - 0.2j, 0.4 + 0.9j, 0.3 + 0.1j, 5.0 + 2.0j
    exact = p - 2 * lam / (a - xi)
    roots = oracle.diagonal_roots([a], [[lam]], [p], xi)
    return oracle.root_error(roots, [exact]) <= 1e-12 and oracle.root_error([exact + 1e-6], [exact]) > oracle.ROOT_TOL


def _environment(args) -> dict:
    import importlib.metadata as md

    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = None
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": DEADLINE_S[args.workload],
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "units": "latencies per op in ms; per-layer counts and self times per traced op",
    }


def _report(run: dict) -> None:
    info, res = run["info"], run["result"]
    print(f"== {info['workload']}  seed {info['seed']}  attempted {res['attempted']}  failed {res['failed']}")
    if "fail_frac" in info:
        print(f"   op_tail_ms {info['op_tail_ms']:.6g} ms  (p{info['op_tail_percentile']} of {info['ops']} ops)")
        print(f"   fail_frac {info['fail_frac']:.4f} 1  (timeouts {info['timeouts']})")
    for name, m in res["metrics"].items():
        print(f"   {name} {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps(info, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nahmkit benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nahmkit", "cli.py")):
        print(f"error: no nahmkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    # a terminated run still stops and reaps its workers (see run_one)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_one(argparse.Namespace(**{**vars(args), "workload": name})) for name in names]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        _report(run)
    if len(runs) == 1:
        print(json.dumps(runs[0]["result"]))
    else:
        print(json.dumps({run["info"]["workload"]: run["result"] for run in runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
