"""The benchmark's workloads: corpus construction from a seed, and gated ops.

An op is a zero-argument ``run`` that calls the program and returns its
output, and a ``check`` that returns '' when that output passed its gate
and a one-line reason otherwise; only ``run`` is timed.  Ops look the
program's functions up at call time, so the tracer's wrappers see them.

* verify-corpus: ``nahmkit verify --count 200 --seed s_i`` in-process;
  gate: exit code 0.
* scan-around: ``nahmkit spectral-scan SPEC --around l`` with default radii,
  for every infinity group l of specs written in diagonal and random
  realization; gates: exit code, rows = nodes x r_hat with every branch at
  every node, cokernel dimensions summing to r_hat at each node and, on a
  diagonal spec, every q at the closed-form roots.

Every op of these workloads passes its gate on the current program, and a
failed op makes the run incorrect (see run.py).  scan-around therefore
draws its data at the ranks of acceptance criteria 4-6 (SCAN_RANKS).  The
asymptotic fits are no timed workload: they miss their gates on a share of
the data at any ranks (the known large-|xi| defect), which the traced run
counts instead (worker.py, the defect probes).
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("verify-corpus", "scan-around")
VERIFY_COUNT = 200
# corpus sizes: ops per verify-corpus run, data per scan-around corpus (each
# run cycles through its corpus if it gets to the end)
VERIFY_OPS = 64
SCAN_DATA = 160
# generator ranks of scan-around, those of acceptance criteria 4-6, at which
# every scan-around op of seeds 0-39 passed.  At the defaults (max_rank=5,
# max_punctures=4) 3-5% of them fail.
SCAN_RANKS = {"max_rank": 3, "max_punctures": 2}


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


def run_cli(nahmkit_cli, args) -> tuple[int, str]:
    """Invoke the click entry point in-process; (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        nahmkit_cli.main.main(args=args, prog_name="nahmkit", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def build(name: str, seed: int, spec_dir: str) -> list[Op]:
    """The op sequence of one workload; the same seed gives the same inputs."""
    from nahmkit import cli as nahmkit_cli

    if name == "verify-corpus":
        return _verify_ops(nahmkit_cli, seed)
    if name == "scan-around":
        return _scan_ops(nahmkit_cli, seed, spec_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


# one fixed structural sample shared by every seed (see corpus())
SKELETON_SEED = 20240817


class _SplitRng:
    """Generator whose integer draws come from one stream and all others from another.

    random_higgs_data draws a datum's structure (rank, punctures, regular
    counts, group multiplicities, degree) with ``integers`` and its values
    (positions, eigenvalues, weights, group leading terms) with ``uniform``.
    The two streams are independent, so each datum keeps exactly the
    generator's distribution.
    """

    def __init__(self, structure, values):
        self._structure = structure
        self._values = values

    def integers(self, *args, **kwargs):
        return self._structure.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._values, name)


def corpus(seed: int, stream: int, n_data: int) -> list:
    """n_data data at SCAN_RANKS: a fixed structure sequence, values from the seed.

    Every seed gets the same sequence of shapes (ranks, puncture counts,
    regular counts, multiplicities), drawn once from SKELETON_SEED, with
    every continuous value drawn from the seed.  Failing data are never
    filtered.  Sharing the shapes keeps the cost mix of a run from moving
    with the seed, which it otherwise does by tens of percent.
    """
    from nahmkit import moduli

    rng = _SplitRng(np.random.default_rng([SKELETON_SEED, stream]), np.random.default_rng([seed, stream]))
    return [moduli.random_higgs_data(rng=rng, **SCAN_RANKS) for _ in range(n_data)]


# ---------------------------------------------------------------------------
# verify-corpus


def _verify_ops(nahmkit_cli, seed):
    rng = np.random.default_rng([seed, 1])

    def op(s):
        args = ["verify", "--count", str(VERIFY_COUNT), "--seed", str(s)]
        return Op(
            "verify",
            lambda: run_cli(nahmkit_cli, args),
            lambda out: "" if out[0] == 0 else f"verify --seed {s} exited {out[0]}",
        )

    return [op(int(s)) for s in rng.integers(0, 2**31, size=VERIFY_OPS)]


# ---------------------------------------------------------------------------
# scan-around


def _scan_ops(nahmkit_cli, seed, spec_dir):
    from nahmkit import serialize

    rng = np.random.default_rng([seed, 2, 1])
    os.makedirs(spec_dir, exist_ok=True)
    ops = []
    for i, hd in enumerate(corpus(seed, 2, SCAN_DATA)):
        model = oracle.diagonal_model(hd)
        for mode in ("diagonal", "random"):
            spec = serialize.data_to_dict(hd)
            spec["realization"] = {"mode": mode, "seed": int(rng.integers(0, 2**31))}
            path = os.path.join(spec_dir, f"{i:03d}-{mode}.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            for l in range(len(hd.inf_groups)):
                ops.append(_scan_op(nahmkit_cli, path, l, hd.r_hat, model if mode == "diagonal" else None))
    return ops


def _scan_op(nahmkit_cli, path, around, r_hat, model):
    def check(out):
        code, text = out
        return scan_gate(text, r_hat, model) if code == 0 else f"spectral-scan exited {code}"

    return Op("scan", lambda: run_cli(nahmkit_cli, ["spectral-scan", path, "--around", str(around)]), check)


def scan_gate(text: str, r_hat: int, model=None) -> str:
    """Structural and (diagonal model) closed-form checks on spectral-scan CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["xi_re", "xi_im", "branch", "q_re", "q_im", "coker_dim"]:
        return "missing CSV header"
    nodes: dict[tuple[str, str], list[tuple[int, complex, int]]] = {}
    for row in rows[1:]:
        nodes.setdefault((row[0], row[1]), []).append(
            (int(row[2]), complex(float(row[3]), float(row[4])), int(row[5]))
        )
    if not nodes or len(rows) - 1 != len(nodes) * r_hat:
        return f"{len(rows) - 1} rows for {len(nodes)} nodes x r_hat {r_hat}"
    for (xr, xim), samples in nodes.items():
        if sorted(b for b, _, _ in samples) != list(range(r_hat)):
            return f"branch labels at xi={xr},{xim} are not 0..{r_hat - 1}"
        if sum(d for _, _, d in samples) != r_hat:
            return f"cokernel dimensions at xi={xr},{xim} sum to {sum(d for _, _, d in samples)}"
        if model is not None:
            xi = complex(float(xr), float(xim))
            err = oracle.root_error([q for _, q, _ in samples], oracle.diagonal_roots(*model, xi))
            if not err <= oracle.ROOT_TOL:
                return f"q off the closed form by {err:.2e} (relative) at xi={xi}"
    return ""
