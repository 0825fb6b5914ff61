"""One-off gate check over random_higgs_data(seed=0..39) diagonal models.

Not a timed configuration: every fit runs to completion (no deadline), so
a full run takes a minute or more.  It counts

* fit_infinity_asymptotics and fit_puncture_asymptotics (first group)
  failures under the acceptance-criterion gates, over 40 seeds;
* single spectral_points solves at xi = R e^{0.37i}, R in {1, 1e2, 1e3},
  that miss the closed-form roots of the diagonal model, over 20 seeds.

Run from the repository root:  python3 bench/defect_check.py
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from nahmkit import fields, moduli, spectral  # noqa: E402

DIRECTION = np.exp(0.37j)
FIT_SEEDS = 40
SOLVE_SEEDS = 20


def _fit_failures() -> dict:
    out = {"fit_infinity": [], "fit_puncture": [], "seconds": 0.0}
    start = time.perf_counter()
    for s in range(FIT_SEEDS):
        hd = moduli.random_higgs_data(seed=s)
        field, extracted = fields.model_field(hd)
        try:
            why = oracle.infinity_gate(spectral.fit_infinity_asymptotics(field), extracted)
        except Exception as exc:  # the gate counts any raise as a failure
            why = f"{type(exc).__name__}: {exc}"
        if why:
            out["fit_infinity"].append((s, why))
        group = extracted.inf_groups[0]
        try:
            why = oracle.puncture_gate(spectral.fit_puncture_asymptotics(field, group.xi), group)
        except Exception as exc:
            why = f"{type(exc).__name__}: {exc}"
        if why:
            out["fit_puncture"].append((s, why))
    out["seconds"] = time.perf_counter() - start
    return out


def _solve_errors() -> dict:
    out = {}
    for radius in (1.0, 1e2, 1e3):
        xi = radius * DIRECTION
        wrong = []
        worst = 0.0
        for s in range(SOLVE_SEEDS):
            hd = moduli.random_higgs_data(seed=s)
            field, _ = fields.model_field(hd)
            exact = oracle.diagonal_roots(*oracle.diagonal_model(hd), xi)
            try:
                err = oracle.root_error(spectral.spectral_points(field, xi).points, exact)
            except Exception:
                err = float("inf")
            worst = max(worst, err)
            if not err <= oracle.ROOT_TOL:
                wrong.append((s, err))
        out[f"{radius:g}"] = {"wrong": wrong, "worst_rel_err": worst}
    return out


def main() -> int:
    solves = _solve_errors()
    for radius, rec in solves.items():
        print(
            f"|xi|={radius}: {len(rec['wrong'])}/{SOLVE_SEEDS} solves off the closed form "
            f"(worst relative error {rec['worst_rel_err']:.3g}); seeds {[s for s, _ in rec['wrong']]}"
        )
    fits = _fit_failures()
    for name in ("fit_infinity", "fit_puncture"):
        print(f"{name}: {len(fits[name])}/{FIT_SEEDS} fail the gate; seeds {[s for s, _ in fits[name]]}")
    print(f"fits took {fits['seconds']:.1f} s")
    print(json.dumps({"solves": solves, "fits": fits}, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
