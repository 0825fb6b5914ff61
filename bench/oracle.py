"""Correctness oracles the benchmark gates every timed operation on.

Only numpy is used here: the oracles must neither share code with the
solver they judge nor pull extra modules (such as scipy.optimize) into the
measured set-up.

* ``diagonal_roots``: closed-form spectral points of the diagonal model.
  For A = diag(a_k) and C_j = diag(lambda_k^j), det(theta - xi/2) splits
  into one scalar rational function per coordinate k; its zeros are the
  roots of (a_k - xi)/2 prod_{j in J_k}(z - p_j)
  + sum_{j in J_k} lambda_k^j prod_{i in J_k, i != j}(z - p_i), with
  J_k = {j : lambda_k^j != 0}, polished by Newton steps on the rational
  function itself.
* ``infinity_gate`` / ``puncture_gate``: the gates of acceptance criteria
  5 and 4 (branch partition by puncture and (p, lambda) to 1e-3; branch
  count and residues 2*lambda^inf to 1e-3).
"""
from __future__ import annotations

import numpy as np

# relative root error that separates a correct solve from a wrong one:
# numpy's scalar-root error here is ~1e-15, the known solver defect 1e-3..50
ROOT_TOL = 1e-8
FIT_TOL = 1e-3
# residue eigenvalues below this are exact zeros of the generator's data
ZERO_RESIDUE = 1e-9
NEWTON_STEPS = 4


def diagonal_roots(a_diag, lams, punctures, xi: complex) -> np.ndarray:
    """Closed-form spectral points of the diagonal model at xi.

    a_diag[k] is the k-th diagonal entry of A, lams[j][k] the k-th diagonal
    entry of C_j and punctures[j] the position p_j.
    """
    xi = complex(xi)
    out = []
    for k, a in enumerate(a_diag):
        ps = [complex(p) for j, p in enumerate(punctures) if lams[j][k] != 0]
        ls = [complex(lams[j][k]) for j in range(len(punctures)) if lams[j][k] != 0]
        if not ps:
            continue
        lead = (complex(a) - xi) / 2
        poly = lead * np.poly(ps)
        for j in range(len(ps)):
            poly = poly + np.concatenate([[0], ls[j] * np.atleast_1d(np.poly(ps[:j] + ps[j + 1 :]))])
        for z in np.roots(poly):
            out.append(_polish(complex(z), lead, ps, ls))
    return np.array(out, dtype=complex)


def _polish(z: complex, lead: complex, ps, ls) -> complex:
    """Newton on g(z) = lead + sum_j l_j / (z - p_j), keeping the best iterate."""
    def g(w):
        return lead + sum(l / (w - p) for l, p in zip(ls, ps))

    best, best_val = z, abs(g(z))
    for _ in range(NEWTON_STEPS):
        dg = -sum(l / (best - p) ** 2 for l, p in zip(ls, ps))
        if dg == 0:
            break
        cand = best - g(best) / dg
        val = abs(g(cand))
        if not val < best_val:
            break
        best, best_val = cand, val
    return best


def diagonal_model(hd):
    """(a_diag, lams, punctures) of the diagonal realization of a Higgs datum."""
    a_diag = [g.xi for g in hd.inf_groups for _ in g.entries]
    lams = [[e.value for e in lp.entries] for lp in hd.log_points]
    punctures = [lp.position for lp in hd.log_points]
    return a_diag, lams, punctures


def match_error(got, want, relative: bool = False) -> float:
    """Worst distance of a pairing of two multisets; infinite on a size mismatch.

    With ``relative`` each distance is divided by max(1, |want|).  Pairs are
    taken greedily in order of increasing distance, which finds the best
    pairing here: distinct wanted values lie far further apart than the
    tolerances they are judged by.
    """
    got = np.asarray(got, dtype=complex).ravel()
    want = np.asarray(want, dtype=complex).ravel()
    if got.size != want.size or not np.all(np.isfinite(got)):
        return float("inf")
    dist = np.abs(got[:, None] - want[None, :])
    if relative:
        dist /= np.maximum(1.0, np.abs(want))[None, :]
    used_got, used_want = set(), set()
    worst = 0.0
    for flat in np.argsort(dist, axis=None):
        i, j = divmod(int(flat), want.size)
        if i not in used_got and j not in used_want:
            used_got.add(i)
            used_want.add(j)
            worst = max(worst, float(dist[i, j]))
            if len(used_got) == want.size:
                break
    return worst


def root_error(computed, exact) -> float:
    """Worst relative error |q - q*| / max(1, |q*|) of computed spectral points."""
    return match_error(computed, exact, relative=True)


def infinity_gate(fits, extracted) -> str:
    """Acceptance criterion 5 on fit_infinity_asymptotics output; '' when passed."""
    counts: dict[int, int] = {}
    for fit in fits:
        counts[fit.puncture_index] = counts.get(fit.puncture_index, 0) + 1
    want_counts = {
        j: extracted.rank - lp.reg_count
        for j, lp in enumerate(extracted.log_points)
        if extracted.rank - lp.reg_count
    }
    if counts != want_counts:
        return f"partition {counts} != {want_counts}"
    for j, lp in enumerate(extracted.log_points):
        mine = [fit for fit in fits if fit.puncture_index == j]
        if not mine:
            continue
        lam_err = match_error([f.lam_hat for f in mine], [e.value for e in lp.singular_entries])
        if not lam_err <= FIT_TOL:
            return f"lambda residual {lam_err:.2e} at puncture {j}"
        p_err = max(abs(f.p_hat - lp.position) for f in mine)
        if not p_err <= FIT_TOL:
            return f"p residual {p_err:.2e} at puncture {j}"
    return ""


def puncture_gate(fits, group) -> str:
    """Acceptance criterion 4 on fit_puncture_asymptotics output; '' when passed.

    One branch escapes per nonzero residue eigenvalue of the group, with
    q (xi - xi_l) -> 2 lambda^inf.  A diagonal model whose coordinate has
    no singular entry at any puncture has lambda^inf = 0 there and no
    escaping branch, so the count is of nonzero entries, not the
    multiplicity that criterion 4 uses on its conjugated realizations.
    """
    want = [2 * e.value for e in group.entries if abs(e.value) > ZERO_RESIDUE]
    if len(fits) != len(want):
        return f"branch count {len(fits)} != {len(want)}"
    # the estimate at the middle radius (1e-3) is the one criterion 4 gates
    err = match_error([f.estimates[len(f.estimates) // 2] for f in fits], want)
    if not err <= FIT_TOL:
        return f"residue residual {err:.2e}"
    return ""
