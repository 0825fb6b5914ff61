"""Spectral sets, branch tracking, asymptotic fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.polynomial import polyadd, polyfromroots, polyroots

from nahmkit.fields import ExplicitHiggsField, extract_data, model_field, random_field
from nahmkit.moduli import HiggsData, InfinityGroup, LogPoint, WeightedEigen, random_higgs_data
from nahmkit.numkernel import cokernel_basis, multiset_match
from nahmkit.spectral import (
    NonGenericError,
    SpectralError,
    _StepRejected,
    _unambiguous_match,
    char_poly_at,
    fit_infinity_asymptotics,
    fit_puncture_asymptotics,
    reducedness_probe,
    spectral_points,
    track_branches,
    transformed_eigenvalue_samples,
)


def _scalar_field(lam=1.0, a=0.0, p=0.0):
    return ExplicitHiggsField(
        np.array([a], dtype=complex),
        np.array([p], dtype=complex),
        np.array([[[lam]]], dtype=complex),
    )


def _diag_field(a_entries, residue_diags, punctures):
    residues = np.array([np.diag(d) for d in residue_diags], dtype=complex)
    return ExplicitHiggsField(
        np.asarray(a_entries, dtype=complex), np.asarray(punctures, dtype=complex), residues
    )


def _diagonal_roots(field, xi):
    """Closed-form spectral points of a field with diagonal A and C_j.

    Coordinate k contributes the zeros of the scalar function
    (a_k - xi)/2 + sum_{j: lam_kj != 0} lam_kj/(z - p_j): the roots of its
    cleared numerator, Newton-polished on the function itself.
    """
    out = []
    for k, a in enumerate(field.a_diag):
        lead = (a - xi) / 2
        lams = field.residues[:, k, k]
        ps, ls = field.punctures[lams != 0], lams[lams != 0]
        numerator = lead * polyfromroots(ps)
        for j in range(ps.size):
            numerator = polyadd(numerator, ls[j] * polyfromroots(np.delete(ps, j)))
        for z in polyroots(numerator):
            for _ in range(8):
                f = lead + np.sum(ls / (z - ps))
                if f == 0:
                    break
                z = z + f / np.sum(ls / (z - ps) ** 2)
            out.append(z)
    return np.array(out)


class TestCharPoly:
    def test_scalar_closed_form(self):
        # lam/z deformed by xi=2: root q = 2*lam/xi = 1
        poly = char_poly_at(_scalar_field(lam=1.0), 2.0)
        roots = polyroots(poly)
        assert multiset_match(roots, [1.0], 1e-10).ok

    def test_diagonal_entries_give_entrywise_roots(self):
        f = _diag_field([0.0, 0.0], [[0.4, -0.7]], [0.0])
        roots = polyroots(char_poly_at(f, 2.0))
        assert multiset_match(roots, [0.4, -0.7], 1e-10).ok

    def test_nonzero_leading_eigenvalue(self):
        # A = diag(xi_1): root 2*lam/(xi - xi_1)
        f = _scalar_field(lam=0.3, a=1.5)
        xi = 2.5
        roots = polyroots(char_poly_at(f, xi))
        assert multiset_match(roots, [2 * 0.3 / (xi - 1.5)], 1e-10).ok

    def test_puncture_of_the_transform_rejected(self):
        with pytest.raises(SpectralError, match="puncture of the transform"):
            char_poly_at(_scalar_field(a=1.5), 1.5)

    def test_degree_is_r_hat(self, rng):
        for _ in range(10):
            r = int(rng.integers(1, 4))
            ranks = [int(rng.integers(0, r)), int(rng.integers(0, r))]
            f = random_field(r, [0.0, 1.0], ranks, seed=int(rng.integers(0, 2**32)))
            xi = complex(rng.uniform(2.5, 4), rng.uniform(2.5, 4))
            poly = char_poly_at(f, xi)
            assert len(poly) - 1 == sum(r - rj for rj in ranks)


class TestSpectralPoints:
    def test_t1_diagonal_model(self, t1):
        field, _ = model_field(t1)
        s = spectral_points(field, 0.5 + 0.3j)
        assert len(s.points) == 2
        assert s.coker_dims == (1, 1)
        assert s.total_coker_dim == t1.r_hat

    def test_rank_one_always_single_point(self, rng):
        f = _scalar_field(lam=0.7, a=0.2)
        for _ in range(20):
            xi = complex(rng.uniform(1, 3), rng.uniform(1, 3))
            assert len(spectral_points(f, xi).points) == 1

    @pytest.mark.parametrize("radius", [1.0, 1e2, 1e3])
    @pytest.mark.parametrize("seed", range(20))
    def test_diagonal_model_closed_form(self, seed, radius):
        # at large |xi| the r - r_j points cluster within ~1/|xi| of each p_j
        field, _ = model_field(random_higgs_data(seed=seed))
        xi = radius * np.exp(0.37j)
        got = spectral_points(field, xi).points
        want = _diagonal_roots(field, xi)
        pairs = multiset_match(got, want, np.inf).pairs
        for i, j in pairs:
            assert abs(got[i] - want[j]) <= 1e-8 * max(1.0, abs(want[j])), (got[i], want[j])

    def test_point_on_a_puncture_is_non_generic(self):
        # coordinate 0 has its point at 2*0.5/xi = 1 = p_1, where coordinate 1 has a pole
        f = _diag_field([0.0, 0.0], [[0.5, 0.0], [0.0, 0.3]], [0.0, 1.0])
        with pytest.raises(NonGenericError, match="lies on the puncture"):
            spectral_points(f, 1.0)

    def test_collision_gives_multiple_root(self):
        # equal residues on both coordinates: the two branches coincide
        f = _diag_field([0.0, 0.0], [[0.4, 0.4]], [0.0])
        s = spectral_points(f, 2.0)
        assert len(s.points) == 2
        assert abs(s.points[0] - s.points[1]) < 1e-6


class TestCokernelDims:
    @staticmethod
    def _per_root_dims(field, xi, points, tol=1e-8):
        ref = max(field.scale(), abs(xi) / 2)
        return tuple(
            cokernel_basis(field.matrix_at(q) - (xi / 2) * np.eye(field.rank), tol, scale=ref).shape[1]
            for q in points
        )

    @pytest.mark.parametrize("r", range(1, 9))
    def test_stacked_dims_match_per_root_bases(self, r, rng):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            ranks = [int(rng.integers(0, r)) for _ in range(n)]
            punctures = np.arange(n) * (0.9 - 0.6j)
            f = random_field(r, punctures, ranks, seed=int(rng.integers(0, 2**32)))
            xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * f.scale()
            s = spectral_points(f, xi)
            assert s.coker_dims == self._per_root_dims(f, xi, s.points)

    def test_two_dimensional_cokernel(self):
        # A = diag(a, a), C = diag(lam, lam): theta_xi vanishes at the double point
        f = _diag_field([0.5, 0.5], [[0.3 + 0.1j, 0.3 + 0.1j]], [0.2])
        xi = 2.0 - 1.0j
        s = spectral_points(f, xi)
        assert s.coker_dims == (2, 2)
        assert s.coker_dims == self._per_root_dims(f, xi, s.points)


def _loop_rival_check(cost):
    """The per-row loop that _unambiguous_match replaces: cols, or None on rejection."""
    cols = cost.argmin(axis=1)
    if np.unique(cols).size != cols.size:
        return None
    for i, j in enumerate(cols):
        rivals = np.concatenate([np.delete(cost[i, :], j), np.delete(cost[:, j], i)])
        if rivals.size and cost[i, j] > 0.5 * float(rivals.min()):
            return None
    return cols


class TestUnambiguousMatch:
    # small integer costs make ties, and exact factor-two margins, common
    @given(
        st.integers(1, 5).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.integers(0, 6).map(float))
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_same_verdict_as_the_loop(self, cost):
        want = _loop_rival_check(cost)
        before = cost.copy()
        try:
            got = _unambiguous_match(cost)
        except _StepRejected:
            got = None
        assert np.array_equal(cost, before)
        if want is None:
            assert got is None
        else:
            assert got is not None and np.array_equal(got, want)

    def test_empty_cost_matches_nothing(self):
        assert _unambiguous_match(np.zeros((0, 0))).size == 0


class TestTracking:
    def test_scalar_branch_is_closed_form(self):
        f = _scalar_field(lam=1.0)
        path = np.linspace(2, 4, 9)
        (branch,) = track_branches(f, path)
        for xi, q in branch.samples:
            assert abs(q - 2.0 / xi) < 1e-10

    def test_diagonal_branches_do_not_swap(self):
        f = _diag_field([0.0, 0.0], [[0.4, -0.7]], [0.0])
        path = [2.0 + 0.1j * t for t in range(5)]
        branches = track_branches(f, path)
        for br in branches:
            xi0, q0 = br.samples[0]
            lam = q0 * xi0 / 2
            for xi, q in br.samples:
                assert abs(q - 2 * lam / xi) < 1e-9

    def test_monodromy_around_branch_point(self):
        # conjugated 2x2 field; loop once around a zero of the discriminant
        a1, a2 = 1.0, -1.0
        c = np.array([[0.3, 0.5], [0.2, -0.4]], dtype=complex)
        f = ExplicitHiggsField(np.array([a1, a2], dtype=complex), np.array([0.0 + 0j]), c[None])
        # char poly in z: c2(xi) z^2 + c1(xi) z + c0, coefficients polynomial in xi
        half1 = np.array([a1 / 2, -0.5])  # (a1 - xi)/2, ascending in xi
        half2 = np.array([a2 / 2, -0.5])
        pm = np.polynomial.polynomial
        c2 = pm.polymul(half1, half2)
        c1 = half1 * c[1, 1] + half2 * c[0, 0]
        c0 = np.linalg.det(c)
        disc = pm.polysub(pm.polymul(c1, c1), 4 * c0 * c2)
        zeros = polyroots(disc)
        zeros = [z for z in zeros if min(abs(z - a1), abs(z - a2)) > 0.3]
        assert zeros, "no usable branch point in this configuration"
        center = min(zeros, key=abs)
        radius = 0.3 * min(
            [abs(center - z) for z in zeros if abs(z - center) > 1e-6]
            + [abs(center - a1), abs(center - a2)]
        )
        loop = [center + radius * np.exp(2j * np.pi * k / 24) for k in range(25)]
        branches = track_branches(f, loop)
        starts = [br.samples[0][1] for br in branches]
        ends = [br.samples[-1][1] for br in branches]
        # the sheets come back permuted nontrivially
        assert abs(ends[0] - starts[1]) < 1e-6 and abs(ends[1] - starts[0]) < 1e-6
        assert abs(ends[0] - starts[0]) > 1e-3

    def test_no_spectral_points_gives_no_branches(self):
        # all residues zero: r_hat = 0 and every sample is empty
        f = ExplicitHiggsField([0.5], [0], np.zeros((1, 1, 1)))
        assert spectral_points(f, 1 + 1j).points == ()
        assert track_branches(f, [1 + 1j, 2 + 1j]) == []


class TestPunctureAsymptotics:
    def test_scalar_exact(self):
        f = _scalar_field(lam=0.4 - 0.2j, a=1.5 + 0.5j)
        (fit,) = fit_puncture_asymptotics(f, 1.5 + 0.5j)
        for est in fit.estimates:
            assert abs(est - 2 * (0.4 - 0.2j)) <= 1e-10

    def test_diagonal_group_of_two(self):
        # both coordinates of the xi=1 group escape, with residues 2*lam_k
        f = _diag_field([1.0, 1.0, -1.0], [[0.3, -0.5, 0.2]], [0.0])
        fits = fit_puncture_asymptotics(f, 1.0)
        assert len(fits) == 2
        got = [fit.residue for fit in fits]
        assert multiset_match(got, [0.6, -1.0], 1e-8).ok

    def test_conjugated_field_matches_extraction(self):
        f = random_field(3, [0.0, 1.0 + 0.5j], [1, 2], seed=11)
        hd = extract_data(f)
        for g in hd.inf_groups:
            fits = fit_puncture_asymptotics(f, g.xi)
            assert len(fits) == g.multiplicity
            got = [fit.residue for fit in fits]
            want = [2 * e.value for e in g.entries]
            res = multiset_match(got, want, 1e-3)
            assert res.ok, res.max_distance

    def test_estimates_improve_inward(self):
        f = random_field(2, [0.3], [0], seed=4)
        hd = extract_data(f)
        g = hd.inf_groups[0]
        fits = fit_puncture_asymptotics(f, g.xi)
        for fit in fits:
            errs = [
                min(abs(est - 2 * e.value) for e in g.entries) for est in fit.estimates
            ]
            assert errs[0] >= errs[1] >= errs[2]


class TestInfinityAsymptotics:
    def test_scalar_exact(self):
        f = _scalar_field(lam=0.5)
        (fit,) = fit_infinity_asymptotics(f)
        assert abs(fit.p_hat) <= 1e-10
        assert abs(fit.lam_hat - 0.5) <= 1e-10

    def test_diagonal_single_puncture_exact(self):
        f = _diag_field([0.0, 0.0], [[0.4, -0.7 + 0.2j]], [1.0 - 0.5j])
        fits = fit_infinity_asymptotics(f)
        got = [fit.lam_hat for fit in fits]
        assert multiset_match(got, [0.4, -0.7 + 0.2j], 1e-10).ok
        assert all(abs(fit.p_hat - (1.0 - 0.5j)) <= 1e-10 for fit in fits)

    def test_branch_partition_sizes(self):
        f = random_field(3, [0.0, 1.0 + 0.5j], [1, 2], seed=11)
        fits = fit_infinity_asymptotics(f)
        counts = {}
        for fit in fits:
            counts[fit.puncture_index] = counts.get(fit.puncture_index, 0) + 1
        assert counts == {0: 2, 1: 1}

    def test_conjugated_matches_extraction(self):
        f = random_field(3, [0.0, 1.0 + 0.5j], [1, 2], seed=11)
        hd = extract_data(f)
        fits = fit_infinity_asymptotics(f)
        for j, lp in enumerate(hd.log_points):
            got = [fit.lam_hat for fit in fits if fit.puncture_index == j]
            want = [e.value for e in lp.singular_entries]
            res = multiset_match(got, want, 1e-3)
            assert res.ok, res.max_distance


class TestTransformedSamples:
    def test_scalar(self):
        got = transformed_eigenvalue_samples(_scalar_field(lam=1.0), 2.0)
        assert multiset_match(got, [-0.5], 1e-10).ok

    def test_residue_near_group(self):
        # eigenvalue ~ -lam_inf/(xi - xi_l) near xi_l
        f = _diag_field([1.0, -1.0], [[0.3, 0.2]], [0.0])
        xi_l = 1.0
        rho = 1e-6
        xi = xi_l + rho
        samples = transformed_eigenvalue_samples(f, xi)
        big = max(samples, key=abs)
        assert abs(big * (xi - xi_l) - (-0.3)) < 1e-4


class TestReducedness:
    def test_diagonal_model_fully_reduced(self, t1):
        field, _ = model_field(t1)
        assert reducedness_probe(field, 200, seed=7) == 1.0

    def test_persistent_multiplicity_detected(self):
        f = _diag_field([0.0, 0.0], [[0.4, 0.4]], [0.0])
        assert reducedness_probe(f, 100, seed=7) == 0.0

    def test_rank_one(self):
        assert reducedness_probe(_scalar_field(lam=0.7, a=0.2), 100, seed=7) == 1.0

    def test_no_spectral_points_counts_as_simple(self):
        f = ExplicitHiggsField([0.5], [0], np.zeros((1, 1, 1)))
        assert reducedness_probe(f, 50, seed=7) == 1.0
