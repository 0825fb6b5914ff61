"""Spectral sets, branch tracking, asymptotic fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.polynomial import polyadd, polyfromroots, polyroots

from nahmkit import spectral
from nahmkit.fields import ExplicitHiggsField, extract_data, model_field, random_field
from nahmkit.moduli import random_higgs_data
from nahmkit.numkernel import cokernel_basis, multiset_match
from nahmkit.spectral import (
    DIRECTION,
    NonGenericError,
    SpectralError,
    _schur_roots,
    _StepRejected,
    _unambiguous_match,
    approach_path,
    char_poly_at,
    fit_infinity_asymptotics,
    fit_puncture_asymptotics,
    points_simple,
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


def _default_rank_field(seed):
    """random_field at the generator's default ranks: r <= 5, at most 4 punctures."""
    rng = np.random.default_rng(seed)
    r, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    punctures = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return random_field(r, punctures, rng.integers(0, r, n).tolist(), seed=seed)


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

    def test_batched_puncture_of_the_transform_names_the_node(self):
        with pytest.raises(SpectralError) as exc:
            _schur_roots(_scalar_field(a=0.5), np.array([1.0, 0.5, 2.5]))
        assert str(exc.value) == "xi=(0.5+0j) is a puncture of the transform"

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

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
            lambda kn: arrays(np.float64, (kn[0], kn[1], kn[1]), elements=st.integers(0, 6).map(float))
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_stack_is_the_rule_per_slice(self, costs):
        got = _unambiguous_match(costs)
        assert got.shape == costs.shape[:-1]
        for cost, cols in zip(costs, got):
            try:
                want = _unambiguous_match(cost)
            except _StepRejected:
                want = np.full(cost.shape[0], -1)
            assert np.array_equal(cols, want)

    def test_stack_with_one_rejected_slice(self):
        ok = np.array([[0.0, 5.0], [5.0, 1.0]])
        tied = np.array([[1.0, 1.0], [5.0, 1.0]])  # row 0 has no unambiguous nearest column
        got = _unambiguous_match(np.array([ok, tied, ok.T[::-1]]))
        assert got.tolist() == [[0, 1], [-1, -1], [1, 0]]

    def test_empty_stack_matches_nothing(self):
        assert _unambiguous_match(np.zeros((3, 0, 0))).shape == (3, 0)


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

    @pytest.mark.parametrize("seed", range(20))
    def test_tracked_point_is_the_solve_at_its_node(self, seed):
        a = -2.4368424793545906 - 2.8299151408679624j
        b = 2.0145906235192186 - 0.40339759256967955j
        assert a + (b - a) != b
        f = random_field(3, [0.3, -0.5 + 0.2j], [1, 0], seed=seed)
        ends = [br.samples[-1][1] for br in track_branches(f, [a, b])]
        assert sorted(ends, key=lambda q: (q.real, q.imag)) == list(spectral_points(f, b).points)

    def test_every_node_is_the_solve_at_it(self, monkeypatch):
        fallbacks = []
        advance = spectral._advance_segment
        monkeypatch.setattr(spectral, "_advance_segment", lambda *args: fallbacks.append(args) or advance(*args))
        for seed in range(10):
            f = _default_rank_field(seed)
            path = 2 * f.scale() * np.exp(1j * np.linspace(0, np.pi, 9))
            branches = track_branches(f, path)
            for j, xi in enumerate(path):
                s = spectral_points(f, xi)
                got = sorted(((br.samples[j][1], br.coker_dims[j]) for br in branches), key=lambda t: (t[0].real, t[0].imag))
                assert got == list(zip(s.points, s.coker_dims))
        assert fallbacks

    def test_accepted_path_is_one_solve_and_one_svd(self, monkeypatch):
        f = _default_rank_field(2)
        path = 2 * f.scale() * np.exp(1j * np.linspace(0, np.pi, 9))
        solves, svds = [], []
        solve, dims = spectral._schur_roots, spectral.cokernel_dims
        monkeypatch.setattr(spectral, "_schur_roots", lambda *args: solves.append(args) or solve(*args))
        monkeypatch.setattr(spectral, "cokernel_dims", lambda *args, **kw: svds.append(args) or dims(*args, **kw))
        assert len(track_branches(f, path)) == 3
        assert len(solves) == len(svds) == 1

    def test_failure_is_bounded(self, monkeypatch):
        # lam/z plus a zero-residue puncture at 1.0, where the branch
        # q = 2/xi lands at the node xi = 2
        f = ExplicitHiggsField([0], [0, 1.0], np.array([[[1.0]], [[0.0]]]))
        calls = []
        solve = spectral._schur_roots
        monkeypatch.setattr(spectral, "_schur_roots", lambda *args: calls.append(args) or solve(*args))
        with pytest.raises(SpectralError, match="unresolved branch collision"):
            track_branches(f, [3.0, 2.0])
        assert len(calls) <= 26

    def test_no_spectral_points_gives_no_branches(self):
        # all residues zero, or no puncture at all: r_hat = 0, every sample is empty, nothing to fit
        for f in (
            ExplicitHiggsField([0.5], [0], np.zeros((1, 1, 1))),
            ExplicitHiggsField([0.5], [], np.zeros((0, 1, 1))),
        ):
            assert spectral_points(f, 1 + 1j).points == ()
            assert track_branches(f, [1 + 1j, 2 + 1j]) == []
            assert fit_infinity_asymptotics(f) == [] and fit_puncture_asymptotics(f, 0.5) == []


class TestApproachPath:
    @pytest.mark.parametrize(
        "center, r_from, r_to, radii",
        [
            (1 - 1j, 1e-2, 1e-4, (1e-2, 1e-3, 1e-4)),
            (2.0, 1e-1, 1e-4, (1e-2, 1e-3, 1e-4)),
            (0.0, 1e2, 1e3, (1e2, 3e2, 1e3)),
            (0.5j, 1e-3, 1e-3, (1e-3,)),
        ],
    )
    def test_ordered_from_r_from_to_r_to_with_every_radius(self, center, r_from, r_to, radii):
        nodes = approach_path(center, r_from, r_to, radii)
        dist = [abs(x - center) for x in nodes]
        step = np.sign(r_to - r_from)
        assert all(step * (b - a) > 0 for a, b in zip(dist, dist[1:]))
        assert nodes[0] == center + r_from * DIRECTION
        assert nodes[-1] == center + r_to * DIRECTION
        for rho in radii:
            assert center + rho * DIRECTION in nodes
        assert np.allclose(np.angle((np.array(nodes) - center) / DIRECTION), 0.0)

    def test_default_around_radii_give_seventeen_nodes(self):
        # 8 per decade over two decades; 1e-3 falls on a geometric node
        assert len(approach_path(2.0, 1e-2, 1e-4, (1e-4, 1e-3, 1e-2))) == 17


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

    def test_zero_residue_is_not_a_branch(self):
        # the second coordinate of the xi=1 group has lambda^inf = 0: no point escapes there
        f = _diag_field([1.0, 1.0], [[0.3, 0.0]], [0.0])
        (fit,) = fit_puncture_asymptotics(f, 1.0)
        assert abs(fit.residue - 0.6) <= 1e-12

    def test_repeated_residue_is_an_error(self):
        # power sums of (0.8, 0.8) have Hankel rank 1, not 2: refuse rather than merge
        f = _diag_field([1.0, 1.0], [[0.4, 0.4]], [0.0])
        with pytest.raises(SpectralError, match=r"rho=0\.0001: the residues at xi=1\.0 are not distinct"):
            fit_puncture_asymptotics(f, 1.0)

    def test_point_on_a_puncture_names_the_radius(self):
        # lam = 1 at xi_l = 0 puts the point 2/xi of the first node at 1e-3 * DIRECTION
        # on a zero-residue puncture
        rho = 1e-3
        f = ExplicitHiggsField([0], [0, 2 / (rho * DIRECTION)], np.array([[[1.0]], [[0.0]]]))
        with pytest.raises(SpectralError, match=r"rho=0\.001: spectral point .* lies on the puncture"):
            fit_puncture_asymptotics(f, 0.0)

    def test_radius_reaching_the_next_leading_eigenvalue_is_an_error(self):
        f = _diag_field([1.0, -1.0], [[0.3, 0.2]], [0.0])
        with pytest.raises(SpectralError, match=r"rho=1\.2 is not below half the distance 2\.0"):
            fit_puncture_asymptotics(f, 1.0, radii=(1.2, 1e-2))

    def test_estimate_at_every_radius_within_1e_8(self):
        f = random_field(2, [0.3], [0], seed=4)
        hd = extract_data(f)
        g = hd.inf_groups[0]
        fits = fit_puncture_asymptotics(f, g.xi)
        assert len(fits) == g.multiplicity
        for i in range(3):
            res = multiset_match([fit.estimates[i] for fit in fits], [2 * e.value for e in g.entries], 1e-8)
            assert res.ok, res.max_distance


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

    def test_unseparated_groups_name_the_radius(self):
        # at |xi| = 10 the points 2/xi are far from telling punctures 1e-3 apart
        f = _diag_field([0.0], [[1.0], [1.0]], [0.0, 1e-3])
        with pytest.raises(SpectralError, match=r"R=10\.0: the spectral points are not cleanly separated"):
            fit_infinity_asymptotics(f, radii=(10.0,))

    def test_residual_is_an_aliasing_estimate(self):
        f = random_field(3, [0.0, 1.0 + 0.5j], [1, 2], seed=11)
        assert all(fit.residual <= 1e-10 for fit in fit_infinity_asymptotics(f))

    def test_conjugated_matches_extraction(self):
        f = random_field(3, [0.0, 1.0 + 0.5j], [1, 2], seed=11)
        hd = extract_data(f)
        fits = fit_infinity_asymptotics(f)
        for j, lp in enumerate(hd.log_points):
            got = [fit.lam_hat for fit in fits if fit.puncture_index == j]
            want = [e.value for e in lp.singular_entries]
            res = multiset_match(got, want, 1e-3)
            assert res.ok, res.max_distance


def test_fits_do_not_track(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the asymptotic fits must not track branches")

    monkeypatch.setattr(spectral, "track_branches", forbidden)
    monkeypatch.setattr(spectral, "approach_path", forbidden)
    f = random_field(3, [0.0, 1.0 + 0.5j], [1, 2], seed=11)
    assert len(fit_infinity_asymptotics(f)) == 3
    for xi, _ in f.group_slices():
        assert len(fit_puncture_asymptotics(f, xi)) == 1


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


def _reducedness_reference(field, n_samples, seed, sep_tol=1e-6):
    """reducedness_probe one sample at a time, from spectral_points."""
    rng = np.random.default_rng(seed)
    scale = field.scale()
    good = done = 0
    while done < n_samples:
        xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * scale
        if any(abs(xi - a) < 0.1 * scale for a in field.a_diag):
            continue
        done += 1
        try:
            good += points_simple(np.array(spectral_points(field, xi).points), sep_tol)
        except NonGenericError:
            pass
    return good / n_samples


class TestReducedness:
    @pytest.mark.parametrize("sep_tol", [1e-6, 0.1])  # 0.1 makes most fractions fall below 1
    @pytest.mark.parametrize("seed", range(10))
    def test_batched_probe_is_the_per_sample_fraction(self, seed, sep_tol):
        f = _default_rank_field(seed)
        assert reducedness_probe(f, 200, seed, sep_tol) == _reducedness_reference(f, 200, seed, sep_tol)

    def test_point_on_a_puncture_is_not_simple(self, monkeypatch):
        f = _scalar_field(lam=0.7, a=0.2)
        monkeypatch.setattr(spectral, "_punctured", lambda field, roots: np.ones(roots.shape[:-1], dtype=bool))
        assert reducedness_probe(f, 20, seed=7) == 0.0

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
