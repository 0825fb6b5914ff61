"""Explicit rational fields, extraction, deformations, local polar models."""

import numpy as np
import pytest

from nahmkit.fields import (
    ExplicitHiggsField,
    LocalForm,
    deform_field,
    extract_data,
    gauge_relation_check,
    local_models_at,
    model_field,
    random_field,
)
from nahmkit.moduli import HiggsData, InfinityGroup, LogPoint, WeightedEigen, random_higgs_data
from nahmkit.nahm import data_match
from nahmkit.numkernel import eigenvalues, multiset_match, numerical_rank


class TestModelField:
    def test_direct_assembly(self):
        hd = HiggsData(
            2,
            0,
            (LogPoint(0.0, (WeightedEigen(0.0, 0.0), WeightedEigen(0.3, 0.5))),),
            (
                InfinityGroup(2.0, (WeightedEigen(0.3, 0.5),)),
                InfinityGroup(-1.0, (WeightedEigen(0.1, 0.5),)),
            ),
        )
        field, _ = model_field(hd)
        assert np.allclose(field.a_diag, [2.0, -1.0])
        assert np.allclose(field.residues[0], np.diag([0.0, 0.3]))

    def test_scalar_field(self):
        hd = HiggsData(
            1,
            0,
            (LogPoint(0.0, (WeightedEigen(0.5, 0.3),)),),
            (InfinityGroup(1.0, (WeightedEigen(0.5, 0.3),)),),
        )
        field, _ = model_field(hd)
        # theta(z) = (1/2 + 0.5/z) dz
        assert field.matrix_at(2.0)[0, 0] == pytest.approx(0.5 + 0.25)

    def test_extracted_infinity_residues_are_coordinate_sums(self, t1):
        field, extracted = model_field(t1)
        total = field.residues.sum(axis=0)
        got = [e.value for g in extracted.inf_groups for e in g.entries]
        assert np.allclose(got, np.diag(total))

    @pytest.mark.parametrize("seed", range(40))
    def test_annotation_weights_follow_extraction_order(self, seed):
        # extract_data pairs the annotated weights with canonically sorted
        # eigenvalues, so it must read back model_field's own datum exactly
        hd = random_higgs_data(seed=seed)
        field, extracted = model_field(hd)
        ok, residual = data_match(extract_data(field, degree=hd.degree), extracted, 0.0)
        assert ok, residual


class TestRandomField:
    def test_prescribed_residue_spectrum(self):
        f = random_field(2, [0.0], [1], seed=1)
        eigs = eigenvalues(f.residues[0])
        eigs = sorted(eigs, key=abs)
        assert abs(eigs[0]) < 1e-10
        assert abs(eigs[1]) > 0.1

    def test_determinism(self):
        a = random_field(3, [0.0, 1.0], [1, 2], seed=9)
        b = random_field(3, [0.0, 1.0], [1, 2], seed=9)
        assert np.array_equal(a.residues, b.residues)
        assert np.array_equal(a.a_diag, b.a_diag)

    def test_degenerate_request_rejected(self):
        with pytest.raises(ValueError, match="no singularity"):
            random_field(2, [0.0], [2], seed=0)


class TestEvaluation:
    def test_stacked_points_match_scalar_calls(self, rng):
        f = random_field(4, [0.0, 1.0 + 0.5j, -1.0], [1, 2, 0], seed=5)
        zs = rng.uniform(-2, 2, size=6) + 1j * rng.uniform(-2, 2, size=6)
        stack = f.matrix_at(zs)
        assert stack.shape == (6, 4, 4)
        for z, m in zip(zs, stack):
            assert f.matrix_at(z).shape == (4, 4)
            assert np.allclose(m, f.matrix_at(z), rtol=1e-13, atol=1e-13)

    def test_scalar_call_is_the_sum_of_poles(self):
        f = random_field(3, [0.0, 1.0j], [1, 0], seed=2)
        z = 0.3 - 0.4j
        want = np.diag(f.a_diag / 2) + sum(c / (z - p) for p, c in zip(f.punctures, f.residues))
        assert np.allclose(f.matrix_at(z), want, rtol=1e-13, atol=1e-13)

    def test_any_point_on_a_puncture_raises(self):
        f = random_field(2, [0.0, 1.0j], [1, 0], seed=2)
        with pytest.raises(ZeroDivisionError, match="puncture 1j"):
            f.matrix_at(np.array([0.5, 1.0j, 2.0]))
        with pytest.raises(ZeroDivisionError):
            f.matrix_at(0.0)


class TestResidueFactors:
    @pytest.mark.parametrize("r", range(1, 9))
    def test_factors_reproduce_residues(self, r, rng):
        n = int(rng.integers(1, 4))
        ranks = [int(rng.integers(0, r)) for _ in range(n)]
        f = random_field(r, np.arange(n) * (1 + 0.5j), ranks, seed=int(rng.integers(0, 2**32)))
        u, vh, p_all = f.residue_factors
        assert u.shape == (r, sum(r - rj for rj in ranks)) and vh.shape == u.shape[::-1]
        for p, c in zip(f.punctures, f.residues):
            cols = p_all == p
            assert np.max(np.abs(u[:, cols] @ vh[cols] - c)) <= 1e-12

    def test_cached_and_read_only(self):
        f = random_field(3, [0.0, 1.0], [1, 2], seed=9)
        assert f.residue_factors is f.residue_factors
        for arr in f.residue_factors:
            assert not arr.flags.writeable

    def test_factor_columns_are_numerical_ranks(self, rng):
        # one rank rule: the columns kept per puncture are numerical_rank of its residue,
        # including a residue whose second singular value sits right at the threshold
        c = np.diag([1.0, 1e-8 * (1 + 1e-12), 1e-8 * (1 - 1e-12)]).astype(complex)
        f = random_field(3, [0.0, 1.0, 2.0], [1, 0, 2], seed=int(rng.integers(0, 2**32)))
        f = ExplicitHiggsField(f.a_diag, np.append(f.punctures, 3.0), np.concatenate([f.residues, c[None]]))
        _, _, p_all = f.residue_factors
        assert [int(np.sum(p_all == p)) for p in f.punctures] == [numerical_rank(c) for c in f.residues]
        assert numerical_rank(c) == 2

    def test_zero_residue_has_no_factor(self):
        f = ExplicitHiggsField(np.array([0.5]), np.array([0.0]), np.zeros((1, 1, 1)))
        u, vh, p_all = f.residue_factors
        assert u.shape == (1, 0) and vh.shape == (0, 1) and p_all.size == 0


class TestExtractData:
    def test_diagonal_model_roundtrip(self, t1):
        field, _ = model_field(t1)
        hd = extract_data(field, degree=t1.degree)
        for lp_in, lp_out in zip(t1.log_points, hd.log_points):
            got = [e.value for e in lp_out.entries]
            want = [e.value for e in lp_in.entries]
            assert multiset_match(got, want, 1e-12).ok

    def test_conjugated_field_matches_generator(self, rng):
        for _ in range(10):
            r = int(rng.integers(2, 5))
            ranks = [int(rng.integers(0, r))]
            seed = int(rng.integers(0, 2**32))
            conj = random_field(r, [0.5], ranks, seed=seed)
            diag = random_field(r, [0.5], ranks, seed=seed, conjugate=False)
            hd_c = extract_data(conj)
            hd_d = extract_data(diag)
            got = [e.value for e in hd_c.log_points[0].entries]
            want = [e.value for e in hd_d.log_points[0].entries]
            assert multiset_match(got, want, 1e-8).ok
            assert hd_c.log_points[0].reg_count == ranks[0]

    def test_nilpotent_residue_reads_as_regular_spectrum(self):
        f = ExplicitHiggsField(
            np.array([1.0, 2.0]),
            np.array([0.0]),
            np.array([[[0.0, 1.0], [0.0, 0.0]]]),
        )
        hd = extract_data(f)
        vals = [e.value for e in hd.log_points[0].entries]
        assert max(abs(v) for v in vals) < 1e-8
        # data-level regular count (zero eigenvalues) disagrees with the
        # numerical residue rank; spectral_points flags this downstream with
        # NonGenericError (its one point sits on the puncture)
        assert hd.log_points[0].reg_count == 2
        assert numerical_rank(f.residues[0]) == 1


class TestDeform:
    def test_zero_is_identity(self, t1):
        field, _ = model_field(t1)
        assert np.array_equal(deform_field(field, 0.0).a_diag, field.a_diag)

    def test_shift_arithmetic(self):
        f = ExplicitHiggsField(np.array([2.0, -1.0]), np.array([0.0]), np.zeros((1, 2, 2)))
        assert np.allclose(deform_field(f, 2.0).a_diag, [0.0, -3.0])

    def test_additive_action(self, t1, rng):
        field, _ = model_field(t1)
        for _ in range(10):
            x1 = complex(rng.normal(), rng.normal())
            x2 = complex(rng.normal(), rng.normal())
            lhs = deform_field(field, x1 + x2)
            rhs = deform_field(deform_field(field, x1), x2)
            assert np.allclose(lhs.a_diag, rhs.a_diag)


class TestLocalModels:
    def test_trivial_entry(self):
        m = local_models_at(0.0, 0.0)
        assert m.d_plus.max_abs() == 0
        assert m.phi.max_abs() == 0
        assert m.d_full.max_abs() == 0

    def test_imaginary_mu(self):
        # mu = i: D+ has no dtheta part, Phi carries -Im(mu) = -1 there
        m = local_models_at(1j, 0.0)
        assert m.d_plus.dtheta == 0
        assert m.phi.dtheta == pytest.approx(-1.0)
        assert m.d_full.dtheta == pytest.approx(1j * 1j)

    def test_real_mu_with_weight(self):
        m = local_models_at(1.5, 0.25)
        assert m.phi.drr == pytest.approx(1.25)
        assert m.d_full.drr == pytest.approx(1.25)
        assert m.d_plus.drr == 0

    def test_decomposition_identity(self, rng):
        worst = 0.0
        for _ in range(1000):
            mu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            beta = rng.uniform(0, 1)
            m = local_models_at(mu, beta)
            worst = max(worst, (m.d_full - (m.d_plus + m.phi)).max_abs())
        assert worst <= 1e-12

    def test_higgs_picture_coefficient(self):
        m = local_models_at(0.5, 0.3, picture="higgs", point=2.0, position=1.0)
        assert m.phi.dz == pytest.approx(0.5)
        with pytest.raises(ZeroDivisionError):
            local_models_at(0.5, 0.3, picture="higgs", point=1.0, position=1.0)


class TestGaugeRelation:
    def test_zero_xi(self):
        omega = LocalForm(drr=1.0, dtheta=2.0, dz=3.0, dzbar=4.0)
        assert gauge_relation_check(omega, 0.0, 1.0) == 0.0

    def test_pure_imaginary_xi(self):
        assert gauge_relation_check(LocalForm(), 2j, 0.5 + 0.5j) <= 1e-14

    def test_random_inputs(self, rng):
        worst = 0.0
        for _ in range(1000):
            omega = LocalForm(*(complex(a, b) for a, b in rng.uniform(-3, 3, size=(4, 2))))
            xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            worst = max(worst, gauge_relation_check(omega, xi, z))
        assert worst <= 1e-14
