"""Data-level transform, involution, bookkeeping, dictionary comparison."""

import pytest

from nahmkit.moduli import (
    ConnectionData,
    HiggsData,
    InfinityGroup,
    LogPoint,
    SingularityData,
    WeightedEigen,
    connection_to_higgs,
    parabolic_degree,
    random_connection_data,
    random_higgs_data,
)
from nahmkit.nahm import (
    TransformError,
    data_match,
    dictionary_consistency_report,
    extension_bookkeeping,
    higgs_transform,
    inverse_transform,
    involution_check,
    pullback_minus,
    transform,
    transform_report,
)


class TestForwardTransform:
    def test_t1_structure(self, t1):
        out = higgs_transform(t1)
        assert out.rank == 2
        assert out.degree == -1
        assert len(out.log_points) == 2
        assert len(out.inf_groups) == 2

    def test_t1_log_points(self, t1):
        out = higgs_transform(t1)
        key = lambda pair: (pair[0].real, pair[0].imag)
        by_pos = {lp.position: lp for lp in out.log_points}
        lp2 = by_pos[2.0]
        vals = sorted(((e.value, e.weight) for e in lp2.entries), key=key)
        assert vals == [(-0.5, 0.4), (0.0, 0.0)]
        lp_other = by_pos[-1 + 1j]
        vals = sorted(((e.value, e.weight) for e in lp_other.entries), key=key)
        assert vals == [(0.0, 0.0), (0.35, 0.7)]

    def test_t1_infinity_groups(self, t1):
        out = higgs_transform(t1)
        by_xi = {g.xi: g for g in out.inf_groups}
        g0 = by_xi[0.0]  # from the puncture at 0
        assert len(g0.entries) == 1
        assert g0.entries[0].value == -0.3
        assert g0.entries[0].weight == 0.25
        g1 = by_xi[-1.0]  # from the puncture at 1
        assert g1.entries[0].value == pytest.approx(0.2 - 0.1j)
        assert g1.entries[0].weight == 0.6

    def test_degree_preserved(self, rng):
        for _ in range(30):
            hd = random_higgs_data(rng=rng)
            assert transform(hd).degree == hd.degree

    def test_parabolic_degree_preserved(self, rng):
        for _ in range(30):
            hd = random_higgs_data(rng=rng)
            assert parabolic_degree(transform(hd)) == pytest.approx(parabolic_degree(hd))

    def test_overfull_group_rejected(self):
        # r_hat = 1 but one infinity group has multiplicity 2
        hd = HiggsData(
            3,
            0,
            (
                LogPoint(
                    0.0,
                    (WeightedEigen(0.0, 0.0), WeightedEigen(0.0, 0.0), WeightedEigen(0.3, 0.5)),
                ),
            ),
            (
                InfinityGroup(1.0, (WeightedEigen(0.2, 0.5), WeightedEigen(0.4, 0.5))),
                InfinityGroup(2.0, (WeightedEigen(0.6, 0.5),)),
            ),
        )
        with pytest.raises(TransformError, match="multiplicity exceeding"):
            higgs_transform(hd)

    def test_hypothesis_violation_rejected(self):
        hd = HiggsData(
            1,
            0,
            (LogPoint(0.0, (WeightedEigen(0.3, 0.0),)),),  # nonzero value, zero weight
            (InfinityGroup(1.0, (WeightedEigen(0.2, 0.5),)),),
        )
        with pytest.raises(TransformError, match="hypothesis failed"):
            higgs_transform(hd)

    def test_bare_singularity_data_rejected(self, t1):
        bare = SingularityData(t1.rank, t1.degree, t1.log_points, t1.inf_groups)
        with pytest.raises(TypeError, match="SingularityData"):
            transform(bare)

    def test_connection_side(self, rng):
        for _ in range(20):
            cd = random_connection_data(rng=rng)
            out = transform(cd)
            assert isinstance(out, ConnectionData)
            assert out.degree == cd.degree


class TestPullback:
    def test_positions_negate(self, t1):
        pb = pullback_minus(t1)
        assert sorted((lp.position for lp in pb.log_points), key=lambda z: z.real) == [-1.0, 0.0]
        assert sorted((g.xi for g in pb.inf_groups), key=lambda z: z.real) == [-2.0, 1 - 1j]

    def test_values_fixed(self, t1):
        pb = pullback_minus(t1)
        key = lambda pair: (pair[0].real, pair[0].imag)
        got = sorted(((e.value, e.weight) for lp in pb.log_points for e in lp.entries), key=key)
        want = sorted(((e.value, e.weight) for lp in t1.log_points for e in lp.entries), key=key)
        assert got == want

    def test_self_inverse(self, rng):
        for _ in range(20):
            hd = random_higgs_data(rng=rng)
            assert pullback_minus(pullback_minus(hd)) == hd


class TestInvolution:
    def test_t1_exact(self, t1):
        rep = involution_check(t1)
        assert rep.ok
        assert rep.residual == 0.0
        assert rep.rank_recovered

    def test_random_corpus(self, rng):
        for _ in range(100):
            hd = random_higgs_data(rng=rng)
            rep = involution_check(hd)
            assert rep.ok, rep
            assert rep.residual <= 1e-12

    def test_commutes_with_pullback(self, rng):
        for _ in range(20):
            hd = random_higgs_data(rng=rng)
            ok, res = data_match(transform(pullback_minus(hd)), pullback_minus(transform(hd)))
            assert ok and res <= 1e-12

    def test_inverse_roundtrip(self, t1):
        ok, res = data_match(inverse_transform(transform(t1)), t1)
        assert ok and res == 0.0

    def test_equal_values_match_on_weight(self):
        # not generic, but data_match is public and does not check the hypothesis
        def datum(*weights):
            entries = tuple(WeightedEigen(0.3, w) for w in weights)
            return HiggsData(2, 0, (LogPoint(0.0, entries),), (InfinityGroup(1.0, entries),))

        assert data_match(datum(0.2, 0.7), datum(0.7, 0.2)) == (True, 0.0)
        ok, res = data_match(datum(0.2, 0.7), datum(0.7, 0.3))
        assert not ok and res == pytest.approx(0.1)

    def test_precondition_failure_reported(self):
        hd = HiggsData(
            1,
            0,
            (LogPoint(0.0, (WeightedEigen(0.3, 0.0),)),),
            (InfinityGroup(1.0, (WeightedEigen(0.2, 0.5),)),),
        )
        rep = involution_check(hd)
        assert not rep.ok
        assert rep.precondition_failure is not None
        assert "hypothesis" in rep.precondition_failure


class TestBookkeeping:
    def test_t1_arithmetic(self, t1):
        rec = extension_bookkeeping(t1)
        assert rec.r_hat == 2
        assert rec.induced_degree == 2 + 2 - 1
        assert rec.transformed_degree == -1
        # nonzero transformed weights: 0.4, 0.7, 0.25, 0.6
        assert sum(rec.transformed_weights) == pytest.approx(1.95)
        assert sum(rec.induced_weights) == pytest.approx(1.95 - 4)
        assert rec.identity_residual <= 1e-12

    def test_identity_on_corpus(self, rng):
        for _ in range(50):
            hd = random_higgs_data(rng=rng)
            assert extension_bookkeeping(hd).identity_residual <= 1e-12

    def test_weight_shift_by_one(self, t1):
        rec = extension_bookkeeping(t1)
        for wi, wt in zip(rec.induced_weights, rec.transformed_weights):
            assert wi == pytest.approx(wt - 1.0)

    def test_report_fields(self, t1):
        rep = transform_report(t1)
        assert rep.r_hat == 2
        assert rep.induced_degree == 3
        assert rep.hypothesis_preserved
        ok, _ = data_match(rep.output, higgs_transform(t1))
        assert ok


class TestDictionaryConsistency:
    def test_zero_weights_agree(self):
        # all beta = 0 with real parts in [0, 1): the two routes coincide
        cd = ConnectionData(
            1,
            0,
            (LogPoint(0.0, (WeightedEigen(0.25 + 1j, 0.0),)),),
            (InfinityGroup(1.0, (WeightedEigen(0.5 - 2j, 0.0),)),),
        )
        rep = dictionary_consistency_report(cd)
        assert rep.max_value_delta <= 1e-12

    def test_generic_weights_disagree(self):
        cd = ConnectionData(
            1,
            0,
            (LogPoint(0.0, (WeightedEigen(0.3 + 0.2j, 0.4),)),),
            (InfinityGroup(1.0, (WeightedEigen(0.6 - 0.1j, 0.8),)),),
        )
        rep = dictionary_consistency_report(cd)
        # the report surfaces the mismatch instead of asserting it away
        assert rep.max_value_delta > 1e-6

    def test_report_never_raises(self, rng):
        for _ in range(30):
            cd = random_connection_data(rng=rng)
            rep = dictionary_consistency_report(cd)
            assert rep.discrepancies  # every entry is compared

    def test_dictionary_after_pullback(self, rng):
        # pullback commutes with the dictionary exactly
        for _ in range(20):
            cd = random_connection_data(rng=rng)
            lhs = connection_to_higgs(pullback_minus(cd))
            rhs = pullback_minus(connection_to_higgs(cd))
            assert lhs == rhs
