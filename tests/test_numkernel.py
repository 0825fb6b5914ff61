"""Substrate tests: eigenvalues, null spaces, matching."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nahmkit.numkernel import (
    bottleneck_match,
    cokernel_basis,
    cokernel_dims,
    eigenvalues,
    multiset_match,
    numerical_rank,
)


def _grid_points(n):
    # integer coordinates make tied distances common
    return st.lists(st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)), min_size=n, max_size=n)


def _sorted(zs):
    return sorted(np.asarray(zs).tolist(), key=lambda z: (z.real, z.imag))


class TestEigenvalues:
    def test_diagonal(self):
        assert multiset_match(eigenvalues(np.diag([1, 2j])), [1, 2j], 1e-12).ok

    def test_nilpotent(self):
        eigs = eigenvalues([[0, 1], [0, 0]])
        assert max(abs(e) for e in eigs) < 1e-8

    def test_similarity_invariance(self, rng):
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = g @ np.diag([0.3, -0.2]) @ np.linalg.inv(g)
            assert multiset_match(eigenvalues(m), [0.3, -0.2], 1e-8).ok

    def test_seventeen_dimensional_diagonal(self):
        d = np.arange(1, 18) * (1 + 0.5j)
        assert np.array_equal(np.sort_complex(eigenvalues(np.diag(d))), d)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))


class TestCokernel:
    def test_identity_has_empty_cokernel(self):
        assert cokernel_basis(np.eye(3)).shape == (3, 0)

    def test_zero_matrix_full_basis(self):
        assert cokernel_basis(np.zeros((2, 2))).shape == (2, 2)

    def test_rank_one(self):
        basis = cokernel_basis([[1, 0], [0, 0]])
        assert basis.shape == (2, 1)
        v = basis[:, 0]
        assert abs(abs(v[1]) - 1) < 1e-12 and abs(v[0]) < 1e-12

    def test_nullity_plus_rank(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(0, n + 1))
            u = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            v = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            m = u @ v
            assert cokernel_basis(m).shape[1] + numerical_rank(m) == n

    def test_external_scale_floor(self):
        # roundoff-sized entries are full rank relatively, zero against a scale
        m = 1e-15 * np.ones((1, 1))
        assert cokernel_basis(m).shape[1] == 0
        assert cokernel_basis(m, scale=1.0).shape[1] == 1


    def test_stacked_dims_follow_the_basis_rule(self):
        ms = np.array([np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0]), 1e-15 * np.eye(2)])
        assert cokernel_dims(ms).tolist() == [cokernel_basis(m).shape[1] for m in ms] == [0, 2, 1, 0]
        assert cokernel_dims(ms, scale=1.0).tolist() == [0, 2, 1, 2]
        assert cokernel_dims(np.zeros((0, 3, 3))).shape == (0,)

    def test_scale_per_matrix_is_the_scalar_rule_per_slice(self, rng):
        ms = np.array([np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0]), 1e-15 * np.eye(2), 1e-9 * np.diag([1.0, 3.0])])
        for _ in range(20):
            scale = rng.choice([0.0, 1e-9, 1e-2, 1.0], size=len(ms))
            got = cokernel_dims(ms, scale=scale)
            assert got.tolist() == [cokernel_dims(m[None], scale=s)[0] for m, s in zip(ms, scale)]
        assert cokernel_dims(ms, scale=np.array([0.0, 0.0, 0.0, 1.0, 0.0])).tolist() == [0, 2, 1, 2, 0]

    def test_stacked_dims_reject_bad_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            cokernel_dims(np.full((1, 2, 2), np.nan))
        with pytest.raises(ValueError, match="square"):
            cokernel_dims(np.zeros((2, 2)))


class TestMultisetMatch:
    def test_permutation(self):
        assert multiset_match([1, 1j], [1j, 1], 1e-12).ok

    def test_distance_exceeds_tol(self):
        res = multiset_match([0], [1e-6], 1e-9)
        assert not res.ok
        assert res.max_distance == pytest.approx(1e-6)

    def test_assignment_cost(self):
        assert multiset_match([1, 1 + 1e-13], [1, 1], 1e-10).ok

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiset_match([1], [1, 2], 1e-9)

    def test_shuffle_invariance(self, rng):
        for _ in range(20):
            s = rng.normal(size=6) + 1j * rng.normal(size=6)
            t = rng.permutation(s)
            res = multiset_match(s, t, 1e-12)
            assert res.ok and res.max_distance == 0.0

    def test_bottleneck_not_min_sum(self):
        # the min-sum assignment of these points has worst distance 3.42
        s = [-2.3 - 0.7j, -0.2 - 0.5j, -1.2 - 0.3j]
        t = [0.4 + 1.4j, 1 - 0.7j, -0.1 + 0.4j]
        res = multiset_match(s, t, 2.4597)
        assert res.ok
        assert res.max_distance == pytest.approx(2.45967, abs=1e-5)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(_grid_points(n), _grid_points(n))))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_with_ties(self, points):
        s, t = map(np.array, points)
        cost = np.abs(s[:, None] - t[None, :])
        best = min(max(cost[i, j] for i, j in enumerate(perm)) for perm in itertools.permutations(range(len(s))))
        res = multiset_match(s, t, 0.0)
        assert res.max_distance == best
        assert sorted(i for i, _ in res.pairs) == sorted(j for _, j in res.pairs) == list(range(len(s)))
        assert max(cost[i, j] for i, j in res.pairs) == res.max_distance

    def test_long_augmenting_path(self):
        # each point ties between two nearest targets and 0 is matched last,
        # so its augmenting path runs through all 64 rows
        s = np.arange(64.0)[::-1]
        t = np.arange(64.0) + 0.5
        res = multiset_match(s, t, 0.5)
        assert res.ok and res.max_distance == 0.5
        assert all(t[j] == s[i] + 0.5 for i, j in res.pairs)

    def test_cost_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            bottleneck_match(np.zeros((2, 3)), 1.0)
