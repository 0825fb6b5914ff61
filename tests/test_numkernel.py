"""Substrate tests: eigenvalues, null spaces, matching."""

import numpy as np
import pytest

from nahmkit.numkernel import (
    cokernel_basis,
    cokernel_dims,
    eigenvalues,
    multiset_match,
    numerical_rank,
)


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
