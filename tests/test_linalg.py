"""Eigensolver kernels against hand values, each other, and a bisection oracle.

The tridiagonal QL path and the LAPACK-backed dense path are independent
implementations; several tests here exist purely to keep them honest
against each other. The Sturm-sequence bisection oracle in oracles.py is
a third route, used to check eig_tridiagonal without trusting either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdens.errors import AsymmetricInputError, UsageError
from specdens.linalg import (
    TridiagonalMatrix,
    dense_eig,
    eig_tridiagonal,
    householder_tridiagonalize,
)

from oracles import bisection_eigenvalues, tridiag_to_dense


# ---------------------------------------------------------------------------
# eig_tridiagonal
# ---------------------------------------------------------------------------

class TestEigTridiagonal:
    def test_decoupled_duplicate_diagonal(self):
        """beta=0 decouples the matrix; the degenerate pair keeps unit
        weight on whichever basis vector carries the first coordinate."""
        pairs = eig_tridiagonal(TridiagonalMatrix(alpha=[2.0, 2.0], beta=[0.0]))
        np.testing.assert_allclose(pairs.values, [2.0, 2.0], atol=0)
        np.testing.assert_allclose(np.sort(np.abs(pairs.first_components)),
                                   [0.0, 1.0], atol=1e-15)

    def test_exchange_two_by_two(self):
        pairs = eig_tridiagonal(TridiagonalMatrix(alpha=[0.0, 0.0], beta=[1.0]))
        np.testing.assert_allclose(pairs.values, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(pairs.first_components ** 2, [0.5, 0.5],
                                   atol=1e-15)

    def test_all_beta_zero_returns_sorted_alpha_exactly(self):
        alpha = np.array([3.0, -1.0, 2.0, -1.0, 0.5])
        pairs = eig_tridiagonal(
            TridiagonalMatrix(alpha=alpha, beta=np.zeros(4)))
        assert np.array_equal(pairs.values, np.sort(alpha))

    def test_random_50x50_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        alpha = rng.standard_normal(50)
        beta = np.abs(rng.standard_normal(49))
        pairs = eig_tridiagonal(TridiagonalMatrix(alpha=alpha, beta=beta))
        oracle = bisection_eigenvalues(alpha, beta)
        np.testing.assert_allclose(pairs.values, oracle, atol=1e-10)

    def test_full_vectors_reconstruct(self):
        rng = np.random.default_rng(3)
        alpha = rng.standard_normal(30)
        beta = np.abs(rng.standard_normal(29))
        T = TridiagonalMatrix(alpha=alpha, beta=beta)
        pairs = eig_tridiagonal(T, vectors="full")
        dense = tridiag_to_dense(alpha, beta)
        for m in range(30):
            y = pairs.vectors[:, m]
            resid = np.linalg.norm(dense @ y - pairs.values[m] * y)
            assert resid <= 1e-10 * max(1.0, abs(pairs.values[m]))

    def test_first_components_are_first_row_of_orthogonal_matrix(self):
        rng = np.random.default_rng(11)
        alpha = rng.standard_normal(40)
        beta = np.abs(rng.standard_normal(39))
        pairs = eig_tridiagonal(TridiagonalMatrix(alpha=alpha, beta=beta))
        assert abs(np.sum(pairs.first_components ** 2) - 1.0) <= 1e-8

    def test_vectors_none_gives_values_only(self):
        pairs = eig_tridiagonal(
            TridiagonalMatrix(alpha=[1.0, 2.0], beta=[0.5]), vectors="none")
        assert np.all(np.isnan(pairs.first_components))
        assert pairs.values[0] < pairs.values[1]

    def test_bad_vectors_mode_rejected(self):
        T = TridiagonalMatrix(alpha=[1.0], beta=[])
        with pytest.raises(UsageError):
            eig_tridiagonal(T, vectors="some")

    def test_negative_beta_rejected(self):
        with pytest.raises(UsageError):
            TridiagonalMatrix(alpha=[1.0, 1.0], beta=[-0.5])

    def test_beta_length_checked(self):
        with pytest.raises(UsageError):
            TridiagonalMatrix(alpha=[1.0, 1.0], beta=[1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_matches_bisection_on_random_instances(self, n, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(-5, 5, n)
        beta = rng.uniform(0, 3, max(n - 1, 0))
        pairs = eig_tridiagonal(TridiagonalMatrix(alpha=alpha, beta=beta))
        oracle = bisection_eigenvalues(alpha, beta)
        assert np.all(np.diff(pairs.values) >= -1e-12)
        np.testing.assert_allclose(pairs.values, oracle, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_trace_preserved(self, n, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(-5, 5, n)
        beta = rng.uniform(0, 3, max(n - 1, 0))
        pairs = eig_tridiagonal(TridiagonalMatrix(alpha=alpha, beta=beta))
        assert abs(pairs.values.sum() - alpha.sum()) <= 1e-9 * max(1.0, np.abs(alpha).sum())


# ---------------------------------------------------------------------------
# householder_tridiagonalize
# ---------------------------------------------------------------------------

class TestHouseholder:
    def test_tridiagonal_input_unchanged(self):
        alpha = np.array([1.0, 2.0, 3.0])
        beta = np.array([0.5, 0.25])
        A = tridiag_to_dense(alpha, beta)
        T, Q = householder_tridiagonalize(A)
        np.testing.assert_array_equal(T.alpha, alpha)
        np.testing.assert_array_equal(T.beta, beta)
        np.testing.assert_array_equal(Q, np.eye(3))

    def test_all_ones_rank_one(self):
        T, _ = householder_tridiagonalize(np.ones((3, 3)))
        values = eig_tridiagonal(T).values
        np.testing.assert_allclose(values, [0.0, 0.0, 3.0], atol=1e-12)

    def test_similarity_holds(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 40))
        A = (A + A.T) / 2
        T, Q = householder_tridiagonalize(A)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(Q.T @ A @ Q - T.to_dense()) <= 1e-10 * scale
        assert np.linalg.norm(Q.T @ Q - np.eye(40)) <= 1e-12

    def test_spectrum_matches_dense_oracle_100(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((100, 100))
        A = (A + A.T) / 2
        T, _ = householder_tridiagonalize(A)
        hand = eig_tridiagonal(T).values
        oracle = dense_eig(A).values
        np.testing.assert_allclose(hand, oracle,
                                   atol=1e-8 * np.abs(oracle).max())

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInputError):
            householder_tridiagonalize(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# dense_eig
# ---------------------------------------------------------------------------

class TestDenseEig:
    def test_identity(self):
        pairs = dense_eig(np.eye(10))
        np.testing.assert_array_equal(pairs.values, np.ones(10))
        assert np.all(np.isnan(pairs.first_components))
        assert pairs.vectors is None

    def test_spiked_diagonal(self):
        A = np.diag([5.0, 4.0, 3.0] + [0.0] * 7)
        pairs = dense_eig(A)
        np.testing.assert_allclose(pairs.values[-3:], [3.0, 4.0, 5.0], atol=0)
        np.testing.assert_allclose(pairs.values[:7], 0.0, atol=0)

    def test_pair_residuals(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((60, 60))
        A = (A + A.T) / 2
        pairs = dense_eig(A, vectors=True)
        scale = np.linalg.norm(A, 2)
        for m in range(0, 60, 7):
            v = pairs.vectors[:, m]
            assert np.linalg.norm(A @ v - pairs.values[m] * v) <= 1e-8 * scale

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((80, 80))
        A = (A + A.T) / 2
        values = dense_eig(A).values
        assert abs(values.sum() - np.trace(A)) <= 1e-8 * 80 * np.abs(values).max()

    def test_size_cap_rejected_with_guidance(self):
        big = np.zeros((5, 5))
        with pytest.raises(UsageError, match="matrix-free"):
            dense_eig(big, size_cap=4)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInputError):
            dense_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
