"""Top-eigenpair extraction and two-sided deflation against dense oracles."""

import tracemalloc

import numpy as np
import pytest

import specdens.deflation
from specdens.errors import ConvergenceError, UsageError
from specdens.lanczos import approx_spectrum
from specdens.linalg import dense_eig
from specdens.operators import SymmetricOperator, deflated_operator, dense_operator
from specdens.deflation import RESIDUAL_TOL, low_rank_deflation, top_eigenpairs

from oracles import op_to_dense


def spiked_diagonal(p, spikes):
    d = np.ones(p)
    d[: len(spikes)] = spikes
    return np.diag(d)


class TestSubspaceIteration:
    """Top-eigenpair extraction by :func:`top_eigenpairs`."""

    def test_three_spikes_recovered(self):
        op = dense_operator(spiked_diagonal(100, [5.0, 4.0, 3.0]))
        top = top_eigenpairs(op, 3, seed=0)
        np.testing.assert_allclose(top.values, [5.0, 4.0, 3.0], atol=1e-12)
        assert np.all(top.residuals <= 1e-12)
        assert top.count == 3

    def test_identity_any_subspace_is_exact(self):
        top = top_eigenpairs(dense_operator(np.eye(20)), 2, seed=1)
        np.testing.assert_allclose(top.values, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(top.residuals, 0.0, atol=1e-12)

    def test_magnitude_ordering_keeps_sign(self):
        op = dense_operator(spiked_diagonal(50, [-5.0, 2.0]))
        top = top_eigenpairs(op, 2, seed=2)
        assert top.values[0] == pytest.approx(-5.0, abs=1e-12)
        assert top.values[1] == pytest.approx(2.0, abs=1e-12)

    def test_basis_is_orthonormal_and_rayleigh_consistent(self, rng):
        A = rng.standard_normal((60, 60))
        op = dense_operator((A + A.T) / 2)
        top = top_eigenpairs(op, 4, seed=3)
        Q = top.basis
        assert np.linalg.norm(Q.T @ Q - np.eye(4)) <= 1e-12
        for k in range(4):
            rq = Q[:, k] @ op.apply(Q[:, k])
            assert rq == pytest.approx(top.values[k], abs=1e-12)

    def test_residuals_small_when_gap_is_clear(self, rng):
        A = rng.standard_normal((80, 80))
        A = (A + A.T) / 2
        scale = np.abs(dense_eig(A)).max()
        B = A + np.diag([3.0 * scale, 2.5 * scale] + [0.0] * 78)
        op = dense_operator(B)
        top = top_eigenpairs(op, 2, seed=4)
        norm_b = np.abs(dense_eig(B)).max()
        assert np.all(top.residuals <= RESIDUAL_TOL * norm_b)

    def test_matches_dense_oracle_on_random_matrix(self, rng):
        A = rng.standard_normal((70, 70))
        A = (A + A.T) / 2
        oracle = dense_eig(A)
        by_magnitude = oracle[np.argsort(-np.abs(oracle), kind="stable")][:3]
        top = top_eigenpairs(dense_operator(A), 3, seed=5)
        np.testing.assert_allclose(top.values, by_magnitude, rtol=1e-10)

    def test_count_bounds(self):
        op = dense_operator(np.eye(5))
        with pytest.raises(UsageError):
            top_eigenpairs(op, 0)
        with pytest.raises(UsageError):
            top_eigenpairs(op, 5)

    def test_deterministic_in_seed(self):
        # the degenerate identity breaks every step down, so the run draws
        # fresh vectors from the seeded generator
        for A, k in ((spiked_diagonal(40, [6.0, 3.0]), 2), (np.eye(20), 2)):
            op = dense_operator(A)
            a = top_eigenpairs(op, k, seed=9)
            b = top_eigenpairs(op, k, seed=9)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.basis, b.basis)
            assert np.array_equal(a.residuals, b.residuals)
            assert a.matvecs == b.matvecs

    def test_to_dict_round_trips_values(self):
        op = dense_operator(spiked_diagonal(30, [4.0]))
        top = top_eigenpairs(op, 1, seed=0)
        d = top.to_dict()
        assert set(d) == {"values", "residuals", "matvecs"}
        np.testing.assert_allclose(d["values"], top.values)
        assert d["matvecs"] == top.matvecs >= 1

    def test_zero_operator_fails_to_converge(self):
        with pytest.raises(ConvergenceError, match="vanishes"):
            top_eigenpairs(dense_operator(np.zeros((10, 10))), 2)


def by_magnitude(A, count):
    values = dense_eig(A)
    return values[np.argsort(-np.abs(values), kind="stable")][:count]


def ncv_of(p, count):
    return min(p, max(2 * count + 1, 20))


@pytest.fixture
def fresh_vectors(monkeypatch):
    """Counts the fresh vectors a run draws after a breakdown."""
    drawn = []
    real = specdens.deflation._fresh_vector

    def counting(rng, V, j):
        drawn.append(j)
        real(rng, V, j)

    monkeypatch.setattr(specdens.deflation, "_fresh_vector", counting)
    return drawn


class TestThickRestart:
    """The restart, breakdown and memory paths of :func:`top_eigenpairs`,
    each against dense ``eigh``."""

    def test_restarts_until_the_residuals_converge(self, rng):
        # the edges of a random symmetric matrix sit close to the next
        # eigenvalues, so one basis of ncv vectors is not enough
        p, count = 300, 3
        A = rng.standard_normal((p, p))
        A = (A + A.T) / 2
        top = top_eigenpairs(dense_operator(A), count, seed=1)
        assert top.matvecs - count > ncv_of(p, count)
        np.testing.assert_allclose(top.values, by_magnitude(A, count),
                                   rtol=1e-10)
        assert np.all(top.residuals <= RESIDUAL_TOL * np.abs(top.values[0]))

    def test_count_above_the_rank(self, rng, fresh_vectors):
        # the Krylov space of a rank-3 matrix closes after 4 steps; the
        # other wanted pairs come from fresh vectors in the null space
        p, rank, count = 60, 3, 5
        X = rng.standard_normal((p, rank))
        A = X @ X.T
        top = top_eigenpairs(dense_operator(A), count, seed=2)
        assert fresh_vectors
        scale = np.abs(top.values[0])
        np.testing.assert_allclose(top.values, by_magnitude(A, count),
                                   rtol=1e-10, atol=1e-10 * scale)
        np.testing.assert_allclose(top.values[rank:], 0.0, atol=1e-10 * scale)
        Q = top.basis
        assert np.linalg.norm(Q.T @ Q - np.eye(count)) <= 1e-12
        assert np.all(top.residuals <= RESIDUAL_TOL * scale)

    def test_identity_draws_fresh_vectors(self, fresh_vectors):
        p, count = 40, 3
        top = top_eigenpairs(dense_operator(np.eye(p)), count, seed=3)
        # every product breaks down; the last one needs no successor
        assert fresh_vectors == list(range(1, ncv_of(p, count)))
        np.testing.assert_allclose(top.values, 1.0, atol=1e-14)
        np.testing.assert_allclose(top.residuals, 0.0, atol=1e-12)
        assert np.linalg.norm(top.basis.T @ top.basis - np.eye(count)) <= 1e-12

    def test_all_but_one_pair_of_a_small_matrix(self, rng):
        p = 7
        A = rng.standard_normal((p, p))
        A = (A + A.T) / 2
        top = top_eigenpairs(dense_operator(A), p - 1, seed=4)
        np.testing.assert_allclose(top.values, by_magnitude(A, p - 1),
                                   rtol=1e-10)
        assert np.linalg.norm(top.basis.T @ top.basis - np.eye(p - 1)) <= 1e-12

    def test_negative_dominant_indefinite(self, rng):
        p = 150
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        d = np.concatenate([[-9.0, -7.0, 4.0], rng.uniform(-1.0, 1.0, p - 3)])
        A = (Q * d) @ Q.T
        A = (A + A.T) / 2
        top = top_eigenpairs(dense_operator(A), 3, seed=5)
        np.testing.assert_allclose(top.values, by_magnitude(A, 3), rtol=1e-10)
        np.testing.assert_allclose(top.values, [-9.0, -7.0, 4.0], rtol=1e-10)

    def test_zero_operator_fails_with_a_partial_basis(self, fresh_vectors):
        # ncv = 20 < p: every product breaks down and H stays zero
        with pytest.raises(ConvergenceError, match="vanishes"):
            top_eigenpairs(dense_operator(np.zeros((50, 50))), 2)
        assert fresh_vectors == list(range(1, 20))

    def test_memory_is_the_basis_and_one_product(self):
        # a diagonal operator costs one output vector per product, so the
        # iteration's peak is the ncv + 1 basis vectors, that output and
        # the product's finite check (p bytes), whatever p is; the gap of
        # 0.2 takes restarts, which rotate the basis in place. At the end
        # the count Ritz vectors are copied out beside the basis, which is
        # then freed, and checked one product at a time
        p = 100_000
        for count in (1, 9):
            d = np.linspace(0.0, 1.0, p)
            d[:count] = 1.2 + 0.1 * np.arange(count)
            op = SymmetricOperator(p, lambda v: d * v, label="diag")
            top_eigenpairs(op, count, seed=0)   # first use imports numpy.random
            tracemalloc.start()
            try:
                top = top_eigenpairs(op, count, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_allclose(top.values, np.sort(d)[::-1][:count],
                                       rtol=1e-12)
            assert top.matvecs - count > ncv_of(p, count)
            assert peak <= (ncv_of(p, count) + 1 + count) * 8 * p + p + 2**16


class TestLowRankDeflation:
    def test_spikes_move_to_zero(self):
        A = spiked_diagonal(60, [5.0, 4.0, 3.0])
        top, defl = low_rank_deflation(dense_operator(A), 3, seed=0)
        np.testing.assert_allclose(top.values, [5.0, 4.0, 3.0], atol=1e-8)
        values = dense_eig(op_to_dense(defl))
        np.testing.assert_allclose(values[:3], 0.0, atol=1e-8)
        np.testing.assert_allclose(values[3:], 1.0, atol=1e-8)

    def test_count_zero_rejected(self, rng):
        A = rng.standard_normal((20, 20))
        with pytest.raises(UsageError, match="count must be in"):
            low_rank_deflation(dense_operator((A + A.T) / 2), 0)

    def test_negative_count_rejected(self):
        with pytest.raises(UsageError):
            low_rank_deflation(dense_operator(np.eye(4)), -1)

    def test_deflation_is_idempotent(self, rng):
        A = rng.standard_normal((40, 40))
        op = dense_operator((A + A.T) / 2)
        top, d1 = low_rank_deflation(op, 3, seed=1)
        d2 = deflated_operator(d1, top.basis)
        v = rng.standard_normal(40)
        out1 = d1.apply(v)
        out2 = d2.apply(v)
        assert np.linalg.norm(out1 - out2) <= 1e-12 * max(1.0, np.linalg.norm(out1))

    def test_spiked_wishart_outliers_extracted_and_bulk_contained(self):
        # sample covariance with three planted spikes: deflation removes
        # exactly the outliers, and what remains lies below the bulk edge
        rng = np.random.default_rng(11)
        p, n = 300, 300
        spikes = np.array([5.0, 4.0, 3.0])
        cov = np.ones(p)
        cov[:3] += spikes
        X = rng.standard_normal((n, p)) * np.sqrt(cov)
        A = X.T @ X / n
        oracle = dense_eig(A)
        op = dense_operator(A)
        top, defl = low_rank_deflation(op, 3, seed=0)
        np.testing.assert_allclose(top.values, oracle[-1:-4:-1], rtol=1e-8)
        # gamma = 1 bulk edge is 4; everything left sits below the smallest
        # extracted outlier
        deflated_values = dense_eig(op_to_dense(defl))
        assert deflated_values.max() < top.values.min()
        assert deflated_values.max() == pytest.approx(oracle[-4], rel=1e-8)

    def test_deflated_density_loses_outlier_mass(self):
        A = spiked_diagonal(200, [8.0, 7.0])
        op = dense_operator(A)
        top, defl = low_rank_deflation(op, 2, seed=3)
        est = approx_spectrum(defl, steps=32, n_vec=4, seed=1)
        above = est.grid > 2.0
        mass_above = np.trapezoid(np.where(above, est.values, 0.0), est.grid)
        assert mass_above <= 0.01
