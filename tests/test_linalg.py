"""Eigensolver kernels against hand values, each other, and the oracles.

Both library routes, eig_tridiagonal and dense_eig, run on LAPACK. The
hand-written QL iteration, Householder reduction and Sturm-sequence
bisection in oracles.py are independent of them, and the tests here keep
the library honest against the oracles and the oracles against each other.
"""

import ctypes
import functools
import os
import signal
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdens import cli, lanczos, linalg
from specdens.errors import ConvergenceError, UsageError
from specdens.lanczos import (
    accumulate_bumps,
    estimate_range,
    fast_lanczos,
    sigma_for,
)
from specdens.linalg import TridiagonalMatrix, dense_eig, eig_tridiagonal
from specdens.operators import affine_operator, dense_operator
from specdens.rmt import EnsembleSpec, sample

from oracles import (
    bisection_eigenvalues,
    dbdsqr_eigenvectors,
    householder_tridiagonalize,
    ql_eig_tridiagonal,
    tridiag_to_dense,
)


# ---------------------------------------------------------------------------
# eig_tridiagonal
# ---------------------------------------------------------------------------

def tridiagonal(alpha, beta) -> TridiagonalMatrix:
    """A tridiagonal matrix from lists: the library takes float64 arrays."""
    return TridiagonalMatrix(alpha=np.array(alpha, dtype=np.float64),
                             beta=np.array(beta, dtype=np.float64))


class TestEigTridiagonal:
    def test_decoupled_duplicate_diagonal(self):
        """beta=0 decouples the matrix; the degenerate pair keeps unit
        weight on whichever basis vector carries the first coordinate."""
        pairs = eig_tridiagonal(tridiagonal(alpha=[2.0, 2.0], beta=[0.0]))
        np.testing.assert_allclose(pairs.values, [2.0, 2.0], atol=0)
        np.testing.assert_allclose(np.sort(np.abs(pairs.first_components)),
                                   [0.0, 1.0], atol=1e-15)

    def test_exchange_two_by_two(self):
        pairs = eig_tridiagonal(tridiagonal(alpha=[0.0, 0.0], beta=[1.0]))
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
        """The reference's whole eigenvector matrix, paired with the
        library's values, solves T y = theta y."""
        rng = np.random.default_rng(3)
        alpha = rng.standard_normal(30)
        beta = np.abs(rng.standard_normal(29))
        T = TridiagonalMatrix(alpha=alpha, beta=beta)
        values, vectors = eig_tridiagonal(T).values, dbdsqr_eigenvectors(T)
        dense = tridiag_to_dense(alpha, beta)
        for m in range(30):
            y = vectors[:, m]
            resid = np.linalg.norm(dense @ y - values[m] * y)
            assert resid <= 1e-10 * max(1.0, abs(values[m]))

    def test_first_components_are_first_row_of_orthogonal_matrix(self):
        rng = np.random.default_rng(11)
        alpha = rng.standard_normal(40)
        beta = np.abs(rng.standard_normal(39))
        pairs = eig_tridiagonal(TridiagonalMatrix(alpha=alpha, beta=beta))
        assert abs(np.sum(pairs.first_components ** 2) - 1.0) <= 1e-8
        assert abs(np.sum(pairs.last_components ** 2) - 1.0) <= 1e-8

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
# the LAPACK route against the QL oracle on Lanczos tridiagonals
# ---------------------------------------------------------------------------

def _lanczos_tridiagonal(A: np.ndarray, steps: int, seed: int):
    """Tridiagonal of ``steps`` > p unreorthogonalized Lanczos steps on the
    spectrum of A mapped into [-1, 1]: past p the recurrence loses
    orthogonality and repeats converged Ritz values ("ghosts")."""
    op = dense_operator(A)
    aop = affine_operator(op, estimate_range(op, seed=seed))
    T, _ = fast_lanczos(aop, steps, seed)
    return T


class TestRitzWeightsAgainstQL:
    @pytest.mark.parametrize("kind,p,steps,seed", [
        ("goe", 60, 400, 1),
        ("pareto_wishart", 50, 600, 2),
        ("spiked_wishart", 80, 500, 3),
    ])
    def test_ghost_clusters_match_the_ql_oracle(self, kind, p, steps, seed):
        spec = EnsembleSpec(kind=kind, p=p, seed=seed,
                            n=None if kind == "goe" else 2 * p,
                            alpha=1.0 if kind == "pareto_wishart" else None,
                            spikes=(6.0,) if kind == "spiked_wishart" else ())
        T = _lanczos_tridiagonal(sample(spec), steps, seed)
        assert T.order == steps
        got = eig_tridiagonal(T)
        ref = ql_eig_tridiagonal(T)
        # ghosts: most Ritz values repeat a neighbour to near machine precision
        assert np.sum(np.diff(got.values) < 1e-10) > steps // 2
        np.testing.assert_allclose(got.values, ref.values, rtol=0, atol=1e-12)
        assert abs(np.sum(got.last_components ** 2) - 1.0) <= 1e-13
        w_got = got.first_components ** 2
        assert abs(w_got.sum() - 1.0) <= 1e-13
        # a ghost cluster shares its weight arbitrarily between its copies,
        # so compare what the weights are used for: the smoothed density
        grid = np.linspace(-1.0, 1.0, 1024)
        sigma = sigma_for(steps, 3.0)
        d_got = accumulate_bumps(got.values, w_got, grid, sigma)
        d_ref = accumulate_bumps(ref.values, ref.first_components ** 2, grid,
                                 sigma)
        h = grid[1] - grid[0]
        assert np.sum(np.abs(d_got - d_ref)) * h <= 1e-10

    @pytest.mark.parametrize("n", [40, 200])
    def test_last_components_match_the_ql_oracle(self, n):
        """Away from ghosts the eigenvectors are well conditioned, so the
        independent QL iteration pins both rows down, up to sign."""
        rng = np.random.default_rng(n)
        T = TridiagonalMatrix(alpha=rng.standard_normal(n),
                              beta=np.abs(rng.standard_normal(n - 1)))
        got, ref = eig_tridiagonal(T), ql_eig_tridiagonal(T)
        assert np.diff(ref.values).min() > 1e-6
        for row in ("first_components", "last_components"):
            np.testing.assert_allclose(np.abs(getattr(got, row)),
                                       np.abs(getattr(ref, row)),
                                       rtol=0, atol=1e-12)

    def test_first_components_use_o_m_memory(self):
        rng = np.random.default_rng(8)
        n = 2048
        T = TridiagonalMatrix(alpha=rng.standard_normal(n),
                              beta=np.abs(rng.standard_normal(n - 1)))
        eig_tridiagonal(T)            # loads LAPACK outside the measurement
        tracemalloc.start()
        try:
            pairs = eig_tridiagonal(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20         # an n x n matrix would be 33.5 MB
        assert abs(np.sum(pairs.first_components ** 2) - 1.0) <= 1e-13
        assert abs(np.sum(pairs.last_components ** 2) - 1.0) <= 1e-13

    def test_full_vectors_share_the_first_components(self):
        """The full-vector reference route shares the values and both
        rows with the library's solve, bit for bit, and is orthogonal."""
        rng = np.random.default_rng(12)
        T = TridiagonalMatrix(alpha=rng.standard_normal(64),
                              beta=np.abs(rng.standard_normal(63)))
        pairs = eig_tridiagonal(T)
        vectors = dbdsqr_eigenvectors(T)
        assert np.array_equal(pairs.first_components, vectors[0])
        assert np.array_equal(pairs.last_components, vectors[-1])
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(64),
                                   atol=1e-13)

    def test_order_one(self):
        pairs = eig_tridiagonal(tridiagonal(alpha=[2.5], beta=[]))
        assert pairs.values.tolist() == [2.5]
        assert pairs.first_components.tolist() == [1.0]
        assert pairs.last_components.tolist() == [1.0]

    def test_input_is_not_overwritten(self):
        alpha = np.array([1.0, -2.0, 0.5])
        beta = np.array([0.3, 0.7])
        T = TridiagonalMatrix(alpha=alpha.copy(), beta=beta.copy())
        eig_tridiagonal(T)
        assert np.array_equal(T.alpha, alpha) and np.array_equal(T.beta, beta)

    def test_lapack_failure_is_convergence_error(self):
        # dstev cannot converge on a NaN entry
        with pytest.raises(ConvergenceError, match="dstev"):
            eig_tridiagonal(tridiagonal(alpha=[1.0, np.nan, 2.0],
                                        beta=[1.0, 1.0]))
        # dstev copes with entries near the overflow threshold (a dstev
        # failure would be raised first), but the shifted factor overflows
        # and dbdsqr reports the failure
        T = tridiagonal(alpha=[1.0, 2.0, 3.0], beta=[1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError, match="dbdsqr"):
            eig_tridiagonal(T)


# ---------------------------------------------------------------------------
# the ctypes LAPACK route against scipy's f2py wrappers
# ---------------------------------------------------------------------------

def _ctypes_dpttrf(d, e):
    D, L, info = d.copy(), e.copy(), ctypes.c_int(0)
    linalg._lapack()[1](ctypes.c_int(d.size), D.ctypes.data, L.ctypes.data,
                        info)
    return D, L, info.value


@functools.cache
def _tridiagonals():
    """Random tridiagonals, and a ghost-heavy Lanczos one: 2048 steps at
    p = 200 repeat most Ritz values."""
    rng = np.random.default_rng(21)
    out = [(rng.standard_normal(n), np.abs(rng.standard_normal(n - 1)))
           for n in (2, 3, 17, 200)]
    T = _lanczos_tridiagonal(sample(EnsembleSpec(kind="goe", p=200, seed=4)),
                             2048, 4)
    return out + [(T.alpha, T.beta)]


class TestLapackRouteMatchesF2py:
    """``eig_tridiagonal`` calls dstev and dpttrf through the cython_lapack
    capsules; scipy.linalg.lapack's f2py wrappers of the same routines are
    the oracle, bit for bit."""

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_same_bits_as_the_f2py_wrappers(self, scale):
        from scipy.linalg import lapack

        for alpha, beta in _tridiagonals():
            alpha, beta = alpha * scale, beta * scale
            ref, _, info = lapack.dstev(alpha, beta, compute_v=0)
            assert info == 0
            got = eig_tridiagonal(TridiagonalMatrix(alpha, beta))
            assert np.array_equal(got.values, ref)
            # a shifted, strictly diagonally dominant matrix, as the one
            # whose factor gives the Ritz weights
            d = alpha + 2.0 * np.max(np.abs(alpha) + np.append(beta, 0.0)
                                     + np.append(0.0, beta))
            D_ref, L_ref, info = lapack.dpttrf(d, beta)
            assert info == 0
            D, L, info = _ctypes_dpttrf(d, beta)
            assert info == 0
            assert np.array_equal(D, D_ref) and np.array_equal(L, L_ref)

    def test_ghost_heavy_tridiagonal_is_among_the_cases(self):
        T = TridiagonalMatrix(*_tridiagonals()[-1])
        values = eig_tridiagonal(T).values
        assert T.order == 2048
        assert np.sum(np.diff(values) < 1e-10) > 1024

    def test_failures_match_the_f2py_wrappers(self):
        from scipy.linalg import lapack

        d, e = np.array([1.0, -1.0, 2.0]), np.array([0.0, 0.5])
        assert _ctypes_dpttrf(d, e)[2] == lapack.dpttrf(d, e)[2] == 2
        alpha, beta = np.array([1.0, np.nan, 2.0]), np.array([1.0, 1.0])
        info = lapack.dstev(alpha, beta, compute_v=0)[2]
        assert info != 0
        with pytest.raises(ConvergenceError, match=f"dstev.*info={info}"):
            eig_tridiagonal(TridiagonalMatrix(alpha, beta))


# ---------------------------------------------------------------------------
# ritz_pairs: the batched solve, its threads and its failures
# ---------------------------------------------------------------------------

def _bits(pairs):
    return (pairs.values.tobytes(), pairs.first_components.tobytes(),
            pairs.last_components.tobytes())


@functools.cache
def _batch():
    """Tridiagonals of orders 1, 2, 32, 512 and 2048, the ghost-heavy one
    among them, and a Lanczos run shortened by breakdown."""
    rng = np.random.default_rng(31)
    out = [TridiagonalMatrix(rng.standard_normal(n),
                             np.abs(rng.standard_normal(n - 1)))
           for n in (1, 2, 32, 512, 2048)]
    out.append(TridiagonalMatrix(*_tridiagonals()[-1]))
    # five distinct eigenvalues: the recurrence breaks down after 5 steps
    op = dense_operator(np.diag(np.repeat([-2.0, -0.5, 0.0, 1.0, 3.0], 8)))
    T, ritz = fast_lanczos(op, 20, 7)
    assert ritz.breakdown and T.order == 5
    return out + [T]


def _reference_rows(T):
    """Rows 1 and M of the eigenvector matrix of T from the reference
    ``dbdsqr`` route. Below order 2048 that is the whole matrix; the full
    route would take about 30 s per order-2048 matrix, so those start from
    four rows of the identity instead, rows M and 1 among them in swapped
    places."""
    n = T.order
    if n < 2048:
        V = dbdsqr_eigenvectors(T)
        return V[0], V[-1]
    V = dbdsqr_eigenvectors(T, [n - 1, n // 2, 1, 0])
    return V[3], V[0]


class TestRitzPairs:
    def test_bitwise_equal_to_sequential_solves(self, monkeypatch):
        """Batched at 2 usable CPUs, batched at 1 and one at a time give
        the same bits, and the first and last components are the first and
        last rows of the full-vector route's eigenvector matrix; also with
        every matrix scaled near under- and overflow."""
        assert [T.order for T in _batch()] == [1, 2, 32, 512, 2048, 2048, 5]
        for scale in (1.0, 1e200, 1e-200):
            Ts = [TridiagonalMatrix(T.alpha * scale, T.beta * scale)
                  for T in _batch()]
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
            batched = linalg.ritz_pairs(Ts)
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
            bits = list(map(_bits, batched))
            assert [_bits(eig_tridiagonal(T)) for T in Ts] == bits
            assert list(map(_bits, linalg.ritz_pairs(Ts))) == bits
            for pairs, T in zip(batched, Ts):
                first, last = _reference_rows(T)
                assert np.array_equal(pairs.first_components, first)
                assert np.array_equal(pairs.last_components, last)

    def test_input_is_not_overwritten(self):
        Ts = _batch()[2:4]
        before = [(T.alpha.copy(), T.beta.copy()) for T in Ts]
        linalg.ritz_pairs(Ts + Ts)        # shared arrays, solved twice
        for T, (alpha, beta) in zip(Ts, before):
            assert np.array_equal(T.alpha, alpha)
            assert np.array_equal(T.beta, beta)

    def test_empty_batch(self):
        assert linalg.ritz_pairs([]) == []

    @pytest.mark.parametrize("cpus,tasks,threads", [
        (1, 6, 0), (2, 6, 1), (4, 3, 2), (4, 1, 0), (3, 0, 0), (3, 5, 2)])
    def test_worker_count(self, monkeypatch, cpus, tasks, threads):
        """Over 50 calls, a fresh pool starts min(tasks, usable CPUs) - 1
        helper threads, never more than usable CPUs - 1, and they are
        daemons; every task runs once per call. With one CPU or one task,
        the calling thread runs them all in list order."""
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(linalg.threading, "Thread", Counted)
        monkeypatch.setattr(linalg, "_WORKERS", linalg._Workers())
        caller, ran = threading.current_thread(), []

        def record(i):
            ran.append((i, threading.current_thread()))

        for _ in range(50):
            ran.clear()
            linalg._run_tasks([functools.partial(record, i)
                               for i in range(tasks)])
            assert sorted(i for i, _ in ran) == list(range(tasks))
            if min(tasks, cpus) <= 1:
                assert ran == [(i, caller) for i in range(tasks)]
        assert len(started) == threads
        assert all(thread.daemon for thread in started)

    def test_concurrent_callers_share_the_workers(self, monkeypatch):
        """Two threads fan tasks out at once over more workers than cores,
        with a short switch interval: every task of every call runs once,
        and no call returns before its own tasks have ended."""
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 6)
        monkeypatch.setattr(linalg, "_WORKERS", linalg._Workers())
        rounds, failures = 30, []

        def caller(counts):
            try:
                for done in range(1, rounds + 1):
                    # each cell is touched by one task per call
                    linalg._run_tasks([functools.partial(
                        counts.__setitem__, i, done)
                        for i in range(len(counts))])
                    assert counts == [done] * len(counts)
            except BaseException as err:
                failures.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=([0] * 64,))
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(linalg._WORKERS.threads) == 5

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_workers(self, monkeypatch):
        # the parent's workers do not exist in a forked child: without a
        # fresh pool there the child's tasks would wait for them forever
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        ran = []
        linalg._run_tasks([functools.partial(ran.append, i) for i in range(4)])
        parent_pool = linalg._WORKERS
        assert parent_pool.threads
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)
                linalg._run_tasks([functools.partial(ran.append, i)
                                   for i in range(4, 8)])
                if (linalg._WORKERS is not parent_pool
                        and sorted(ran) == list(range(8))):
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_failures_raise_in_sequential_order(self, monkeypatch, cpus):
        """The lowest failing matrix raises, dstev before dbdsqr, with the
        one-matrix message, and no warning escapes from a worker thread."""
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        # a warning turned error in a worker would end up here
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        healthy = _batch()[2:4]
        nan = tridiagonal(alpha=[1.0, np.nan, 2.0], beta=[1.0, 1.0])
        big = tridiagonal(alpha=[1.0, 2.0, 3.0], beta=[1e308, 1e308])
        messages = {}
        for name, T in (("nan", nan), ("big", big)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ConvergenceError) as info:
                eig_tridiagonal(T)
            messages[name] = str(info.value)
        assert "dstev" in messages["nan"] and "dbdsqr" in messages["big"]
        for order, first in (((nan, big), "nan"), ((big, nan), "big")):
            Ts = [healthy[0], *order[:1], healthy[1], *order[1:], healthy[0]]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(ConvergenceError) as info:
                    linalg.ritz_pairs(Ts)
            assert str(info.value) == messages[first]
        assert escaped == []

    def test_lockstep_runs_share_one_batched_solve(self, monkeypatch):
        sizes = []
        solve = linalg.ritz_pairs

        def counted(Ts):
            sizes.append(len(Ts))
            return solve(Ts)

        # eig_tridiagonal solves through linalg's binding, the lockstep
        # runs through lanczos's: count both
        monkeypatch.setattr(lanczos, "ritz_pairs", counted)
        monkeypatch.setattr(linalg, "ritz_pairs", counted)
        A = sample(EnsembleSpec(kind="goe", p=50, seed=2))
        density = lanczos.approx_spectrum(dense_operator(A), steps=40,
                                          n_vec=3, grid_points=64)
        # the range estimate's run, solved once, then the density's three
        # together
        assert sizes == [1, 3]
        assert len(density.ritz) == 3


# ---------------------------------------------------------------------------
# householder_tridiagonalize (the oracle's dense-to-tridiagonal reduction)
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
        assert (np.linalg.norm(Q.T @ A @ Q - tridiag_to_dense(T.alpha, T.beta))
                <= 1e-10 * scale)
        assert np.linalg.norm(Q.T @ Q - np.eye(40)) <= 1e-12

    def test_spectrum_matches_dense_oracle_100(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((100, 100))
        A = (A + A.T) / 2
        T, _ = householder_tridiagonalize(A)
        hand = eig_tridiagonal(T).values
        oracle = dense_eig(A)
        np.testing.assert_allclose(hand, oracle,
                                   atol=1e-8 * np.abs(oracle).max())

    def test_asymmetric_rejected(self):
        with pytest.raises(UsageError, match="symmetric"):
            householder_tridiagonalize(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# dense_eig
# ---------------------------------------------------------------------------

class TestDenseEig:
    def test_identity(self):
        values = dense_eig(np.eye(10))
        np.testing.assert_array_equal(values, np.ones(10))

    def test_spiked_diagonal(self):
        values = dense_eig(np.diag([5.0, 4.0, 3.0] + [0.0] * 7))
        np.testing.assert_allclose(values[-3:], [3.0, 4.0, 5.0], atol=0)
        np.testing.assert_allclose(values[:7], 0.0, atol=0)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((80, 80))
        A = (A + A.T) / 2
        values = dense_eig(A)
        assert abs(values.sum() - np.trace(A)) <= 1e-8 * 80 * np.abs(values).max()

    def test_size_cap_is_one_constant_the_commands_share(self):
        """dense_eig takes a matrix of any size; synth's oracle and
        decompose's factor Gram matrix stop at this one public cap."""
        assert linalg.DENSE_SIZE_CAP == 4096
        assert cli.DENSE_SIZE_CAP is linalg.DENSE_SIZE_CAP
