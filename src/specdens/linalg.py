"""Dense and tridiagonal symmetric eigensolvers, both on LAPACK.

`ritz_pairs` powers the estimators: it turns the Lanczos tridiagonals of
a density into Ritz values and the first and last components of their
eigenvectors, in O(M) memory each, running their LAPACK calls in parallel
on the usable CPUs, with bits that depend on neither that count nor the
BLAS thread count. Its worker threads (:func:`_run_tasks`) also run the
panel ranges of the dense products in :mod:`specdens.operators`.
`eig_tridiagonal` is its one-matrix case. The three LAPACK routines are
called through ctypes from the one scipy extension that exports them, so
no command that solves a tridiagonal problem imports the
``scipy.linalg`` package.
`dense_eig` gives the eigenvalues of an explicit matrix. The
independent checks on both (a hand-written QL iteration, Householder
reduction and Sturm bisection) live with the tests, in
``tests/oracles.py``.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import queue
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

# the commands solve no larger matrix with dense_eig (synth's oracle,
# decompose's factor Gram matrix): beyond this, estimate matrix-free
DENSE_SIZE_CAP = 4096


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix: diagonal ``alpha``, subdiagonal ``beta``,
    1-d float64 arrays of lengths M >= 1 and M - 1.

    ``beta`` entries are nonnegative — they arise as vector norms in the
    recurrences that build these matrices, and the eigensolver relies on
    that convention only for reproducibility, not correctness.
    """

    alpha: np.ndarray
    beta: np.ndarray

    @property
    def order(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues ascending, with the first and the last component of each
    (orthonormal) eigenvector, aligned with ``values``: the squared first
    components are the Gauss quadrature weights, and by Paige's relation
    the last ones scale the Ritz residuals."""

    values: np.ndarray
    first_components: np.ndarray
    last_components: np.ndarray


_CYTHON_LAPACK = "scipy.linalg.cython_lapack"
_CYTHON_LAPACK_LOCK = threading.Lock()


@functools.cache
def _lapack():
    """``(dstev, dpttrf, dbdsqr)`` from the LAPACK that scipy ships.

    Each is the C entry point that scipy's ``cython_lapack`` extension
    exports as a capsule (LP64 ``int``), called through ctypes: ``int*``
    arguments take ``ctypes.c_int``, ``double*`` ones a data address. Only
    that extension is loaded, without running ``scipy/linalg/__init__.py``:
    the ``scipy.linalg`` package would cost about 0.27 s and 20 MB of peak
    memory in every ``spectrum`` and ``decompose`` process. Loaded on first
    use, so commands that solve no tridiagonal problem pay nothing.

    The extension is registered in ``sys.modules`` under its own name, so
    a later ``import scipy.linalg`` by the caller reuses it instead of
    initialising it twice. That import does not bind it as an
    attribute of ``scipy.linalg``; ``from scipy.linalg import
    cython_lapack`` still finds it.

    The load holds a module lock: ``functools.cache`` does not serialize
    a first call, and threads that load the extension at once see it half
    initialised (no ``__pyx_capi__``) or have it refuse a second
    initialisation.
    """
    with _CYTHON_LAPACK_LOCK:
        module = sys.modules.get(_CYTHON_LAPACK)
        if module is None:
            scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
            spec = importlib.machinery.PathFinder.find_spec(
                _CYTHON_LAPACK, [os.path.join(scipy_dirs[0], "linalg")])
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_CYTHON_LAPACK] = module
    capi = module.__pyx_capi__
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))

    def bind(name, *argtypes):
        capsule = capi[name]
        return ctypes.CFUNCTYPE(None, *argtypes)(
            get_pointer(capsule, get_name(capsule)))

    i, d = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    # dstev(jobz, n, d, e, z, ldz, work, info)
    dstev = bind("dstev", ctypes.c_char_p, i, d, d, d, i, d, i)
    # dpttrf(n, d, e, info)
    dpttrf = bind("dpttrf", i, d, d, i)
    # dbdsqr(uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc, work,
    # info)
    dbdsqr = bind("dbdsqr", ctypes.c_char_p, i, i, i, i, d, d, d, i, d, i, d,
                  i, d, i)
    return dstev, dpttrf, dbdsqr


def _shifted_factor(T: TridiagonalMatrix, dpttrf,
                    info: ctypes.c_int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal of the lower bidiagonal factor B = L D^(1/2)
    of T + s I, whose left singular vectors are the eigenvectors of T.

    T + s I, shifted by twice its Gershgorin radius, is strictly diagonally
    dominant, so its Cholesky factor is stable. A ``dpttrf`` failure is
    left in ``info``, with the factor unscaled.
    """
    alpha, beta = T.alpha, T.beta
    n = alpha.size
    pad = np.zeros(n + 1)
    pad[1:-1] = beta
    radius = float(np.max(np.abs(alpha) + pad[:-1] + pad[1:]))
    shift = 2.0 * radius if radius > 0.0 else 1.0
    # dpttrf overwrites D and L with the factor: fresh arrays, not T's
    D, L = alpha + shift, beta.copy()
    dpttrf(ctypes.c_int(n), D.ctypes.data, L.ctypes.data, info)
    if info.value == 0:
        np.sqrt(D, out=D)
        L *= D[:-1]
    return D, L


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Workers:
    """Daemon helper threads that take jobs off one queue, started on
    first need and kept for the life of the process (or until a fork)."""

    def __init__(self):
        self.jobs = queue.SimpleQueue()
        self.threads = []
        self.lock = threading.Lock()

    def start(self, count: int) -> None:
        """Have at least ``count`` threads serving the queue."""
        with self.lock:
            while len(self.threads) < count:
                thread = threading.Thread(target=self._serve, daemon=True,
                                          name="specdens-worker")
                thread.start()
                self.threads.append(thread)

    def _serve(self) -> None:
        while True:
            self.jobs.get()()


_WORKERS = _Workers()


def _reset_workers() -> None:
    # a forked child has none of its parent's threads, and the queue and
    # lock may have been held by one of them
    global _WORKERS
    _WORKERS = _Workers()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_workers)


def _run_tasks(tasks: list) -> None:
    """Call every task once, taking them in list order, on ``min(len(tasks),
    usable CPUs)`` threads: the calling thread and persistent daemon
    workers, of which at most usable CPUs - 1 are ever started. With one
    usable CPU, or one task, the calling thread runs them all.

    A task is a LAPACK call through ctypes or an ``np.matmul`` into arrays
    the caller owns; both release the GIL for their length. A worker runs
    its tasks in a copy of the caller's context, so numpy's ``errstate``
    holds there too. An exception in a task is raised on the calling
    thread once every task has ended; a task taken after it still runs.
    """
    helpers = min(len(tasks), _usable_cpus()) - 1
    if helpers < 1:
        for task in tasks:
            task()
        return
    pending = iter(tasks)    # next() on one list iterator is atomic under the GIL
    ended, errors = queue.SimpleQueue(), []

    def drain():
        try:
            for task in pending:
                task()
        except BaseException as err:     # re-raised on the calling thread
            errors.append(err)
        finally:
            ended.put(None)

    _WORKERS.start(helpers)
    for _ in range(helpers):
        # a context can be entered by one thread at a time: one copy each
        _WORKERS.jobs.put(functools.partial(contextvars.copy_context().run,
                                            drain))
    try:
        for task in pending:
            task()
    finally:
        # the tasks write into arrays the caller owns: wait for all of them
        for _ in range(helpers):
            ended.get()
    if errors:
        raise errors[0]


def ritz_pairs(Ts: list[TridiagonalMatrix]) -> list[EigenPairs]:
    """:func:`eig_tridiagonal` of every matrix in ``Ts``, with the LAPACK
    calls of all of them run in parallel.

    Everything but LAPACK runs on the calling thread: the copies, the
    Gershgorin shift, the ``dpttrf`` factor and its scaling, and every
    output and work array. Each matrix's ``dstev`` and ``dbdsqr`` are then
    separate tasks, the ``dbdsqr`` ones first and longest first, for
    :func:`_run_tasks`. Each call is single-threaded and deterministic, so
    the bits do not depend on how many threads ran them. A failure is
    raised as a sequential solve would raise it: the first matrix in
    ``Ts`` first, and ``dstev``, ``dpttrf``, ``dbdsqr`` in that order.
    """
    dstev, dpttrf, dbdsqr = _lapack()
    one, two, unused = ctypes.c_int(1), ctypes.c_int(2), np.empty(1)
    # solves holds every array a task writes or reads until the tasks end
    solves, vector_tasks, value_tasks = [], [], []
    for T in Ts:
        n = T.order
        # dstev overwrites d with the eigenvalues and e with scratch, and
        # the arrays of a TridiagonalMatrix may be shared: hand it copies
        values, scratch = T.alpha.copy(), T.beta.copy()
        infos = [ctypes.c_int(0) for _ in range(3)]
        # jobz "N": Z (ldz 1) and the work array are never referenced
        value_tasks.append((n, functools.partial(
            dstev, b"N", ctypes.c_int(n), values.ctypes.data,
            scratch.ctypes.data, unused.ctypes.data, one, unused.ctypes.data,
            infos[0])))
        # rows e_1 and e_n of the identity: dbdsqr rotates every row of U
        # on its own, so these come out as rows 1 and n of the full
        # eigenvector matrix, bit for bit
        U = np.zeros((2, n), order="F")
        U[0, 0] = U[1, -1] = 1.0
        D, L = _shifted_factor(T, dpttrf, infos[1])
        work = np.empty(4 * n)
        # dbdsqr applies its rotations to U one at a time: no BLAS-3, so
        # the bits do not depend on the BLAS thread count. No right vectors
        # (ncvt=0) and no C (ncc=0): VT and C are never read
        if infos[1].value == 0:
            vector_tasks.append((n, functools.partial(
                dbdsqr, b"L", ctypes.c_int(n), ctypes.c_int(0), two,
                ctypes.c_int(0), D.ctypes.data, L.ctypes.data,
                work.ctypes.data, one, U.ctypes.data, two, work.ctypes.data,
                one, work.ctypes.data, infos[2])))
        solves.append((values, U, infos, scratch, D, L, work))
    _run_tasks([task for tasks in (vector_tasks, value_tasks)
                for _, task in sorted(tasks, key=lambda job: -job[0])])
    out = []
    for values, U, infos, *_ in solves:
        for routine, info in zip(("dstev", "dpttrf", "dbdsqr"), infos):
            if info.value != 0:
                raise ConvergenceError(
                    f"LAPACK {routine} failed (info={info.value})")
        # dbdsqr orders singular values, hence eigenvalues, descending
        out.append(EigenPairs(values=values, first_components=U[0, ::-1].copy(),
                              last_components=U[1, ::-1].copy()))
    return out


def eig_tridiagonal(T: TridiagonalMatrix) -> EigenPairs:
    """Eigenvalues of a symmetric tridiagonal matrix with the first and
    last components of its eigenvectors (LAPACK), in O(M) memory.

    Eigenvalues come from ``dstev`` without vectors (root-free QR,
    ``dsterf``, after ``dstev`` rescales a matrix whose norm is near under-
    or overflow). The two eigenvector rows come from ``dbdsqr``, the
    bidiagonal SVD of a shifted Cholesky factor (see
    :func:`_shifted_factor`), which carries only those rows and 4M doubles
    of work. The output bits are the same for any BLAS thread count. A
    LAPACK failure raises :class:`ConvergenceError`. The one-matrix case
    of :func:`ritz_pairs`.
    """
    return ritz_pairs([T])[0]


def dense_eig(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a dense symmetric float64 matrix, ascending (LAPACK).

    Only the lower triangle is read. The commands call it on matrices of
    at most ``DENSE_SIZE_CAP`` rows: beyond that, use the matrix-free
    estimators in :mod:`specdens.lanczos`, which is what they are for.
    """
    return np.linalg.eigvalsh(A)
