"""Independent oracles used by the test suite.

Everything here is deliberately implemented by a different route than the
library code it checks: hand-written QL iteration, Householder reduction and
Sturm-sequence bisection instead of LAPACK, full reorthogonalization
instead of the bare three-term recurrence, closed-form random-matrix laws
instead of sampled spectra, finite differences instead of analytic
derivatives, explicitly materialized Jacobians and stored per-example vectors instead
of matrix-free products. Slow is fine; independent is the point.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from specdens.errors import ConvergenceError, UsageError
from specdens.lanczos import (
    _BREAKDOWN_TOL,
    _TRUNCATE_SIGMAS,
    RitzSummary,
    _start_vector,
)
from specdens import linalg
from specdens.linalg import (
    EigenPairs,
    TridiagonalMatrix,
    _require_symmetric,
    eig_tridiagonal,
)
from specdens.data import LabeledDataset, one_hot
from specdens.net import MlpSpec, loss_and_error, unflatten
from specdens.operators import SymmetricOperator

_EPS = float(np.finfo(np.float64).eps)

# sweeps per eigenvalue before QL iteration gives up; generous — classic
# implementations converge in 2-3
_MAX_SWEEPS = 50


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigenvalues by Sturm bisection
# ---------------------------------------------------------------------------

def sturm_count(alpha: np.ndarray, beta: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal (alpha, beta) strictly below x.

    Classic Sturm sequence on the shifted LDL^T recurrence; beta may carry
    any signs since only beta**2 enters.
    """
    n = len(alpha)
    count = 0
    q = alpha[0] - x
    if q < 0:
        count += 1
    for i in range(1, n):
        if q == 0.0:
            # exact zero pivot: nudge, standard bisection trick
            q = 1e-300
        q = (alpha[i] - x) - beta[i - 1] ** 2 / q
        if q < 0:
            count += 1
    return count


def bisection_eigenvalues(alpha, beta, tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    Gershgorin bracket + bisection on the Sturm count. O(n^2 log(1/tol)),
    only suitable for the small matrices used in tests.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n = len(alpha)
    pad = np.concatenate(([0.0], np.abs(beta), [0.0]))
    lo = float(np.min(alpha - pad[:-1] - pad[1:]))
    hi = float(np.max(alpha + pad[:-1] + pad[1:]))
    span = max(hi - lo, 1.0)
    lo -= 1e-3 * span
    hi += 1e-3 * span
    out = np.empty(n)
    for k in range(n):
        a, b = lo, hi
        # invariant: count(a) <= k < count(b)
        while b - a > tol * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if sturm_count(alpha, beta, mid) <= k:
                a = mid
            else:
                b = mid
        out[k] = 0.5 * (a + b)
    return out


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigenpairs by implicit-shift QL iteration
# ---------------------------------------------------------------------------

def ql_eig_tridiagonal(T: TridiagonalMatrix) -> EigenPairs:
    """Eigenvalues of a symmetric tridiagonal matrix with the first and last
    components of its eigenvectors.

    Implicit-shift QL iteration with Wilkinson shifts, in plain Python: the
    hand-written counterpart of :func:`specdens.linalg.eig_tridiagonal`.
    Only rows 1 and n of the eigenvector matrix are accumulated, so extra
    memory is O(M). Ties in the eigenvalues are broken by ascending
    pre-sort index so the output is deterministic.
    """
    n = T.order
    # work in plain Python floats: the scalar recurrence dominates and
    # ndarray scalar indexing is several times slower
    d = [float(x) for x in T.alpha]
    e = [float(x) for x in T.beta] + [0.0]

    # rows 1 and n of the identity, rotated as the whole matrix would be
    rows = ([1.0] + [0.0] * (n - 1), [0.0] * (n - 1) + [1.0])

    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                raise ConvergenceError(
                    f"QL iteration exceeded {_MAX_SWEEPS} sweeps at index {l}"
                )
            # shift from the leading 2x2 of the active block
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # rotation annihilated early; deflate and restart
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                for z in rows:
                    f = z[i + 1]
                    z[i + 1] = s * z[i] + c * f
                    z[i] = c * z[i] - s * f
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    values = np.array(d)
    order = np.argsort(values, kind="stable")
    values = values[order]
    first, last = (np.array(z)[order] for z in rows)
    return EigenPairs(values=values, first_components=first,
                      last_components=last)


def dbdsqr_eigenvectors(T: TridiagonalMatrix, rows=None) -> np.ndarray:
    """Rows ``rows`` (default all) of the eigenvector matrix of T, one
    column per eigenvalue in ascending order, from the library's own
    LAPACK route: ``dbdsqr`` on the shifted Cholesky factor, started from
    those rows of the identity. By default that is the whole matrix, the
    full-vector route, which takes O(M^2) memory and about 30 s at
    M = 2048.

    A reference with the library's bits, not an independent oracle: rows
    1 and n must equal the library's first and last components bit for
    bit, and where Ritz values come in near-equal ghost pairs a different
    solver may return another vector of the pair.
    """
    _, dpttrf, dbdsqr = linalg._lapack()
    n = T.order
    info = ctypes.c_int(0)
    D, L = linalg._shifted_factor(T, dpttrf, info)
    if info.value != 0:
        raise ConvergenceError(f"LAPACK dpttrf failed (info={info.value})")
    rows = np.arange(n) if rows is None else np.asarray(rows)
    U = np.zeros((rows.size, n), order="F")
    U[np.arange(rows.size), rows] = 1.0
    work = np.empty(4 * n)
    one, nru = ctypes.c_int(1), ctypes.c_int(U.shape[0])
    dbdsqr(b"L", ctypes.c_int(n), ctypes.c_int(0), nru, ctypes.c_int(0),
           D.ctypes.data, L.ctypes.data, work.ctypes.data, one, U.ctypes.data,
           nru, work.ctypes.data, one, work.ctypes.data, info)
    if info.value != 0:
        raise ConvergenceError(f"LAPACK dbdsqr failed (info={info.value})")
    return U[:, ::-1]


# ---------------------------------------------------------------------------
# dense symmetric matrix to tridiagonal form by Householder reflections
# ---------------------------------------------------------------------------

def householder_tridiagonalize(A: np.ndarray) -> tuple[TridiagonalMatrix, np.ndarray]:
    """Reduce a dense symmetric matrix to tridiagonal form: A = Q T Q^T.

    Classic Householder reduction working on the trailing block; columns that
    are already tridiagonal are skipped, so an input that is tridiagonal to
    begin with comes back unchanged with Q = I. A final sign pass flips basis
    vectors so every subdiagonal entry is nonnegative.
    """
    A = np.array(A, dtype=np.float64, copy=True)
    _require_symmetric(A)
    n = A.shape[0]
    Q = np.eye(n)
    for k in range(n - 2):
        x = A[k + 1:, k]
        tail = float(np.linalg.norm(x[1:]))
        if tail == 0.0:
            continue
        a0 = -math.copysign(math.hypot(float(x[0]), tail), float(x[0]) or 1.0)
        v = x.copy()
        v[0] -= a0
        v /= np.linalg.norm(v)
        B = A[k + 1:, k + 1:]            # view: updates land in A
        u = B @ v
        w = u - (v @ u) * v
        B -= 2.0 * np.outer(v, w)
        B -= 2.0 * np.outer(w, v)
        A[k + 1, k] = A[k, k + 1] = a0
        A[k + 2:, k] = 0.0
        A[k, k + 2:] = 0.0
        Qv = Q[:, k + 1:] @ v
        Q[:, k + 1:] -= 2.0 * np.outer(Qv, v)

    alpha = np.diag(A).copy()
    beta = np.diag(A, -1).copy()
    if n > 1:
        # flip basis signs to make the subdiagonal nonnegative; a diagonal
        # similarity, so eigenvalues are untouched
        signs = np.ones(n)
        for j in range(n - 1):
            signs[j + 1] = signs[j] * (1.0 if beta[j] >= 0.0 else -1.0)
        Q *= signs
        beta = np.abs(beta)
    return TridiagonalMatrix(alpha=alpha, beta=beta), Q


# ---------------------------------------------------------------------------
# dense materialization helpers
# ---------------------------------------------------------------------------

def op_to_dense(op) -> np.ndarray:
    """Materialize a matrix-free operator column by column."""
    p = op.dim
    cols = np.empty((p, p))
    eye = np.eye(p)
    for j in range(p):
        cols[:, j] = op.apply(eye[:, j])
    return cols


def tridiag_to_dense(alpha, beta) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


# ---------------------------------------------------------------------------
# Lanczos with full reorthogonalization
# ---------------------------------------------------------------------------

def slow_lanczos(op: SymmetricOperator, steps: int,
                 seed) -> tuple[TridiagonalMatrix, RitzSummary]:
    """Lanczos with full reorthogonalization. Validation-scale only.

    Stores the whole basis and reorthogonalizes each iterate against it
    (two passes), so with steps = p it reproduces the dense spectrum to
    near machine precision. Guarded to p <= 10^4 since the basis is dense.
    """
    p = op.dim
    if p > 10_000:
        raise UsageError(
            f"slow_lanczos stores the full basis; p = {p} exceeds the 10^4 guard"
        )
    if not 1 <= steps <= p:
        raise UsageError(f"steps must be in [1, {p}], got {steps}")
    v = _start_vector(p, np.random.default_rng(seed))
    V = np.empty((p, steps))
    alpha: list[float] = []
    beta: list[float] = []
    v_prev = None
    breakdown = False
    scale = 0.0
    for m in range(1, steps + 1):
        V[:, m - 1] = v
        w = op.apply(v)
        if m > 1:
            w = w - beta[-1] * v_prev
        a = float(w @ v)
        alpha.append(a)
        if m == steps:
            break
        w = w - a * v
        basis = V[:, :m]
        for _ in range(2):
            w = w - basis @ (basis.T @ w)
        b = float(np.linalg.norm(w))
        scale = max(scale, abs(a) + b)
        if b <= _BREAKDOWN_TOL * scale:
            breakdown = True
            break
        beta.append(b)
        v_prev = v
        v = w / b
    T = TridiagonalMatrix(alpha=np.array(alpha), beta=np.array(beta))
    pairs = eig_tridiagonal(T)
    return T, RitzSummary(theta=pairs.values,
                          weights=pairs.first_components ** 2, seed=seed,
                          steps=T.order, breakdown=breakdown)


def explicit_residual_bounds(op: SymmetricOperator, steps: int,
                             seed) -> tuple[float, float]:
    """Extremal Ritz values pushed out by explicitly formed residuals.

    The same bare recurrence as :func:`specdens.lanczos.estimate_range`
    (no reorthogonalization, same start vector), but it stores its basis,
    builds the two extremal Ritz vectors z = V y, and measures
    ||A z - theta z|| with two more products instead of reading the
    residual off the recurrence. The tridiagonal eigenvectors come from
    the library's LAPACK route on purpose (:func:`dbdsqr_eigenvectors`):
    once orthogonality is lost, Ritz values come in near-equal ghost
    pairs, and a different solver may return another vector of the pair,
    with another residual. Returns the unpadded (low, high).
    """
    m = min(steps, op.dim)
    v = _start_vector(op.dim, np.random.default_rng(seed))
    V = np.empty((op.dim, m))
    alpha: list[float] = []
    beta: list[float] = []
    v_prev = None
    scale = 0.0
    for j in range(m):
        V[:, j] = v
        w = op.apply(v)
        if j:
            w = w - beta[-1] * v_prev
        alpha.append(float(np.add.reduce(w * v)))
        if j == m - 1:
            break
        w = w - alpha[-1] * v
        b = float(np.sqrt(np.add.reduce(w * w)))
        scale = max(scale, abs(alpha[-1]) + b)
        if b <= _BREAKDOWN_TOL * scale:
            break
        beta.append(b)
        v_prev = v
        v = w / b
    k = len(alpha)
    T = TridiagonalMatrix(alpha=np.array(alpha), beta=np.array(beta))
    values, vectors = eig_tridiagonal(T).values, dbdsqr_eigenvectors(T)
    bounds = []
    for col, sign in ((0, -1.0), (-1, 1.0)):
        theta = float(values[col])
        z = V[:, :k] @ vectors[:, col]
        z /= np.linalg.norm(z)
        bounds.append(theta + sign * float(np.linalg.norm(op.apply(z) - theta * z)))
    return bounds[0], bounds[1]


# ---------------------------------------------------------------------------
# symmetry probe of a matrix-free operator
# ---------------------------------------------------------------------------

def symmetry_defect(op: SymmetricOperator, pairs: int = 10,
                    seed: int = 0) -> float:
    """Largest normalized defect |<Au,w> - <u,Aw>| over random probe pairs.

    A genuinely symmetric operator scores ~1e-15; anything above 1e-8 means
    the matvec is lying about symmetry.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        u = rng.standard_normal(op.dim)
        w = rng.standard_normal(op.dim)
        au = op.apply(u)
        aw = op.apply(w)
        defect = abs(au @ w - u @ aw)
        scale = float(np.linalg.norm(au) * np.linalg.norm(w))
        worst = max(worst, defect / max(scale, 1e-300))
    return worst


# ---------------------------------------------------------------------------
# closed-form random-matrix densities
# ---------------------------------------------------------------------------

def mp_support(gamma: float, sigma2: float = 1.0) -> tuple[float, float]:
    """Bulk support edges of the Marchenko-Pastur law, gamma = n/p."""
    if gamma <= 0:
        raise UsageError("gamma must be positive")
    root = 1.0 / math.sqrt(gamma)
    return sigma2 * (1.0 - root) ** 2, sigma2 * (1.0 + root) ** 2


def mp_density(lam, gamma: float, sigma2: float = 1.0) -> np.ndarray:
    """Marchenko-Pastur bulk density at ``lam`` (aspect gamma = n/p).

    For gamma < 1 there is additionally a point mass of 1 - gamma at zero,
    reported by :func:`mp_zero_mass`, never folded into the density.
    """
    a, b = mp_support(gamma, sigma2)
    lam = np.asarray(lam, dtype=np.float64)
    out = np.zeros_like(lam)
    inside = (lam > a) & (lam < b) & (lam != 0.0)
    x = lam[inside]
    out[inside] = (gamma / (2.0 * math.pi * sigma2)) * np.sqrt(
        (b - x) * (x - a)
    ) / x
    return out


def mp_zero_mass(gamma: float) -> float:
    """Weight of the spectral atom at zero (rank deficiency), gamma = n/p."""
    if gamma <= 0:
        raise UsageError("gamma must be positive")
    return max(0.0, 1.0 - gamma)


def semicircle_density(lam, radius: float = 2.0) -> np.ndarray:
    """Wigner semicircle on [-radius, radius]."""
    if radius <= 0:
        raise UsageError("radius must be positive")
    lam = np.asarray(lam, dtype=np.float64)
    out = np.zeros_like(lam)
    inside = np.abs(lam) < radius
    out[inside] = (2.0 / (math.pi * radius ** 2)) * np.sqrt(
        radius ** 2 - lam[inside] ** 2
    )
    return out


# ---------------------------------------------------------------------------
# smoothed densities, one bump at a time
# ---------------------------------------------------------------------------

def normal_cdf(x: np.ndarray) -> np.ndarray:
    """0.5 * erfc(-x / sqrt 2) one float at a time: the reference for the
    bits of ``lanczos._normal_cdf``."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x],
                    dtype=np.float64)


def accumulate_bumps_loop(centers, weights, grid, sigma: float) -> np.ndarray:
    """Gaussian cell masses deposited bump by bump, in bump order: the
    reference for the vectorized ``lanczos.accumulate_bumps`` (same cells,
    same per-cell summation order, so the two agree bit for bit)."""
    grid = np.asarray(grid, dtype=np.float64)
    K = grid.size
    h = (grid[-1] - grid[0]) / (K - 1)
    edges = np.empty(K + 1)
    edges[1:-1] = 0.5 * (grid[1:] + grid[:-1])
    edges[0] = grid[0] - 0.5 * h
    edges[-1] = grid[-1] + 0.5 * h
    values = np.zeros(K)
    reach = _TRUNCATE_SIGMAS * sigma
    for c, w in zip(np.asarray(centers, dtype=np.float64),
                    np.asarray(weights, dtype=np.float64)):
        if w == 0.0:
            continue
        j0 = max(int(np.searchsorted(edges, c - reach, side="left")) - 1, 0)
        j1 = min(int(np.searchsorted(edges, c + reach, side="right")), K)
        if j0 >= j1:
            continue
        cdf = normal_cdf((edges[j0:j1 + 1] - c) / sigma)
        values[j0:j1] += w * np.diff(cdf)
    return values / h


# ---------------------------------------------------------------------------
# Gaussian-mixture draw, one class at a time
# ---------------------------------------------------------------------------

def gaussian_mixture_loop(spec) -> tuple:
    """(x, y) of the train and test splits, drawn class by class from one
    generator: the reference for ``pipeline.gaussian_mixture``."""
    rng = np.random.default_rng(spec.seed)
    splits = []
    for count in (spec.n_per_class, spec.n_test_per_class or spec.n_per_class):
        xs, ys = [], []
        for c in range(spec.classes):
            mean = np.zeros(spec.dim)
            mean[c] = spec.separation
            xs.append(mean + spec.std * rng.standard_normal((count, spec.dim)))
            ys.append(np.full(count, c, dtype=np.int64))
        splits.append((np.vstack(xs), np.concatenate(ys)))
    return tuple(splits)


# ---------------------------------------------------------------------------
# per-class subsampling, one label at a time
# ---------------------------------------------------------------------------

def first_per_class_loop(y, k: int) -> np.ndarray:
    """Indices of the first ``k`` labels of each class, walking ``y`` once
    in order: the reference for ``pipeline.load_idx(limit_per_class=k)``."""
    seen: dict[int, int] = {}
    keep = []
    for i, label in enumerate(y):
        if seen.get(int(label), 0) < k:
            keep.append(i)
            seen[int(label)] = seen.get(int(label), 0) + 1
    return np.array(keep, dtype=np.int64)


# ---------------------------------------------------------------------------
# network evaluation: a row-major forward pass of the tests' own, one row
# per example, independent of the library's feature-major one
# ---------------------------------------------------------------------------

def row_major_forward(spec: MlpSpec, theta: np.ndarray, X: np.ndarray):
    """Layer inputs [A_0..A_{L-1}], hidden slopes phi'(S_l) and logits,
    each (n, width)."""
    Ws, bs = unflatten(spec, theta)
    A = np.asarray(X, dtype=np.float64)
    acts, primes = [A], []
    for W, b in zip(Ws[:-1], bs[:-1]):
        S = A @ W.T + b
        if spec.activation == "tanh":
            A = np.tanh(S)
            primes.append(1.0 - A ** 2)
        else:
            A = np.where(S > 0.0, S, 0.0)
            primes.append(np.where(S > 0.0, 1.0, 0.0))
        acts.append(A)
    return acts, primes, A @ Ws[-1].T + bs[-1]


def predict_logits(spec: MlpSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    return row_major_forward(spec, theta, X)[2]


def predict_probs(spec: MlpSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    return softmax(predict_logits(spec, theta, X))


def loss(spec: MlpSpec, theta: np.ndarray, data: LabeledDataset) -> float:
    """Mean cross-entropy over all examples."""
    return loss_and_error(spec, theta, data)[0]


def error_rate(spec: MlpSpec, theta: np.ndarray, data: LabeledDataset) -> float:
    """Misclassification fraction under argmax decoding."""
    return loss_and_error(spec, theta, data)[1]


# ---------------------------------------------------------------------------
# finite-difference derivatives of the network loss
# ---------------------------------------------------------------------------

def fd_gradient(loss_fn, theta: np.ndarray, eps: float = 1e-6,
                indices=None) -> np.ndarray:
    """Central-difference gradient; optionally only at selected coordinates."""
    theta = np.asarray(theta, dtype=float)
    idx = list(range(len(theta))) if indices is None else list(indices)
    out = np.zeros(len(idx))
    for k, j in enumerate(idx):
        e = np.zeros_like(theta)
        e[j] = eps
        out[k] = (loss_fn(theta + e) - loss_fn(theta - e)) / (2 * eps)
    return out


def fd_hvp(grad_fn, theta: np.ndarray, v: np.ndarray,
           eps: float = 1e-5) -> np.ndarray:
    """Directional derivative of the gradient: central difference along v."""
    v = np.asarray(v, dtype=float)
    scale = eps / max(np.linalg.norm(v), 1e-30)
    return (grad_fn(theta + scale * v) - grad_fn(theta - scale * v)) / (2 * scale)


def fd_hessian(grad_fn, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Dense Hessian from central differences of the gradient, symmetrized."""
    p = len(theta)
    H = np.empty((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = eps
        H[:, j] = (grad_fn(theta + e) - grad_fn(theta - e)) / (2 * eps)
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# explicit per-example Jacobians of the logits (brute force)
# ---------------------------------------------------------------------------

def explicit_logit_jacobian(forward_logits, theta: np.ndarray, x: np.ndarray,
                            n_out: int, eps: float = 1e-6) -> np.ndarray:
    """(n_out, p) Jacobian d logits / d theta for one example, by FD."""
    p = len(theta)
    J = np.empty((n_out, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = eps
        J[:, j] = (forward_logits(theta + e, x) - forward_logits(theta - e, x)) / (2 * eps)
    return J


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def explicit_gauss_newton(jacobians: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Dense average of J_i^T (diag(p_i) - p_i p_i^T) J_i over examples."""
    n, C, p = jacobians.shape
    G = np.zeros((p, p))
    for i in range(n):
        S = np.diag(probs[i]) - np.outer(probs[i], probs[i])
        G += jacobians[i].T @ S @ jacobians[i]
    return G / n


# ---------------------------------------------------------------------------
# stored-factor decomposition: every per-example class vector in memory
# ---------------------------------------------------------------------------

def per_example_logit_vjp(spec, theta: np.ndarray, X: np.ndarray,
                          cotangents: np.ndarray) -> np.ndarray:
    """Per-example parameter vectors J_i^T c_i, stacked as (n, p)."""
    X = np.asarray(X, dtype=np.float64)
    cot = np.asarray(cotangents, dtype=np.float64)
    Ws, _ = unflatten(spec, theta)
    if X.ndim != 2 or cot.shape != (X.shape[0], spec.class_count):
        raise UsageError("inputs and cotangents must align per example")
    if X.shape[0] == 0:
        raise UsageError("need at least one example")
    acts, primes, _ = row_major_forward(spec, theta, X)
    n = X.shape[0]
    L = spec.depth
    D = cot
    blocks_W = [None] * L
    blocks_b = [None] * L
    for l in range(L - 1, -1, -1):
        blocks_W[l] = np.einsum("ni,nj->nij", D, acts[l]).reshape(n, -1)
        blocks_b[l] = D.copy()
        if l > 0:
            D = (D @ Ws[l]) * primes[l - 1]
    parts = []
    for l in range(L):
        parts.append(blocks_W[l])
        parts.append(blocks_b[l])
    return np.concatenate(parts, axis=1)


@dataclass(frozen=True)
class PerExampleVectors:
    """For every example i and class c': the parameter-space vector
    J_i^T (e_c' - p_i), with the example's softmax probs and true label."""

    vectors: np.ndarray  # (n, C, p)
    probs: np.ndarray    # (n, C)
    labels: np.ndarray   # (n,)
    class_count: int


def per_example_vectors(spec, theta: np.ndarray, data) -> PerExampleVectors:
    """All n*C per-example class vectors, one batched VJP per class."""
    C = spec.class_count
    P = predict_probs(spec, theta, data.x)
    vecs = np.empty((data.n, C, spec.param_count))
    eye = np.eye(C)
    for c in range(C):
        vecs[:, c, :] = per_example_logit_vjp(spec, theta, data.x, eye[c] - P)
    return PerExampleVectors(vectors=vecs, probs=P, labels=data.y.copy(),
                             class_count=C)


@dataclass(frozen=True)
class StoredClusterStats:
    """Cluster statistics with every mean held as a p-vector: the (C, C, p)
    table mu_cc' and the (C, p) off-diagonal mixture means, which the
    library never keeps."""

    class_prob: np.ndarray    # (C, C)
    class_mean: np.ndarray    # (C, C, p)
    off_prob: np.ndarray      # (C,)
    off_mean: np.ndarray      # (C, p)
    sq_norm_sums: np.ndarray  # (C,)
    counts: np.ndarray        # (C,)
    n_total: int


def stored_cluster_statistics(pev: PerExampleVectors) -> StoredClusterStats:
    """Cluster masses, means and weighted squared norms from stored vectors."""
    C = pev.class_count
    p = pev.vectors.shape[2]
    class_prob = np.zeros((C, C))
    class_mean = np.zeros((C, C, p))
    sq_norm_sums = np.zeros(C)
    counts = np.zeros(C, dtype=np.int64)
    for c in range(C):
        rows = pev.labels == c
        counts[c] = int(rows.sum())
        if counts[c] == 0:
            continue
        W = pev.probs[rows]          # (n_c, C)
        V = pev.vectors[rows]        # (n_c, C, p)
        class_prob[c] = W.sum(axis=0)
        sums = np.einsum("ic,icp->cp", W, V)
        nz = class_prob[c] > 0.0
        class_mean[c, nz] = sums[nz] / class_prob[c, nz, None]
        sq_norm_sums[c] = np.einsum("ic,icp,icp->", W, V, V)
    off = ~np.eye(C, dtype=bool)
    off_prob = np.where(off, class_prob, 0.0).sum(axis=1)
    off_mean = np.zeros((C, p))
    for c in range(C):
        if off_prob[c] > 0.0:
            weights = np.where(off[c], class_prob[c], 0.0)
            off_mean[c] = (weights[:, None] * class_mean[c]).sum(axis=0) / off_prob[c]
    return StoredClusterStats(class_prob=class_prob, class_mean=class_mean,
                              off_prob=off_prob, off_mean=off_mean,
                              sq_norm_sums=sq_norm_sums, counts=counts,
                              n_total=pev.vectors.shape[0])


def stored_split_factors(stats: StoredClusterStats) -> np.ndarray:
    """The A1, A2 and B1 factors from the stored means, stacked in the
    library's row order: A1 rows sqrt(w_c/N) off_mean[c], A2 rows
    sqrt(W_cc/N) mu_cc, then one B1 row sqrt(W_cc'/N) (mu_cc' - off_mean[c])
    per c' != c, class-major."""
    C = stats.class_prob.shape[0]
    N = stats.n_total
    a1 = np.sqrt(stats.off_prob / N)[:, None] * stats.off_mean
    diag = np.arange(C)
    a2 = (np.sqrt(stats.class_prob[diag, diag] / N)[:, None]
          * stats.class_mean[diag, diag])
    b1 = [np.sqrt(stats.class_prob[c, c2] / N)
          * (stats.class_mean[c, c2] - stats.off_mean[c])
          for c in range(C) for c2 in range(C) if c2 != c]
    return np.vstack([a1, a2, *b1])


def table_b2_matvec(lin, stats: StoredClusterStats,
                    v: np.ndarray) -> np.ndarray:
    """B2 v from one JVP, one VJP and the stored (C, C, p) mean table: the
    mean dots as products with the table, and the mean term of the
    pull-back subtracted explicitly."""
    C = stats.class_prob.shape[0]
    members = one_hot(lin.labels, C).T
    P = lin.P
    u = lin.jvp(v)
    mean_dots = stats.class_mean @ v                 # (C, C): <mu_cc', v>
    coef = (P / stats.n_total) * (
        u - np.sum(P * u, axis=0) - mean_dots.T @ members)
    pulled = lin.vjp(coef - P * coef.sum(axis=0))
    cluster_coef = members @ coef.T                  # (C, C): sum_{i in c} c_ic'
    return pulled - cluster_coef.ravel() @ stats.class_mean.reshape(C * C, -1)


def stored_b2_factor(pev: PerExampleVectors,
                     stats: StoredClusterStats) -> tuple[np.ndarray, np.ndarray]:
    """B2 = F^T F with one row sqrt(p_ic'/N) (v_ic' - mu_{y_i c'}) per
    example and class; returns F (n*C, p) and each row's true label."""
    n, C, p = pev.vectors.shape
    centered = pev.vectors - stats.class_mean[pev.labels]      # (n, C, p)
    scaled = np.sqrt(pev.probs / n)[:, :, None] * centered
    return scaled.reshape(n * C, p), np.repeat(pev.labels, C)


def factor_operator(F: np.ndarray):
    """F^T F as a matrix-free operator."""
    return SymmetricOperator(F.shape[1], lambda v: F.T @ (F @ v),
                             label="stored-factor")
