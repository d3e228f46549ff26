"""Independent oracles used by the test suite.

Everything here is deliberately implemented by a different route than the
library code it checks: hand-written QL iteration, Householder reduction and
Sturm-sequence bisection instead of LAPACK, finite differences instead of
analytic derivatives, explicitly materialized Jacobians instead of
matrix-free products. Slow is fine; independent is the point.
"""

from __future__ import annotations

import math

import numpy as np

from specdens.errors import ConvergenceError, UsageError
from specdens.linalg import EigenPairs, TridiagonalMatrix, _require_symmetric

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

def ql_eig_tridiagonal(T: TridiagonalMatrix, vectors: str = "first") -> EigenPairs:
    """Eigendecomposition of a symmetric tridiagonal matrix.

    Implicit-shift QL iteration with Wilkinson shifts, in plain Python: the
    hand-written counterpart of :func:`specdens.linalg.eig_tridiagonal`. ``vectors`` selects
    how much eigenvector information is accumulated:

    - ``"none"``  : eigenvalues only (first_components returned as NaN),
    - ``"first"`` : first components only — O(M) extra memory, the right
      mode for Ritz weights,
    - ``"full"``  : complete eigenvector matrix, O(M^2).

    Ties in the eigenvalues are broken by ascending pre-sort index so the
    output is deterministic.
    """
    if vectors not in ("none", "first", "full"):
        raise UsageError(f"unknown vectors mode {vectors!r}")
    n = T.order
    # work in plain Python floats: the scalar recurrence dominates and
    # ndarray scalar indexing is several times slower
    d = [float(x) for x in T.alpha]
    e = [float(x) for x in T.beta] + [0.0]

    z_first: list[float] | None = None
    Z: np.ndarray | None = None
    if vectors == "first":
        z_first = [0.0] * n
        z_first[0] = 1.0
    elif vectors == "full":
        Z = np.eye(n)

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
                if z_first is not None:
                    f = z_first[i + 1]
                    z_first[i + 1] = s * z_first[i] + c * f
                    z_first[i] = c * z_first[i] - s * f
                elif Z is not None:
                    col = Z[:, i + 1].copy()
                    Z[:, i + 1] = s * Z[:, i] + c * col
                    Z[:, i] = c * Z[:, i] - s * col
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    values = np.array(d)
    order = np.argsort(values, kind="stable")
    values = values[order]
    if z_first is not None:
        first = np.array(z_first)[order]
        return EigenPairs(values=values, first_components=first)
    if Z is not None:
        Z = Z[:, order]
        return EigenPairs(values=values, first_components=Z[0].copy(), vectors=Z)
    return EigenPairs(values=values, first_components=np.full(n, np.nan))


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
