"""Dense and tridiagonal symmetric eigensolvers.

Two independent routes to eigenvalues live here on purpose. The tridiagonal
path (`householder_tridiagonalize` + `eig_tridiagonal`) is written from
scratch and powers the estimators; `dense_eig` wraps LAPACK and serves as
the validation oracle. Keeping both honest against each other is a standing
test obligation, so neither may be rewritten in terms of the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricInputError, ConvergenceError, UsageError

_EPS = float(np.finfo(np.float64).eps)

# sweeps per eigenvalue before QL iteration gives up; generous — classic
# implementations converge in 2-3
_MAX_SWEEPS = 50

_DENSE_SIZE_CAP = 4096


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix: diagonal ``alpha``, subdiagonal ``beta``.

    ``beta`` entries are required nonnegative — they arise as vector norms
    in the recurrences that build these matrices, and the eigensolver
    relies on that convention only for reproducibility, not correctness.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        if alpha.ndim != 1 or alpha.size < 1:
            raise UsageError("alpha must be a nonempty 1-d array")
        if beta.shape != (alpha.size - 1,):
            raise UsageError("beta must have length len(alpha) - 1")
        if beta.size and float(np.min(beta)) < 0.0:
            raise UsageError("beta entries must be nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def order(self) -> int:
        return self.alpha.size

    def to_dense(self) -> np.ndarray:
        T = np.diag(self.alpha)
        if self.beta.size:
            T += np.diag(self.beta, 1) + np.diag(self.beta, -1)
        return T


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues ascending, first components of the (orthonormal)
    eigenvectors, and optionally the full eigenvector matrix (one
    eigenvector per column, aligned with ``values``)."""

    values: np.ndarray
    first_components: np.ndarray
    vectors: np.ndarray | None = None


def eig_tridiagonal(T: TridiagonalMatrix, vectors: str = "first") -> EigenPairs:
    """Eigendecomposition of a symmetric tridiagonal matrix.

    Implicit-shift QL iteration with Wilkinson shifts. ``vectors`` selects
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


def _require_symmetric(A: np.ndarray, tol: float = 1e-12) -> None:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {A.shape}")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    defect = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if defect > tol * max(scale, 1e-300):
        raise AsymmetricInputError(
            f"matrix asymmetric: max|A - A^T| = {defect:.3e} vs scale {scale:.3e}"
        )


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


def dense_eig(A: np.ndarray, vectors: bool = False,
              size_cap: int = _DENSE_SIZE_CAP) -> EigenPairs:
    """Full eigendecomposition of a dense symmetric matrix (LAPACK).

    The validation-side route: refuses matrices larger than ``size_cap``
    (default 4096) — beyond that, use the matrix-free estimators in
    :mod:`specdens.lanczos`, which is what they are for. Without
    ``vectors`` only the eigenvalues are computed, and ``first_components``
    are NaN as in :func:`eig_tridiagonal`'s ``"none"`` mode.
    """
    A = np.asarray(A, dtype=np.float64)
    _require_symmetric(A)
    if A.shape[0] > size_cap:
        raise UsageError(
            f"dense_eig refuses p = {A.shape[0]} > {size_cap}; "
            "use the matrix-free spectrum estimators for operators this large"
        )
    if not vectors:
        w = np.linalg.eigvalsh(A)
        return EigenPairs(values=w, first_components=np.full(w.size, np.nan))
    w, V = np.linalg.eigh(A)
    return EigenPairs(values=w, first_components=V[0, :].copy(), vectors=V)
