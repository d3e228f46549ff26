"""Matrix-free symmetric linear operators and their combinators.

An operator is a dimension plus a matvec, and optionally a block product;
everything downstream (Lanczos, top-eigenpair extraction, deflation) touches
matrices only through `apply`. The combinators preserve symmetry by
construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import (DegenerateSpectrumError, DimensionMismatchError,
                     NumericalError, UsageError)
from .linalg import _require_symmetric


@dataclass(frozen=True)
class NormalizationMap:
    """Affine change of variables t = (lambda - center) / half_width.

    Bounds are stored post-widening: ``lambda_min/lambda_max`` are the
    margin-padded range endpoints, so ``center ± half_width`` reproduces
    them exactly. The pre-widening estimates and the margin that was added
    are kept for reporting.
    """

    center: float
    half_width: float
    lambda_min: float
    lambda_max: float
    delta: float
    tau: float
    raw_lambda_min: float
    raw_lambda_max: float

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise UsageError("half_width must be positive")

    @classmethod
    def from_bounds(cls, raw_min: float, raw_max: float,
                    tau: float) -> "NormalizationMap":
        """Widen [raw_min, raw_max] by a relative margin tau and build the map.

        A collapsed range (raw_max <= raw_min) cannot be normalized and
        raises :class:`DegenerateSpectrumError`.
        """
        delta = tau * (raw_max - raw_min)
        lo = raw_min - delta
        hi = raw_max + delta
        half = 0.5 * (hi - lo)
        if not half > 0.0:
            raise DegenerateSpectrumError(
                f"spectral range [{raw_min:.6g}, {raw_max:.6g}] has no width; "
                "cannot map to [-1, 1]"
            )
        return cls(
            center=0.5 * (lo + hi),
            half_width=half,
            lambda_min=lo,
            lambda_max=hi,
            delta=delta,
            tau=tau,
            raw_lambda_min=raw_min,
            raw_lambda_max=raw_max,
        )

    def normalize(self, lam):
        return (np.asarray(lam, dtype=np.float64) - self.center) / self.half_width

    def denormalize(self, t):
        return np.asarray(t, dtype=np.float64) * self.half_width + self.center

    def to_dict(self) -> dict:
        return asdict(self)


class SymmetricOperator:
    """A symmetric linear map on R^p exposed only through matvecs.

    `apply` takes one vector of shape ``(dim,)`` or a block of ``k``
    column vectors of shape ``(dim, k)`` and returns the same shape. A
    one-column block goes through ``matvec``; a wider block needs the
    optional block product ``matmat``, and an operator without one rejects
    it: callers that batch vectors check :attr:`has_matmat` first.
    `apply` is deterministic: the same vector in gives bit-identical
    vectors out. A product with a NaN or infinite entry raises
    :class:`NumericalError` naming the operator; combinators apply their
    inner operators through `apply`, so the first to produce one is named.
    Symmetry is the caller's promise for hand-built matvecs; every
    combinator below preserves it, and tests probe it stochastically.
    """

    def __init__(self, dim: int, matvec: Callable[[np.ndarray], np.ndarray],
                 label: str,
                 matmat: Callable[[np.ndarray], np.ndarray] | None = None):
        if dim < 1:
            raise UsageError("operator dimension must be >= 1")
        self.dim = int(dim)
        self.label = label
        self._matvec = matvec
        self._matmat = matmat

    @property
    def has_matmat(self) -> bool:
        """Whether :meth:`apply` takes blocks wider than one column."""
        return self._matmat is not None

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if not (v.ndim in (1, 2) and v.shape[0] == self.dim
                and (v.ndim == 1 or v.shape[1] >= 1)):
            raise UsageError(
                f"operator {self.label} expects shape "
                f"({self.dim},) or ({self.dim}, k), got {v.shape}"
            )
        if v.ndim == 1:
            return self._checked(self._matvec, v)
        if v.shape[1] == 1:
            return self._checked(self._matvec, v[:, 0])[:, None]
        if self._matmat is None:
            raise UsageError(
                f"operator {self.label} has no block product for "
                f"a block of {v.shape[1]} columns")
        return self._checked(self._matmat, v)

    def _checked(self, product, v: np.ndarray) -> np.ndarray:
        out = np.asarray(product(v), dtype=np.float64)
        if out.shape != v.shape:
            raise UsageError("matvec returned wrong shape")
        if not np.isfinite(out).all():
            raise NumericalError(
                f"operator {self.label} returned a non-finite vector")
        return out

    def __repr__(self):
        return f"SymmetricOperator(dim={self.dim}, label={self.label!r})"


# rows per panel of a dense block product: 32-row panels were measured to
# give the same bits at 1 and 2 OpenBLAS threads, 64-row panels did not
_PANEL_ROWS = 32


def dense_operator(A: np.ndarray, label: str = "dense") -> SymmetricOperator:
    """Wrap a dense symmetric matrix (validated to 1e-12 relative).

    A single vector is one GEMV. A block is multiplied ``_PANEL_ROWS`` rows
    of A at a time: each panel product gives the same bits at any BLAS
    thread count, which one GEMM over the whole of A does not. The whole
    panels are one stacked ``matmul`` over a (panels, rows, p) view of A
    and the short last panel is one more product. Both write into a
    C-order block, as each panel product would on its own: a Fortran-order
    target changes the bits. The block is returned in Fortran order.
    """
    A = np.asarray(A, dtype=np.float64)
    _require_symmetric(A)
    whole = A.shape[0] - A.shape[0] % _PANEL_ROWS
    # splitting the row axis is always a view, whatever A's layout
    panels = A[:whole].reshape(whole // _PANEL_ROWS, _PANEL_ROWS, A.shape[1])
    tail = A[whole:]

    def matmat(V):
        out = np.empty(V.shape)
        stacked = out[:whole].reshape(len(panels), _PANEL_ROWS, V.shape[1])
        np.matmul(panels, V, out=stacked)
        np.matmul(tail, V, out=out[whole:])
        return np.asfortranarray(out)

    return SymmetricOperator(A.shape[0], lambda v: A @ v, label=label,
                             matmat=matmat)


def _combined(dim: int, product, label: str,
              *inner: SymmetricOperator) -> SymmetricOperator:
    """An operator whose ``product`` works on vectors and blocks alike; it
    is the block product too exactly when every inner operator has one."""
    native = all(op.has_matmat for op in inner)
    return SymmetricOperator(dim, product, label=label,
                             matmat=product if native else None)


def affine_operator(op: SymmetricOperator,
                    norm_map: NormalizationMap) -> SymmetricOperator:
    """(A - center * I) / half_width — the normalized operator."""
    c, d = norm_map.center, norm_map.half_width
    return _combined(op.dim, lambda v: (op.apply(v) - c * v) / d,
                     f"normalized({op.label})", op)


def deflated_operator(op: SymmetricOperator, basis: np.ndarray) -> SymmetricOperator:
    """Two-sided projection P A P with P = I - Q Q^T.

    Symmetric by construction and sends span(Q) to zero exactly, so the
    deflated eigenvalues land at 0 rather than being merely shrunk. The
    basis must be orthonormal to 1e-10.
    """
    Q = np.asarray(basis, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != op.dim:
        raise DimensionMismatchError(
            f"basis shape {Q.shape} does not match operator dim {op.dim}"
        )
    k = Q.shape[1]
    if k:
        gram_defect = float(np.max(np.abs(Q.T @ Q - np.eye(k))))
        if gram_defect > 1e-10:
            raise UsageError(
                f"deflation basis not orthonormal: max|Q^TQ - I| = {gram_defect:.3e}"
            )

    def matvec(v):
        w = v - Q @ (Q.T @ v) if k else v
        u = op.apply(w)
        return u - Q @ (Q.T @ u) if k else u

    return _combined(op.dim, matvec, f"deflated({op.label},k={k})", op)


def _check_dims(a: SymmetricOperator, b: SymmetricOperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"operator dims differ: {a.dim} ({a.label}) vs {b.dim} ({b.label})"
        )


def sum_operator(a: SymmetricOperator, b: SymmetricOperator) -> SymmetricOperator:
    _check_dims(a, b)
    return _combined(a.dim, lambda v: a.apply(v) + b.apply(v),
                     f"{a.label}+{b.label}", a, b)


def difference_operator(a: SymmetricOperator,
                        b: SymmetricOperator) -> SymmetricOperator:
    _check_dims(a, b)
    return _combined(a.dim, lambda v: a.apply(v) - b.apply(v),
                     f"{a.label}-{b.label}", a, b)
