"""Matrix-free symmetric linear operators and their combinators.

An operator is a dimension plus a matvec, and optionally a block product;
everything downstream (Lanczos, top-eigenpair extraction, deflation) touches
matrices only through `apply`. The combinators preserve symmetry by
construction.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSpectrumError, NumericalError, UsageError
from .linalg import _run_tasks, _usable_cpus


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
    Symmetry is the caller's promise for hand-built matvecs, as are a
    dimension of at least 1 and input of one of those shapes; every
    combinator below preserves symmetry, and tests probe it stochastically.
    """

    def __init__(self, dim: int, matvec: Callable[[np.ndarray], np.ndarray],
                 label: str,
                 matmat: Callable[[np.ndarray], np.ndarray] | None = None):
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
# a smaller matrix is multiplied on the calling thread alone: on 2 cores, a
# lone vector split over both took 159 µs against 257 on one thread at
# p = 1024, but 176 against 149 at p = 768 (README, determinism section)
_SPLIT_ROWS = 1024


def _panel_product(panels, first: int, tail, V: np.ndarray,
                   out: np.ndarray) -> None:
    """``panels @ V`` as one stacked ``matmul`` into the C-order block
    ``out`` from row ``first`` on, then the short last panel ``tail @ V``
    into the rows after them, unless ``tail`` is None."""
    last = first + len(panels) * _PANEL_ROWS
    np.matmul(panels, V, out=out[first:last].reshape(
        len(panels), _PANEL_ROWS, V.shape[1]))
    if tail is not None:
        np.matmul(tail, V, out=out[last:])


def dense_operator(A: np.ndarray, label: str = "dense") -> SymmetricOperator:
    """Wrap a dense symmetric matrix, taken on trust: the matrix-file
    reader :func:`~specdens.storage.read_matrix` is what checks symmetry.

    Every product is taken ``_PANEL_ROWS`` rows of A at a time, a lone
    vector as a one-column block: each panel product gives the same bits
    at any BLAS thread count, which one GEMM or GEMV over the whole of A
    does not (a GEMV at p = 2003 differs between one and two OpenBLAS
    threads). The whole panels are stacked ``matmul`` calls over a
    (panels, rows, p) view of A and the short last panel is one more. All
    write into a C-order block, as each panel product would on its own: a
    Fortran-order target changes the bits. A block is returned in Fortran
    order.

    From ``_SPLIT_ROWS`` rows on, the panels are cut into one contiguous
    range per usable CPU, planned here once, and the ranges run as
    :func:`~specdens.linalg._run_tasks` tasks, each one stacked ``matmul``
    into its own rows. Every panel still gets the same GEMM call, so the
    bits do not depend on the number of ranges.
    """
    A = np.asarray(A, dtype=np.float64)
    p = A.shape[0]
    whole = p - p % _PANEL_ROWS
    # splitting the row axis is always a view, whatever A's layout
    panels = A[:whole].reshape(whole // _PANEL_ROWS, _PANEL_ROWS, p)
    parts = max(1, min(len(panels), _usable_cpus())) if p >= _SPLIT_ROWS else 1
    cuts = [len(panels) * i // parts for i in range(parts + 1)]
    # the last range takes the short last panel (empty when p divides)
    plan = [(panels[a:b], a * _PANEL_ROWS, A[whole:] if b == len(panels)
             else None) for a, b in zip(cuts, cuts[1:])]

    def matmat(V):
        out = np.empty(V.shape)
        if len(plan) == 1:
            _panel_product(*plan[0], V, out)
        else:
            _run_tasks([functools.partial(_panel_product, *job, V, out)
                        for job in plan])
        return np.asfortranarray(out)

    return SymmetricOperator(p, lambda v: matmat(v[:, None])[:, 0],
                             label=label, matmat=matmat)


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
    basis is a (dim, k) float64 array with orthonormal columns, as
    :func:`~specdens.deflation.top_eigenpairs` returns.
    """
    Q, k = basis, basis.shape[1]

    def matvec(v):
        u = op.apply(v - Q @ (Q.T @ v))
        return u - Q @ (Q.T @ u)

    return _combined(op.dim, matvec, f"deflated({op.label},k={k})", op)


def sum_operator(a: SymmetricOperator, b: SymmetricOperator) -> SymmetricOperator:
    """a + b, for operators of one dimension."""
    return _combined(a.dim, lambda v: a.apply(v) + b.apply(v),
                     f"{a.label}+{b.label}", a, b)


def difference_operator(a: SymmetricOperator,
                        b: SymmetricOperator) -> SymmetricOperator:
    """a - b, for operators of one dimension."""
    return _combined(a.dim, lambda v: a.apply(v) - b.apply(v),
                     f"{a.label}-{b.label}", a, b)
