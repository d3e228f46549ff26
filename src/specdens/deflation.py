"""Top-eigenspace extraction and low-rank deflation.

Implicitly restarted Lanczos (ARPACK, through ``scipy.sparse.linalg.eigsh``)
finds the eigenvectors of largest magnitude; each pair is then checked by
its own residual. Deflation projects them out two-sided (P A P), which
keeps the operator symmetric and parks the removed eigenvalues exactly at
zero so the remaining bulk can be examined without the outliers dominating
the range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, UsageError
from .operators import SymmetricOperator, deflated_operator

# worst accepted residual ||A q - theta q||, relative to the largest |theta|
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class TopSpectrum:
    """Leading eigenpairs by magnitude.

    ``values`` are Rayleigh quotients q^T A q of the returned basis —
    signed, descending by absolute value. ``residuals`` are the per-pair
    norms ||A q - theta q||. ``matvecs`` counts the operator applications
    the extraction took, the residual checks included.
    """

    values: np.ndarray
    basis: np.ndarray
    residuals: np.ndarray
    matvecs: int

    @property
    def count(self) -> int:
        return self.values.size

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "residuals": self.residuals.tolist(),
            "matvecs": self.matvecs,
        }


def top_eigenpairs(op: SymmetricOperator, count: int,
                   seed: int = 0) -> TopSpectrum:
    """The ``count`` eigenpairs of largest magnitude, by ARPACK.

    The start vector and ARPACK's restart vectors both come from a
    generator seeded with ``seed``, so the same seed gives the same bytes.
    Eigenvalues are the Rayleigh quotients of the returned basis, ordered
    by descending magnitude with stable ties. Raises
    :class:`ConvergenceError` when ARPACK fails or when the worst residual
    exceeds ``RESIDUAL_TOL`` times the largest magnitude, and
    :class:`NumericalError` when the operator returns a non-finite vector.
    """
    # imported here, not at module level: after numpy the import adds
    # 32 MB of peak resident memory, which runs that never deflate should
    # not pay
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    p = op.dim
    if not 1 <= count < p:
        raise UsageError(f"count must be in [1, {p - 1}], got {count}")
    name = op.label or "<anon>"
    matvecs = 0

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        w = op.apply(v)
        if not np.isfinite(w).all():
            raise NumericalError(f"operator {name} returned a non-finite "
                                 f"vector at deflation matvec {matvecs}")
        return w

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(p)
    try:
        _, Q = eigsh(LinearOperator((p, p), matvec=matvec, dtype=np.float64),
                     k=count, which="LM", v0=v0, rng=rng)
    except ArpackError as err:
        raise ConvergenceError(f"ARPACK failed on {name}: {err}") from err

    W = np.column_stack([matvec(Q[:, j]) for j in range(count)])
    theta = np.einsum("ij,ij->j", Q, W)
    residuals = np.linalg.norm(W - Q * theta, axis=0)
    tol = RESIDUAL_TOL * float(np.max(np.abs(theta)))
    if not np.all(residuals <= tol):
        raise ConvergenceError(
            f"top-{count} eigenpairs of {name} did not converge: worst "
            f"residual {float(np.max(residuals)):.3e} > {tol:.3e}")
    order = np.argsort(-np.abs(theta), kind="stable")
    return TopSpectrum(
        values=theta[order],
        basis=Q[:, order],
        residuals=residuals[order],
        matvecs=matvecs,
    )


def low_rank_deflation(op: SymmetricOperator, count: int,
                       seed: int = 0) -> tuple[TopSpectrum, SymmetricOperator]:
    """Find the top ``count`` eigenpairs and project them out.

    Returns the extracted spectrum and the deflated operator P A P with
    P = I - Q Q^T. ``count`` must be in [1, dim - 1], as
    :func:`top_eigenpairs` checks.
    """
    top = top_eigenpairs(op, count, seed=seed)
    return top, deflated_operator(op, top.basis)
