"""Top-eigenspace extraction and low-rank deflation.

Thick-restart Lanczos (Wu & Simon 2000; in the symmetric case it is
Stewart's Krylov–Schur) finds the eigenvectors of largest magnitude from
the operator's products alone, in numpy; each pair is then checked by its
own residual. Deflation projects them out two-sided (P A P), which
keeps the operator symmetric and parks the removed eigenvalues exactly at
zero so the remaining bulk can be examined without the outliers dominating
the range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, UsageError
from .lanczos import _BREAKDOWN_TOL
from .operators import SymmetricOperator, deflated_operator

# worst accepted residual ||A q - theta q||, relative to the largest |theta|
RESIDUAL_TOL = 1e-10

# rows per block of the in-place basis rotation; its scratch is one block
_ROTATE_ROWS = 256


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
    """The ``count`` eigenpairs of largest magnitude, by thick-restart
    Lanczos.

    The basis holds at most ``ncv + 1`` vectors, ``ncv = min(p, max(2 *
    count + 1, 20))``. Each step applies the operator once to the newest
    basis vector and orthogonalizes the product against the whole basis
    by two classical Gram–Schmidt passes, whose coefficients fill the upper
    triangle of the projected matrix H. When the basis is full, the Ritz
    pairs of H are ordered by descending |theta| with stable ties, and
    Paige's bound beta * |y_last| gives each one's residual. If the
    ``count`` leading bounds are within tolerance, their Ritz vectors are
    formed. Otherwise the leading ``count`` Ritz vectors and about half of
    the rest are kept, H becomes the diagonal of their Ritz values, and
    the run goes on from the residual vector. A product whose beta is at
    or below ``_BREAKDOWN_TOL`` times the run's largest |alpha| + beta
    (the rule of :func:`~specdens.lanczos._three_term`) breaks the run
    down; it goes on from a fresh vector orthogonalized against the basis.

    The start vector and every fresh vector come from a generator seeded
    with ``seed``, so the same seed gives the same bytes. Eigenvalues are
    the Rayleigh quotients of the returned basis, ordered by descending
    magnitude with stable ties. Raises :class:`ConvergenceError` when H
    is zero, when ``10 * p`` restarts (the budget of ARPACK's ``eigsh``)
    do not converge, or when the worst explicit residual exceeds
    ``RESIDUAL_TOL`` times the largest magnitude, and
    :class:`NumericalError` when the operator returns a non-finite vector.
    """
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
    ncv = min(p, max(2 * count + 1, 20))
    keep = count + (ncv - count) // 2
    V = np.empty((p, ncv + 1), order="F")
    H = np.zeros((ncv, ncv))
    V[:, 0] = rng.standard_normal(p)
    V[:, 0] /= np.linalg.norm(V[:, 0])
    start, scale = 0, 0.0
    for _ in range(10 * p):
        for j in range(start, ncv):
            V[:, j + 1] = matvec(V[:, j])
            H[:j + 1, j] = _orthogonalize(V[:, :j + 1], V[:, j + 1])
            beta = float(np.linalg.norm(V[:, j + 1]))
            scale = max(scale, abs(H[j, j]) + beta)
            if beta > _BREAKDOWN_TOL * scale:
                V[:, j + 1] /= beta
            else:
                beta = 0.0
                if j + 1 < ncv:
                    _fresh_vector(rng, V, j + 1)
        theta, Y = np.linalg.eigh(H, UPLO="U")
        order = np.argsort(-np.abs(theta), kind="stable")
        theta, Y = theta[order], Y[:, order]
        tol = RESIDUAL_TOL * abs(theta[0])
        if tol == 0.0:
            raise ConvergenceError(
                f"top-{count} eigenpairs of {name} did not converge: the "
                f"operator vanishes on a {ncv}-vector Krylov basis")
        if np.all(beta * np.abs(Y[-1, :count]) <= tol):
            break
        _rotate(V, Y[:, :keep])
        if beta > 0.0:
            V[:, keep] = V[:, ncv]
        else:
            _fresh_vector(rng, V, keep)
        # A u_i = theta_i u_i + beta * y_last,i * v for a kept Ritz vector
        # u_i and the residual vector v: the Gram–Schmidt coefficients of
        # the next step against the u_i fill in that coupling
        H[:keep, :keep] = np.diag(theta[:keep])
        start = keep
    else:
        raise ConvergenceError(
            f"top-{count} eigenpairs of {name} did not converge in "
            f"{10 * p} restarts")
    _rotate(V, Y[:, :count])
    Q = V[:, :count].copy(order="F")
    del V                       # freed before the residual products

    # one Ritz vector at a time: its product, Rayleigh quotient and
    # residual, as numpy sums like the recurrence's (axis=0 keeps norm
    # off BLAS, whose reductions split between threads)
    theta, residuals = np.empty(count), np.empty(count)
    for j in range(count):
        q = Q[:, j]
        w = matvec(q)
        theta[j] = np.add.reduce(q * w)
        residuals[j] = np.linalg.norm(w - theta[j] * q, axis=0)
    tol = RESIDUAL_TOL * float(np.max(np.abs(theta)))
    if not np.all(residuals <= tol):
        raise ConvergenceError(
            f"top-{count} eigenpairs of {name} did not converge: worst "
            f"residual {float(np.max(residuals)):.3e} > {tol:.3e}")
    order = np.argsort(-np.abs(theta), kind="stable")
    if (order != np.arange(count)).any():
        Q = Q[:, order]
    return TopSpectrum(
        values=theta[order],
        basis=Q,
        residuals=residuals[order],
        matvecs=matvecs,
    )


def _orthogonalize(B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Two classical Gram–Schmidt passes of ``w`` against the orthonormal
    columns of ``B``, in place; returns the summed coefficients."""
    h = B.T @ w
    w -= B @ h
    c = B.T @ w
    w -= B @ c
    return h + c


def _fresh_vector(rng: np.random.Generator, V: np.ndarray, j: int) -> None:
    """Write a random unit vector orthogonal to ``V[:, :j]`` into
    ``V[:, j]``."""
    V[:, j] = rng.standard_normal(V.shape[0])
    _orthogonalize(V[:, :j], V[:, j])
    V[:, j] /= np.linalg.norm(V[:, j])


def _rotate(V: np.ndarray, Y: np.ndarray) -> None:
    """``V[:, :k] = V[:, :m] @ Y`` for an m × k ``Y``, in place.

    A row's new entries depend on its old ones only, so the product runs
    ``_ROTATE_ROWS`` rows at a time and needs that block of scratch, not a
    copy of k columns.
    """
    m, k = Y.shape
    for r in range(0, V.shape[0], _ROTATE_ROWS):
        rows = V[r:r + _ROTATE_ROWS]
        rows[:, :k] = rows[:, :m] @ Y


def low_rank_deflation(op: SymmetricOperator, count: int,
                       seed: int = 0) -> tuple[TopSpectrum, SymmetricOperator]:
    """Find the top ``count`` eigenpairs and project them out.

    Returns the extracted spectrum and the deflated operator P A P with
    P = I - Q Q^T. ``count`` must be in [1, dim - 1], as
    :func:`top_eigenpairs` checks.
    """
    top = top_eigenpairs(op, count, seed=seed)
    return top, deflated_operator(op, top.basis)
