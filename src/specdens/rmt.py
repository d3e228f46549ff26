"""Random-matrix ensembles with known limiting spectra, for validating the
estimators against ground truth, plus a power-law tail fit. The closed-form
limiting densities live with the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .lanczos import SpectralDensity

ENSEMBLE_KINDS = ("goe", "spiked_wishart", "pareto_wishart")


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: the ensemble kind plus its shape parameters.

    ``n`` is the number of sample columns for the Wishart kinds (the
    matrix itself is always p x p); ``spikes`` are the diagonal planted
    signal values for the spiked kind; ``alpha`` is the Pareto tail index.
    """

    kind: str
    p: int
    n: int | None = None
    spikes: tuple[float, ...] = ()
    alpha: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise UsageError(
                f"unknown ensemble kind {self.kind!r}; pick from {ENSEMBLE_KINDS}"
            )
        if self.p < 1:
            raise UsageError("p must be >= 1")
        if self.kind in ("spiked_wishart", "pareto_wishart"):
            if self.n is None or self.n < 1:
                raise UsageError(f"{self.kind} needs a positive column count n")
        if self.kind == "spiked_wishart" and len(self.spikes) > self.p:
            raise UsageError("more spikes than dimensions")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise UsageError(f"alpha must be finite, got {self.alpha}")
        if self.kind == "pareto_wishart":
            if self.alpha is None or self.alpha <= 0:
                raise UsageError("pareto_wishart needs a positive tail index alpha")
        spikes = tuple(float(s) for s in self.spikes)
        if not all(math.isfinite(s) for s in spikes):
            raise UsageError(f"spikes must be finite, got {spikes}")
        object.__setattr__(self, "spikes", spikes)


def default_ensemble(kind: str, seed: int = 0) -> EnsembleSpec:
    """The canonical instance of each ensemble used throughout the tests."""
    if kind == "goe":
        return EnsembleSpec(kind="goe", p=500, seed=seed)
    if kind == "spiked_wishart":
        return EnsembleSpec(kind="spiked_wishart", p=2000, n=2000,
                            spikes=(5.0, 4.0, 3.0), seed=seed)
    if kind == "pareto_wishart":
        return EnsembleSpec(kind="pareto_wishart", p=500, n=1000, alpha=1.0,
                            seed=seed)
    raise UsageError(f"unknown ensemble kind {kind!r}; pick from {ENSEMBLE_KINDS}")


def sample(spec: EnsembleSpec) -> np.ndarray:
    """Draw one symmetric p x p matrix from the ensemble. Deterministic in
    the seed.

    The p x p output is allocated before the sample it is built from and
    filled with ``out=``, so the sample is the newer heap block: freed on
    return, it joins the top of the heap, where the caller's next matrix
    (``dense_eig``'s working copy) reuses its pages. Allocated the other
    way round, the freed sample is a hole below the output that a
    slightly larger block cannot use, and the heap grows by a third
    matrix.
    """
    rng = np.random.default_rng(spec.seed)
    Y = np.empty((spec.p, spec.p))
    if spec.kind == "goe":
        Z = rng.standard_normal((spec.p, spec.p))
        # entry variance 1/p off the diagonal => bulk support [-2, 2]
        np.add(Z, Z.T, out=Y)
        del Z
        Y /= math.sqrt(2.0 * spec.p)
        return Y
    if spec.kind == "spiked_wishart":
        Z = rng.standard_normal((spec.p, spec.n))
        np.matmul(Z, Z.T, out=Y)
        del Z
        Y /= spec.n
        for j, s in enumerate(spec.spikes):
            Y[j, j] += s
        return Y
    # pareto_wishart: iid classic Pareto entries via inverse CDF, built in
    # place so only one p x n array is alive
    Z = rng.random((spec.p, spec.n))
    np.subtract(1.0, Z, out=Z)
    Z **= -1.0 / spec.alpha
    np.matmul(Z, Z.T, out=Y)
    del Z
    Y /= spec.n
    return Y


# ---------------------------------------------------------------------------
# power-law tail fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawFit:
    """phi(lambda) ~ amplitude * |lambda| ** exponent over a window."""

    amplitude: float
    exponent: float
    r_squared: float
    n_points: int
    window: tuple[float, float]


def fit_power_law(density: SpectralDensity,
                  window: tuple[float, float]) -> PowerLawFit:
    """Least-squares line through (log |lambda|, log phi) on a window.

    The window is given in eigenvalue units on either scale: for log-scale
    densities the grid is mapped back through lambda = exp(u) - epsilon.
    Grid points with nonpositive density are excluded (they carry no
    information about a positive power law); fewer than 5 surviving points
    is an error rather than a garbage fit.
    """
    lo, hi = window
    if not (0 < lo < hi):
        raise UsageError("window must satisfy 0 < lo < hi")
    if density.scale == "log":
        lam = np.exp(density.grid) - (density.epsilon or 0.0)
    else:
        lam = density.grid
    phi = density.values
    keep = (np.abs(lam) >= lo) & (np.abs(lam) <= hi) & (phi > 0.0)
    if int(keep.sum()) < 5:
        raise UsageError(
            f"only {int(keep.sum())} usable grid points in window [{lo}, {hi}]; "
            "need at least 5"
        )
    x = np.log(np.abs(lam[keep]))
    y = np.log(phi[keep])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        amplitude=math.exp(intercept),
        exponent=slope,
        r_squared=r2,
        n_points=int(keep.sum()),
        window=(float(lo), float(hi)),
    )
