"""Stochastic Lanczos estimation of spectral densities.

The workhorse is a three-term recurrence that keeps only three working
vectors (`fast_lanczos`); the ``n_vec`` runs of one density advance in
lockstep, one block product per step, when the operator has a native
block product. On top of it sit the range estimator, the
smoothed density estimator on a normalized grid, and a log-magnitude
variant that resolves many orders of magnitude at once.
Ritz values and weights (Gauss quadrature nodes and squared first
components) come from the LAPACK tridiagonal solver in
:mod:`specdens.linalg`, which takes the runs of one lockstep batch
together; the hand-written QL iteration that checks it lives with the
tests.

Densities are accumulated as exact Gaussian masses per grid cell
(difference of CDFs) rather than pointwise kernel evaluations: for large M
the bump width drops below the grid spacing and pointwise sums no longer
integrate to 1, while cell masses conserve mass for any width. For wide
bumps the two are indistinguishable. Both estimators and
`density_from_eigenvalues`, which smooths a known spectrum, share one
smoothing routine, so estimator-vs-oracle comparisons are apples to apples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, UsageError
from .linalg import TridiagonalMatrix, eig_tridiagonal, ritz_pairs
from .operators import NormalizationMap, SymmetricOperator, affine_operator

_BREAKDOWN_TOL = 1e-12

# bump mass beyond 6 sigma is ~2e-9; ignoring it keeps accumulation O(1) per bump
_TRUNCATE_SIGMAS = 6.0
_BLOCK_EDGES = 4096

DEFAULT_RANGE_STEPS = 32
DEFAULT_RANGE_TAU = 0.05
DEFAULT_STEPS = 128
DEFAULT_GRID = 1024
DEFAULT_KAPPA = 3.0
DEFAULT_LOG_STEPS = 2048
DEFAULT_LOG_EPSILON = 1e-5

# math.erfc, elementwise; it spares importing scipy.special (about 0.3 s
# and 26 MB) for this one function. Called with a float64 ``out`` and
# casting="unsafe", numpy converts through a small buffer instead of a
# full object array.
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-d float64 array, 0.5 * erfc(-x / sqrt 2),
    with the bits of that formula evaluated one float at a time."""
    out = _erfc(np.divide(-x, math.sqrt(2.0)), out=np.empty(x.size),
                casting="unsafe")
    out *= 0.5
    return out


@dataclass(frozen=True)
class RitzSummary:
    """Ritz values and weights from one Lanczos run.

    ``weights`` are the squared first components of the tridiagonal
    eigenvectors; they always sum to 1. ``steps`` is how many iterations
    actually ran — fewer than requested only on lucky breakdown, which is
    flagged rather than hidden. ``residual`` is the norm of the residual
    the last step left, beta_M, or 0 when it is negligible against the
    run's own coefficients (see :func:`_three_term`); by
    Paige's relation, Ritz pair i has residual ``residual * |y_M,i|``.
    Reports do not carry it: :meth:`to_dict` keeps its schema.
    """

    theta: np.ndarray
    weights: np.ndarray
    seed: object
    steps: int
    breakdown: bool = False
    residual: float = 0.0

    def to_dict(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "weights": self.weights.tolist(),
            "seed": self.seed,
            "steps": self.steps,
            "breakdown": self.breakdown,
        }


@dataclass
class SpectralDensity:
    """A smoothed spectral density on a uniform grid.

    ``scale == "linear"``: ``grid`` holds eigenvalue coordinates and
    ``values`` the density per unit eigenvalue.

    ``scale == "log"``: ``grid`` holds u = log(lambda + epsilon) and
    ``values`` the density *per unit eigenvalue* evaluated along u, i.e.
    the change-of-measure factor 1/(lambda + epsilon) is already applied.
    Mass therefore integrates with weight exp(u). Eigenvalues at or below
    -epsilon cannot be placed on this axis; their mirrored magnitudes go
    into the ``negative`` branch and their total weight is recorded in
    ``negative_mass``.

    ``normalization`` maps grid coordinates to the internal [-1, 1] axis;
    ``sigma`` is the bump width on that internal axis.
    """

    grid: np.ndarray
    values: np.ndarray
    sigma: float
    scale: str
    normalization: NormalizationMap
    ritz: list[RitzSummary] = field(default_factory=list)
    epsilon: float | None = None
    operator_normalization: NormalizationMap | None = None
    negative: "SpectralDensity | None" = None
    negative_mass: float = 0.0

    def mass(self) -> float:
        """Total probability mass, both branches, in eigenvalue measure."""
        if self.scale == "linear":
            total = float(np.trapezoid(self.values, self.grid))
        else:
            total = float(np.trapezoid(self.values * np.exp(self.grid), self.grid))
        if self.negative is not None:
            total += self.negative.mass()
        return total

    def to_dict(self) -> dict:
        out = {
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "sigma": self.sigma,
            "scale": self.scale,
            "normalization": self.normalization.to_dict(),
            "epsilon": self.epsilon,
            "negative_mass": self.negative_mass,
            "ritz": [r.to_dict() for r in self.ritz],
        }
        if self.operator_normalization is not None:
            out["operator_normalization"] = self.operator_normalization.to_dict()
        if self.negative is not None:
            neg = self.negative.to_dict()
            neg.pop("ritz", None)
            out["negative"] = neg
        return out


def _start_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.sqrt(np.add.reduce(v * v))


def _three_term(op: SymmetricOperator, V1: np.ndarray,
                steps: int) -> list[tuple[TridiagonalMatrix, float, bool]]:
    """One bare recurrence per column of the Fortran-order block ``V1``.

    The recurrences share one block product per step and nothing else;
    this is not block Lanczos. Alpha and beta are numpy's pairwise sums
    down each column, not BLAS reductions, which split between threads,
    and the updates are elementwise: every column gets the bits it would
    get alone in a one-column block, at any BLAS thread count. Three
    working blocks, no reorthogonalization: memory stays O(p k) whatever
    ``steps`` is. A non-finite product, alpha or beta raises
    :class:`NumericalError` at the step that produced it.

    A beta breaks its run down when it is at or below ``_BREAKDOWN_TOL``
    times the largest |alpha| + beta the run has produced, so scaling the
    operator by a power of two scales every coefficient and changes no
    decision. The test runs once per step for every live column, the last
    step included; a column that breaks down leaves the block and the
    rest go on. Returns (T, residual, breakdown) per column: the
    tridiagonal of the steps run, the beta of the last step (0 when it
    failed the test), and whether the run stopped before ``steps``.
    """
    name = op.label or "<anon>"
    k = V1.shape[1]
    alpha, beta = np.zeros((k, steps)), np.zeros((k, steps - 1))
    ran, residual = np.full(k, steps), np.zeros(k)
    live, scale = np.arange(k), np.zeros(k)     # per live column
    V_prev = b = None
    V = V1
    for m in range(1, steps + 1):
        W = np.asfortranarray(op.apply(V))
        if not np.isfinite(W).all():
            raise NumericalError(
                f"operator {name} returned a non-finite vector at Lanczos "
                f"step {m}")
        if m > 1:
            W = W - V_prev * b
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.add.reduce(W * V, axis=0)
            W = W - V * a
            b = np.sqrt(np.add.reduce(W * W, axis=0))
        # V's columns are unit vectors, so a non-finite alpha spoils beta too
        if not np.isfinite(b).all():
            raise NumericalError(
                f"operator {name} gave a non-finite Lanczos coefficient at "
                f"step {m}")
        alpha[live, m - 1] = a
        scale = np.maximum(scale, np.abs(a) + b)
        kept = b > _BREAKDOWN_TOL * scale
        if m == steps:
            residual[live] = np.where(kept, b, 0.0)
            break
        if not kept.all():
            ran[live[~kept]] = m
            live, b, scale = live[kept], b[kept], scale[kept]
            if not live.size:
                break
            W, V = np.asfortranarray(W[:, kept]), np.asfortranarray(V[:, kept])
        beta[live, m - 1] = b
        V_prev = V
        V = W / b
    return [(TridiagonalMatrix(alpha=alpha[r, :n], beta=beta[r, :n - 1]),
             res, n < steps)
            for r, (n, res) in enumerate(zip(ran.tolist(), residual.tolist()))]


def _lockstep(op: SymmetricOperator, steps: int,
              seeds: list) -> list[tuple[TridiagonalMatrix, RitzSummary]]:
    """One Lanczos run per seed, advanced together (see :func:`_three_term`),
    and their Ritz pairs solved together."""
    V1 = np.asfortranarray(np.column_stack(
        [_start_vector(op.dim, np.random.default_rng(s)) for s in seeds]))
    runs = _three_term(op, V1, steps)
    solved = ritz_pairs([T for T, _, _ in runs])
    return [(T, RitzSummary(theta=pairs.values,
                            weights=pairs.first_components ** 2, seed=seed,
                            steps=T.order, breakdown=broke, residual=res))
            for (T, res, broke), pairs, seed in zip(runs, solved, seeds)]


def fast_lanczos(op: SymmetricOperator, steps: int,
                 seed) -> tuple[TridiagonalMatrix, RitzSummary]:
    """Lanczos with no reorthogonalization: O(p) memory, 3 working vectors.

    Intended for density estimation, where the loss of orthogonality is
    harmless (duplicated Ritz values share out the weight). ``steps`` may
    exceed the operator dimension: without reorthogonalization the
    recurrence keeps producing vectors, and the extra quadrature nodes
    keep sampling the parts of the spectrum the early iterations skipped —
    the log-scale estimator depends on this. A breakdown (beta below
    1e-12) terminates early with the shorter tridiagonal matrix; the
    summary flags it.
    """
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    return _lockstep(op, steps, [seed])[0]


def estimate_range(op: SymmetricOperator, seed=0) -> NormalizationMap:
    """Bracket the spectrum with one short Lanczos run and widen by a margin.

    One :func:`fast_lanczos` run of ``m = min(DEFAULT_RANGE_STEPS, dim)``
    products keeps three working vectors, so memory stays O(p). Its
    extremal Ritz values are pushed outward by their residual norms,
    which Paige's relation gives without the Ritz vectors:
    ``||A z - theta z|| = beta_m |y_m|``, the norm of the residual the
    last step left times the last entry of the tridiagonal eigenvector (0
    after a breakdown, where the Ritz values are exact). The interval is
    then widened by the relative margin ``DEFAULT_RANGE_TAU``. Degenerate
    spectra (single point) cannot be bracketed and raise; callers may
    construct a NormalizationMap by hand for those.
    """
    T, ritz = fast_lanczos(op, min(DEFAULT_RANGE_STEPS, op.dim), seed)
    pairs = eig_tridiagonal(T)
    r_lo, r_hi = ritz.residual * np.abs(pairs.last_components[[0, -1]])
    return NormalizationMap.from_bounds(float(pairs.values[0] - r_lo),
                                        float(pairs.values[-1] + r_hi),
                                        DEFAULT_RANGE_TAU)


def sigma_for(steps: int, kappa: float) -> float:
    """Bump width on the normalized axis: the kernel falls to 1/kappa of its
    peak across one resolution element 2/(steps-1)."""
    if steps < 2:
        raise UsageError("need at least two steps for a finite bump width")
    if not (math.isfinite(kappa) and kappa > 1.0):
        raise UsageError(f"kappa must be a finite number above 1, got {kappa}")
    return 2.0 / ((steps - 1) * math.sqrt(8.0 * math.log(kappa)))


def accumulate_bumps(centers: np.ndarray, weights: np.ndarray,
                     grid: np.ndarray, sigma: float) -> np.ndarray:
    """Sum of Gaussian bumps, as mean density per grid cell.

    Cells are centered on the grid points. Each bump deposits its exact
    mass (CDF differences) into the cells within 6 sigma, so the result
    integrates to sum(weights) regardless of how sigma compares to the
    cell width. Mass falling outside the grid is dropped — the caller's
    margin is supposed to prevent that.
    """
    grid = np.asarray(grid, dtype=np.float64)
    K = grid.size
    if K < 2:
        raise UsageError("grid needs at least two points")
    h = (grid[-1] - grid[0]) / (K - 1)
    if h <= 0:
        raise UsageError("grid must be increasing")
    edges = np.empty(K + 1)
    edges[1:-1] = 0.5 * (grid[1:] + grid[:-1])
    edges[0] = grid[0] - 0.5 * h
    edges[-1] = grid[-1] + 0.5 * h
    centers = np.asarray(centers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    reach = _TRUNCATE_SIGMAS * sigma
    # every bump deposits into the cells [j0, j1) and reads edges j0 .. j1
    j0 = np.maximum(np.searchsorted(edges, centers - reach, side="left") - 1, 0)
    j1 = np.minimum(np.searchsorted(edges, centers + reach, side="right"), K)
    keep = (weights != 0.0) & (j0 < j1)
    centers, weights, j0, j1 = centers[keep], weights[keep], j0[keep], j1[keep]
    values = np.zeros(K)
    if not centers.size:
        return values
    # whole bumps in blocks of about _BLOCK_EDGES edges bound the temporaries
    step = max(1, _BLOCK_EDGES // int((j1 - j0).max() + 1))
    for lo in range(0, centers.size, step):
        c, w, a, b = (x[lo:lo + step] for x in (centers, weights, j0, j1))
        spans = b - a + 1
        owner = np.repeat(np.arange(c.size), spans)
        edge = np.arange(owner.size) - (np.cumsum(spans) - spans - a)[owner]
        cdf = _normal_cdf((edges[edge] - c[owner]) / sigma)
        # each edge past a bump's first closes the cell below it; add.at
        # adds in bump order, the order of one bump at a time
        inner = np.flatnonzero(edge > a[owner])
        np.add.at(values, edge[inner] - 1,
                  w[owner[inner]] * (cdf[inner] - cdf[inner - 1]))
    return values / h


def _smooth(nodes, grid: np.ndarray, t_grid: np.ndarray, sigma: float,
            normalization: NormalizationMap,
            epsilon: float | None = None) -> SpectralDensity:
    """Average the Gaussian-smoothed densities of weighted nodes.

    ``nodes`` holds one (values, weights) pair per repetition; ``t_grid``
    is ``grid`` on the normalized axis of ``normalization``. Without
    ``epsilon`` the values are bump centres on that axis already. With it
    they are eigenvalues: those above -epsilon sit at log(lambda + epsilon),
    the rest at the mirrored log(-lambda + epsilon) of the ``negative``
    branch, whose share of the weight is ``negative_mass``, and every bump
    carries the change-of-measure factor 1/(|lambda| + epsilon).
    """
    pos_acc = np.zeros(t_grid.size)
    neg_acc = np.zeros(t_grid.size)
    neg_mass = 0.0
    for values, weights in nodes:
        if epsilon is None:
            pos_acc += accumulate_bumps(values, weights, t_grid, sigma)
            continue
        pos = values > -epsilon
        for acc, sign, side in ((pos_acc, 1.0, pos), (neg_acc, -1.0, ~pos)):
            if np.any(side):
                shifted = sign * values[side] + epsilon
                acc += accumulate_bumps(normalization.normalize(np.log(shifted)),
                                        weights[side] / shifted, t_grid, sigma)
        neg_mass += float(np.sum(weights[~pos]))
    scale = "linear" if epsilon is None else "log"
    per_unit = len(nodes) * normalization.half_width
    neg_mass /= len(nodes)
    negative = None
    if neg_mass > 0.0:
        negative = SpectralDensity(grid=grid, values=neg_acc / per_unit,
                                   sigma=sigma, scale=scale,
                                   normalization=normalization, epsilon=epsilon)
    return SpectralDensity(grid=grid, values=pos_acc / per_unit, sigma=sigma,
                           scale=scale, normalization=normalization,
                           epsilon=epsilon, negative=negative,
                           negative_mass=neg_mass)


def check_estimator(steps: int, grid_points: int, n_vec: int, kappa: float,
                    epsilon: float | None = None) -> float:
    """Reject estimator settings no density can be built from, and return
    the bump width ``sigma_for(steps, kappa)``. ``epsilon`` is checked only
    when given, for the log axis. Raises :class:`UsageError`; cheap, so
    callers can check before they build or write anything."""
    if n_vec < 1:
        raise UsageError("n_vec must be >= 1")
    if steps < 2:
        raise UsageError("need at least two Lanczos steps for a density")
    if grid_points < 2:
        raise UsageError("grid needs at least two points")
    if epsilon is not None:
        _require_log_shift(epsilon)
    return sigma_for(steps, kappa)


def _estimate(op: SymmetricOperator, steps: int, grid_points: int, n_vec: int,
              kappa: float, seed: int, normalization: NormalizationMap | None,
              epsilon: float | None = None) -> SpectralDensity:
    """The body of both estimators: ``n_vec`` Lanczos runs on the operator
    mapped to [-1, 1], smoothed on the linear axis, or on the log axis when
    ``epsilon`` is given.

    The runs share one block product per step when the normalized
    operator has a native one (a dense matrix, possibly deflated). Others
    go one at a time, so a network operator sees one vector per product
    and keeps O(p) working memory.
    """
    sigma = check_estimator(steps, grid_points, n_vec, kappa, epsilon)
    lin_map = normalization
    if lin_map is None:
        lin_map = estimate_range(op, seed=[seed, 0])
    aop = affine_operator(op, lin_map)
    seeds = [[seed, 1 + l] for l in range(n_vec)]
    width = n_vec if aop.has_matmat else 1
    summaries = [summary for i in range(0, n_vec, width)
                 for _, summary in _lockstep(aop, steps, seeds[i:i + width])]
    nodes = [(s.theta, s.weights) for s in summaries]
    if epsilon is not None:
        nodes = [(lin_map.denormalize(t), w) for t, w in nodes]
    density = _smooth_over_range(nodes, lin_map, grid_points, sigma, epsilon)
    density.ritz = summaries
    return density


def _smooth_over_range(nodes, lin_map: NormalizationMap, grid_points: int,
                       sigma: float, epsilon: float | None = None) -> SpectralDensity:
    """Smooth weighted nodes onto the grid that spans ``lin_map``'s range.

    ``nodes`` holds one (values, weights) pair per repetition. Without
    ``epsilon`` the values lie on the normalized axis of ``lin_map``; with
    it they are raw eigenvalues. Without ``epsilon`` the grid is
    ``grid_points`` points across the padded range; with it, the same
    count across the log-magnitude image of the unpadded range, widened by
    ``DEFAULT_RANGE_TAU``.
    """
    t_grid = np.linspace(-1.0, 1.0, grid_points)
    if epsilon is None:
        return _smooth(nodes, lin_map.denormalize(t_grid), t_grid, sigma,
                       lin_map)
    log_map = NormalizationMap.from_bounds(
        *_log_bounds(lin_map.raw_lambda_min, lin_map.raw_lambda_max, epsilon),
        DEFAULT_RANGE_TAU)
    density = _smooth(nodes, log_map.denormalize(t_grid), t_grid, sigma,
                      log_map, epsilon)
    density.operator_normalization = lin_map
    return density


def approx_spectrum(op: SymmetricOperator, steps: int = DEFAULT_STEPS,
                    grid_points: int = DEFAULT_GRID, n_vec: int = 1,
                    kappa: float = DEFAULT_KAPPA, seed: int = 0,
                    normalization: NormalizationMap | None = None) -> SpectralDensity:
    """Smoothed spectral density of a symmetric operator, matrix-free.

    Normalizes the spectrum to [-1, 1] (estimating the range unless a map
    is supplied), runs ``n_vec`` independent Lanczos passes of ``steps``
    iterations, places a Gaussian bump of width ``sigma_for(steps, kappa)``
    at each Ritz value with its weight, averages the passes, and maps the
    grid back to eigenvalue coordinates. Identical seeds give bit-identical
    densities. ``steps`` above the operator dimension is clamped with a
    warning.
    """
    if steps > op.dim:
        warnings.warn(
            f"steps = {steps} exceeds operator dim {op.dim}; clamping",
            stacklevel=2,
        )
        steps = op.dim
    return _estimate(op, steps, grid_points, n_vec, kappa, seed, normalization)


def _log_bounds(raw_min: float, raw_max: float, epsilon: float) -> tuple[float, float]:
    """Pre-margin bounds on the u = log(|lambda| + epsilon) axis.

    Sign-definite ranges transform monotonically; a range straddling zero
    contains magnitudes all the way down to ~0, so the lower bound is
    log(epsilon).
    """
    if raw_min >= 0.0:
        return math.log(raw_min + epsilon), math.log(raw_max + epsilon)
    if raw_max <= 0.0:
        return math.log(-raw_max + epsilon), math.log(-raw_min + epsilon)
    return math.log(epsilon), math.log(max(raw_max, -raw_min) + epsilon)


def _require_log_shift(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise UsageError(f"epsilon must be a finite positive number, got {epsilon}")


def approx_log_spectrum(op: SymmetricOperator, steps: int = DEFAULT_LOG_STEPS,
                        grid_points: int = DEFAULT_GRID, n_vec: int = 1,
                        kappa: float = DEFAULT_KAPPA,
                        epsilon: float = DEFAULT_LOG_EPSILON, seed: int = 0,
                        normalization: NormalizationMap | None = None) -> SpectralDensity:
    """Spectral density over u = log(lambda + epsilon).

    Same machinery as :func:`approx_spectrum`, but Ritz values are placed
    at their log-magnitudes and each bump is scaled by the change-of-
    measure factor 1/(lambda + epsilon), so ``values`` remain a density in
    eigenvalue measure. This resolves structure spread over many orders of
    magnitude with one run, at the price of ``steps`` in the thousands.
    Ritz values at or below -epsilon land in the mirrored ``negative``
    branch and are tallied in ``negative_mass``.
    """
    # unlike the linear estimator, steps are NOT clamped at the dimension:
    # on the log axis the bulk occupies a sliver of the linear range, and
    # only the nodes contributed by iterations past dim resolve it
    return _estimate(op, steps, grid_points, n_vec, kappa, seed,
                     normalization, epsilon)


def exact_log_spectrum(eigenvalues: np.ndarray, dim: int, steps: int,
                       grid_points: int, kappa: float,
                       epsilon: float) -> SpectralDensity:
    """Log-axis density of a ``dim``-dimensional operator whose spectrum is
    known exactly: ``eigenvalues`` plus ``dim - len(eigenvalues)`` zeros.

    It is smoothed the way :func:`approx_log_spectrum` smooths a
    ``steps``-step estimate: the same bump width, on the grid an estimate
    would get if its range bracket were the exact extremes, widened by
    the default range margin. The zeros go in as one node carrying their
    total weight. No Lanczos runs, so ``ritz`` is empty.
    """
    _require_log_shift(epsilon)
    eig = np.asarray(eigenvalues, dtype=np.float64)
    zeros = dim - eig.size
    if eig.size == 0 or zeros < 0:
        raise UsageError(f"need 1 to {dim} eigenvalues, got {eig.size}")
    values, weights = eig, np.full(eig.size, 1.0 / dim)
    if zeros:
        values, weights = np.append(values, 0.0), np.append(weights, zeros / dim)
    lin_map = NormalizationMap.from_bounds(float(values.min()),
                                           float(values.max()),
                                           DEFAULT_RANGE_TAU)
    return _smooth_over_range([(values, weights)], lin_map, grid_points,
                              sigma_for(steps, kappa), epsilon)


def density_from_eigenvalues(eigenvalues: np.ndarray,
                             like: SpectralDensity) -> SpectralDensity:
    """Smooth a known eigenvalue list onto the same grid/kernel as ``like``.

    This is the reference curve for estimator validation: identical grid,
    identical sigma, identical accumulation, so any difference from the
    estimate is estimator error, not smoothing art.
    """
    eig = np.asarray(eigenvalues, dtype=np.float64)
    if eig.size == 0:
        raise UsageError("need at least one eigenvalue")
    norm = like.normalization
    if like.scale == "linear":
        eig = norm.normalize(eig)
    return _smooth([(eig, np.full(eig.size, 1.0 / eig.size))],
                   like.grid.copy(), norm.normalize(like.grid), like.sigma,
                   norm, like.epsilon)


def tv_distance(a: SpectralDensity, b: SpectralDensity) -> float:
    """Total variation distance between two densities on the same grid."""
    if a.scale != b.scale:
        raise UsageError("cannot compare densities on different scales")
    if a.grid.shape != b.grid.shape or not np.allclose(a.grid, b.grid,
                                                       rtol=1e-12, atol=1e-12):
        raise UsageError("densities must share a grid")
    if a.scale == "linear":
        return 0.5 * float(np.trapezoid(np.abs(a.values - b.values), a.grid))
    jac = np.exp(a.grid)
    total = 0.5 * float(np.trapezoid(np.abs(a.values - b.values) * jac, a.grid))
    av = a.negative.values if a.negative is not None else 0.0
    bv = b.negative.values if b.negative is not None else 0.0
    if a.negative is not None or b.negative is not None:
        total += 0.5 * float(np.trapezoid(np.abs(av - bv) * jac, a.grid))
    return total
