"""Lanczos recurrences, range estimation, and the density estimators.

Fast (no reorthogonalization) and slow (full reorthogonalization) variants
are checked against dense eigensolves; the density accumulator is checked
for exact mass conservation; estimator invariances (negation, affine maps,
seeds, thread count) are checked at the tolerances they actually satisfy:
exact negation is tight, generic affine maps only survive loosely because
the bare recurrence is chaotic past the loss of orthogonality.
"""

import math

import numpy as np
import pytest

from oracles import (
    accumulate_bumps_loop,
    explicit_residual_bounds,
    normal_cdf,
    slow_lanczos,
)
from specdens import lanczos, net
from specdens.errors import DegenerateSpectrumError, NumericalError, UsageError
from specdens.lanczos import (
    DEFAULT_KAPPA,
    DEFAULT_LOG_EPSILON,
    DEFAULT_RANGE_TAU,
    accumulate_bumps,
    approx_log_spectrum,
    approx_spectrum,
    check_estimator,
    density_from_eigenvalues,
    estimate_range,
    exact_log_spectrum,
    fast_lanczos,
    sigma_for,
    tv_distance,
)
from specdens.linalg import dense_eig
from specdens.net import hessian_operator, linearize
from specdens.operators import (
    SymmetricOperator,
    affine_operator,
    dense_operator,
)
from specdens.rmt import EnsembleSpec, sample


def random_symmetric(p, seed):
    A = np.random.default_rng(seed).standard_normal((p, p))
    return (A + A.T) / 2


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------

class TestFastLanczos:
    def test_exact_on_tiny_diagonal(self):
        op = dense_operator(np.diag([1.0, 2.0, 3.0]))
        _, summary = fast_lanczos(op, 3, seed=0)
        np.testing.assert_allclose(summary.theta, [1.0, 2.0, 3.0], atol=1e-10)
        assert abs(summary.weights.sum() - 1.0) <= 1e-8
        assert not summary.breakdown

    def test_identity_breaks_down_immediately(self):
        _, summary = fast_lanczos(dense_operator(np.eye(6)), 5, seed=0)
        assert summary.breakdown
        assert summary.steps == 1
        np.testing.assert_allclose(summary.theta, [1.0], atol=1e-14)
        np.testing.assert_allclose(summary.weights, [1.0], atol=1e-14)

    def test_steps_beyond_dimension_allowed(self):
        # once orthogonality is lost the recurrence keeps producing nodes
        op = dense_operator(random_symmetric(40, 1))
        _, summary = fast_lanczos(op, 90, seed=0)
        assert not summary.breakdown
        assert summary.steps == 90
        assert len(summary.theta) == 90

    def test_tiny_matrix_exhausts_exactly_at_dimension(self):
        # at p=10 the Krylov space is exhausted before orthogonality decays,
        # so requesting more steps ends in a flagged natural breakdown
        op = dense_operator(random_symmetric(10, 1))
        _, summary = fast_lanczos(op, 25, seed=0)
        assert summary.breakdown
        assert summary.steps == 10

    @pytest.mark.parametrize("exponent", [-70, 60])
    def test_breakdowns_are_flagged_at_any_scale(self, exponent):
        # breakdown is judged against the run's own coefficients, so the
        # exhaustion at p = 10 and the identity's step-1 collapse are seen
        # on scaled operators as on the plain ones
        scale = 2.0 ** exponent
        op = dense_operator(scale * random_symmetric(10, 1))
        _, exhausted = fast_lanczos(op, 25, seed=0)
        assert (exhausted.breakdown, exhausted.steps) == (True, 10)
        _, flat = fast_lanczos(dense_operator(scale * np.eye(6)), 5, seed=0)
        assert (flat.breakdown, flat.steps) == (True, 1)
        assert flat.residual == 0.0

    def test_overflowing_alpha_is_caught_at_its_step(self):
        # c 1 1^T on the unit vector of halves: every product entry is
        # 2c, finite, but alpha = 4c overflows
        def product(V):
            return np.ones_like(V) * (6e307 * V.sum(axis=0))

        op = SymmetricOperator(4, product, label="huge", matmat=product)
        V1 = np.full((4, 2), 0.5, order="F")
        with pytest.raises(NumericalError,
                           match="operator huge gave a non-finite Lanczos "
                                 "coefficient at step 1$"):
            lanczos._three_term(op, V1, 5)

    def test_theta_within_spectral_range(self):
        A = random_symmetric(40, 2)
        lo, hi = dense_eig(A)[[0, -1]]
        _, summary = fast_lanczos(dense_operator(A), 60, seed=3)
        pad = 1e-8 * max(abs(lo), abs(hi))
        assert summary.theta.min() >= lo - pad
        assert summary.theta.max() <= hi + pad

    def test_deterministic(self):
        op = dense_operator(random_symmetric(30, 4))
        _, s1 = fast_lanczos(op, 20, seed=[7, 1])
        _, s2 = fast_lanczos(op, 20, seed=[7, 1])
        assert np.array_equal(s1.theta, s2.theta)
        assert np.array_equal(s1.weights, s2.weights)


def column_loop_operator(A, widths=None):
    """A dense operator whose block product is an exact column loop of the
    same GEMV its matvec runs; ``widths`` records each block's width."""
    def matmat(V):
        if widths is not None:
            widths.append(V.shape[1])
        return np.column_stack([A @ V[:, j] for j in range(V.shape[1])])

    return SymmetricOperator(A.shape[0], lambda v: A @ v, label="loop",
                             matmat=matmat)


class TestLockstep:
    """The n_vec runs of a density advance together, one block product per
    step, and each run keeps the bits it would have alone."""

    def test_block_runs_match_lone_runs_bit_for_bit(self):
        widths = []
        op = column_loop_operator(random_symmetric(40, 6), widths)
        density = approx_spectrum(op, steps=30, n_vec=4, seed=9)
        assert widths == [4] * 30          # the range estimate runs alone
        aop = affine_operator(op, density.normalization)
        for l, got in enumerate(density.ritz):
            _, alone = fast_lanczos(aop, 30, [9, 1 + l])
            assert got.seed == alone.seed
            assert np.array_equal(got.theta, alone.theta)
            assert np.array_equal(got.weights, alone.weights)

    def test_broken_down_column_leaves_the_block(self, rng):
        d = np.arange(1.0, 13.0)
        op = column_loop_operator(np.diag(d))
        V1 = np.zeros((12, 2), order="F")
        V1[3, 0] = 1.0                      # an eigenvector: breaks at step 1
        V1[:, 1] = rng.standard_normal(12)
        V1[:, 1] /= np.linalg.norm(V1[:, 1])
        runs = lanczos._three_term(op, V1, 8)
        assert [broke for _, _, broke in runs] == [True, False]
        T, residual, _ = runs[0]
        assert (T.alpha.tolist(), T.beta.tolist(), residual) == ([4.0], [], 0.0)
        for j, (T, residual, broke) in enumerate(runs):
            (alone, alone_residual, alone_broke), = lanczos._three_term(
                op, V1[:, [j]], 8)
            assert np.array_equal(T.alpha, alone.alpha)
            assert np.array_equal(T.beta, alone.beta)
            assert (residual, broke) == (alone_residual, alone_broke)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -40, 2.0 ** 60])
    def test_every_tridiagonal_is_finite_with_nonnegative_beta(self, rng,
                                                               scale):
        """What a TridiagonalMatrix takes on trust, for a broken-down run
        and runs past the dimension, at any operator scale."""
        A = np.diag(np.arange(1.0, 13.0))
        A[:6, :6] += random_symmetric(6, 3)
        V1 = rng.standard_normal((12, 3))
        V1[:, 0] = np.eye(12)[9]            # an eigenvector: breaks at step 1
        V1 /= np.linalg.norm(V1, axis=0)
        runs = lanczos._three_term(dense_operator(scale * A),
                                   np.asfortranarray(V1), 30)
        assert runs[0][2]
        for T, _, _ in runs:
            assert T.alpha.dtype == T.beta.dtype == np.float64
            assert T.alpha.ndim == 1 and T.beta.shape == (T.order - 1,)
            assert np.isfinite(T.alpha).all() and np.isfinite(T.beta).all()
            assert (T.beta >= 0.0).all()

    def test_network_operator_gets_one_vector_at_a_time(self, monkeypatch,
                                                        trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        op = hessian_operator(linearize(spec, theta, train), which="hess")
        assert not op.has_matmat
        shapes = []
        real_hvp = net.hvp

        def spy(lin, v, **kwargs):
            shapes.append(v.shape)
            return real_hvp(lin, v, **kwargs)

        monkeypatch.setattr(net, "hvp", spy)
        approx_log_spectrum(op, steps=20, n_vec=3, seed=1)
        assert shapes == [(op.dim,)] * (32 + 3 * 20)


class TestSlowLanczos:
    def test_full_steps_reproduce_dense_spectrum(self):
        A = random_symmetric(80, 5)
        oracle = dense_eig(A)
        _, summary = slow_lanczos(dense_operator(A), 80, seed=0)
        np.testing.assert_allclose(summary.theta, oracle,
                                   atol=1e-10 * np.abs(oracle).max())

    def test_steps_beyond_dimension_rejected(self):
        with pytest.raises(UsageError):
            slow_lanczos(dense_operator(np.eye(5)), 6, seed=0)

    def test_large_operator_guarded(self):
        big = SymmetricOperator(10_001, lambda v: v, label="big")
        with pytest.raises(UsageError, match="guard"):
            slow_lanczos(big, 10, seed=0)


# ---------------------------------------------------------------------------
# range estimation and bump width
# ---------------------------------------------------------------------------

def spiked_diagonal():
    """Three outliers far above a [0, 1] bulk. They converge within a few
    steps, after which the bare recurrence loses orthogonality and repeats
    them as ghost Ritz values."""
    d = np.linspace(0.0, 1.0, 200)
    d[-3:] = [20.0, 50.0, 100.0]
    return np.diag(d)


RANGE_CASES = {
    "goe": lambda: sample(EnsembleSpec(kind="goe", p=80, seed=3)),
    "spiked_wishart": lambda: sample(EnsembleSpec(
        kind="spiked_wishart", p=80, n=160, spikes=(5.0, 4.0, 3.0), seed=3)),
    "pareto_wishart": lambda: sample(EnsembleSpec(
        kind="pareto_wishart", p=80, n=160, alpha=1.0, seed=3)),
    "spiked_diagonal": spiked_diagonal,
}


class TestEstimateRange:
    def test_two_point_spectrum_hand_values(self):
        nm = estimate_range(dense_operator(np.diag([0.0, 2.0])))
        assert nm.center == pytest.approx(1.0, abs=1e-6)
        assert nm.half_width == pytest.approx(1.1, abs=1e-6)
        assert nm.lambda_min == pytest.approx(-0.1, abs=1e-6)
        assert nm.lambda_max == pytest.approx(2.1, abs=1e-6)

    def test_brackets_true_spectrum(self):
        A = random_symmetric(120, 6)
        true = dense_eig(A)
        nm = estimate_range(dense_operator(A), seed=1)
        assert nm.lambda_min <= true[0]
        assert nm.lambda_max >= true[-1]
        # and is not wildly loose: margin stays within ~3x the tau widening
        width = true[-1] - true[0]
        assert nm.lambda_max - nm.lambda_min <= width * (1 + 8 * DEFAULT_RANGE_TAU)

    @pytest.mark.parametrize("exponent", [-70, -40, 60])
    def test_power_of_two_scaling_scales_the_range_exactly(self, exponent):
        A = sample(EnsembleSpec(kind="goe", p=200, seed=0))
        scale = 2.0 ** exponent
        ref = estimate_range(dense_operator(A), seed=1)
        got = estimate_range(dense_operator(scale * A), seed=1)
        for name in ("center", "half_width", "lambda_min", "lambda_max",
                     "raw_lambda_min", "raw_lambda_max"):
            assert getattr(got, name) / scale == getattr(ref, name)

    def test_degenerate_spectrum_raises(self):
        # dim 1 gives an exactly-zero residual, so the collapse is certain;
        # for lambda*I at higher dim the raise depends on fp luck
        with pytest.raises(DegenerateSpectrumError):
            estimate_range(dense_operator(np.array([[3.0]])))

    @pytest.mark.parametrize("p", [10, 100])
    def test_one_recurrence_of_at_most_m_plus_one_products(self, p):
        A = random_symmetric(p, 4)
        calls = []

        def matvec(v):
            calls.append(1)
            return A @ v

        estimate_range(SymmetricOperator(p, matvec, label="counted"), seed=0)
        assert 0 < len(calls) <= min(lanczos.DEFAULT_RANGE_STEPS, p) + 1

    @pytest.mark.parametrize("name", RANGE_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brackets_dense_spectrum(self, name, seed):
        A = RANGE_CASES[name]()
        true = np.linalg.eigvalsh(A)
        nm = estimate_range(dense_operator(A), seed=seed)
        assert nm.lambda_min <= true[0]
        assert nm.lambda_max >= true[-1]

    def test_spiked_diagonal_loses_orthogonality(self):
        # the bracketing case above is only a hard one if the top outlier
        # has converged and come back as a ghost within the 32 steps
        _, summary = fast_lanczos(dense_operator(spiked_diagonal()),
                                  lanczos.DEFAULT_RANGE_STEPS, seed=0)
        assert np.sum(np.abs(summary.theta - 100.0) < 1e-8) >= 2

    @pytest.mark.parametrize("name", RANGE_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residuals_match_explicit_ritz_vectors(self, name, seed):
        # the residual read off the recurrence against ||A z - theta z||
        # from a stored basis; measured at most 4e-14 of the width
        A = RANGE_CASES[name]()
        nm = estimate_range(dense_operator(A), seed=seed)
        lo, hi = explicit_residual_bounds(dense_operator(A),
                                          lanczos.DEFAULT_RANGE_STEPS, seed)
        width = hi - lo
        assert abs(nm.raw_lambda_min - lo) <= 1e-12 * width
        assert abs(nm.raw_lambda_max - hi) <= 1e-12 * width


class TestSigmaFor:
    def test_hand_value(self):
        assert sigma_for(3, math.e) == pytest.approx(2.0 / (2.0 * math.sqrt(8.0)))

    def test_shrinks_with_steps(self):
        assert sigma_for(256, 3.0) < sigma_for(64, 3.0) < sigma_for(16, 3.0)


ESTIMATOR_REFUSALS = [
    ("n_vec", 0, "n_vec must be >= 1"),
    ("steps", 1, "at least two Lanczos steps"),
    ("grid_points", 1, "grid needs at least two points"),
    ("kappa", 1.0, "kappa must be a finite number above 1"),
    ("kappa", math.nan, "kappa must be a finite number above 1"),
    ("kappa", math.inf, "kappa must be a finite number above 1"),
    ("epsilon", 0.0, "epsilon must be a finite positive number"),
    ("epsilon", -1.0, "epsilon must be a finite positive number"),
    ("epsilon", math.nan, "epsilon must be a finite positive number"),
    ("epsilon", math.inf, "epsilon must be a finite positive number"),
]


class TestCheckEstimator:
    """The one check on estimator settings. The commands call it before
    they read or write anything; sigma_for, accumulate_bumps and the
    estimators take what passed on trust."""

    SMALLEST = dict(steps=2, grid_points=2, n_vec=1, kappa=1.5,
                    epsilon=1e-300)

    def test_smallest_settings_pass(self):
        assert check_estimator(**self.SMALLEST) is None
        sigma = sigma_for(self.SMALLEST["steps"], self.SMALLEST["kappa"])
        assert math.isfinite(sigma) and sigma > 0.0

    @pytest.mark.parametrize("key,value,message", ESTIMATOR_REFUSALS,
                             ids=[f"{k}={v}" for k, v, _ in ESTIMATOR_REFUSALS])
    def test_refuses_each_bad_setting(self, key, value, message):
        with pytest.raises(UsageError, match=message):
            check_estimator(**{**self.SMALLEST, key: value})


class TestAccumulateBumps:
    def test_mass_conserved_even_for_narrow_bumps(self, rng):
        grid = np.linspace(-1.0, 1.0, 301)
        h = grid[1] - grid[0]
        centers = rng.uniform(-0.5, 0.5, 12)
        weights = rng.uniform(0.1, 1.0, 12)
        # sigma below the cell width: pointwise kernel sums would lose mass
        values = accumulate_bumps(centers, weights, grid, sigma=h / 4)
        assert np.sum(values) * h == pytest.approx(weights.sum(), rel=1e-6)

    def test_single_bump_peaks_at_center(self):
        grid = np.linspace(-1.0, 1.0, 201)
        values = accumulate_bumps(np.array([0.3]), np.array([1.0]), grid, 0.05)
        assert abs(grid[np.argmax(values)] - 0.3) <= (grid[1] - grid[0])

    def test_bit_identical_to_the_bump_by_bump_loop(self, rng):
        grid = np.linspace(-1.0, 1.0, 257)
        h = grid[1] - grid[0]
        centers = np.concatenate([
            rng.uniform(-0.9, 0.9, 40),
            rng.uniform(-0.01, 0.01, 20),      # many bumps share cells
            [-1.0 - 0.5 * h, 1.0 + 0.5 * h],   # on the outer edges
            [-1.3, 1.2, -7.0, 9.0],            # partly or wholly off the grid
            grid[::50],                        # exactly on grid points
        ])
        weights = rng.uniform(-0.2, 1.0, centers.size)
        weights[::7] = 0.0
        for sigma in (h / 8, h, 0.05, 0.4):
            got = accumulate_bumps(centers, weights, grid, sigma)
            assert np.array_equal(got, accumulate_bumps_loop(
                centers, weights, grid, sigma))

    def test_normal_cdf_has_the_bits_of_the_formula(self, rng):
        tiny = np.nextafter(0.0, 1.0)
        x = np.concatenate([
            [0.0, -0.0, 1e-300, -1e-300, tiny, -tiny, 37.0, -37.0, 38.5,
             -38.5, 6.0, -6.0, np.inf, -np.inf],
            rng.standard_normal(2000) * 6.0,
            rng.uniform(-40.0, 40.0, 2000),
        ])
        got = lanczos._normal_cdf(x)
        assert got.dtype == np.float64
        assert got.tobytes() == normal_cdf(x).tobytes()

    def test_no_bump_on_the_grid_gives_zeros(self):
        grid = np.linspace(-1.0, 1.0, 33)
        for centers, weights in ((np.empty(0), np.empty(0)),
                                 (np.array([0.0, 0.5]), np.zeros(2)),
                                 (np.array([5.0, -5.0]), np.ones(2))):
            values = accumulate_bumps(centers, weights, grid, 0.01)
            assert np.array_equal(values, np.zeros(33))
            assert np.array_equal(values, accumulate_bumps_loop(
                centers, weights, grid, 0.01))

    @pytest.mark.parametrize("log_scale", [False, True])
    def test_densities_match_the_loop_bit_for_bit(self, monkeypatch,
                                                    log_scale):
        rng = np.random.default_rng(31)
        Z = rng.standard_normal((60, 60))
        op = dense_operator(Z @ Z.T / 60 - 0.3 * np.eye(60))
        kwargs = dict(steps=40, grid_points=200, n_vec=2, seed=5)
        estimate = approx_log_spectrum if log_scale else approx_spectrum
        got = estimate(op, **kwargs)
        monkeypatch.setattr(lanczos, "accumulate_bumps", accumulate_bumps_loop)
        ref = estimate(op, **kwargs)
        assert np.array_equal(got.values, ref.values)
        if log_scale:
            assert got.negative is not None
            assert np.array_equal(got.negative.values, ref.negative.values)


# ---------------------------------------------------------------------------
# linear-scale density estimation
# ---------------------------------------------------------------------------

class TestApproxSpectrum:
    def test_mass_is_one(self):
        op = dense_operator(random_symmetric(100, 7))
        est = approx_spectrum(op, steps=32, n_vec=2, seed=1)
        assert est.mass() == pytest.approx(1.0, abs=0.01)

    def test_each_repetition_weights_sum_to_one(self):
        op = dense_operator(random_symmetric(60, 8))
        est = approx_spectrum(op, steps=24, n_vec=3, seed=2)
        assert len(est.ritz) == 3
        for summary in est.ritz:
            assert abs(summary.weights.sum() - 1.0) <= 1e-8

    def test_matches_smoothed_dense_oracle(self):
        # loose bound: at p = 200 the stochastic trace estimate has real
        # variance (measured ~0.12); concentration tightens it at scale
        A = random_symmetric(200, 9)
        est = approx_spectrum(dense_operator(A), steps=64, n_vec=8, seed=3)
        ref = density_from_eigenvalues(dense_eig(A), like=est)
        assert tv_distance(est, ref) <= 0.2

    def test_degenerate_operator_is_refused(self):
        # lambda*I breaks down at step 1 and its range has no width
        op = dense_operator(3.0 * np.eye(12))
        with pytest.raises(DegenerateSpectrumError):
            approx_spectrum(op, steps=8, seed=0)
        with pytest.raises(DegenerateSpectrumError):
            approx_log_spectrum(op, steps=8, seed=0)

    def test_bit_identical_across_reruns_and_workers(self):
        op = dense_operator(random_symmetric(50, 11))
        a = approx_spectrum(op, steps=24, n_vec=4, seed=5)
        b = approx_spectrum(op, steps=24, n_vec=4, seed=5)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.grid, b.grid)

    def test_seed_changes_the_estimate(self):
        op = dense_operator(random_symmetric(50, 12))
        a = approx_spectrum(op, steps=24, seed=0)
        b = approx_spectrum(op, steps=24, seed=1)
        assert not np.array_equal(a.values, b.values)

    def test_negation_mirrors_exactly(self):
        # the range estimate of -A is the mirror of that of A, so the
        # grids mirror too
        A = random_symmetric(60, 13)
        da = approx_spectrum(dense_operator(A), steps=32, n_vec=2, seed=4)
        db = approx_spectrum(dense_operator(-A), steps=32, n_vec=2, seed=4)
        np.testing.assert_allclose(db.grid, -da.grid[::-1], atol=1e-12)
        np.testing.assert_allclose(db.values, da.values[::-1], atol=1e-12)
        for sa, sb in zip(da.ritz, db.ritz):
            np.testing.assert_allclose(sb.theta, -sa.theta[::-1], atol=1e-12)

    @pytest.mark.parametrize("exponent", [-70, -40, 60])
    def test_power_of_two_scaling_scales_the_density_exactly(self, exponent):
        # even exponents only: the square root in the Ritz solve's shifted
        # factor rounds differently at odd ones
        A = sample(EnsembleSpec(kind="goe", p=200, seed=0))
        scale = 2.0 ** exponent
        ref = approx_spectrum(dense_operator(A), steps=48, n_vec=2, seed=3)
        got = approx_spectrum(dense_operator(scale * A), steps=48, n_vec=2,
                              seed=3)
        assert np.array_equal(got.grid / scale, ref.grid)
        assert np.array_equal(got.values * scale, ref.values)
        for a, b in zip(got.ritz, ref.ritz):
            assert np.array_equal(a.theta, b.theta)
            assert np.array_equal(a.weights, b.weights)

    def test_tiny_operator_keeps_unit_mass(self):
        # a 1e-12 scale puts every beta of the range estimate near 1e-12
        A = 1e-12 * sample(EnsembleSpec(kind="goe", p=200, seed=0))
        est = approx_spectrum(dense_operator(A), steps=48, n_vec=2, seed=3)
        assert est.mass() == pytest.approx(1.0, abs=0.01)

    def test_generic_affine_map_loose(self):
        # a*A + b*I: the recurrence is chaotic past loss of orthogonality,
        # so only the grid mapping is tight; densities agree in TV only
        A = random_symmetric(80, 14)
        a, b = 2.5, 0.7
        da = approx_spectrum(dense_operator(A), steps=64, n_vec=4, seed=3)
        db = approx_spectrum(dense_operator(a * A + b * np.eye(80)),
                             steps=64, n_vec=4, seed=3)
        np.testing.assert_allclose(db.grid, a * da.grid + b,
                                   rtol=1e-6, atol=1e-6)
        mapped = np.interp(a * da.grid + b, db.grid, db.values) * a
        tv = 0.5 * np.trapezoid(np.abs(mapped - da.values), da.grid)
        assert tv <= 0.05


# ---------------------------------------------------------------------------
# log-scale density estimation
# ---------------------------------------------------------------------------

class TestApproxLogSpectrum:
    def wishart(self, p, n, seed):
        X = np.random.default_rng(seed).standard_normal((n, p))
        return X.T @ X / n

    def test_psd_operator_mass_and_metadata(self):
        op = dense_operator(self.wishart(60, 120, 1))
        est = approx_log_spectrum(op, steps=256, n_vec=2, seed=2)
        assert est.scale == "log"
        assert est.epsilon == pytest.approx(1e-5)
        assert est.operator_normalization is not None
        assert est.negative is None and est.negative_mass == 0.0
        assert est.mass() == pytest.approx(1.0, abs=0.05)

    def test_steps_beyond_dimension_not_clamped(self):
        op = dense_operator(self.wishart(40, 80, 3))
        est = approx_log_spectrum(op, steps=100, n_vec=1, seed=0)
        assert est.ritz[0].steps == 100

    def test_log_and_linear_masses_agree(self):
        op = dense_operator(self.wishart(60, 120, 4))
        lin = approx_spectrum(op, steps=48, n_vec=2, seed=1)
        log = approx_log_spectrum(op, steps=256, n_vec=2, seed=1)
        assert abs(lin.mass() - log.mass()) <= 0.05

    def test_negative_eigenvalues_go_to_mirrored_branch(self):
        A = self.wishart(40, 80, 5)
        A[0, :] = 0.0
        A[:, 0] = 0.0
        A[0, 0] = -2.0
        est = approx_log_spectrum(dense_operator(A), steps=160, n_vec=8,
                                  seed=6)
        assert est.negative is not None
        assert 0.005 <= est.negative_mass <= 0.1
        assert est.mass() == pytest.approx(1.0, abs=0.05)

    def test_oracle_comparison_on_log_axis(self):
        # loose for the same reason as the linear case (measured ~0.19)
        A = self.wishart(80, 160, 7)
        est = approx_log_spectrum(dense_operator(A), steps=256, n_vec=8,
                                  seed=8)
        ref = density_from_eigenvalues(dense_eig(A), like=est)
        assert tv_distance(est, ref) <= 0.3


class TestExactLogSpectrum:
    eig = np.array([3.0, 1.0, 0.2, 1e-3, -1e-17])

    def test_matches_the_spelled_out_spectrum(self):
        exact = exact_log_spectrum(self.eig, 50, steps=50, grid_points=256,
                                   kappa=DEFAULT_KAPPA,
                                   epsilon=DEFAULT_LOG_EPSILON)
        full = np.concatenate([self.eig, np.zeros(45)])
        ref = density_from_eigenvalues(full, like=exact)
        assert tv_distance(exact, ref) <= 1e-12
        assert exact.ritz == []
        assert exact.negative is None
        nm = exact.operator_normalization
        assert (nm.raw_lambda_min, nm.raw_lambda_max) == (-1e-17, 3.0)

    def test_grid_and_width_are_those_of_an_estimate(self):
        # the range estimate of this diagonal operator meets its extremes
        # to round-off (measured 4e-17 and 1e-15), so the estimate smooths
        # onto the exact density's grid
        exact = exact_log_spectrum(self.eig, 50, steps=40, grid_points=128,
                                   kappa=2.5, epsilon=1e-4)
        diag = np.concatenate([self.eig, np.zeros(45)])
        est = approx_log_spectrum(dense_operator(np.diag(diag)), steps=40,
                                  grid_points=128, kappa=2.5, epsilon=1e-4,
                                  seed=0)
        est_nm, exact_nm = est.operator_normalization, exact.operator_normalization
        np.testing.assert_allclose(
            [est_nm.raw_lambda_min, est_nm.raw_lambda_max],
            [exact_nm.raw_lambda_min, exact_nm.raw_lambda_max],
            rtol=0, atol=1e-14)
        np.testing.assert_allclose(est.grid, exact.grid, rtol=0, atol=1e-13)
        assert est.sigma == exact.sigma


class TestTvDistance:
    def test_identical_density_is_zero(self):
        op = dense_operator(random_symmetric(30, 15))
        est = approx_spectrum(op, steps=16, seed=0)
        assert tv_distance(est, est) == 0.0

    def test_mismatched_scales_rejected(self):
        A = random_symmetric(30, 16)
        psd = A @ A.T / 30
        lin = approx_spectrum(dense_operator(A), steps=16, seed=0)
        log = approx_log_spectrum(dense_operator(psd), steps=32, seed=0)
        with pytest.raises(UsageError):
            tv_distance(lin, log)

    def test_mismatched_grids_rejected(self):
        A = random_symmetric(30, 17)
        a = approx_spectrum(dense_operator(A), steps=16, seed=0)
        b = approx_spectrum(dense_operator(A + np.eye(30)), steps=16, seed=0)
        with pytest.raises(UsageError):
            tv_distance(a, b)


class TestDensityFromEigenvalues:
    def test_reference_curve_has_unit_mass(self):
        A = random_symmetric(50, 18)
        est = approx_spectrum(dense_operator(A), steps=24, seed=1)
        ref = density_from_eigenvalues(dense_eig(A), like=est)
        assert ref.mass() == pytest.approx(1.0, abs=0.01)

    def test_empty_input_rejected(self):
        A = random_symmetric(10, 19)
        est = approx_spectrum(dense_operator(A), steps=8, seed=0)
        with pytest.raises(UsageError):
            density_from_eigenvalues(np.array([]), like=est)

    def test_log_reference_splits_at_minus_epsilon(self):
        eps = 1e-5
        # 6 of 16 at or below -eps, one of them exactly at -eps
        eig = np.array([-2.0, -1.0, -0.3, -0.05, -1e-3, -eps,
                        0.0, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0])
        est = approx_log_spectrum(dense_operator(np.diag(eig)), steps=256,
                                  epsilon=eps, seed=0)
        ref = density_from_eigenvalues(eig, like=est)
        assert ref.negative is not None
        assert ref.negative_mass == 6 / 16
        assert ref.mass() == pytest.approx(1.0, abs=0.01)
