"""Validation ensembles against their closed-form limiting laws.

The reference densities are checked analytically (normalization, support,
special values) with scipy quadrature as the integration oracle, then the
sampled matrices are checked against those references at finite size.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from specdens.errors import UsageError
from specdens.lanczos import approx_spectrum, density_from_eigenvalues, tv_distance
from specdens.linalg import dense_eig
from specdens.operators import dense_operator
from specdens.rmt import (
    EnsembleSpec,
    PowerLawFit,
    default_ensemble,
    fit_power_law,
    sample,
)

from oracles import mp_density, mp_support, mp_zero_mass, semicircle_density


class TestReferenceDensities:
    def test_semicircle_peak_and_support(self):
        assert semicircle_density(np.array([0.0]))[0] == pytest.approx(1 / math.pi)
        assert semicircle_density(np.array([2.0]))[0] == 0.0
        assert semicircle_density(np.array([-2.5]))[0] == 0.0

    def test_semicircle_integrates_to_one(self):
        total, _ = quad(lambda x: semicircle_density(np.array([x]))[0],
                        -2.0, 2.0)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_semicircle_radius_validation(self):
        with pytest.raises(UsageError):
            semicircle_density(np.array([0.0]), radius=0.0)

    def test_mp_support_square_case(self):
        assert mp_support(1.0) == pytest.approx((0.0, 4.0))
        a, b = mp_support(4.0)   # n = 4p
        assert a == pytest.approx(0.25)
        assert b == pytest.approx(2.25)

    def test_mp_bulk_mass(self):
        # gamma >= 1: all mass in the bulk; gamma < 1: the deficit is the
        # atom at zero, never folded into the density
        for gamma in (1.0, 2.0, 0.5):
            a, b = mp_support(gamma)
            total, _ = quad(
                lambda x: float(mp_density(np.array([x]), gamma)[0]),
                a, b, limit=200)
            assert total == pytest.approx(min(1.0, gamma), abs=1e-6)
            assert total + mp_zero_mass(gamma) == pytest.approx(1.0, abs=1e-6)

    def test_mp_zero_mass_values(self):
        assert mp_zero_mass(2.0) == 0.0
        assert mp_zero_mass(0.25) == pytest.approx(0.75)
        with pytest.raises(UsageError):
            mp_zero_mass(0.0)

    def test_mp_density_vanishes_outside_support(self):
        a, b = mp_support(2.0)
        lam = np.array([a - 0.1, b + 0.1, 0.0])
        np.testing.assert_array_equal(mp_density(lam, 2.0), np.zeros(3))


class TestEnsembleSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            EnsembleSpec(kind="gue", p=100)
        with pytest.raises(UsageError):
            default_ensemble("bernoulli")

    def test_wishart_kinds_need_columns(self):
        with pytest.raises(UsageError):
            EnsembleSpec(kind="spiked_wishart", p=100)
        with pytest.raises(UsageError):
            EnsembleSpec(kind="pareto_wishart", p=100, n=200)   # no alpha

    def test_too_many_spikes_rejected(self):
        with pytest.raises(UsageError):
            EnsembleSpec(kind="spiked_wishart", p=3, n=10,
                         spikes=(5.0, 4.0, 3.0, 2.0))

    def test_defaults_are_well_formed(self):
        assert default_ensemble("goe").p == 500
        spiked = default_ensemble("spiked_wishart", seed=3)
        assert spiked.spikes == (5.0, 4.0, 3.0)
        assert spiked.seed == 3
        assert default_ensemble("pareto_wishart").alpha == 1.0

    def test_sampling_is_deterministic_and_symmetric(self):
        spec = EnsembleSpec(kind="goe", p=80, seed=4)
        A = sample(spec)
        B = sample(spec)
        assert np.array_equal(A, B)
        assert np.array_equal(A, A.T)
        C = sample(EnsembleSpec(kind="goe", p=80, seed=5))
        assert not np.array_equal(A, C)

    @pytest.mark.parametrize("spec", [
        EnsembleSpec(kind="goe", p=150, seed=6),
        EnsembleSpec(kind="spiked_wishart", p=150, n=97, spikes=(5.0, 3.0),
                     seed=6),
        EnsembleSpec(kind="pareto_wishart", p=150, n=97, alpha=1.5, seed=6),
    ], ids=lambda spec: spec.kind)
    def test_sample_is_the_textbook_construction_bit_for_bit(self, spec):
        # sample() fills a preallocated output in place; the bytes must be
        # those of the plain expressions
        rng = np.random.default_rng(spec.seed)
        if spec.kind == "goe":
            Z = rng.standard_normal((spec.p, spec.p))
            expected = (Z + Z.T) / math.sqrt(2.0 * spec.p)
        elif spec.kind == "spiked_wishart":
            Z = rng.standard_normal((spec.p, spec.n))
            expected = Z @ Z.T / spec.n
            spiked = np.arange(len(spec.spikes))
            expected[spiked, spiked] += spec.spikes
        else:
            Z = (1.0 - rng.random((spec.p, spec.n))) ** (-1.0 / spec.alpha)
            expected = Z @ Z.T / spec.n
        assert sample(spec).tobytes() == expected.tobytes()


class TestSampledSpectra:
    def test_goe_matches_semicircle(self):
        # 50 bins keeps ~20 eigenvalues per occupied bin; finer grids just
        # measure the histogram's own shot noise, not the law
        A = sample(EnsembleSpec(kind="goe", p=1000, seed=1))
        eigs = dense_eig(A)
        edges = np.linspace(-2.5, 2.5, 51)
        hist = np.histogram(eigs, bins=edges, density=True)[0]
        centers = 0.5 * (edges[:-1] + edges[1:])
        tv = 0.5 * np.sum(np.abs(hist - semicircle_density(centers))) * (
            edges[1] - edges[0])
        assert tv <= 0.05
        assert np.abs(eigs).max() <= 2.2

    def test_wishart_bulk_matches_mp(self):
        p, n = 1000, 2000
        A = sample(EnsembleSpec(kind="spiked_wishart", p=p, n=n, seed=2))
        eigs = dense_eig(A)
        gamma = n / p
        a, b = mp_support(gamma)
        edges = np.linspace(max(a - 0.3, 1e-3), b + 0.3, 51)
        hist = np.histogram(eigs, bins=edges, density=True)[0]
        centers = 0.5 * (edges[:-1] + edges[1:])
        tv = 0.5 * np.sum(np.abs(hist - mp_density(centers, gamma))) * (
            edges[1] - edges[0])
        assert tv <= 0.05

    def test_planted_spikes_appear_above_the_edge(self):
        spec = EnsembleSpec(kind="spiked_wishart", p=1000, n=1000,
                            spikes=(5.0, 4.0, 3.0), seed=3)
        eigs = dense_eig(sample(spec))
        _, edge = mp_support(1.0)
        outliers = eigs[eigs > edge + 0.25]
        assert len(outliers) == 3
        # a diagonal spike s added to a square Wishart lands at s^2/(s-1):
        # solve m(z) = 1/s with m the Stieltjes transform of the gamma=1 bulk
        expected = sorted(s * s / (s - 1.0) for s in spec.spikes)
        np.testing.assert_allclose(np.sort(outliers), expected, rtol=0.03)

    def test_pareto_has_heavy_upper_tail(self):
        spec = EnsembleSpec(kind="pareto_wishart", p=300, n=600, alpha=1.0,
                            seed=4)
        eigs = dense_eig(sample(spec))
        # heavy-tailed rows push the top eigenvalue orders of magnitude
        # beyond the light-tailed Wishart edge of ~(1+1/sqrt(2))^2 * scale
        assert eigs.max() > 50 * np.median(np.abs(eigs))

    def test_estimator_sees_the_goe_bulk(self):
        # measured ~0.13 at n_vec=4: quadrature weights fluctuate across
        # probe vectors, so the bound reflects estimator variance at this
        # budget, not agreement in the limit
        A = sample(EnsembleSpec(kind="goe", p=800, seed=5))
        est = approx_spectrum(dense_operator(A), steps=64, n_vec=4, seed=0)
        ref = density_from_eigenvalues(dense_eig(A), like=est)
        assert tv_distance(est, ref) <= 0.2


class TestPowerLawFit:
    def synthetic_density(self, exponent, amplitude):
        from specdens.lanczos import SpectralDensity
        from specdens.operators import NormalizationMap
        grid = np.linspace(1.0, 100.0, 512)
        values = amplitude * grid ** exponent
        nm = NormalizationMap.from_bounds(1.0, 100.0, tau=0.05)
        return SpectralDensity(grid=grid, values=values, sigma=0.01,
                               scale="linear", normalization=nm)

    def test_exact_power_law_recovered(self):
        density = self.synthetic_density(-2.0, 3.0)
        fit = fit_power_law(density, window=(2.0, 80.0))
        assert fit.exponent == pytest.approx(-2.0, abs=1e-10)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.window == (2.0, 80.0)

    def test_window_validation(self):
        density = self.synthetic_density(-1.0, 1.0)
        with pytest.raises(UsageError):
            fit_power_law(density, window=(0.0, 10.0))
        with pytest.raises(UsageError):
            fit_power_law(density, window=(10.0, 2.0))

    def test_too_few_points_rejected(self):
        density = self.synthetic_density(-1.0, 1.0)
        with pytest.raises(UsageError, match="at least 5"):
            fit_power_law(density, window=(200.0, 300.0))
