"""End-to-end acceptance checks, one verdict per shipped guarantee.

Run ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
Each test prints its verdict whether it passes or fails, then asserts, so
a red run still shows the whole scoreboard with measured numbers.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    error_rate,
    fd_hessian,
    fd_hvp,
    per_example_vectors,
    slow_lanczos,
    symmetry_defect,
)
from specdens.decomp import build_decomposition, identity_residual
from specdens.data import LabeledDataset
from specdens.deflation import low_rank_deflation, top_eigenpairs
from specdens.lanczos import (
    approx_log_spectrum,
    approx_spectrum,
    density_from_eigenvalues,
    tv_distance,
)
from specdens.linalg import dense_eig
from specdens.net import (
    MlpSpec,
    gnvp,
    gradient,
    hessian_operator,
    hvp,
    hvp_h,
    linearize,
)
from specdens.operators import dense_operator
from specdens.pipeline import GmmSpec, TrainConfig, gaussian_mixture, train_sgd
from specdens.rmt import EnsembleSpec, fit_power_law, sample


def conclude(n: int, checks: list, detail: str) -> None:
    """Print the verdict line, then fail the test if any check failed."""
    failures = [msg for ok, msg in checks if not ok]
    verdict = "PASS" if not failures else "FAIL"
    line = f"criterion {n}: {verdict} — {detail}"
    if failures:
        line += " | " + "; ".join(failures)
    print(line)
    assert not failures, line


def mass_above(density, edge: float) -> float:
    m = density.grid > edge
    if m.sum() < 2:
        return 0.0
    return float(np.trapezoid(density.values[m], density.grid[m]))


@pytest.fixture(scope="module")
def spiked_run():
    """p=2000 square Wishart with diagonal spikes (5, 4, 3) plus oracle."""
    ens = EnsembleSpec(kind="spiked_wishart", p=2000, n=2000,
                       spikes=(5.0, 4.0, 3.0), seed=11)
    Y = sample(ens)
    oracle = dense_eig(Y)
    op = dense_operator(Y, label="spiked")
    t0 = time.monotonic()
    est = approx_spectrum(op, steps=128, n_vec=10, seed=11)
    lanczos_s = time.monotonic() - t0
    return SimpleNamespace(Y=Y, oracle=oracle, op=op, est=est,
                           lanczos_s=lanczos_s)


@pytest.fixture(scope="module")
def pareto_run():
    ens = EnsembleSpec(kind="pareto_wishart", p=500, n=1000, alpha=1.0,
                       seed=11)
    op = dense_operator(sample(ens), label="pareto")
    density = approx_log_spectrum(op, steps=2048, n_vec=10, kappa=1.01,
                                  seed=11)
    fit = fit_power_law(density, window=(1e2, 1e5))
    return SimpleNamespace(op=op, density=density, fit=fit)


@pytest.fixture(scope="module")
def bulk_run():
    """Separable 3-class GMM trained to near-zero error, plus dense spectra."""
    gspec = GmmSpec(classes=3, n_per_class=150, dim=4, separation=4.0,
                    std=1.0, seed=5)
    train, test = gaussian_mixture(gspec)
    mspec = MlpSpec(layer_dims=(4, 16, 3), activation="tanh")
    cfg = TrainConfig(epochs=4, lr=0.1, momentum=0.9, weight_decay=0.0,
                      batch_size=32, seed=7, anneal_at=())
    theta = train_sgd(mspec, train, test, cfg).checkpoints[-1].theta
    lin = linearize(mspec, theta, train)
    h_op = hessian_operator(lin, which="h")
    est = approx_spectrum(h_op, steps=64, n_vec=4, seed=3)
    edge = max(float(est.normalization.denormalize(r.theta).max())
               for r in est.ritz)

    p = mspec.param_count
    basis = np.eye(p)
    dense = {}
    for name in ("hess", "g", "h"):
        op = hessian_operator(lin, which=name)
        cols = np.column_stack([op.apply(basis[:, j]) for j in range(p)])
        dense[name] = np.linalg.eigvalsh(0.5 * (cols + cols.T))
    return SimpleNamespace(
        spec=mspec, theta=theta, train=train, h_op=h_op, est=est, edge=edge,
        hess_eigs=dense["hess"], g_eigs=dense["g"], h_eigs=dense["h"],
        train_error=error_rate(mspec, theta, train))


def test_criterion_1_spiked_density_and_spike_recovery(spiked_run):
    ref = density_from_eigenvalues(spiked_run.oracle, like=spiked_run.est)
    tv = tv_distance(spiked_run.est, ref)
    top2 = top_eigenpairs(spiked_run.op, 2, seed=11)
    oracle_top2 = spiked_run.oracle[::-1][:2]
    rel = np.abs(top2.values - oracle_top2) / oracle_top2
    conclude(1, [
        (tv <= 0.05, f"TV {tv:.4f} > 0.05"),
        (rel.max() <= 0.01, f"spike recovery off by {rel.max():.2e}"),
        (spiked_run.lanczos_s <= 120,
         f"estimator took {spiked_run.lanczos_s:.0f}s"),
    ], f"TV={tv:.4f} (<=0.05), spikes within {rel.max():.1e} (<=1%), "
       f"estimator {spiked_run.lanczos_s:.1f}s")


def test_criterion_2_heavy_tail_power_law_fit(pareto_run):
    fit = pareto_run.fit
    conclude(2, [
        (fit.r_squared >= 0.95, f"r^2 {fit.r_squared:.4f} < 0.95"),
        (fit.n_points >= 5, "too few fit points"),
    ], f"r^2={fit.r_squared:.4f} (>=0.95), exponent={fit.exponent:.2f}, "
       f"n_points={fit.n_points}")


def test_criterion_3_full_reorthogonalized_lanczos_is_exact():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((200, 200))
        A = (Z + Z.T) / (2.0 * np.sqrt(200))
        _, ritz = slow_lanczos(dense_operator(A), 200, seed=seed)
        diff = np.abs(np.sort(ritz.theta) - dense_eig(A)).max()
        worst = max(worst, diff)
    conclude(3, [(worst <= 1e-8, f"max eigenvalue error {worst:.2e}")],
             f"5 seeds, all 200 eigenvalues within {worst:.1e} (<=1e-8)")


def test_criterion_4_curvature_split_against_finite_differences(
        trained_tiny_net):
    mspec, theta, train, _ = trained_tiny_net
    p = mspec.param_count
    basis = np.eye(p)
    lin = linearize(mspec, theta, train)
    Hd = np.column_stack([hvp(lin, basis[:, j]) for j in range(p)])
    Gd = np.column_stack([gnvp(lin, basis[:, j]) for j in range(p)])
    Hh = np.column_stack([hvp_h(mspec, theta, train, basis[:, j])
                          for j in range(p)])
    split_err = np.abs(Hd - (Gd + Hh)).max()

    grad_fn = lambda th: gradient(mspec, th, train)
    fd = fd_hessian(grad_fn, theta)
    rel_frob = np.linalg.norm(Hd - fd) / np.linalg.norm(Hd)

    rng = np.random.default_rng(0)
    worst_dir = 0.0
    for _ in range(20):
        v = rng.standard_normal(p)
        v /= np.linalg.norm(v)
        hv = hvp(lin, v)
        approx = fd_hvp(grad_fn, theta, v)
        worst_dir = max(worst_dir, np.linalg.norm(hv - approx)
                        / max(np.linalg.norm(hv), 1e-300))
    conclude(4, [
        (split_err <= 1e-12 * np.abs(Hd).max(),
         f"split reassembly off by {split_err:.2e}"),
        (rel_frob <= 1e-4, f"FD Hessian rel Frobenius {rel_frob:.2e}"),
        (worst_dir <= 1e-4, f"FD directional error {worst_dir:.2e}"),
    ], f"split reassembles to {split_err:.1e}, FD Frobenius {rel_frob:.1e} "
       f"(<=1e-4), 20 directions within {worst_dir:.1e} (<=1e-4)")


def test_criterion_5_hierarchical_identity(trained_tiny_net):
    mspec, theta, train, _ = trained_tiny_net
    lin = linearize(mspec, theta, train)
    g_op = hessian_operator(lin, which="g")
    parts = build_decomposition(lin)
    resid = identity_residual(g_op, parts, seed=0)

    # the true-class vector is the example's loss gradient (sign flipped)
    pev = per_example_vectors(mspec, theta, train)
    worst = 0.0
    for i in range(0, train.n, max(1, train.n // 25)):
        single = LabeledDataset(x=train.x[i:i + 1], y=train.y[i:i + 1],
                                class_count=train.class_count)
        gi = gradient(mspec, theta, single)
        err = np.abs(pev.vectors[i, train.y[i]] + gi).max()
        worst = max(worst, err / max(np.abs(gi).max(), 1e-300))
    conclude(5, [
        (resid <= 1e-10, f"identity residual {resid:.2e} > 1e-10"),
        (worst <= 1e-12, f"per-example identity off by {worst:.2e}"),
    ], f"G vs A1+A2+B1+B2 residual {resid:.1e} (<=1e-10), per-example "
       f"gradient identity {worst:.1e} (<=1e-12)")


def test_criterion_6_outliers_live_in_g_not_h(bulk_run):
    edge = bulk_run.edge
    outliers = bulk_run.hess_eigs[bulk_run.hess_eigs > edge]
    g_top = bulk_run.g_eigs[::-1][:3]
    match_rel = [np.abs(o - g_top).min() / o for o in outliers]
    h_max = bulk_run.h_eigs.max()
    conclude(6, [
        (bulk_run.train_error < 0.02,
         f"train error {bulk_run.train_error:.3f} >= 2%"),
        (len(outliers) >= 1, "no Hessian outliers above the bulk edge"),
        (len(outliers) <= 3, f"{len(outliers)} outliers, expected <= classes"),
        (max(match_rel, default=0.0) <= 0.05,
         f"outlier/G-top mismatch {max(match_rel, default=0.0):.3f}"),
        (h_max <= edge * (1 + 1e-9),
         f"H has mass above its own edge: {h_max:.4f} > {edge:.4f}"),
    ], f"train err {bulk_run.train_error:.2%}, {len(outliers)} outliers at "
       f"{np.round(outliers / edge, 2)}x edge, matched to G top-3 within "
       f"{max(match_rel, default=0.0):.1%} (<=5%), H clean")


def test_criterion_7_estimator_hygiene(spiked_run, pareto_run, bulk_run):
    checks = []
    masses = {
        "spiked linear": spiked_run.est.mass(),
        "pareto log": pareto_run.density.mass(),
        "bulk h": bulk_run.est.mass(),
    }
    for name, m in masses.items():
        checks.append((abs(m - 1.0) <= 0.01, f"{name} mass {m:.4f}"))
    for density in (spiked_run.est, pareto_run.density, bulk_run.est):
        for r in density.ritz:
            checks.append((abs(r.weights.sum() - 1.0) <= 1e-8,
                           f"weights sum {r.weights.sum():.2e}"))
    for op in (spiked_run.op, bulk_run.h_op,
               hessian_operator(linearize(bulk_run.spec, bulk_run.theta,
                                          bulk_run.train), which="g")):
        d = symmetry_defect(op, pairs=10, seed=0)
        checks.append((d <= 1e-8, f"{op.label} symmetry defect {d:.2e}"))
    again = approx_spectrum(bulk_run.h_op, steps=64, n_vec=4, seed=3)
    checks.append((np.array_equal(again.grid, bulk_run.est.grid)
                   and np.array_equal(again.values, bulk_run.est.values),
                   "rerun not bit-identical"))
    conclude(7, checks,
             f"masses {', '.join(f'{m:.4f}' for m in masses.values())} "
             f"(1±0.01), weights normalized, operators symmetric, "
             f"reruns bit-identical")


def test_criterion_8_deflation_clears_the_tail(spiked_run):
    _, deflated = low_rank_deflation(spiked_run.op, 3, seed=11)
    defl_est = approx_spectrum(deflated, steps=128, n_vec=10, seed=11)
    # halfway between the top of the oracle bulk and the smallest spike
    edge = 0.5 * (spiked_run.oracle[-4] + spiked_run.oracle[-3])
    before = mass_above(spiked_run.est, edge)
    after = mass_above(defl_est, edge)
    p = spiked_run.op.dim
    conclude(8, [
        (before >= 0.5 / p,
         f"undeflated tail mass {before:.5f} too small to demonstrate"),
        (after <= 0.005, f"deflated tail mass {after:.5f} > 0.5%"),
        (after <= 0.1 * before,
         f"deflation only reduced tail {before:.5f} -> {after:.5f}"),
    ], f"mass above {edge:.2f}: {before:.5f} -> {after:.6f} "
       f"(<=0.5% and <=0.1x)")
