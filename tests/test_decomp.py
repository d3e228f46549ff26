"""The four-part split of the outer-product curvature term.

The library builds the split matrix-free: cluster statistics from
class-restricted VJPs and B2 from one JVP and one VJP per matvec. The
stored-factor reference in oracles.py holds every per-example class vector
instead; its vectors satisfy two exact identities (the true-class vector is
minus the example's loss gradient; the prob-weighted class sum vanishes)
and rebuild G. The matrix-free statistics and factor rows are checked
against brute-force loops over those vectors and against the stored-mean
route, the matrix-free B2 against the stored factor and the mean-table
route, and the four parts must reassemble G to round-off. The report's exact
G - B2 density is checked against the dense spectrum of G - B2 built from
G and B2 products, and against SLQ on the same difference.
"""

import copy
import json
import tracemalloc

import numpy as np
import pytest

from specdens import cli
from specdens import net as net_module
from specdens.data import LabeledDataset, one_hot
from specdens.errors import InputFormatError, NumericalError
from specdens.lanczos import (
    SpectralDensity,
    approx_log_spectrum,
    density_from_eigenvalues,
    tv_distance,
)
from specdens.net import (
    Checkpoint,
    MlpSpec,
    hessian_operator,
    init_params,
    linearize,
    save_checkpoint,
)
from specdens.operators import (
    NormalizationMap,
    SymmetricOperator,
    difference_operator,
)
from specdens.decomp import (
    build_decomposition,
    component_attribution,
    factor_eigenvalues,
    identity_residual,
    validate_report,
)

from oracles import (
    factor_operator,
    op_to_dense,
    per_example_logit_vjp,
    per_example_vectors,
    stored_b2_factor,
    stored_cluster_statistics,
    stored_split_factors,
    table_b2_matvec,
)


def fixture_pev(trained_tiny_net):
    spec, theta, train, _ = trained_tiny_net
    return spec, theta, train, per_example_vectors(spec, theta, train)


def max_ritz_eigenvalue(density_dict):
    """Largest Ritz value of a serialized log-density, in eigenvalue units."""
    nm = density_dict["operator_normalization"]
    best = -np.inf
    for summary in density_dict["ritz"]:
        theta = np.asarray(summary["theta"])
        best = max(best, float(theta.max() * nm["half_width"] + nm["center"]))
    return best


def log_density_from_dict(d):
    """A serialized log density without a negative branch, rebuilt."""
    assert d["scale"] == "log" and "negative" not in d
    return SpectralDensity(
        grid=np.asarray(d["grid"]), values=np.asarray(d["values"]),
        sigma=d["sigma"], scale="log",
        normalization=NormalizationMap(**d["normalization"]),
        epsilon=d["epsilon"],
        operator_normalization=NormalizationMap(**d["operator_normalization"]))


class TestPerExampleVectors:
    def test_true_class_vector_is_minus_loss_gradient(self, trained_tiny_net):
        spec, theta, train, pev = fixture_pev(trained_tiny_net)
        grad_rows = per_example_logit_vjp(
            spec, theta, train.x, pev.probs - one_hot(train.y, train.class_count))
        own = pev.vectors[np.arange(train.n), train.y]
        np.testing.assert_allclose(own, -grad_rows, atol=1e-12)

    def test_prob_weighted_class_sum_vanishes(self, trained_tiny_net):
        _, _, _, pev = fixture_pev(trained_tiny_net)
        combo = np.einsum("ic,icp->ip", pev.probs, pev.vectors)
        scale = np.abs(pev.vectors).max()
        np.testing.assert_allclose(combo, 0.0, atol=1e-12 * scale)

    def test_matches_row_minus_weighted_mean_form(self, trained_tiny_net):
        # second route: raw Jacobian rows, then subtract the prob-weighted
        # row mean, instead of pushing (e_c - p) through the vjp directly
        spec, theta, train, pev = fixture_pev(trained_tiny_net)
        C = spec.class_count
        eye = np.eye(C)
        rows = np.stack([
            per_example_logit_vjp(spec, theta, train.x,
                                  np.tile(eye[c], (train.n, 1)))
            for c in range(C)
        ], axis=1)                                   # (n, C, p)
        weighted_mean = np.einsum("ic,icp->ip", pev.probs, rows)
        alt = rows - weighted_mean[:, None, :]
        np.testing.assert_allclose(pev.vectors, alt,
                                   atol=1e-12 * np.abs(rows).max())

    def test_zero_parameters_closed_form(self):
        # at theta = 0 only the output-bias block survives: e_c - 1/C
        spec = MlpSpec(layer_dims=(4, 8, 3))
        rng = np.random.default_rng(1)
        data = LabeledDataset(x=rng.standard_normal((12, 4)),
                              y=rng.integers(0, 3, 12), class_count=3)
        pev = per_example_vectors(spec, np.zeros(spec.param_count), data)
        expected_bias = np.eye(3) - 1.0 / 3.0
        for c in range(3):
            np.testing.assert_allclose(pev.vectors[:, c, :-3], 0.0, atol=1e-15)
            np.testing.assert_allclose(
                pev.vectors[:, c, -3:],
                np.tile(expected_bias[c], (12, 1)), atol=1e-15)

    def test_rebuilds_the_gauss_newton_matrix(self, trained_tiny_net):
        spec, theta, train, pev = fixture_pev(trained_tiny_net)
        p = spec.param_count
        G_dense = np.zeros((p, p))
        for i in range(train.n):
            for c in range(spec.class_count):
                g = pev.vectors[i, c]
                G_dense += pev.probs[i, c] * np.outer(g, g)
        G_dense /= train.n
        G = op_to_dense(hessian_operator(linearize(spec, theta, train),
                                         which="g"))
        assert np.linalg.norm(G - G_dense) <= 1e-12 * np.linalg.norm(G)


class TestClusterStatistics:
    def test_matches_brute_force_loops(self, trained_tiny_net):
        spec, theta, train, pev = fixture_pev(trained_tiny_net)
        parts = build_decomposition(linearize(spec, theta, train))
        stats = parts.stats
        C = pev.class_count
        N = train.n
        b1_rows = iter(parts.b1_factor)
        for c in range(C):
            rows = np.where(pev.labels == c)[0]
            assert stats.counts[c] == len(rows)
            sq = 0.0
            means = []
            for c2 in range(C):
                w = sum(pev.probs[i, c2] for i in rows)
                assert stats.class_prob[c, c2] == pytest.approx(w, rel=1e-13)
                mean = sum(pev.probs[i, c2] * pev.vectors[i, c2]
                           for i in rows) / w
                means.append(mean)
                assert stats.mean_sq[c, c2] == pytest.approx(mean @ mean,
                                                             rel=1e-13)
                sq += sum(pev.probs[i, c2] * pev.vectors[i, c2] @ pev.vectors[i, c2]
                          for i in rows)
            assert stats.sq_norm_sums[c] == pytest.approx(sq, rel=1e-13)
            off = [c2 for c2 in range(C) if c2 != c]
            w_off = sum(stats.class_prob[c, c2] for c2 in off)
            mean_off = sum(stats.class_prob[c, c2] * means[c2]
                           for c2 in off) / w_off
            expected = [np.sqrt(w_off / N) * mean_off,
                        np.sqrt(stats.class_prob[c, c] / N) * means[c]]
            got = [parts.a1_factor[c], parts.a2_factor[c]]
            for c2 in off:
                expected.append(np.sqrt(stats.class_prob[c, c2] / N)
                                * (means[c2] - mean_off))
                got.append(next(b1_rows))
            for row, ref in zip(got, expected):
                np.testing.assert_allclose(row, ref,
                                           atol=1e-13 * np.abs(ref).max())

    def test_zero_parameters_class_prob_closed_form(self):
        spec = MlpSpec(layer_dims=(4, 8, 3))
        rng = np.random.default_rng(2)
        data = LabeledDataset(x=rng.standard_normal((24, 4)),
                              y=rng.integers(0, 3, 24), class_count=3)
        stats = build_decomposition(
            linearize(spec, np.zeros(spec.param_count), data)).stats
        counts = np.bincount(data.y, minlength=3)
        np.testing.assert_allclose(stats.class_prob,
                                   np.outer(counts, np.ones(3)) / 3.0,
                                   atol=1e-13)

    def test_duplicating_the_dataset_doubles_masses_only(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        doubled = LabeledDataset(x=np.concatenate([train.x, train.x]),
                                 y=np.concatenate([train.y, train.y]),
                                 class_count=train.class_count)
        p1 = build_decomposition(linearize(spec, theta, train))
        p2 = build_decomposition(linearize(spec, theta, doubled))
        s1, s2 = p1.stats, p2.stats
        np.testing.assert_allclose(s2.class_prob, 2.0 * s1.class_prob,
                                   rtol=1e-13)
        np.testing.assert_allclose(s2.mean_sq, s1.mean_sq, rtol=1e-13)
        # every factor row is sqrt(W / N) times a mean: W and N both double
        np.testing.assert_allclose(p2.factor, p1.factor, atol=1e-13)
        assert np.array_equal(s2.counts, 2 * s1.counts)


class TestGaussNewtonParts:
    def test_identity_holds_to_roundoff(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        lin = linearize(spec, theta, train)
        parts = build_decomposition(lin)
        g_op = hessian_operator(lin, which="g")
        assert identity_residual(g_op, parts, seed=0) <= 1e-10

    def test_non_finite_g_is_numerical_failure(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        parts = build_decomposition(linearize(spec, theta, train))
        g_op = SymmetricOperator(parts.b2.dim,
                                 lambda v: np.full(v.shape, np.nan), label="g")
        with pytest.raises(NumericalError,
                           match="^operator g returned a non-finite "
                                 "vector$"):
            identity_residual(g_op, parts, seed=0)

    def test_all_four_parts_are_psd(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        parts = build_decomposition(linearize(spec, theta, train))
        rng = np.random.default_rng(3)
        for name in ("a1", "a2", "b1", "b2"):
            op = getattr(parts, name)
            for _ in range(5):
                v = rng.standard_normal(op.dim)
                assert v @ op.apply(v) >= -1e-12 * (v @ v), name

    def test_rank_bounds_from_factors(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        parts = build_decomposition(linearize(spec, theta, train))
        C = spec.class_count
        assert parts.a1_factor.shape == (C, spec.param_count)
        assert parts.a2_factor.shape == (C, spec.param_count)
        assert parts.b1_factor.shape == (C * C - C, spec.param_count)
        # b1 rows are within-class deviations from their own weighted mean,
        # so each class loses one rank: rank <= C^2 - 2C
        b1_eigs = factor_eigenvalues(parts.b1_factor)
        assert np.all(b1_eigs[C * C - 2 * C:] <= 1e-10 * max(b1_eigs[0], 1e-300))

    def test_two_class_shared_input_collapses_a1_to_rank_one(self):
        # with C = 2 the prob-weighted sum identity makes the two class
        # vectors of one example parallel; identical inputs then make the
        # two cluster means parallel too
        spec = MlpSpec(layer_dims=(3, 5, 2))
        theta = init_params(spec, seed=4)
        x = np.tile(np.array([[0.3, -1.2, 0.7]]), (2, 1))
        data = LabeledDataset(x=x, y=np.array([0, 1]), class_count=2)
        parts = build_decomposition(linearize(spec, theta, data))
        eigs = factor_eigenvalues(parts.a1_factor)
        assert eigs[1] <= 1e-12 * eigs[0]

    def test_single_example_clusters_have_zero_b2(self):
        spec = MlpSpec(layer_dims=(3, 5, 3))
        theta = init_params(spec, seed=5)
        x = np.random.default_rng(6).standard_normal((3, 3))
        data = LabeledDataset(x=x, y=np.array([0, 1, 2]), class_count=3)
        parts = build_decomposition(linearize(spec, theta, data))
        v = np.random.default_rng(7).standard_normal(spec.param_count)
        out = parts.b2.apply(v)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)
        np.testing.assert_allclose(parts.b2c_traces(), 0.0, atol=1e-20)

    def test_single_example_traces_are_zero_not_round_off(self):
        # each trace is a difference of two equal sums here; the round-off
        # left over must not surface as a tiny (possibly negative) trace
        for seed in range(20):
            rng = np.random.default_rng(seed)
            C = int(rng.integers(2, 6))
            spec = MlpSpec(layer_dims=(4, 7, C))
            data = LabeledDataset(x=rng.standard_normal((C, 4)),
                                  y=np.arange(C), class_count=C)
            parts = build_decomposition(
                linearize(spec, init_params(spec, seed=seed), data))
            assert np.array_equal(parts.b2c_traces(), np.zeros(C)), seed

    def test_a_class_with_no_examples(self, trained_tiny_net):
        # class 1 drops out: its masses, trace and factor rows are exact
        # zeros, and the other classes' parts still reassemble G
        spec, theta, train, _ = trained_tiny_net
        keep = train.y != 1
        data = LabeledDataset(x=train.x[keep], y=train.y[keep],
                              class_count=train.class_count)
        lin = linearize(spec, theta, data)
        parts = build_decomposition(lin)
        C = spec.class_count
        rows = [1, C + 1, *range(2 * C + (C - 1), 2 * C + 2 * (C - 1))]
        assert parts.stats.counts[1] == 0
        assert not parts.stats.class_prob[1].any()
        assert not parts.factor[rows].any()
        others = np.delete(np.arange(C * C + C), rows)
        assert np.all(np.abs(parts.factor[others]).max(axis=1) > 0.0)
        traces = parts.b2c_traces()
        assert traces[1] == 0.0 and np.all(traces[[0, 2]] > 0.0)
        g_op = hessian_operator(lin, which="g")
        assert identity_residual(g_op, parts, seed=0) <= 1e-10

    def test_b2_is_the_sum_of_its_class_restrictions(self, trained_tiny_net):
        # clusters never mix true classes, so B2 on the full data is the
        # count-weighted sum of B2 on each class's examples alone
        spec, theta, train, _ = trained_tiny_net
        parts = build_decomposition(linearize(spec, theta, train))
        v = np.random.default_rng(8).standard_normal(spec.param_count)
        total = np.zeros(spec.param_count)
        for c in range(spec.class_count):
            rows = train.y == c
            subset = LabeledDataset(x=train.x[rows], y=train.y[rows],
                                    class_count=train.class_count)
            restricted = build_decomposition(linearize(spec, theta, subset))
            total += (subset.n / train.n) * restricted.b2.apply(v)
        full = parts.b2.apply(v)
        np.testing.assert_allclose(total, full,
                                   atol=1e-12 * max(1.0, np.abs(full).max()))

    def test_b2c_traces_match_dense_operators(self, trained_tiny_net):
        spec, theta, train, pev = fixture_pev(trained_tiny_net)
        parts = build_decomposition(linearize(spec, theta, train))
        traces = parts.b2c_traces()
        F, row_labels = stored_b2_factor(pev, stored_cluster_statistics(pev))
        for c in range(spec.class_count):
            op = factor_operator(F[row_labels == c])
            dense_trace = np.trace(op_to_dense(op))
            expected = dense_trace / parts.stats.counts[c]
            assert traces[c] == pytest.approx(expected, rel=1e-10)

    def test_factor_eigenvalues_hand_case(self):
        F = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        np.testing.assert_allclose(factor_eigenvalues(F), [4.0, 1.0],
                                   atol=1e-14)
        assert factor_eigenvalues(np.empty((0, 5))).size == 0


class TestMatrixFreeRoute:
    def test_statistics_agree_with_stored_factors(self, trained_tiny_net):
        spec, theta, train, pev = fixture_pev(trained_tiny_net)
        ref = stored_cluster_statistics(pev)
        parts = build_decomposition(linearize(spec, theta, train))
        stats = parts.stats
        np.testing.assert_allclose(stats.class_prob, ref.class_prob,
                                   rtol=1e-13)
        np.testing.assert_allclose(
            stats.mean_sq, np.einsum("cdp,cdp->cd", ref.class_mean,
                                     ref.class_mean), rtol=1e-13)
        np.testing.assert_allclose(stats.sq_norm_sums, ref.sq_norm_sums,
                                   rtol=1e-13)
        assert np.array_equal(stats.counts, ref.counts)
        assert stats.n_total == ref.n_total
        F = stored_split_factors(ref)
        assert parts.factor.shape == F.shape
        np.testing.assert_allclose(parts.factor, F,
                                   atol=1e-13 * np.abs(F).max())

    def test_b2_agrees_with_the_mean_table_route(self, trained_tiny_net):
        # the mean dots read off the JVP, against products with the stored
        # (C, C, p) table plus the explicit mean term of the pull-back
        spec, theta, train, pev = fixture_pev(trained_tiny_net)
        lin = linearize(spec, theta, train)
        parts = build_decomposition(lin)
        ref = stored_cluster_statistics(pev)
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = rng.standard_normal(spec.param_count)
            a = table_b2_matvec(lin, ref, v)
            b = parts.b2.apply(v)
            np.testing.assert_allclose(b, a, atol=1e-13 * np.abs(a).max())

    def test_matvecs_and_traces_agree_with_stored_factors(self, trained_tiny_net):
        spec, theta, train, pev = fixture_pev(trained_tiny_net)
        parts = build_decomposition(linearize(spec, theta, train))
        assert parts.b2_factor is None
        F, row_labels = stored_b2_factor(pev, stored_cluster_statistics(pev))
        stored = factor_operator(F)
        rng = np.random.default_rng(9)
        for _ in range(3):
            v = rng.standard_normal(spec.param_count)
            a = stored.apply(v)
            b = parts.b2.apply(v)
            np.testing.assert_allclose(b, a, atol=1e-12 * max(1.0, np.abs(a).max()))
        row_sq = np.einsum("rp,rp->r", F, F)
        ref_traces = [row_sq[row_labels == c].sum() / parts.stats.counts[c]
                      for c in range(spec.class_count)]
        np.testing.assert_allclose(parts.b2c_traces(), ref_traces, rtol=1e-12)

    def test_identity_at_784_64_10_in_bounded_memory(self):
        # p = 50,890 and n = 1000: stored per-example vectors would take
        # n * C * p * 8 bytes = 4.1 GB; the matrix-free route stays small
        spec = MlpSpec(layer_dims=(784, 64, 10))
        theta = init_params(spec, seed=0)
        rng = np.random.default_rng(10)
        data = LabeledDataset(x=rng.standard_normal((1000, 784)),
                              y=np.arange(1000) % 10, class_count=10)
        tracemalloc.start()
        try:
            lin = linearize(spec, theta, data)
            parts = build_decomposition(lin)
            g_op = hessian_operator(lin, which="g")
            resid = identity_residual(g_op, parts, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resid <= 1e-10
        assert peak < 256e6, f"tracemalloc peak {peak / 1e6:.0f} MB"

    def test_build_holds_no_cluster_mean_table(self):
        # at p = 50,890 and n = 1000 the stacked factor is (C^2 + C) p
        # floats, 44.8 MB. Measured peak 53.7 MB; building from a (C, C, p)
        # mean table, an off-mean table and a stacked copy of the B1 rows
        # peaked at 130.4 MB
        spec = MlpSpec(layer_dims=(784, 64, 10))
        rng = np.random.default_rng(10)
        data = LabeledDataset(x=rng.standard_normal((1000, 784)),
                              y=np.arange(1000) % 10, class_count=10)
        lin = linearize(spec, init_params(spec, seed=1), data)
        tracemalloc.start()
        try:
            parts = build_decomposition(lin)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parts.factor.nbytes == 110 * spec.param_count * 8
        assert peak <= parts.factor.nbytes + 20e6, \
            f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.fixture(scope="module")
def report(trained_tiny_net):
    spec, theta, train, _ = trained_tiny_net
    return component_attribution(
        linearize(spec, theta, train),
        steps=64, n_vec=2, grid_points=256, seed=1,
    )


class TestAttributionReport:
    def test_validates_and_carries_the_identity_check(self, report):
        validate_report(report)
        assert report["identity"]["relative_residual"] <= 1e-10
        assert report["class_count"] == 3
        assert len(report["a1_eigenvalues"]) == 3
        assert len(report["a1a2b1_eigenvalues"]) == 9
        assert len(report["b2c_traces"]) == 3

    def test_removing_any_part_lowers_the_spectral_ceiling(self, report):
        # each part is PSD, so lambda_max(G - X) <= lambda_max(G); with
        # steps ~ p the extremal Ritz values are essentially exact, and
        # G - B2 = A1+A2+B1 has its top eigenvalue in the report
        top_g = max_ritz_eigenvalue(report["densities"]["g"])
        for name in ("a1", "a2", "b1"):
            top = max_ritz_eigenvalue(report["densities"][f"g_minus_{name}"])
            assert top < top_g, name
        assert report["a1a2b1_eigenvalues"][0] < top_g

    def test_a1_removal_obeys_weyl_bounds(self, report):
        # lambda_max(G) - lambda_max(A1) <= lambda_max(G - A1)
        top_g = max_ritz_eigenvalue(report["densities"]["g"])
        top_without = max_ritz_eigenvalue(report["densities"]["g_minus_a1"])
        a1_top = report["a1_eigenvalues"][0]
        assert top_without >= top_g - a1_top - 0.05 * top_g

    def test_methods_name_the_route(self, report):
        dens = report["densities"]
        assert dens["g_minus_b2"]["method"] == "exact"
        assert dens["g_minus_b2"]["ritz"] == []
        for name in ("g", "g_minus_a1", "g_minus_a2", "g_minus_b1"):
            assert dens[name]["method"] == "slq", name
            assert len(dens[name]["ritz"]) == report["estimator"]["n_vec"]

    def test_exact_remainder_matches_the_dense_spectrum(self, report,
                                                        trained_tiny_net):
        # dense G - B2 from G and B2 matvecs; B2 is the matrix-free part,
        # built without A1, A2 or B1
        spec, theta, train, _ = trained_tiny_net
        exact = log_density_from_dict(report["densities"]["g_minus_b2"])
        lin = linearize(spec, theta, train)
        G = op_to_dense(hessian_operator(lin, which="g"))
        B2 = op_to_dense(build_decomposition(lin).b2)
        eigs = np.linalg.eigvalsh(0.5 * ((G - B2) + (G - B2).T))
        oracle = density_from_eigenvalues(eigs, exact)
        # measured 4e-12
        assert tv_distance(exact, oracle) <= 1e-9

    def test_exact_remainder_is_near_its_slq_estimate(self, report,
                                                      trained_tiny_net):
        # the estimate the report used to carry: SLQ on G - B2 with the
        # report's estimator, against the report's exact spectrum of G - B2
        # smoothed onto the estimate's grid
        spec, theta, train, _ = trained_tiny_net
        lin = linearize(spec, theta, train)
        parts = build_decomposition(lin)
        g_op = hessian_operator(lin, which="g")
        est = report["estimator"]
        slq = approx_log_spectrum(
            difference_operator(g_op, parts.b2), steps=est["steps"],
            grid_points=est["grid_points"], n_vec=est["n_vec"],
            kappa=est["kappa"], epsilon=est["epsilon"], seed=est["seed"])
        upper = report["a1a2b1_eigenvalues"]
        zeros = np.zeros(report["param_count"] - len(upper))
        exact = density_from_eigenvalues(np.concatenate([upper, zeros]),
                                         like=slq)
        # measured 0.034 at seed 1 (0.020-0.038 over seeds 0-5)
        assert tv_distance(exact, slq) <= 0.06

    @staticmethod
    def cli_forward_passes(trained_tiny_net, tmp_path, monkeypatch, command):
        spec, theta, _, _ = trained_tiny_net
        ck = tmp_path / "ck.npz"
        save_checkpoint(ck, Checkpoint(spec=spec, theta=theta, epoch=8,
                                       seed=7, lr=0.1))
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "kind": "gmm", "classes": 3, "n_per_class": 20, "dim": 4,
            "separation": 3.0, "std": 1.0, "seed": 5}))
        calls = []
        forward = net_module._forward

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(net_module, "_forward", counted)
        assert cli.main([command, "--checkpoint", str(ck), "--data", str(data),
                         "--steps", "16", "--grid-points", "64",
                         "--out-dir", str(tmp_path / "out")]) == 0
        return len(calls)

    def test_one_forward_pass(self, trained_tiny_net, tmp_path, monkeypatch):
        # the CLI linearizes once; G and the four parts share that state
        assert self.cli_forward_passes(trained_tiny_net, tmp_path,
                                       monkeypatch, "decompose") == 1

    def test_one_forward_pass_for_spectrum(self, trained_tiny_net, tmp_path,
                                           monkeypatch):
        assert self.cli_forward_passes(trained_tiny_net, tmp_path,
                                       monkeypatch, "spectrum") == 1

    def test_row_subset_reports_as_the_subset(self, trained_tiny_net):
        # a subsample taken with Linearization.rows, as a sample-size sweep
        # takes it, reports exactly what a fresh linearization of it does
        spec, theta, train, _ = trained_tiny_net
        keep = np.zeros(train.n, dtype=bool)
        for c in range(train.class_count):
            keep[np.flatnonzero(train.y == c)[:12]] = True
        subset = LabeledDataset(x=train.x[keep], y=train.y[keep],
                                class_count=train.class_count,
                                split=train.split)
        settings = dict(steps=32, n_vec=2, grid_points=128, seed=2)
        rows = component_attribution(linearize(spec, theta, train).rows(keep),
                                     **settings)
        direct = component_attribution(linearize(spec, theta, subset),
                                       **settings)
        assert rows["n_examples"] == 36
        assert rows == direct

    def test_fresh_initialization_also_reports(self, trained_tiny_net):
        spec, _, train, _ = trained_tiny_net
        report = component_attribution(
            linearize(spec, init_params(spec, seed=0), train),
            steps=32, grid_points=128,
        )
        validate_report(report)

    def test_validator_rejects_mutations(self, report):
        for schema in ("attribution-report/v0", "attribution-report/v1"):
            bad = copy.deepcopy(report)
            bad["schema"] = schema
            with pytest.raises(InputFormatError, match="schema"):
                validate_report(bad)

        bad = copy.deepcopy(report)
        bad["densities"]["g"]["method"] = "dense"
        with pytest.raises(InputFormatError, match="method"):
            validate_report(bad)

        bad = copy.deepcopy(report)
        del bad["densities"]["g_minus_a1"]["method"]
        with pytest.raises(InputFormatError, match="method"):
            validate_report(bad)

        bad = copy.deepcopy(report)
        bad["densities"]["g_minus_b2"]["ritz"] = bad["densities"]["g"]["ritz"]
        with pytest.raises(InputFormatError, match="Ritz"):
            validate_report(bad)

        bad = copy.deepcopy(report)
        bad["densities"]["g"]["ritz"] = []
        with pytest.raises(InputFormatError, match="Ritz"):
            validate_report(bad)

        bad = copy.deepcopy(report)
        del bad["densities"]["g_minus_b2"]
        with pytest.raises(InputFormatError, match="densities"):
            validate_report(bad)

        bad = copy.deepcopy(report)
        bad["b2c_traces"] = bad["b2c_traces"][:-1]
        with pytest.raises(InputFormatError, match="b2c_traces"):
            validate_report(bad)

        bad = copy.deepcopy(report)
        bad["class_count"] = "three"
        with pytest.raises(InputFormatError):
            validate_report(bad)

        bad = copy.deepcopy(report)
        bad["identity"] = {"relative_residual": "tiny"}
        with pytest.raises(InputFormatError, match="identity"):
            validate_report(bad)

        bad = copy.deepcopy(report)
        bad["densities"]["g"]["scale"] = "linear"
        with pytest.raises(InputFormatError):
            validate_report(bad)
