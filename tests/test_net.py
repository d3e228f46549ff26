"""The numpy classifier and its curvature products.

Derivative code is checked three ways: closed forms at special parameter
points (zero, saturation), finite differences of independently computed
quantities, and exact structural identities (the curvature split, layout
round-trips). The finite-difference oracles live in oracles.py.
"""

import io
import math
import struct
import zipfile

import numpy as np
import pytest
from scipy.special import logsumexp

from specdens import net as net_module
from specdens.data import LabeledDataset, one_hot
from specdens.errors import InputFormatError, UsageError
from specdens.net import (
    Checkpoint,
    MlpSpec,
    flatten,
    gnvp,
    gradient,
    hessian_operator,
    hvp,
    hvp_h,
    init_params,
    linearize,
    load_checkpoint,
    loss_and_error,
    save_checkpoint,
    unflatten,
)
from specdens.operators import difference_operator

from oracles import (
    error_rate,
    explicit_gauss_newton,
    explicit_logit_jacobian,
    fd_gradient,
    fd_hessian,
    fd_hvp,
    loss,
    op_to_dense,
    per_example_logit_vjp,
    predict_logits,
    predict_probs,
    symmetry_defect,
)


def random_dataset(spec, n, seed, split=""):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.input_dim))
    y = rng.integers(0, spec.class_count, n)
    return LabeledDataset(x=x, y=y, class_count=spec.class_count, split=split)


def jacobian_assembly_gn(spec, theta, data):
    """Dense G: J rows extracted one cotangent at a time, then assembled as
    mean J^T (diag(p) - p p^T) J — independent of the jvp route."""
    n, C, p = data.n, spec.class_count, spec.param_count
    J = np.empty((n, C, p))
    eye = np.eye(C)
    for c in range(C):
        cot = np.tile(eye[c], (n, 1))
        J[:, c, :] = per_example_logit_vjp(spec, theta, data.x, cot)
    return explicit_gauss_newton(J, predict_probs(spec, theta, data.x))


def zero_except_final_bias(spec, bias):
    Ws, bs = unflatten(spec, np.zeros(spec.param_count))
    Ws = [W.copy() for W in Ws]
    bs = [b.copy() for b in bs]
    bs[-1][:] = bias
    return flatten(Ws, bs)


class TestSpecAndLayout:
    def test_param_count_hand_value(self):
        spec = MlpSpec(layer_dims=(4, 8, 3))
        assert spec.param_count == (8 * 4 + 8) + (3 * 8 + 3)
        assert spec.input_dim == 4
        assert spec.class_count == 3
        assert spec.depth == 2

    def test_validation(self):
        with pytest.raises(UsageError):
            MlpSpec(layer_dims=(4, 3))
        with pytest.raises(UsageError):
            MlpSpec(layer_dims=(4, 0, 3))
        with pytest.raises(UsageError):
            MlpSpec(layer_dims=(4, 8, 3), activation="gelu")

    def test_flatten_unflatten_identity(self, rng):
        spec = MlpSpec(layer_dims=(4, 6, 5, 3))
        theta = rng.standard_normal(spec.param_count)
        Ws, bs = unflatten(spec, theta)
        assert np.array_equal(flatten(Ws, bs), theta)
        assert [W.shape for W in Ws] == [(6, 4), (5, 6), (3, 5)]
        assert [b.shape for b in bs] == [(6,), (5,), (3,)]

    def test_init_deterministic_with_zero_biases(self):
        spec = MlpSpec(layer_dims=(4, 8, 3))
        t1 = init_params(spec, seed=1)
        t2 = init_params(spec, seed=1)
        assert np.array_equal(t1, t2)
        _, bs = unflatten(spec, t1)
        for b in bs:
            assert np.array_equal(b, np.zeros_like(b))
        assert not np.array_equal(t1, init_params(spec, seed=2))


class TestForwardAndLoss:
    def test_probs_are_a_distribution(self, rng):
        spec = MlpSpec(layer_dims=(4, 8, 3))
        theta = init_params(spec, seed=0)
        P = predict_probs(spec, theta, rng.standard_normal((50, 4)))
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)

    def test_zero_parameters_give_uniform_probs(self, rng):
        spec = MlpSpec(layer_dims=(4, 8, 3))
        P = predict_probs(spec, np.zeros(spec.param_count),
                          rng.standard_normal((10, 4)))
        np.testing.assert_allclose(P, 1.0 / 3.0, atol=1e-15)

    def test_zero_parameter_loss_is_log_class_count(self):
        # n = 8 keeps the mean a power-of-two scaling, so equality is exact
        spec = MlpSpec(layer_dims=(4, 8, 3))
        data = random_dataset(spec, 8, seed=1)
        assert loss(spec, np.zeros(spec.param_count), data) == math.log(3)

    def test_loss_matches_logsumexp_oracle(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        Z = predict_logits(spec, theta, train.x)
        oracle = float(np.mean(logsumexp(Z, axis=1)
                               - Z[np.arange(train.n), train.y]))
        assert loss(spec, theta, train) == pytest.approx(oracle, abs=1e-12)

    def test_saturated_margin_drives_loss_to_zero(self):
        spec = MlpSpec(layer_dims=(4, 8, 3))
        theta = zero_except_final_bias(spec, [50.0, 0.0, 0.0])
        x = np.random.default_rng(2).standard_normal((16, 4))
        data = LabeledDataset(x=x, y=np.zeros(16, dtype=int), class_count=3)
        assert loss(spec, theta, data) <= 1e-12
        assert error_rate(spec, theta, data) == 0.0

    def test_loss_and_error_share_one_forward_pass(self, trained_tiny_net,
                                                   monkeypatch):
        spec, theta, train, _ = trained_tiny_net
        expected = (loss(spec, theta, train), error_rate(spec, theta, train))
        calls = []
        forward = net_module._forward

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(net_module, "_forward", counted)
        assert loss_and_error(spec, theta, train) == expected
        assert len(calls) == 1

    def test_error_rate_counts_argmax_misses(self):
        spec = MlpSpec(layer_dims=(4, 8, 3))
        theta = zero_except_final_bias(spec, [50.0, 0.0, 0.0])
        x = np.random.default_rng(3).standard_normal((10, 4))
        y = np.array([0] * 6 + [1] * 3 + [2])   # predictions are always 0
        data = LabeledDataset(x=x, y=y, class_count=3)
        assert error_rate(spec, theta, data) == pytest.approx(0.4)


class TestGradient:
    def test_zero_parameters_closed_form(self):
        # at theta = 0 every activation is zero, so the only nonzero block
        # is the output bias: 1/C minus the empirical label frequency
        spec = MlpSpec(layer_dims=(4, 8, 3))
        data = random_dataset(spec, 30, seed=4)
        g = gradient(spec, np.zeros(spec.param_count), data)
        assert np.array_equal(g[:-3], np.zeros(spec.param_count - 3))
        freq = np.bincount(data.y, minlength=3) / data.n
        np.testing.assert_allclose(g[-3:], 1.0 / 3.0 - freq, atol=1e-15)

    def test_matches_finite_differences(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        g = gradient(spec, theta, train)
        idx = np.random.default_rng(5).choice(spec.param_count, 20,
                                              replace=False)
        fd = fd_gradient(lambda t: loss(spec, t, train), theta, indices=idx)
        np.testing.assert_allclose(g[idx], fd, atol=1e-6 * max(1.0, np.abs(fd).max()))

    def test_duplicating_the_dataset_changes_nothing(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        doubled = LabeledDataset(x=np.concatenate([train.x, train.x]),
                                 y=np.concatenate([train.y, train.y]),
                                 class_count=train.class_count)
        g1 = gradient(spec, theta, train)
        g2 = gradient(spec, theta, doubled)
        np.testing.assert_allclose(g2, g1, atol=1e-13)
        assert loss(spec, theta, doubled) == pytest.approx(
            loss(spec, theta, train), abs=1e-13)

    def test_consistent_with_per_example_route(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        P = predict_probs(spec, theta, train.x)
        rows = per_example_logit_vjp(spec, theta, train.x,
                                     P - one_hot(train.y, train.class_count))
        np.testing.assert_allclose(rows.mean(axis=0),
                                   gradient(spec, theta, train), atol=1e-12)


class TestHvp:
    def test_zero_vector_maps_to_zero(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        out = hvp(linearize(spec, theta, train), np.zeros(spec.param_count))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_linear_in_the_vector(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        rng = np.random.default_rng(6)
        u = rng.standard_normal(spec.param_count)
        w = rng.standard_normal(spec.param_count)
        lin = linearize(spec, theta, train)
        combo = hvp(lin, 2.0 * u - 0.5 * w)
        parts = 2.0 * hvp(lin, u) - 0.5 * hvp(lin, w)
        np.testing.assert_allclose(combo, parts,
                                   atol=1e-10 * max(1.0, np.abs(parts).max()))

    def test_matches_fd_directional_derivative(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        rng = np.random.default_rng(7)
        grad_fn = lambda t: gradient(spec, t, train)
        lin = linearize(spec, theta, train)
        for _ in range(5):
            v = rng.standard_normal(spec.param_count)
            exact = hvp(lin, v)
            approx = fd_hvp(grad_fn, theta, v)
            np.testing.assert_allclose(
                exact, approx, atol=1e-4 * max(1.0, np.abs(exact).max()))

    def test_dense_hessian_matches_fd_and_is_symmetric(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        H = op_to_dense(hessian_operator(linearize(spec, theta, train)))
        scale = np.linalg.norm(H)
        assert np.linalg.norm(H - H.T) <= 1e-6 * scale
        H_fd = fd_hessian(lambda t: gradient(spec, t, train), theta)
        assert np.linalg.norm(H - H_fd) <= 1e-4 * scale


class TestCurvatureSplit:
    def test_outer_product_term_is_psd(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        rng = np.random.default_rng(8)
        lin = linearize(spec, theta, train)
        for _ in range(20):
            v = rng.standard_normal(spec.param_count)
            assert v @ gnvp(lin, v) >= -1e-12 * (v @ v)

    def test_split_identity_is_exact(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        rng = np.random.default_rng(9)
        v = rng.standard_normal(spec.param_count)
        lin = linearize(spec, theta, train)
        full = hvp(lin, v)
        outer = gnvp(lin, v)
        rest = hvp_h(spec, theta, train, v)
        # three separate passes that reassemble to round-off
        np.testing.assert_allclose(outer + rest, full,
                                   atol=1e-14 * max(1.0, np.abs(full).max()))

    def test_operator_difference_equals_remainder(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        lin = linearize(spec, theta, train)
        h_full = hessian_operator(lin, which="hess")
        g_op = hessian_operator(lin, which="g")
        h_op = hessian_operator(lin, which="h")
        v = np.random.default_rng(10).standard_normal(spec.param_count)
        full = h_full.apply(v)
        np.testing.assert_allclose(difference_operator(h_full, g_op).apply(v),
                                   h_op.apply(v),
                                   atol=1e-14 * max(1.0, np.abs(full).max()))

    def test_gn_matches_exact_jacobian_assembly(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        G_oracle = jacobian_assembly_gn(spec, theta, train)
        G = op_to_dense(hessian_operator(linearize(spec, theta, train),
                                         which="g"))
        assert np.linalg.norm(G - G_oracle) <= 1e-12 * np.linalg.norm(G_oracle)

    def test_remainder_matches_dense_hessian_minus_assembled_gn(
            self, trained_tiny_net):
        # the fused zero-seed pass against Hess - G with G from the
        # Jacobian-assembly oracle, not from gnvp
        spec, theta, train, _ = trained_tiny_net
        lin = linearize(spec, theta, train)
        ref = (op_to_dense(hessian_operator(lin))
               - jacobian_assembly_gn(spec, theta, train))
        H = op_to_dense(hessian_operator(lin, which="h"))
        assert np.linalg.norm(H - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_remainder_matches_fd_hessian_minus_assembled_gn(
            self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        ref = (fd_hessian(lambda t: gradient(spec, t, train), theta)
               - jacobian_assembly_gn(spec, theta, train))
        H = op_to_dense(hessian_operator(linearize(spec, theta, train),
                                         which="h"))
        assert np.linalg.norm(H - ref) <= 1e-4 * np.linalg.norm(ref)

    def test_gn_matches_fd_jacobian_assembly(self):
        # fully independent route: Jacobians by finite differences
        spec = MlpSpec(layer_dims=(3, 5, 2))
        theta = init_params(spec, seed=3)
        data = random_dataset(spec, 6, seed=11)
        J = np.stack([
            explicit_logit_jacobian(
                lambda t, x: predict_logits(spec, t, x[None, :])[0],
                theta, data.x[i], spec.class_count)
            for i in range(data.n)
        ])
        P = predict_probs(spec, theta, data.x)
        G_oracle = explicit_gauss_newton(J, P)
        G = op_to_dense(hessian_operator(linearize(spec, theta, data),
                                         which="g"))
        assert np.linalg.norm(G - G_oracle) <= 1e-5 * max(1.0, np.linalg.norm(G_oracle))

    def test_relu_passthrough_output_block_closed_form(self):
        # relu with identity first layer on positive inputs: the output
        # block of the Gauss-Newton term has an exact kron closed form
        spec = MlpSpec(layer_dims=(3, 3, 2), activation="relu")
        rng = np.random.default_rng(12)
        Ws, bs = unflatten(spec, np.zeros(spec.param_count))
        Ws = [W.copy() for W in Ws]
        bs = [b.copy() for b in bs]
        Ws[0][:] = np.eye(3)
        Ws[1][:] = rng.standard_normal((2, 3))
        bs[1][:] = rng.standard_normal(2)
        theta = flatten(Ws, bs)
        x = np.abs(rng.standard_normal((9, 3))) + 0.1
        data = LabeledDataset(x=x, y=rng.integers(0, 2, 9), class_count=2)

        G = op_to_dense(hessian_operator(linearize(spec, theta, data),
                                         which="g"))
        P = predict_probs(spec, theta, x)
        w2 = slice(12, 18)   # layer-2 weights in the flat layout
        b2 = slice(18, 20)
        G_w2 = np.zeros((6, 6))
        G_b2 = np.zeros((2, 2))
        for i in range(9):
            S = np.diag(P[i]) - np.outer(P[i], P[i])
            G_w2 += np.kron(S, np.outer(x[i], x[i])) / 9
            G_b2 += S / 9
        np.testing.assert_allclose(G[w2, w2], G_w2, atol=1e-12)
        np.testing.assert_allclose(G[b2, b2], G_b2, atol=1e-12)

    def test_saturated_network_has_vanishing_curvature(self):
        # every example confidently correct: p ~ one-hot, so both the
        # outer-product term and the remainder collapse
        spec = MlpSpec(layer_dims=(4, 8, 3))
        theta = zero_except_final_bias(spec, [50.0, 0.0, 0.0])
        x = np.random.default_rng(13).standard_normal((12, 4))
        data = LabeledDataset(x=x, y=np.zeros(12, dtype=int), class_count=3)
        v = np.random.default_rng(14).standard_normal(spec.param_count)
        assert np.linalg.norm(hvp(linearize(spec, theta, data), v)) <= 1e-10
        assert np.linalg.norm(hvp_h(spec, theta, data, v)) <= 1e-10


class TestHessianOperator:
    def test_labels_carry_kind_and_split(self, trained_tiny_net):
        spec, theta, train, test = trained_tiny_net
        on_train = linearize(spec, theta, train)
        on_test = linearize(spec, theta, test)
        assert hessian_operator(on_train).label == "hess[train]"
        assert hessian_operator(on_test, which="g").label == "g[test]"
        assert hessian_operator(on_train, which="h").label == "h[train]"

    @pytest.mark.parametrize("which", ["hess", "g", "h"])
    def test_shared_linearization_keeps_label_and_products(
            self, trained_tiny_net, monkeypatch, which):
        spec, theta, train, test = trained_tiny_net
        # a linearization held by the caller: no second forward pass, and
        # the same label and product bits as one built just for the operator
        fresh = hessian_operator(linearize(spec, theta, test), which=which)
        lin = linearize(spec, theta, test)
        calls = []
        monkeypatch.setattr(net_module, "_forward",
                            lambda *args: calls.append(1))
        shared = hessian_operator(lin, which=which)
        monkeypatch.undo()
        assert calls == []
        assert shared.label == fresh.label == f"{which}[test]"
        v = np.random.default_rng(16).standard_normal(spec.param_count)
        assert np.array_equal(shared.apply(v), fresh.apply(v))

    def test_all_three_operators_pass_the_symmetry_probe(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        lin = linearize(spec, theta, train)
        for which in ("hess", "g", "h"):
            op = hessian_operator(lin, which=which)
            assert symmetry_defect(op, pairs=5, seed=1) <= 1e-10

    @pytest.mark.parametrize("which", ["hess", "g", "h"])
    def test_forward_pass_runs_once_at_construction(self, trained_tiny_net,
                                                    monkeypatch, which):
        spec, theta, train, _ = trained_tiny_net
        calls = []
        forward = net_module._forward

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(net_module, "_forward", counted)
        op = hessian_operator(linearize(spec, theta, train), which=which)
        assert len(calls) == 1
        rng = np.random.default_rng(21)
        for _ in range(10):
            op.apply(rng.standard_normal(spec.param_count))
        assert len(calls) == 1

    def test_theta_is_copied_not_aliased(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        theta_live = theta.copy()
        op = hessian_operator(linearize(spec, theta_live, train))
        v = np.random.default_rng(15).standard_normal(spec.param_count)
        before = op.apply(v)
        theta_live[:] = 0.0
        assert np.array_equal(op.apply(v), before)


class TestPerExampleVjp:
    def test_shapes_and_alignment_checked(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        with pytest.raises(UsageError):
            per_example_logit_vjp(spec, theta, train.x, np.zeros((3, 3)))
        with pytest.raises(UsageError):
            per_example_logit_vjp(spec, theta, train.x[0], np.zeros((1, 3)))

    def test_rows_match_fd_jacobian(self):
        spec = MlpSpec(layer_dims=(3, 4, 2))
        theta = init_params(spec, seed=6)
        x = np.random.default_rng(16).standard_normal((4, 3))
        J_fd = np.stack([
            explicit_logit_jacobian(
                lambda t, xi: predict_logits(spec, t, xi[None, :])[0],
                theta, x[i], 2)
            for i in range(4)
        ])
        for c in range(2):
            cot = np.tile(np.eye(2)[c], (4, 1))
            rows = per_example_logit_vjp(spec, theta, x, cot)
            np.testing.assert_allclose(rows, J_fd[:, c, :], atol=1e-6)


def check_products_against_jacobian_rows(spec, theta, x, lin, seed):
    """``lin``'s JVP, summed VJP and per-example VJP norms against the
    oracle's stored per-example Jacobian rows; the products take and return
    one column per example. Returns the direction used for the JVP."""
    C = spec.class_count
    J = np.stack([
        per_example_logit_vjp(spec, theta, x, np.tile(np.eye(C)[c], (len(x), 1)))
        for c in range(C)
    ], axis=1)                                   # (n, C, p)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spec.param_count)
    D = rng.standard_normal((len(x), C))
    np.testing.assert_allclose(lin.jvp(v), (J @ v).T, atol=1e-12)
    np.testing.assert_allclose(lin.vjp(D.T), np.einsum("ic,icp->p", D, J),
                               atol=1e-12)
    rows = np.einsum("ic,icp->ip", D, J)
    np.testing.assert_allclose(lin.vjp_sq_norms(D.T),
                               np.einsum("ip,ip->i", rows, rows), rtol=1e-13)
    return v


class TestLinearization:
    """JVPs, summed VJPs and per-example VJP norms through one stored
    forward state, checked against stored per-example Jacobian rows."""

    def test_products_match_stored_jacobians(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        lin = linearize(spec, theta, train)
        # the state holds one column per example
        np.testing.assert_allclose(lin.P, predict_probs(spec, theta, train.x).T,
                                   atol=1e-15)
        assert np.array_equal(lin.dZ, lin.P - one_hot(train.y, train.class_count).T)
        check_products_against_jacobian_rows(spec, theta, train.x, lin, seed=18)

    def test_row_restriction(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        keep = train.y == 1
        sub = LabeledDataset(x=train.x[keep], y=train.y[keep],
                             class_count=train.class_count)
        rng = np.random.default_rng(19)
        D = rng.standard_normal((spec.class_count, sub.n))
        v = rng.standard_normal(spec.param_count)
        restricted = linearize(spec, theta, train).rows(keep)
        direct = linearize(spec, theta, sub)
        assert np.array_equal(restricted.vjp(D), direct.vjp(D))
        assert np.array_equal(restricted.vjp_sq_norms(D), direct.vjp_sq_norms(D))
        assert np.array_equal(restricted.dZ, direct.dZ)
        assert np.array_equal(gnvp(restricted, v), gnvp(direct, v))
        assert np.array_equal(hvp(restricted, v, outer=False),
                              hvp(direct, v, outer=False))

    def test_labels_and_split_ride_along(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        lin = linearize(spec, theta, train)
        assert np.array_equal(lin.labels, train.y)
        assert lin.split == train.split == "train"
        keep = np.flatnonzero(train.y != 0)[::2]
        sub = lin.rows(keep)
        assert np.array_equal(sub.labels, train.y[keep])
        assert sub.split == "train"

    def test_theta_is_copied(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        theta_live = theta.copy()
        lin = linearize(spec, theta_live, train)
        v = np.random.default_rng(20).standard_normal(spec.param_count)
        before = lin.jvp(v)
        theta_live[:] = 0.0
        assert np.array_equal(lin.jvp(v), before)


class TestTwoHiddenLayers:
    """Every product on a 4-6-5-3 net, where the backward sweeps cross a
    hidden-to-hidden layer: finite differences of the gradient and the
    per-example Jacobian rows of the row-major oracle."""

    @pytest.fixture(params=["tanh", "relu"])
    def net(self, request):
        spec = MlpSpec(layer_dims=(4, 6, 5, 3), activation=request.param)
        theta = 0.8 * np.random.default_rng(31).standard_normal(spec.param_count)
        data = random_dataset(spec, 12, seed=32)
        return spec, theta, data, linearize(spec, theta, data)

    def test_jvp_vjp_and_norms_match_jacobian_rows(self, net):
        spec, theta, data, lin = net
        v = check_products_against_jacobian_rows(spec, theta, data.x, lin,
                                                 seed=33)
        eps = 1e-6
        fd = (predict_logits(spec, theta + eps * v, data.x)
              - predict_logits(spec, theta - eps * v, data.x)) / (2 * eps)
        np.testing.assert_allclose(lin.jvp(v), fd.T, atol=1e-7)

    def test_hessian_matches_fd_of_gradient(self, net):
        spec, theta, data, lin = net
        grad_fn = lambda t: gradient(spec, t, data)
        H_fd = fd_hessian(grad_fn, theta)
        H = op_to_dense(hessian_operator(lin))
        assert np.linalg.norm(H - H_fd) <= 1e-7 * np.linalg.norm(H_fd)
        v = np.random.default_rng(34).standard_normal(spec.param_count)
        approx = fd_hvp(grad_fn, theta, v)
        assert np.linalg.norm(hvp(lin, v) - approx) <= 1e-7 * np.linalg.norm(approx)

    def test_gn_and_remainder_match_jacobian_assembly(self, net):
        spec, theta, data, lin = net
        G_oracle = jacobian_assembly_gn(spec, theta, data)
        G = op_to_dense(hessian_operator(lin, which="g"))
        assert np.linalg.norm(G - G_oracle) <= 1e-12 * np.linalg.norm(G_oracle)
        # the zero-seed pass against Hess - G, with Hess from finite
        # differences of the gradient and G from the Jacobian rows
        ref = fd_hessian(lambda t: gradient(spec, t, data), theta) - G_oracle
        H = op_to_dense(hessian_operator(lin, which="h"))
        assert np.linalg.norm(H - ref) <= 1e-6 * np.linalg.norm(ref)


class TestCheckpoints:
    def make_checkpoint(self, with_velocity=True):
        spec = MlpSpec(layer_dims=(4, 8, 3))
        theta = init_params(spec, seed=2)
        velocity = np.random.default_rng(17).standard_normal(spec.param_count)
        return Checkpoint(
            spec=spec, theta=theta, epoch=7, seed=42, lr=0.025,
            velocity=velocity if with_velocity else None,
            meta={"note": "fixture", "train_loss": 0.5},
        )

    def test_round_trip_is_exact(self, tmp_path):
        # the archive layout: member order and dtypes decide the zip bytes
        meta_dtype = "<U38"  # len('{"note": "fixture", "train_loss": 0.5}')
        layout = [("format_version", "<i8", ()), ("layer_dims", "<i8", (3,)),
                  ("activation", "<U4", ()), ("theta", "<f8", (67,)),
                  ("epoch", "<i8", ()), ("seed", "<i8", ()),
                  ("lr", "<f8", ()), ("meta_json", meta_dtype, ()),
                  ("velocity", "<f8", (67,))]
        for with_velocity in (True, False):
            ck = self.make_checkpoint(with_velocity)
            path = tmp_path / "ck.npz"
            save_checkpoint(path, ck)
            with zipfile.ZipFile(path) as zf:
                assert zf.namelist() == [
                    f"{name}.npy" for name, _, _ in layout[:8 + with_velocity]]
            with np.load(path) as z:
                assert [(name, z[name].dtype.str, z[name].shape)
                        for name in z.files] == layout[:8 + with_velocity]
            back = load_checkpoint(path)
            assert back.spec == ck.spec
            assert np.array_equal(back.theta, ck.theta)
            if with_velocity:
                assert np.array_equal(back.velocity, ck.velocity)
            else:
                assert back.velocity is None
            assert (back.epoch, back.seed, back.lr) == (7, 42, 0.025)
            assert back.meta == ck.meta

    def test_velocity_is_optional(self, tmp_path):
        ck = self.make_checkpoint(with_velocity=False)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ck)
        assert load_checkpoint(path).velocity is None

    def test_missing_file_is_a_format_error(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_checkpoint(tmp_path / "absent.npz")

    def test_garbage_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(InputFormatError):
            load_checkpoint(path)

    def test_archives_numpy_cannot_read_are_format_errors(self, tmp_path):
        # np.load returns a .npy file as an array, which has no members; a
        # compressed archive can fail in zlib rather than in zipfile; a
        # member header can claim more than the address space holds
        np.save(tmp_path / "theta.npy", np.zeros(67))
        save_checkpoint(tmp_path / "ck.npz", self.make_checkpoint())
        with np.load(tmp_path / "ck.npz") as z:
            np.savez_compressed(tmp_path / "packed.npz", **z)
        blob = bytearray((tmp_path / "packed.npz").read_bytes())
        with zipfile.ZipFile(tmp_path / "packed.npz") as zf:
            info = zf.getinfo("theta.npy")
        # theta's deflate stream opens with a block of reserved type 3
        start = info.header_offset + 30 + sum(struct.unpack(
            "<HH", blob[info.header_offset + 26:info.header_offset + 30]))
        blob[start] = 0b111
        (tmp_path / "damaged.npz").write_bytes(bytes(blob))
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": "<f8", "fortran_order": False, "shape": (2 ** 56,)})
        with (zipfile.ZipFile(tmp_path / "ck.npz") as zin,
              zipfile.ZipFile(tmp_path / "huge.npz", "w") as zout):
            for name in zin.namelist():
                data = zin.read(name)
                if name == "theta.npy":
                    data = header.getvalue() + data[-67 * 8:]
                zout.writestr(name, data)
        for name in ("theta.npy", "damaged.npz", "huge.npz"):
            with pytest.raises(InputFormatError, match="unreadable"):
                load_checkpoint(tmp_path / name)

    def test_wrong_version_rejected(self, tmp_path):
        ck = self.make_checkpoint()
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ck)
        with np.load(path, allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        payload["format_version"] = np.int64(99)
        np.savez(tmp_path / "bad.npz", **payload)
        with pytest.raises(InputFormatError, match="version"):
            load_checkpoint(tmp_path / "bad.npz")

    def test_theta_shape_mismatch_rejected(self, tmp_path):
        ck = self.make_checkpoint()
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ck)
        with np.load(path, allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        payload["theta"] = payload["theta"][:-1]
        np.savez(tmp_path / "bad.npz", **payload)
        with pytest.raises(InputFormatError):
            load_checkpoint(tmp_path / "bad.npz")
