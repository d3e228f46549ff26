"""Matrix-free operator wrappers, combinators, and the symmetry probe."""

import dataclasses
import threading
import warnings

import numpy as np
import pytest

from specdens import linalg, operators
from specdens.decomp import build_decomposition, identity_residual
from specdens.deflation import top_eigenpairs
from specdens.errors import (
    DegenerateSpectrumError,
    NumericalError,
    UsageError,
)
from specdens.lanczos import approx_spectrum
from specdens.linalg import dense_eig
from specdens.net import hessian_operator, linearize
from specdens.operators import (
    _PANEL_ROWS,
    _SPLIT_ROWS,
    NormalizationMap,
    SymmetricOperator,
    affine_operator,
    deflated_operator,
    dense_operator,
    difference_operator,
    sum_operator,
)

from oracles import op_to_dense, symmetry_defect


class TestSymmetricOperator:
    def test_identity_matvec(self):
        op = SymmetricOperator(3, lambda v: v, label="id")
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(op.apply(e1), e1)

    def test_hand_two_by_two(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        op = dense_operator(A)
        np.testing.assert_array_equal(op.apply(np.ones(2)), [3.0, 3.0])

    def test_block_product_of_wrong_shape_rejected(self):
        op = SymmetricOperator(3, lambda v: v, label="id",
                               matmat=lambda V: V[:, :1])
        with pytest.raises(UsageError):
            op.apply(np.ones((3, 2)))

    def test_one_column_is_a_block(self):
        op = SymmetricOperator(3, lambda v: 2.0 * v, label="double")
        out = op.apply(np.ones((3, 1)))
        assert out.shape == (3, 1)
        np.testing.assert_array_equal(out, 2.0 * np.ones((3, 1)))

    def test_wide_block_without_block_product_rejected(self, rng):
        """Only an operator with a matmat takes blocks wider than one
        column; the rest are refused by name, before any product runs."""
        seen = []

        def matvec(v):
            seen.append(v.shape)
            return 3.0 * v

        op = SymmetricOperator(4, matvec, label="net")
        assert not op.has_matmat
        with pytest.raises(UsageError, match="operator net .* 3 columns"):
            op.apply(rng.standard_normal((4, 3)))
        assert seen == []

    def test_apply_is_deterministic(self, rng):
        A = rng.standard_normal((50, 50))
        op = dense_operator((A + A.T) / 2)
        v = rng.standard_normal(50)
        assert np.array_equal(op.apply(v), op.apply(v))


class TestNonFiniteProducts:
    """`apply` refuses a product with a NaN or infinite entry and names
    the operator that produced it, however deeply it is wrapped."""

    MESSAGE = "^operator bad returned a non-finite vector$"

    @staticmethod
    def poisoned(dim, value):
        def product(V):
            out = np.ones(V.shape)
            out[0] = value
            return out

        return SymmetricOperator(dim, product, label="bad", matmat=product)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3)],
                             ids=["vector", "one-column", "wide"])
    def test_leaf_product(self, value, shape):
        with pytest.raises(NumericalError, match=self.MESSAGE):
            self.poisoned(4, value).apply(np.ones(shape))

    @pytest.mark.parametrize("wrap", [
        lambda bad, ok: affine_operator(
            bad, NormalizationMap.from_bounds(-1.0, 1.0, 0.0)),
        lambda bad, ok: deflated_operator(bad, np.eye(4)[:, :1]),
        lambda bad, ok: sum_operator(ok, bad),
        lambda bad, ok: difference_operator(ok, bad),
    ], ids=["affine", "deflated", "sum", "difference"])
    @pytest.mark.parametrize("shape", [(4,), (4, 3)], ids=["vector", "wide"])
    def test_combinator_names_the_inner_operator(self, wrap, shape):
        op = wrap(self.poisoned(4, np.nan), dense_operator(np.eye(4)))
        with pytest.raises(NumericalError, match=self.MESSAGE):
            op.apply(np.ones(shape))

    def test_estimators_name_the_leaf(self):
        bad = self.poisoned(30, np.nan)
        ok = dense_operator(np.diag(np.arange(1.0, 31.0)))
        for run in (lambda: approx_spectrum(sum_operator(ok, bad), steps=8),
                    lambda: top_eigenpairs(difference_operator(ok, bad), 2)):
            with pytest.raises(NumericalError, match=self.MESSAGE):
                run()

    def test_identity_residual_names_the_part(self, trained_tiny_net):
        spec, theta, train, _ = trained_tiny_net
        lin = linearize(spec, theta, train)
        parts = build_decomposition(lin)
        parts = dataclasses.replace(parts, b1=self.poisoned(spec.param_count,
                                                            np.nan))
        with pytest.raises(NumericalError, match=self.MESSAGE):
            identity_residual(hessian_operator(lin, which="g"), parts)


class TestDenseOperator:
    def test_large_random_matrix_is_symmetric_under_probe(self, rng):
        A = rng.standard_normal((500, 500))
        op = dense_operator((A + A.T) / 2)
        assert symmetry_defect(op, pairs=10, seed=1) <= 1e-12

    def test_panel_block_product_matches_gemm(self, rng):
        # 70 rows: two full 32-row panels and a short one
        A = rng.standard_normal((70, 70))
        A = (A + A.T) / 2
        op = dense_operator(A)
        assert op.has_matmat
        V = rng.standard_normal((70, 3))
        exact = A @ V
        assert np.max(np.abs(op.apply(V) - exact)) <= 1e-12 * np.max(np.abs(exact))
        v = rng.standard_normal(70)
        np.testing.assert_array_equal(op.apply(v[:, None])[:, 0], A @ v)
        np.testing.assert_array_equal(op.apply(v), A @ v)

    @pytest.mark.parametrize("p,layout", [(70, "C"), (70, "F"), (96, "C"),
                                          (31, "C")])
    def test_block_product_is_the_panel_loop_bit_for_bit(self, rng, p,
                                                         layout):
        # one stacked matmul must make the same GEMM calls as a loop over
        # the panels; 96 rows leave no short panel and 31 no whole one
        A = rng.standard_normal((p, p))
        A = np.asarray((A + A.T) / 2, order=layout)
        V = rng.standard_normal((p, 3))
        loop = np.empty(V.shape, order="F")
        for i in range(0, p, _PANEL_ROWS):
            loop[i:i + _PANEL_ROWS] = A[i:i + _PANEL_ROWS] @ V
        block = dense_operator(A).apply(V)
        assert block.flags.f_contiguous
        assert block.tobytes("F") == loop.tobytes("F")


def _symmetric(rng, p):
    A = rng.standard_normal((p, p))
    return (A + A.T) / 2


def _panel_loop(A, V):
    loop = np.empty(V.shape, order="F")
    for i in range(0, A.shape[0], _PANEL_ROWS):
        loop[i:i + _PANEL_ROWS] = A[i:i + _PANEL_ROWS] @ V
    return loop


class TestSplitDenseProduct:
    """From ``_SPLIT_ROWS`` rows on, the panels of a dense product are cut
    into one range per usable CPU and the ranges run on the worker
    threads, with the bits of the one-thread panel loop."""

    @staticmethod
    def split_operator(monkeypatch, A, cpus, split_rows=_SPLIT_ROWS):
        ranges = []

        def counted(tasks):
            ranges.append(len(tasks))
            run(tasks)

        run = linalg._run_tasks
        monkeypatch.setattr(operators, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(operators, "_SPLIT_ROWS", split_rows)
        monkeypatch.setattr(operators, "_run_tasks", counted)
        return dense_operator(A), ranges

    @pytest.mark.parametrize("split_rows", [_SPLIT_ROWS, 0],
                             ids=["threshold", "always"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("p", [31, 96, 500, 1000, 2003])
    def test_split_is_the_panel_loop_bit_for_bit(self, rng, monkeypatch, p,
                                                 cpus, split_rows):
        # 2003 rows are 62 whole panels (20, 21 and 21 at three CPUs) and a
        # short one; 96 rows are three panels and 31 rows no whole one. At
        # the threshold, p = 500 and 1000 stay on the calling thread
        A = _symmetric(rng, p)
        op, ranges = self.split_operator(monkeypatch, A, cpus, split_rows)
        panels = p // _PANEL_ROWS
        parts = min(cpus, panels) if p >= split_rows else 1
        for k in (1, 3, 10):
            V = rng.standard_normal((p, k))
            block = op.apply(V)
            assert block.flags.f_contiguous
            assert block.tobytes("F") == _panel_loop(A, V).tobytes("F")
        # a lone vector: the column of its one-column block
        assert op.apply(V[:, 0]).tobytes() == \
            _panel_loop(A, V[:, :1])[:, 0].tobytes()
        # one range runs inline
        assert ranges == ([parts] * 4 if parts > 1 else [])

    @staticmethod
    def one_range_per_thread(monkeypatch, failure=None):
        """Hold the calling thread in its range until a worker has taken
        another, so that a worker surely runs one; ``failure`` is raised
        there instead of its product."""
        caller, product = threading.current_thread(), operators._panel_product
        taken = threading.Event()

        def forced(*job):
            if threading.current_thread() is caller:
                assert taken.wait(timeout=30)
                taken.clear()
            else:
                taken.set()
                if failure is not None:
                    raise failure
            product(*job)

        monkeypatch.setattr(operators, "_panel_product", forced)

    def test_overflow_warns_from_no_thread(self, monkeypatch):
        """The workers run under the caller's ``errstate``: an overflow the
        caller ignores raises no warning in a worker, and ``apply`` names
        the operator that returned the infinite block."""
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        A = np.full((200, 200), 1e300)
        op, ranges = self.split_operator(monkeypatch, A, 2, split_rows=0)
        self.one_range_per_thread(monkeypatch)
        for shape in [(200, 3), (200,)]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with np.errstate(over="ignore"), pytest.raises(
                        NumericalError,
                        match="^operator dense returned a non-finite vector$"):
                    op.apply(np.full(shape, 1e10))
            assert caught == []
        assert ranges == [2, 2]
        assert escaped == []

    def test_failed_range_raises_on_the_caller(self, rng, monkeypatch):
        """A range that fails in a worker is raised on the calling thread,
        after the caller's own range, and the next product runs."""
        A = _symmetric(rng, 2003)
        op, _ = self.split_operator(monkeypatch, A, 2)
        product = operators._panel_product
        self.one_range_per_thread(monkeypatch, RuntimeError("range failed"))
        V = rng.standard_normal((2003, 3))
        with pytest.raises(RuntimeError, match="^range failed$"):
            op.apply(V)
        monkeypatch.setattr(operators, "_panel_product", product)
        assert op.apply(V).tobytes("F") == _panel_loop(A, V).tobytes("F")


class TestNormalizationMap:
    def test_widened_bounds_hand_values(self):
        nm = NormalizationMap.from_bounds(0.0, 2.0, tau=0.05)
        assert nm.delta == pytest.approx(0.1)
        assert nm.center == pytest.approx(1.0)
        assert nm.half_width == pytest.approx(1.1)
        assert nm.lambda_min == pytest.approx(-0.1)
        assert nm.lambda_max == pytest.approx(2.1)
        assert nm.raw_lambda_min == 0.0
        assert nm.raw_lambda_max == 2.0

    def test_endpoints_map_to_unit_interval(self):
        nm = NormalizationMap.from_bounds(-3.0, 7.0, tau=0.02)
        assert nm.normalize(nm.lambda_min) == pytest.approx(-1.0)
        assert nm.normalize(nm.lambda_max) == pytest.approx(1.0)
        # pre-widening estimates land strictly inside
        assert -1.0 < nm.normalize(-3.0) < nm.normalize(7.0) < 1.0

    def test_round_trip(self, rng):
        nm = NormalizationMap.from_bounds(-2.0, 5.0, tau=0.05)
        lam = rng.uniform(-10, 10, 100)
        np.testing.assert_allclose(nm.denormalize(nm.normalize(lam)), lam,
                                   atol=1e-12)

    def test_collapsed_range_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            NormalizationMap.from_bounds(1.0, 1.0, tau=0.05)
        with pytest.raises(DegenerateSpectrumError):
            NormalizationMap.from_bounds(2.0, 1.0, tau=0.05)


class TestAffineOperator:
    def test_identity_centered_at_one_maps_to_zero(self):
        nm = NormalizationMap(center=1.0, half_width=1.0, lambda_min=0.0,
                              lambda_max=2.0, delta=0.0, tau=0.0,
                              raw_lambda_min=0.0, raw_lambda_max=2.0)
        op = affine_operator(dense_operator(np.eye(4)), nm)
        np.testing.assert_array_equal(op.apply(np.ones(4)), np.zeros(4))

    def test_two_point_spectrum_lands_symmetric(self):
        nm = NormalizationMap.from_bounds(0.0, 2.0, tau=0.05)
        op = affine_operator(dense_operator(np.diag([0.0, 2.0])), nm)
        values = dense_eig(op_to_dense(op))
        np.testing.assert_allclose(values, [-1 / 1.1, 1 / 1.1], atol=1e-14)

    def test_spectrum_maps_eigenvalue_wise(self, rng):
        A = rng.standard_normal((30, 30))
        A = (A + A.T) / 2
        raw = dense_eig(A)
        nm = NormalizationMap.from_bounds(float(raw[0]), float(raw[-1]),
                                          tau=0.05)
        mapped = dense_eig(op_to_dense(affine_operator(dense_operator(A), nm)))
        np.testing.assert_allclose(mapped, nm.normalize(raw), atol=1e-12)
        assert np.all(np.abs(mapped) < 1.0)


class TestDeflatedOperator:
    def test_basis_vector_sent_to_zero(self):
        op = dense_operator(np.diag([5.0, 1.0, 1.0]))
        e1 = np.eye(3)[:, :1]
        defl = deflated_operator(op, e1)
        np.testing.assert_array_equal(defl.apply(e1[:, 0]), np.zeros(3))

    def test_top_three_eigenvalues_land_at_zero(self):
        A = np.diag([5.0, 4.0, 3.0] + [1.0] * 7)
        defl = deflated_operator(dense_operator(A), np.eye(10)[:, :3])
        values = dense_eig(op_to_dense(defl))
        np.testing.assert_allclose(values[:3], 0.0, atol=1e-14)
        np.testing.assert_allclose(values[3:], 1.0, atol=1e-14)

    def test_symmetric_even_for_non_invariant_basis(self, rng):
        A = rng.standard_normal((40, 40))
        op = dense_operator((A + A.T) / 2)
        Q = np.linalg.qr(rng.standard_normal((40, 4)))[0]
        assert symmetry_defect(deflated_operator(op, Q), seed=2) <= 1e-12

    def test_range_orthogonal_to_basis(self, rng):
        A = rng.standard_normal((25, 25))
        op = dense_operator((A + A.T) / 2)
        Q = np.linalg.qr(rng.standard_normal((25, 3)))[0]
        defl = deflated_operator(op, Q)
        for _ in range(5):
            out = defl.apply(rng.standard_normal(25))
            assert np.max(np.abs(Q.T @ out)) <= 1e-10 * max(1.0, np.linalg.norm(out))

    @pytest.mark.parametrize("shape", [(10,), (10, 3)])
    def test_empty_basis_is_identity_wrapper(self, rng, shape):
        A = rng.standard_normal((10, 10))
        op = dense_operator((A + A.T) / 2)
        defl = deflated_operator(op, np.empty((10, 0)))
        v = rng.standard_normal(shape)
        assert np.array_equal(defl.apply(v), op.apply(v))


class TestSumAndDifference:
    def test_operator_minus_itself_is_zero(self, rng):
        A = rng.standard_normal((20, 20))
        op = dense_operator((A + A.T) / 2)
        diff = difference_operator(op, op)
        np.testing.assert_array_equal(diff.apply(rng.standard_normal(20)),
                                      np.zeros(20))

    def test_difference_spectrum_matches_dense(self, rng):
        A = rng.standard_normal((15, 15))
        B = rng.standard_normal((15, 15))
        A = (A + A.T) / 2
        B = (B + B.T) / 2
        diff = difference_operator(dense_operator(A), dense_operator(B))
        np.testing.assert_allclose(dense_eig(op_to_dense(diff)),
                                   dense_eig(A - B), atol=1e-12)

    def test_sum_of_scaled_identities(self):
        s = sum_operator(dense_operator(np.eye(3)),
                         dense_operator(2.0 * np.eye(3)))
        np.testing.assert_array_equal(s.apply(np.ones(3)), 3.0 * np.ones(3))



class TestCombinatorDims:
    def test_combinators_keep_the_inner_dim(self, rng):
        """The dimension every combinator takes on trust from its inner
        operators, and returns."""
        A = rng.standard_normal((7, 7))
        op = dense_operator((A + A.T) / 2)
        Q = np.linalg.qr(rng.standard_normal((7, 2)))[0]
        nm = NormalizationMap.from_bounds(-1.0, 1.0, tau=0.05)
        for combined in (sum_operator(op, op), difference_operator(op, op),
                         deflated_operator(op, Q), affine_operator(op, nm)):
            assert combined.dim == op.dim
            assert combined.apply(rng.standard_normal(7)).shape == (7,)
            assert combined.apply(rng.standard_normal((7, 3))).shape == (7, 3)


class TestSymmetryDefect:
    def test_honest_operator_scores_tiny(self, rng):
        A = rng.standard_normal((100, 100))
        assert symmetry_defect(dense_operator((A + A.T) / 2)) <= 1e-12

    def test_lying_matvec_is_caught(self):
        # wrap an asymmetric matrix directly, bypassing dense_operator's check
        A = np.triu(np.ones((10, 10)), 1)
        liar = SymmetricOperator(10, lambda v: A @ v, label="liar")
        assert symmetry_defect(liar) > 1e-8

    def test_same_seed_same_probes(self, rng):
        A = rng.standard_normal((30, 30))
        op = dense_operator((A + A.T) / 2)
        assert symmetry_defect(op, seed=5) == symmetry_defect(op, seed=5)
