"""Hierarchical decomposition of the outer-product curvature term.

The Gauss-Newton operator G is an average of per-example, per-class outer
products p_ic' v_ic' v_ic'^T with v_ic' = J_i^T (e_c' - p_i). Grouping
examples by true class and splitting each vector into its cluster mean
plus fluctuation decomposes G exactly into four PSD pieces:

- A1: between-cluster means of the cross-class vectors (rank <= C),
- A2: means of the true-class vectors (rank <= C),
- B1: spread of the cross-class cluster means around their per-class
  mixture mean (rank <= C^2 - 2C generically),
- B2: within-cluster fluctuations (the only part that grows with n).

G = A1 + A2 + B1 + B2 holds to round-off, and the identity is checked
with random probes whenever a report is produced.

No per-example vector is ever formed, and no table of cluster means
outlives its class: one pass over the true classes takes class c's C
means from C class-restricted summed VJPs, keeps their squared norms, and
writes its A1, A2 and B1 rows of one stacked factor as K_c @ means. A1,
A2 and B1 are factor-form operators on row blocks of that factor, and
their eigenvalues come from its small Gram matrix. One B2 matvec is one
JVP and one VJP, and its per-class traces come from per-example squared
norms. Memory is O(n * width + C^2 * p), the C^2 + C factor rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import one_hot
from .errors import InputFormatError, NumericalError
from .lanczos import (
    DEFAULT_GRID,
    DEFAULT_KAPPA,
    DEFAULT_LOG_EPSILON,
    DEFAULT_LOG_STEPS,
    approx_log_spectrum,
    exact_log_spectrum,
)
from .linalg import dense_eig
from .net import Linearization, hessian_operator
from .operators import SymmetricOperator, difference_operator, sum_operator

REPORT_SCHEMA = "attribution-report/v2"
DENSITY_METHODS = ("slq", "exact")

# a per-class B2 trace is a difference of two sums of squares; when it is
# this close to zero relative to them, its sign and size are round-off
_TRACE_ROUNDOFF = 1e-13


@dataclass(frozen=True)
class ClusterStats:
    """Probability-weighted cluster statistics, grouped by true class.

    Row c aggregates the examples whose true label is c: ``class_prob[c, c']``
    is the total softmax weight W_cc' those examples put on class c',
    ``mean_sq[c, c']`` the squared norm of the weighted mean mu_cc' of their
    class-c' vectors, and ``sq_norm_sums[c]`` the weighted sum of those
    vectors' squared norms.
    """

    class_prob: np.ndarray    # (C, C)
    mean_sq: np.ndarray       # (C, C)
    sq_norm_sums: np.ndarray  # (C,)
    counts: np.ndarray        # (C,) examples per true class
    n_total: int


def _factor_operator(F: np.ndarray, label: str) -> SymmetricOperator:
    """F^T F as an operator — symmetric PSD by construction."""
    return SymmetricOperator(F.shape[1], lambda v: F.T @ (F @ v), label=label)


def factor_eigenvalues(F: np.ndarray) -> np.ndarray:
    """Nonzero-part spectrum of F^T F via the small Gram matrix F F^T,
    descending. (The remaining p - r eigenvalues are exact zeros.)"""
    r = F.shape[0]
    if r == 0:
        return np.empty(0)
    gram = F @ F.T
    return dense_eig(0.5 * (gram + gram.T))[::-1].copy()


def _b2_matvec(lin: Linearization, members: np.ndarray, stats: ClusterStats,
               v: np.ndarray) -> np.ndarray:
    """B2 v = sum_ic' c_ic' (v_ic' - mu_{y_i c'}) with
    c_ic' = (p_ic'/N) <v_ic' - mu_{y_i c'}, v>; ``members`` is one_hot(y)^T,
    and every (C, n) array holds one column per example.

    <v_ic', v> = d_ic' comes from u = J v, and the mean dots from d:
    <mu_cc', v> = sum_{i in c} p_ic' d_ic' / W_cc'. The mean terms of the
    pull-back drop out, since a cluster's coefficients sum to zero."""
    P = lin.P
    u = lin.jvp(v)                                   # (C, n): J_i v
    d = u - np.sum(P * u, axis=0)                    # (C, n): <v_ic', v>
    W = stats.class_prob
    mean_dots = np.divide(members @ (P * d).T, W,    # (C, C): <mu_cc', v>
                          out=np.zeros_like(W), where=W > 0.0)
    coef = (P / stats.n_total) * (d - mean_dots.T @ members)
    return lin.vjp(coef - P * coef.sum(axis=0))


@dataclass(frozen=True)
class GaussNewtonParts:
    """The four decomposition pieces as operators, plus the stacked factor
    of the low-rank three.

    A1, A2 and B1 are F^T F for a row block F of ``factor`` (C rows each for
    A1 and A2, then C^2 - C for B1, class-major), so PSD-ness and the rank
    bounds are structural. B2 is applied matrix-free from the network's
    linearization and the cluster masses; it has no factor.
    """

    a1: SymmetricOperator
    a2: SymmetricOperator
    b1: SymmetricOperator
    b2: SymmetricOperator
    factor: np.ndarray        # (C^2 + C, p): the A1, A2 and B1 rows
    stats: ClusterStats
    b2_factor: None = None  # always: B2 is matrix-free

    @property
    def a1_factor(self) -> np.ndarray:
        return self.factor[: self.stats.counts.size]

    @property
    def a2_factor(self) -> np.ndarray:
        C = self.stats.counts.size
        return self.factor[C: 2 * C]

    @property
    def b1_factor(self) -> np.ndarray:
        return self.factor[2 * self.stats.counts.size:]

    def total(self) -> SymmetricOperator:
        """A1 + A2 + B1 + B2, labelled ``a1+a2+b1+b2``."""
        return sum_operator(sum_operator(self.a1, self.a2),
                            sum_operator(self.b1, self.b2))

    def b2c_traces(self) -> np.ndarray:
        """Per-class trace of B2, normalized by the class example count.

        Exact, from sum_{i in c, c'} p_ic' ||v_ic' - mu_cc'||^2
        = sq_norm_sums[c] - sum_c' W_cc' ||mu_cc'||^2, over n_c N.
        """
        st = self.stats
        spread = st.sq_norm_sums - (st.class_prob * st.mean_sq).sum(axis=1)
        spread = np.where(spread > _TRACE_ROUNDOFF * st.sq_norm_sums,
                          spread, 0.0)
        scale = st.counts * float(st.n_total)
        return np.divide(spread, scale, out=np.zeros_like(spread),
                         where=st.counts > 0)


def build_decomposition(lin: Linearization) -> GaussNewtonParts:
    """The four parts of G on ``lin``'s batch, in O(n * width + C^2 p)
    memory: one pass over the true classes, where class c's C cluster
    means come from C summed VJPs over its rows and leave behind only
    their squared norms and class c's factor rows."""
    C = lin.spec.class_count
    p = lin.spec.param_count
    N = lin.n
    counts = np.bincount(lin.labels, minlength=C)
    class_prob = np.zeros((C, C))
    mean_sq = np.zeros((C, C))
    sq_norm_sums = np.zeros(C)
    factor = np.zeros((C * C + C, p))
    eye = np.eye(C)
    for c in range(C):
        if counts[c] == 0:
            continue
        sub = lin.rows(lin.labels == c)
        P = sub.P                                    # (C, n_c)
        W = class_prob[c] = P.sum(axis=1)
        means = np.zeros((C, p))
        for c2 in range(C):
            D = eye[:, c2, None] - P                 # columns e_c' - p_i
            if W[c2] > 0.0:
                means[c2] = sub.vjp(P[c2] * D) / W[c2]
            sq_norm_sums[c] += P[c2] @ sub.vjp_sq_norms(D)
        mean_sq[c] = np.einsum("dp,dp->d", means, means)
        # K_c: with w the off-diagonal mass and mix_c' = W_cc'/w off the
        # diagonal, A1 row sqrt(w/N) mix, A2 row sqrt(W_cc/N) e_c, and the
        # B1 row of c' != c sqrt(W_cc'/N) (e_c' - mix)
        off = eye[c] == 0.0
        w = W[off].sum()
        mix = np.where(off, W, 0.0) / (w or 1.0)
        K = np.vstack([np.sqrt(w / N) * mix, np.sqrt(W[c] / N) * eye[c],
                       np.sqrt(W[off, None] / N) * (eye[off] - mix)])
        b1 = 2 * C + c * (C - 1)                     # class c's first B1 row
        np.matmul(K[0], means, out=factor[c])
        np.matmul(K[1], means, out=factor[C + c])
        np.matmul(K[2:], means, out=factor[b1: b1 + C - 1])
    stats = ClusterStats(class_prob=class_prob, mean_sq=mean_sq,
                         sq_norm_sums=sq_norm_sums, counts=counts, n_total=N)
    members = one_hot(lin.labels, C).T
    b2 = SymmetricOperator(p, lambda v: _b2_matvec(lin, members, stats, v),
                           label="b2")
    return GaussNewtonParts(
        a1=_factor_operator(factor[:C], "a1"),
        a2=_factor_operator(factor[C: 2 * C], "a2"),
        b1=_factor_operator(factor[2 * C:], "b1"),
        b2=b2,
        factor=factor,
        stats=stats,
    )


def identity_residual(g_op: SymmetricOperator, parts: GaussNewtonParts,
                      probes: int = 20, seed: int = 0) -> float:
    """max over probes of ||G v - (A1+A2+B1+B2) v|| / ||G v||.

    A non-finite product raises :class:`NumericalError` naming its
    operator and the probe: a NaN ratio would drop out of the max and
    read as agreement.
    """
    rng = np.random.default_rng(seed)
    total = parts.total()
    worst = 0.0
    for probe in range(1, probes + 1):
        v = rng.standard_normal(g_op.dim)
        gv, tv = g_op.apply(v), total.apply(v)
        for op, out in ((g_op, gv), (total, tv)):
            if not np.isfinite(out).all():
                raise NumericalError(
                    f"operator {op.label or '<anon>'} returned a non-finite "
                    f"vector at identity probe {probe}")
        resid = float(np.linalg.norm(gv - tv))
        worst = max(worst, resid / max(float(np.linalg.norm(gv)), 1e-300))
    return worst


def component_attribution(lin: Linearization, *,
                          steps: int = DEFAULT_LOG_STEPS,
                          grid_points: int = DEFAULT_GRID, n_vec: int = 1,
                          kappa: float = DEFAULT_KAPPA,
                          epsilon: float = DEFAULT_LOG_EPSILON,
                          seed: int = 0) -> dict:
    """The full attribution report: where G's outliers come from.

    Gives the log-magnitude spectrum of G and of G minus each piece (all
    PSD differences, since removing one part leaves a sum of PSD parts),
    the exact eigenvalues of A1 and of A1+A2+B1 from their Gram matrices,
    the per-class B2 traces, and the identity-check residual.

    The densities of G, G - A1, G - A2 and G - B1 are SLQ estimates
    (``"method": "slq"``, with their Ritz sets). G - B2 = A1 + A2 + B1 has
    rank <= C^2, so its density is smoothed from the exact spectrum, the
    A1+A2+B1 eigenvalues plus p - C^2 zeros, on the grid and bump width an
    estimate would use (``"method": "exact"``, no Ritz sets). G and the
    four parts share ``lin``, so no data is forwarded here.
    JSON-serializable; :func:`validate_report` checks its structure.
    """
    p = lin.spec.param_count
    parts = build_decomposition(lin)
    g_op = hessian_operator(lin, which="g")
    # B2 comes from JVPs, VJPs and the cluster means, never from
    # G - (A1+A2+B1), so this compares G with four independent parts
    residual = identity_residual(g_op, parts, probes=20, seed=seed)

    def log_density(op):
        return {**approx_log_spectrum(
            op, steps=min(steps, op.dim), grid_points=grid_points,
            n_vec=n_vec, kappa=kappa, epsilon=epsilon, seed=seed,
        ).to_dict(), "method": "slq"}

    densities = {"g": log_density(g_op)}
    for name in ("a1", "a2", "b1"):
        densities[f"g_minus_{name}"] = log_density(
            difference_operator(g_op, getattr(parts, name)))

    # the stacked factor has C^2 + C rows but rank <= C^2: within each class
    # the b1 rows are weighted deviations from their own mean, so they lose
    # one rank per class; keep only the entries that can be nonzero
    C = lin.spec.class_count
    a1a2b1 = factor_eigenvalues(parts.factor)[: min(C * C, p)]
    densities["g_minus_b2"] = {**exact_log_spectrum(
        a1a2b1, p, steps=min(steps, p), grid_points=grid_points, kappa=kappa,
        epsilon=epsilon,
    ).to_dict(), "method": "exact"}
    report = {
        "schema": REPORT_SCHEMA,
        "class_count": C,
        "n_examples": lin.n,
        "param_count": p,
        "estimator": {
            "steps": steps, "grid_points": grid_points, "n_vec": n_vec,
            "kappa": kappa, "epsilon": epsilon, "seed": seed,
        },
        "identity": {"relative_residual": residual, "probes": 20},
        "b2c_traces": parts.b2c_traces().tolist(),
        "a1_eigenvalues": factor_eigenvalues(parts.a1_factor).tolist(),
        "a1a2b1_eigenvalues": a1a2b1.tolist(),
        "densities": densities,
    }
    return report


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise InputFormatError(f"attribution report invalid: {msg}")


def validate_report(report: dict) -> None:
    """Structural validation of an attribution report (shape, not science)."""
    _expect(isinstance(report, dict), "not an object")
    _expect(report.get("schema") == REPORT_SCHEMA,
            f"schema must be {REPORT_SCHEMA}")
    for key in ("class_count", "n_examples", "param_count"):
        _expect(isinstance(report.get(key), int) and report[key] >= 1,
                f"{key} must be a positive integer")
    est = report.get("estimator")
    _expect(isinstance(est, dict), "estimator must be an object")
    for key in ("steps", "grid_points", "n_vec", "seed"):
        _expect(isinstance(est.get(key), int), f"estimator.{key} must be int")
    for key in ("kappa", "epsilon"):
        _expect(isinstance(est.get(key), (int, float)),
                f"estimator.{key} must be numeric")
    ident = report.get("identity")
    _expect(isinstance(ident, dict)
            and isinstance(ident.get("relative_residual"), float)
            and isinstance(ident.get("probes"), int),
            "identity block malformed")
    C = report["class_count"]
    traces = report.get("b2c_traces")
    _expect(isinstance(traces, list) and len(traces) == C
            and all(isinstance(t, (int, float)) for t in traces),
            "b2c_traces must list one number per class")
    a1 = report.get("a1_eigenvalues")
    _expect(isinstance(a1, list) and len(a1) <= C, "a1_eigenvalues malformed")
    upper = report.get("a1a2b1_eigenvalues")
    _expect(isinstance(upper, list) and len(upper) <= C * C,
            "a1a2b1_eigenvalues malformed")
    dens = report.get("densities")
    expected = {"g", "g_minus_a1", "g_minus_a2", "g_minus_b1", "g_minus_b2"}
    _expect(isinstance(dens, dict) and set(dens) == expected,
            f"densities must have exactly keys {sorted(expected)}")
    for name, d in dens.items():
        _expect(isinstance(d, dict) and d.get("scale") == "log",
                f"density {name} must be a log-scale density dict")
        grid = d.get("grid")
        values = d.get("values")
        _expect(isinstance(grid, list) and isinstance(values, list)
                and len(grid) == len(values) and len(grid) >= 2,
                f"density {name} grid/values malformed")
        method = d.get("method")
        _expect(method in DENSITY_METHODS,
                f"density {name} method must be one of {DENSITY_METHODS}")
        ritz = d.get("ritz")
        _expect(isinstance(ritz, list)
                and (len(ritz) == 0) == (method == "exact"),
                f"density {name}: an slq density lists its Ritz sets, "
                "an exact one none")
