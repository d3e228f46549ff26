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

No per-example vector is ever formed. The cluster masses are sums of
softmax probabilities and the C^2 cluster means come from class-restricted
summed VJPs, so A1, A2 and B1 are factor-form operators whose eigenvalues
come from small Gram matrices. B2 stays matrix-free: one B2 matvec is one
JVP, one VJP and a C^2 correction from the means, and its per-class traces
come from per-example squared norms. Memory is O(n * width + C^2 * p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import one_hot
from .errors import InputFormatError
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
    ``class_mean[c, c']`` the weighted mean mu_cc' of their class-c' vectors,
    and ``sq_norm_sums[c]`` the weighted sum of those vectors' squared
    norms. ``off_prob`` / ``off_mean`` aggregate the off-diagonal (c' != c)
    part.
    """

    class_prob: np.ndarray    # (C, C)
    class_mean: np.ndarray    # (C, C, p)
    off_prob: np.ndarray      # (C,)
    off_mean: np.ndarray      # (C, p)
    sq_norm_sums: np.ndarray  # (C,)
    counts: np.ndarray        # (C,) examples per true class
    n_total: int


def cluster_statistics(lin: Linearization) -> ClusterStats:
    """Masses, means and weighted squared norms of every (true class c,
    class c') cluster, from 2 C^2 backward passes over class-c rows."""
    C = lin.spec.class_count
    p = lin.spec.param_count
    class_prob = np.zeros((C, C))
    class_mean = np.zeros((C, C, p))
    sq_norm_sums = np.zeros(C)
    counts = np.bincount(lin.labels, minlength=C)
    eye = np.eye(C)
    for c in range(C):
        if counts[c] == 0:
            continue
        sub = lin.rows(lin.labels == c)
        P = sub.P                                    # (C, n_c)
        class_prob[c] = P.sum(axis=1)
        for c2 in range(C):
            D = eye[:, c2, None] - P                 # columns e_c' - p_i
            w = P[c2]
            if class_prob[c, c2] > 0.0:
                class_mean[c, c2] = sub.vjp(w * D) / class_prob[c, c2]
            sq_norm_sums[c] += w @ sub.vjp_sq_norms(D)
    off = ~np.eye(C, dtype=bool)
    off_prob = np.where(off, class_prob, 0.0).sum(axis=1)
    off_mean = np.zeros((C, p))
    for c in range(C):
        if off_prob[c] > 0.0:
            weights = np.where(off[c], class_prob[c], 0.0)
            off_mean[c] = (weights[:, None] * class_mean[c]).sum(axis=0) / off_prob[c]
    return ClusterStats(
        class_prob=class_prob,
        class_mean=class_mean,
        off_prob=off_prob,
        off_mean=off_mean,
        sq_norm_sums=sq_norm_sums,
        counts=counts,
        n_total=lin.n,
    )


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
    and every (C, n) array holds one column per example."""
    C = members.shape[0]
    P = lin.P
    u = lin.jvp(v)                                   # (C, n): J_i v
    mean_dots = stats.class_mean @ v                 # (C, C): <mu_cc', v>
    coef = (P / stats.n_total) * (
        u - np.sum(P * u, axis=0) - mean_dots.T @ members)
    pulled = lin.vjp(coef - P * coef.sum(axis=0))
    cluster_coef = members @ coef.T                  # (C, C): sum_{i in c} c_ic'
    return pulled - cluster_coef.ravel() @ stats.class_mean.reshape(C * C, -1)


@dataclass(frozen=True)
class GaussNewtonParts:
    """The four decomposition pieces as operators, plus the factors of the
    low-rank three.

    A1, A2 and B1 are F^T F for a factor F, so PSD-ness and the rank
    bounds are structural. B2 is applied matrix-free from the network's
    linearization and the cluster means; it has no factor.
    """

    a1: SymmetricOperator
    a2: SymmetricOperator
    b1: SymmetricOperator
    b2: SymmetricOperator
    a1_factor: np.ndarray
    a2_factor: np.ndarray
    b1_factor: np.ndarray
    stats: ClusterStats
    b2_factor: None = None  # always: B2 is matrix-free

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
        mean_sq = np.einsum("cdp,cdp->cd", st.class_mean, st.class_mean)
        spread = st.sq_norm_sums - (st.class_prob * mean_sq).sum(axis=1)
        spread = np.where(spread > _TRACE_ROUNDOFF * st.sq_norm_sums,
                          spread, 0.0)
        scale = st.counts * float(st.n_total)
        return np.divide(spread, scale, out=np.zeros_like(spread),
                         where=st.counts > 0)


def build_decomposition(lin: Linearization) -> GaussNewtonParts:
    """The four parts of G on ``lin``'s batch, in O(n * width + C^2 p)
    memory."""
    stats = cluster_statistics(lin)
    C = lin.spec.class_count
    p = lin.spec.param_count
    N = stats.n_total

    a1_factor = np.sqrt(stats.off_prob / N)[:, None] * stats.off_mean
    diag_prob = np.diagonal(stats.class_prob)
    diag_mean = stats.class_mean[np.arange(C), np.arange(C)]
    a2_factor = np.sqrt(diag_prob / N)[:, None] * diag_mean

    b1_rows = []
    for c in range(C):
        for c2 in range(C):
            if c2 == c:
                continue
            w = stats.class_prob[c, c2]
            b1_rows.append(
                np.sqrt(w / N) * (stats.class_mean[c, c2] - stats.off_mean[c])
            )
    b1_factor = np.array(b1_rows) if b1_rows else np.empty((0, p))

    members = one_hot(lin.labels, C).T
    b2 = SymmetricOperator(p, lambda v: _b2_matvec(lin, members, stats, v),
                           label="b2")
    return GaussNewtonParts(
        a1=_factor_operator(a1_factor, "a1"),
        a2=_factor_operator(a2_factor, "a2"),
        b1=_factor_operator(b1_factor, "b1"),
        b2=b2,
        a1_factor=a1_factor,
        a2_factor=a2_factor,
        b1_factor=b1_factor,
        stats=stats,
    )


def identity_residual(g_op: SymmetricOperator, parts: GaussNewtonParts,
                      probes: int = 20, seed: int = 0) -> float:
    """max over probes of ||G v - (A1+A2+B1+B2) v|| / ||G v||."""
    rng = np.random.default_rng(seed)
    total = parts.total()
    worst = 0.0
    for _ in range(probes):
        v = rng.standard_normal(g_op.dim)
        gv = g_op.apply(v)
        resid = float(np.linalg.norm(gv - total.apply(v)))
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
    a1a2b1 = factor_eigenvalues(np.vstack(
        [parts.a1_factor, parts.a2_factor, parts.b1_factor]))[: min(C * C, p)]
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
