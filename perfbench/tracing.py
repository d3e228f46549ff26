"""Spans around the calls into each specdens layer, recorded from outside.

The package is not instrumented itself: :class:`Tracer` swaps wrappers in
for the public functions of every layer while a traced repetition runs and
puts the originals back afterwards. Several modules bind imported names at
import time (``cli`` holds ``approx_spectrum`` and ``read_matrix``,
``lanczos`` holds ``eig_tridiagonal``, ``decomp`` holds
``approx_log_spectrum`` and ``dense_eig``), so every module global that is
the original function object is replaced, not only the defining one.
``SymmetricOperator.apply`` is patched on the class.

A span is ``[command, name, parent, start, end, value]``: ``parent`` indexes
the span list (-1 for a command's root), and ``value`` carries the one
count a span needs (bytes moved, tridiagonal order, bump count, ...).
Spans stay in memory; :func:`layer_metrics` turns one command set into the
per-layer metrics and the caller writes the spans out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "specdens"

# leaf operator kinds, tagged when the operator is built
OPERATOR_KINDS = ("dense", "hess", "g", "h", "factor")
COMBINATOR = "combinator"


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _payload_size(args, kwargs, result):
    return len(args[1])


def _tridiagonal_order(args, kwargs, result):
    return args[0].order


def _bump_count(args, kwargs, result):
    return len(args[0])


def _breakdown(args, kwargs, result):
    return int(result[1].breakdown)


def _factor_bytes(args, kwargs, result):
    factors = (result.a1_factor, result.a2_factor, result.b1_factor,
               result.b2_factor)
    return sum(f.nbytes for f in factors if f is not None)


# module -> {function name: value hook or None}; every function listed is a
# public entry point of its layer, except decomp._factor_operator, which
# builds the factor-form operators that need tagging.
TRACED = {
    "cli": {"cmd_synth": None, "cmd_spectrum": None, "cmd_train": None,
            "cmd_decompose": None},
    "storage": {"read_matrix": _file_size, "write_matrix": None,
                "build_manifest": None, "sha256_file": _file_size,
                "atomic_write_bytes": _payload_size},
    "rmt": {"sample": None},
    "linalg": {"dense_eig": None, "eig_tridiagonal": _tridiagonal_order},
    "operators": {"dense_operator": None, "affine_operator": None,
                  "deflated_operator": None, "sum_operator": None,
                  "difference_operator": None},
    "lanczos": {"fast_lanczos": _breakdown, "estimate_range": None,
                "accumulate_bumps": _bump_count, "approx_spectrum": None,
                "approx_log_spectrum": None},
    "deflation": {"low_rank_deflation": None},
    "net": {"hvp": None, "gnvp": None, "gradient": None,
            "hessian_operator": None, "save_checkpoint": None,
            "load_checkpoint": None},
    "decomp": {"build_decomposition": _factor_bytes,
               "identity_residual": None, "factor_eigenvalues": None,
               "component_attribution": None, "_factor_operator": None},
    "pipeline": {"train_sgd": None, "gaussian_mixture": None},
}

_CONSTRUCTOR_KIND = {
    "operators.dense_operator": "dense",
    "decomp._factor_operator": "factor",
    "operators.affine_operator": COMBINATOR,
    "operators.deflated_operator": COMBINATOR,
    "operators.sum_operator": COMBINATOR,
    "operators.difference_operator": COMBINATOR,
}

KIND_ATTR = "_perfbench_kind"


class Tracer:
    """Collects spans while :meth:`patched` is in effect; :meth:`command`
    opens the root span of one CLI command."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._command = -1
        self.commands = 0       # ids handed out so far
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._command, name, parent,
                           time.perf_counter(), 0.0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, value_hook):
        kind = _CONSTRUCTOR_KIND.get(name)
        if name == "net.hessian_operator":
            signature = inspect.signature(fn)

            def tag(args, kwargs, op):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                setattr(op, KIND_ATTR, bound.arguments["which"])
        elif kind is not None:
            def tag(args, kwargs, op):
                setattr(op, KIND_ATTR, kind)
        else:
            tag = None

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if value_hook is not None:
                    self.spans[idx][5] = value_hook(args, kwargs, result)
                if tag is not None:
                    tag(args, kwargs, result)
                return result
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_apply(self, apply):
        def traced_apply(op, v):
            kind = getattr(op, KIND_ATTR, "other")
            name = ("operators.combinator" if kind == COMBINATOR
                    else f"operators.matvec.{kind}")
            idx = self._open(name)
            try:
                return apply(op, v)
            finally:
                self.spans[idx][5] = op.dim
                self._close(idx)

        return traced_apply

    def _wrap_total(self, total):
        def traced_total(parts):
            op = total(parts)
            setattr(op, KIND_ATTR, COMBINATOR)
            return op

        return traced_total

    # -- patching ----------------------------------------------------------

    def _patch_attr(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Swap the wrappers in everywhere the originals are bound."""
        wrappers = {}
        for mod_name, functions in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name, hook in functions.items():
                original = module.__dict__[fn_name]
                wrappers[id(original)] = self._wrap(
                    f"{mod_name}.{fn_name}", original, hook)
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(module.__dict__.items()):
                if id(value) in wrappers and callable(value):
                    self._patch_attr(module, attr, wrappers[id(value)])
        operators = importlib.import_module(f"{PACKAGE}.operators")
        decomp = importlib.import_module(f"{PACKAGE}.decomp")
        cls = operators.SymmetricOperator
        self._patch_attr(cls, "apply", self._wrap_apply(cls.apply))
        parts = decomp.GaussNewtonParts
        self._patch_attr(parts, "total", self._wrap_total(parts.total))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def patched(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def command(self, label: str):
        """Root span of one CLI command; the spans inside share its id."""
        self._command = self.commands
        self.commands += 1
        idx = self._open(f"command.{label}")
        try:
            yield
        finally:
            self._close(idx)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

# (metric name, unit, better); values are summed over one repetition's
# commands. "s" is inclusive time, "self_s" excludes nested traced spans.
PER_LAYER = [
    *[(f"cli.{c}.self_s", "s", "lower")
      for c in ("synth", "spectrum", "train", "decompose")],
    ("storage.read_matrix.s", "s", "lower"),
    ("storage.write_matrix.s", "s", "lower"),
    ("storage.build_manifest.s", "s", "lower"),
    ("storage.atomic_write.s", "s", "lower"),
    ("storage.bytes_read", "B", "lower"),
    ("storage.bytes_written", "B", "lower"),
    ("rmt.sample.s", "s", "lower"),
    ("linalg.dense_eig.s", "s", "lower"),
    ("linalg.eig_tridiagonal.s", "s", "lower"),
    ("linalg.eig_tridiagonal.calls", "count", "lower"),
    ("linalg.eig_tridiagonal.order_sum", "count", "lower"),
    *[(f"operators.matvec.{k}.{m}", u, "lower")
      for k in OPERATOR_KINDS for m, u in (("calls", "count"), ("self_s", "s"))],
    ("operators.combinator.self_s", "s", "lower"),
    ("operators.dense.gbs_computed", "GB/s", "higher"),
    ("lanczos.fast_lanczos.calls", "count", "lower"),
    ("lanczos.recurrence.self_s", "s", "lower"),
    ("lanczos.estimate_range.s", "s", "lower"),
    ("lanczos.accumulate_bumps.s", "s", "lower"),
    ("lanczos.bumps", "count", "lower"),
    ("lanczos.breakdowns", "count", "lower"),
    ("deflation.low_rank_deflation.s", "s", "lower"),
    ("deflation.matvecs", "count", "lower"),
    ("deflation.max_residual", "norm", "lower"),
    *[(f"net.{f}.{m}", u, "lower")
      for f in ("hvp", "gnvp", "gradient")
      for m, u in (("calls", "count"), ("s", "s"))],
    ("net.checkpoint_io.s", "s", "lower"),
    ("decomp.build_decomposition.s", "s", "lower"),
    ("decomp.factor_mb_computed", "MB", "lower"),
    ("decomp.log_densities.s", "s", "lower"),
    ("decomp.identity_residual.s", "s", "lower"),
    ("decomp.factor_eigenvalues.s", "s", "lower"),
    ("pipeline.train_sgd.s", "s", "lower"),
    ("pipeline.gaussian_mixture.s", "s", "lower"),
]

# inclusive-time metrics read straight off one span name
_INCLUSIVE = {
    "storage.read_matrix.s": ("storage.read_matrix",),
    "storage.write_matrix.s": ("storage.write_matrix",),
    "storage.build_manifest.s": ("storage.build_manifest",),
    "storage.atomic_write.s": ("storage.atomic_write_bytes",),
    "rmt.sample.s": ("rmt.sample",),
    "linalg.dense_eig.s": ("linalg.dense_eig",),
    "linalg.eig_tridiagonal.s": ("linalg.eig_tridiagonal",),
    "lanczos.estimate_range.s": ("lanczos.estimate_range",),
    "lanczos.accumulate_bumps.s": ("lanczos.accumulate_bumps",),
    "deflation.low_rank_deflation.s": ("deflation.low_rank_deflation",),
    "net.hvp.s": ("net.hvp",),
    "net.gnvp.s": ("net.gnvp",),
    "net.gradient.s": ("net.gradient",),
    "net.checkpoint_io.s": ("net.save_checkpoint", "net.load_checkpoint"),
    "decomp.build_decomposition.s": ("decomp.build_decomposition",),
    "decomp.identity_residual.s": ("decomp.identity_residual",),
    "decomp.factor_eigenvalues.s": ("decomp.factor_eigenvalues",),
    "pipeline.train_sgd.s": ("pipeline.train_sgd",),
    "pipeline.gaussian_mixture.s": ("pipeline.gaussian_mixture",),
}


def _is_apply(name: str) -> bool:
    return name.startswith(("operators.matvec.", "operators.combinator"))


def layer_metrics(spans: list[list], commands: set[int]) -> dict[str, float]:
    """Per-layer metrics of the spans whose command id is in ``commands``.

    Expects the ``deflation.max_residual`` entry to be filled in by the
    caller from the run's output files; it is reported as 0 here.
    """
    picked = {i for i, s in enumerate(spans) if s[0] in commands}
    child_time = defaultdict(float)
    for i in picked:
        parent = spans[i][2]
        if parent >= 0:
            child_time[parent] += spans[i][4] - spans[i][3]

    def ancestors(i):
        parent = spans[i][2]
        while parent >= 0:
            yield spans[parent][1]
            parent = spans[parent][2]

    total = defaultdict(float)   # inclusive time, outermost span of a name
    self_s = defaultdict(float)
    calls = defaultdict(int)
    value = defaultdict(float)
    log_densities_s = 0.0
    deflation_matvecs = 0
    dense_bytes = 0.0
    for i in picked:
        _, name, parent, start, end, v = spans[i]
        dur = end - start
        above = set(ancestors(i))
        calls[name] += 1
        value[name] += v
        self_s[name] += dur - child_time[i]
        if name not in above:
            total[name] += dur
        if name == "lanczos.approx_log_spectrum" and \
                "decomp.component_attribution" in above:
            log_densities_s += dur
        if _is_apply(name) and "deflation.low_rank_deflation" in above \
                and not _is_apply(spans[parent][1]):
            deflation_matvecs += 1
        if name == "operators.matvec.dense":
            dense_bytes += 8.0 * v * v

    out = {}
    for c in ("synth", "spectrum", "train", "decompose"):
        # argument parsing happens in cli.main, under the command's root span
        out[f"cli.{c}.self_s"] = self_s[f"cli.cmd_{c}"] + self_s[f"command.{c}"]
    for metric, names in _INCLUSIVE.items():
        out[metric] = sum(total[n] for n in names)
    out["storage.bytes_read"] = value["storage.read_matrix"] + \
        value["storage.sha256_file"]
    out["storage.bytes_written"] = value["storage.atomic_write_bytes"]
    out["linalg.eig_tridiagonal.calls"] = calls["linalg.eig_tridiagonal"]
    out["linalg.eig_tridiagonal.order_sum"] = value["linalg.eig_tridiagonal"]
    for kind in OPERATOR_KINDS:
        out[f"operators.matvec.{kind}.calls"] = calls[f"operators.matvec.{kind}"]
        out[f"operators.matvec.{kind}.self_s"] = self_s[f"operators.matvec.{kind}"]
    out["operators.combinator.self_s"] = self_s["operators.combinator"]
    dense_s = self_s["operators.matvec.dense"]
    out["operators.dense.gbs_computed"] = (
        dense_bytes / dense_s / 1e9 if dense_s > 0 else 0.0)
    out["lanczos.fast_lanczos.calls"] = calls["lanczos.fast_lanczos"]
    out["lanczos.recurrence.self_s"] = self_s["lanczos.fast_lanczos"]
    out["lanczos.bumps"] = value["lanczos.accumulate_bumps"]
    out["lanczos.breakdowns"] = value["lanczos.fast_lanczos"]
    out["deflation.matvecs"] = deflation_matvecs
    out["deflation.max_residual"] = 0.0
    for f in ("hvp", "gnvp", "gradient"):
        out[f"net.{f}.calls"] = calls[f"net.{f}"]
    out["decomp.factor_mb_computed"] = value["decomp.build_decomposition"] / 1e6
    out["decomp.log_densities.s"] = log_densities_s
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
