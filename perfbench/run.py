#!/usr/bin/env python3
"""specdens benchmark: the four CLI commands, driven in-process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

One closed-loop client in one process calls ``specdens.cli.main(argv)`` for
each command of a repetition, one command at a time, and starts the next
repetition when the last one has finished, until ``--seconds`` of timed
repetitions have run (by default ``run_seconds`` of BENCHMARK.json);
repetition 1 is an untimed warm-up. Inputs come from ``--seed`` only. Every
output file (manifest sidecars aside, since they carry wall time) must be
byte-identical to repetition 1, and the last repetition's outputs must pass
the workload's correctness gates; any other outcome counts as a failed
operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions, prints the per-layer metrics of the traced
ones and the tracing overhead, and is correct only if every per-layer metric
that the layer map of ``baseline.json`` lists for the workload is non-zero.
``--workload all`` runs every workload in a fresh interpreter so that no
peak memory leaks from one into another. The last line of standard output is
one JSON object: correct, attempted, failed and metrics. A record with the
environment, every sample and every gate goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 11
SETUP_SAMPLES = 15          # fresh interpreters timed for setup_s

# name -> unit; reported with --trace 0, all lower-is-better
END_TO_END = {
    "setup_s": "s",
    "spectrum_s": "s",
    "repetition_s": "s",
    "peak_rss_mb": "MB",
    "density_tv": "tv",
}
COMMANDS = ("synth", "spectrum", "train", "decompose")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up in a scratch directory, "
                             "print the monotonic clock and exit (one "
                             "setup_s sample)")
    return parser


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_libraries() -> dict:
    """Version string and thread count of each bundled OpenBLAS."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs_dir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            info = {}
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}",
                                     None)
                get_threads = getattr(
                    lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info = {"config": get_config().decode(),
                            "threads": get_threads()}
                    break
            out[f"{pkg.__name__}:{Path(path).name}"] = info
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "machine": platform.machine(),
    }


def warm_up_blas() -> None:
    """The first BLAS call in a process costs tens of milliseconds."""
    import numpy as np

    a = np.ones((256, 256))
    (a @ a).sum()


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(samples: list[float]):
    """(q, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def describe(samples: list[float]) -> dict:
    out = {"median": statistics.median(samples), "n": len(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

def digest_outputs(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


def run_command(command, cli_main, span=contextlib.nullcontext) -> dict:
    shutil.rmtree(command.out_dir, ignore_errors=True)
    error = None
    start = time.perf_counter()
    try:
        with span(command.label):
            rc = cli_main(command.argv)
    except Exception:  # noqa: BLE001 - a crash is a failed operation
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"label": command.label, "seconds": seconds, "rc": rc,
            "error": error, "outputs": digest_outputs(command.out_dir)}


def sample_setup(workload: str, seed: int) -> float:
    """Interpreter start to ready, in a fresh interpreter."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


class Run:
    """The repetitions of one run and the verdicts on them."""

    def __init__(self, tracer):
        self.reps = []          # {"traced": bool, "commands": [results]}
        self.tracer = tracer
        self.traced_ids = []    # tracer command ids of each traced repetition
        self.measured = 0.0
        self.peak_rss_mb = 0.0
        self.check = None
        self.check_error = None
        self.attempted = 0
        self.failed = 0

    def timed(self, traced: bool = False) -> list[dict]:
        """Repetitions that count towards the timings: all but the first."""
        return [r for r in self.reps[1:] if r["traced"] == traced]

    def times(self, label: str, traced: bool = False) -> list[float]:
        return [c["seconds"] for r in self.timed(traced)
                for c in r["commands"] if c["label"] == label]

    def repetition_times(self) -> list[float]:
        return [sum(c["seconds"] for c in r["commands"]) for r in self.timed()]


def measure(workload, seconds: float, trace: bool, between=None) -> Run:
    """Closed loop: repetitions back to back until ``seconds`` have run.

    Repetition 1 is a warm-up: it is checked like the others, and is the
    reference their outputs must match, but its times are left out. On the
    mlp workload the allocator state that the first decompose leaves behind
    makes later spectrum calls about a third faster, so repetition 1 would
    otherwise be an outlier. With ``trace`` the timed repetitions alternate
    traced and untraced, starting with a traced one. ``between()`` runs
    before each repetition, outside the measured time.
    """
    from specdens import cli
    import tracing

    run = Run(tracing.Tracer() if trace else None)
    # repeat while one more repetition ends the run nearer to ``seconds``
    while (len(run.reps) < (3 if trace else 2)
           or run.measured * (1 + 0.5 / (len(run.reps) - 1)) < seconds):
        if between is not None:
            between()
        traced = trace and len(run.reps) % 2 == 1
        start = time.perf_counter()
        results = []
        for command in workload.commands():
            if traced:
                with run.tracer.patched():
                    results.append(run_command(command, cli.main,
                                               run.tracer.command))
            else:
                results.append(run_command(command, cli.main))
        if run.reps:
            run.measured += time.perf_counter() - start
        run.reps.append({"traced": traced, "commands": results})
        if traced:
            count = len(results)
            run.traced_ids.append(set(range(run.tracer.commands - count,
                                            run.tracer.commands)))
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def judge(workload, run: Run) -> None:
    """Count failed operations: a nonzero exit, an exception, outputs that
    differ from repetition 1, or a gate failed by the command's outputs."""
    try:
        run.check = workload.check()
        gate_failed = run.check.failed_commands()
    except Exception:  # noqa: BLE001 - a crashed check fails every command
        run.check_error = traceback.format_exc()
        gate_failed = {c["label"] for c in run.reps[0]["commands"]}
    reference = {c["label"]: c["outputs"] for c in run.reps[0]["commands"]}
    for rep in run.reps:
        for c in rep["commands"]:
            c["ok"] = bool(c["rc"] == 0 and c["error"] is None and c["outputs"]
                           and c["outputs"] == reference[c["label"]]
                           and c["label"] not in gate_failed)
            run.attempted += 1
            run.failed += not c["ok"]


def zero_layers(name: str, table: dict[str, float]) -> list[str]:
    """Per-layer metrics the layer map expects on ``name`` that read 0."""
    layers = json.loads(
        Path(__file__).with_name("baseline.json").read_text())["layers"]
    return [m for entry in layers if name in entry["workloads"]
            for m in entry["metrics"] if not table[m] > 0]


def layer_table(run: Run) -> dict[str, float]:
    """Median over the traced repetitions of each per-layer metric."""
    import tracing

    per_rep = [tracing.layer_metrics(run.tracer.spans, ids)
               for ids in run.traced_ids]
    residual = 0.0
    if run.check is not None:
        residual = run.check.diagnostics.get("deflation_max_residual", 0.0)
    for metrics in per_rep:
        metrics["deflation.max_residual"] = residual
    return {name: statistics.median(m[name] for m in per_rep)
            for name, _, _ in tracing.PER_LAYER}


def tracing_overhead(run: Run) -> dict:
    out = {}
    for label in [c["label"] for c in run.reps[0]["commands"]]:
        plain = statistics.median(run.times(label))
        traced = statistics.median(run.times(label, traced=True))
        out[label] = {"untraced_s": plain, "traced_s": traced,
                      "overhead": traced / plain - 1.0}
    return out


def print_report(record: dict, run: Run) -> None:
    env = record["environment"]
    print(f"# workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} repetitions={len(run.reps)} "
          f"(the first untimed) measured={run.measured:.1f}s")
    print(f"# env: cores={env['cores']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    for lib, info in env["openblas"].items():
        print(f"# env: {lib} {info.get('config', '?')} "
              f"threads={info.get('threads', '?')}")
    units = {**END_TO_END, **{f"{c}_s": "s" for c in COMMANDS},
             "error_rate": "ratio"}
    print(f"{'metric':<16}{'median':>14} {'unit':<6}{'n':>5}  tail")
    for metric, d in record["end_to_end"].items():
        tail = next((f"{k}={v:.6g}" for k, v in d.items() if k[0] == "p"),
                    "-")
        print(f"{metric:<16}{d['median']:>14.6g} {units[metric]:<6}"
              f"{d['n']:>5}  {tail}")
    print(f"# operations: {run.failed} failed of {run.attempted} attempted")
    for command, gate, ok, detail in record["gates"]:
        print(f"# gate {command}.{gate}: {'PASS' if ok else 'FAIL'} {detail}")
    if run.check_error is not None:
        print("# check raised:\n" + run.check_error)
    for rep_i, rep in enumerate(run.reps, 1):
        for c in rep["commands"]:
            if c["ok"]:
                continue
            if c["error"]:
                why = c["error"]
            elif c["rc"] != 0:
                why = f"exit {c['rc']}"
            else:
                why = "outputs differ from repetition 1, or a gate failed"
            print(f"# failed: repetition {rep_i} {c['label']}: {why}")
    for key, value in record["diagnostics"].items():
        print(f"# diagnostic {key}: {value:.6g}")
    for label, o in record.get("tracing_overhead", {}).items():
        print(f"# traced {label}: {o['traced_s']:.4f}s vs untraced "
              f"{o['untraced_s']:.4f}s ({100 * o['overhead']:+.1f}%)")
    if "per_layer" in record:
        import tracing

        for metric, unit, _ in tracing.PER_LAYER:
            print(f"{metric:<40}{record['per_layer'][metric]:>14.6g} {unit}")
        for metric in record["zero_layers"]:
            print(f"# failed: {metric} reads 0 where the layer map expects "
                  f"work")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    warm_up_blas()
    workload.setup(work, seed)
    setup_samples = []

    def sample_setup_once():
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(sample_setup(name, seed))

    # setup_s samples are spread over the run, between repetitions, so that
    # they see the same machine as the timed commands
    run = measure(workload, seconds, trace, between=sample_setup_once)
    while len(setup_samples) < SETUP_SAMPLES:
        sample_setup_once()
    judge(workload, run)
    check = run.check

    end_to_end = {
        "setup_s": describe(setup_samples),
        "repetition_s": describe(run.repetition_times()),
        "peak_rss_mb": {"median": run.peak_rss_mb, "n": 1},
    }
    for label in COMMANDS:
        if run.times(label):
            end_to_end[f"{label}_s"] = describe(run.times(label))
    if check is not None and check.density_tv is not None:
        end_to_end["density_tv"] = {"median": check.density_tv, "n": 1}
    end_to_end["error_rate"] = {"median": run.failed / run.attempted,
                                "n": run.attempted}
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(),
        "end_to_end": end_to_end, "setup_samples": setup_samples,
        "repetitions": run.reps, "attempted": run.attempted,
        "failed": run.failed,
        "gates": check.gates if check is not None else [],
        "check_error": run.check_error,
        "diagnostics": check.diagnostics if check is not None else {},
    }
    if trace:
        record["tracing_overhead"] = tracing_overhead(run)
        record["per_layer"] = layer_table(run)
        record["zero_layers"] = zero_layers(name, record["per_layer"])
        units = {m: unit for m, unit, _ in tracing.PER_LAYER}
        metrics = {m: {"value": v, "unit": units[m]}
                   for m, v in record["per_layer"].items()}
    else:
        metrics = {m: {"value": end_to_end[m]["median"], "unit": unit}
                   for m, unit in END_TO_END.items() if m in end_to_end}
    print_report(record, run)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["command", "name", "parent", "start", "end", "value"],
             "spans": run.tracer.spans}) + "\n")

    expected = ({m for m, _, _ in tracing.PER_LAYER} if trace
                else set(END_TO_END))
    correct = (run.failed == 0 and set(metrics) == expected
               and not record.get("zero_layers"))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter, then one combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            return _fail(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if "SPECDENS_WORKERS" in os.environ:
        return _fail("SPECDENS_WORKERS is set; it selects the thread-pool "
                     "route, which this benchmark does not measure. Unset it.")
    if not (SRC / "specdens" / "__init__.py").is_file():
        return _fail(f"no specdens sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specdens
    from workloads import WORKLOADS

    if Path(specdens.__file__).resolve().parent != SRC / "specdens":
        return _fail(f"imported specdens from {specdens.__file__}, "
                     f"not from {SRC}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; pick from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.setup_only:
        probe = WORK / f"{args.workload}-setup-{os.getpid()}"
        try:
            warm_up_blas()
            WORKLOADS[args.workload]().setup(probe, args.seed)
            print(time.monotonic())
        finally:
            shutil.rmtree(probe, ignore_errors=True)
        return 0
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
