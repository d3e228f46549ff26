"""Batch command-line surface: synth, spectrum, decompose, train.

Every command writes its outputs atomically into ``--out-dir`` plus a
manifest sidecar. The manifest id — a digest of the command, its
parameters, and the input file digests — is embedded in each CSV/JSON
output, so reruns are byte-identical and any output traces back to the
run that produced it. Wall time lives only in the sidecar.

Exit codes: 0 success; 2 usage or configuration (bad flags, unknown
config keys, unknown ensemble kind, missing input files); 3 malformed
input (bad magic, truncation, checkpoint/dataset mismatch); 4 numerical
failure (degenerate spectrum, non-convergence, non-finite operator output,
training divergence).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import LabeledDataset
from .decomp import component_attribution
from .deflation import low_rank_deflation
from .errors import (
    DimensionMismatchError,
    InputFormatError,
    NumericalError,
    UsageError,
)
from .lanczos import (
    DEFAULT_GRID,
    DEFAULT_KAPPA,
    DEFAULT_LOG_EPSILON,
    DEFAULT_LOG_STEPS,
    DEFAULT_STEPS,
    SpectralDensity,
    approx_log_spectrum,
    approx_spectrum,
    check_estimator,
)
from .linalg import DENSE_SIZE_CAP, dense_eig
from .net import (
    MlpSpec,
    hessian_operator,
    linearize,
    load_checkpoint,
    save_checkpoint,
)
from .operators import dense_operator
from .pipeline import (
    METRICS_COLUMNS,
    GmmSpec,
    IdxSpec,
    TrainConfig,
    _strict_from_dict,
    gaussian_mixture,
    load_idx,
    train_sgd,
)
from .rmt import EnsembleSpec, default_ensemble, sample
from .storage import (
    atomic_write_text,
    build_manifest,
    csv_text,
    read_matrix,
    write_manifest,
    write_matrix,
)

DENSITY_CSV_SCHEMA = "density-csv/v1"
ORACLE_CSV_SCHEMA = "oracle-spectrum-csv/v1"
METRICS_CSV_SCHEMA = "metrics-csv/v1"
DENSITY_JSON_SCHEMA = "density-report/v1"
TOP_JSON_SCHEMA = "top-spectrum/v2"


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _load_json(path, what: str) -> dict:
    raw = _require_file(path, what).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise InputFormatError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: {what} must be a JSON object")
    return doc


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as err:
        raise UsageError(f"--out-dir {out} cannot be created: "
                         f"{err.strerror}") from err
    return out


# ---------------------------------------------------------------------------
# dataset configs: {"kind": "gmm", ...} or {"kind": "idx", ...}
# ---------------------------------------------------------------------------

def _datasets(cfg: dict) -> tuple[LabeledDataset, LabeledDataset, list]:
    """The train and test sets a data config describes, and its input
    files. An idx config names one set, which serves as both; a gmm
    config's ``split`` picks the set a curvature command reads."""
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind == "gmm":
        split = cfg.pop("split", "train")
        if split not in ("train", "test"):
            raise UsageError(f"gmm split must be 'train' or 'test', got {split!r}")
        train, test = gaussian_mixture(GmmSpec.from_dict(cfg))
        return train, test, []
    if kind == "idx":
        spec = _strict_from_dict(IdxSpec, cfg, "idx data config")
        images = _require_file(spec.images, "images file")
        labels = _require_file(spec.labels, "labels file")
        data = load_idx(images, labels, limit_per_class=spec.limit_per_class)
        return data, data, [images, labels]
    raise UsageError(f"unknown data kind {kind!r}; pick 'gmm' or 'idx'")


def _curvature_inputs(args) -> tuple:
    """Load ``--checkpoint`` and the set ``--data`` names, check that the set
    fits the network, and linearize the network on it once; return the
    linearization, the manifest params and the input files."""
    ck_path = _require_file(args.checkpoint, "checkpoint")
    ck = load_checkpoint(ck_path)
    data_path = _require_file(args.data, "data config")
    data_cfg = _load_json(data_path, "data config")
    train, test, data_files = _datasets(data_cfg)
    data = test if data_cfg.get("split") == "test" else train
    if data.input_dim != ck.spec.input_dim:
        raise DimensionMismatchError(f"data dim {data.input_dim} != network "
                                     f"input dim {ck.spec.input_dim}")
    if data.class_count != ck.spec.class_count:
        raise DimensionMismatchError(f"data classes {data.class_count} != "
                                     f"network classes {ck.spec.class_count}")
    params = {"checkpoint": str(ck_path), "data": data_cfg, "epoch": ck.epoch}
    return (linearize(ck.spec, ck.theta, data), params,
            [ck_path, data_path, *data_files])


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _parse_spikes(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise UsageError(f"spikes must be comma-separated numbers, got {text!r}")


def cmd_synth(args) -> int:
    start = time.monotonic()
    ens = default_ensemble(args.kind, seed=args.seed)
    overrides = {}
    if args.p is not None:
        overrides["p"] = args.p
    if args.n is not None:
        overrides["n"] = args.n
    if args.spikes is not None:
        overrides["spikes"] = _parse_spikes(args.spikes)
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if overrides:
        ens = dataclasses.replace(ens, **overrides)

    # a small alpha overflows the Pareto powers: refuse the sample as a whole
    with np.errstate(over="ignore", invalid="ignore"):
        Y = sample(ens)
    # max and min propagate NaN and expose +-inf without a temporary
    if not (np.isfinite(Y.max()) and np.isfinite(Y.min())):
        raise NumericalError(f"the {ens.kind} sample has non-finite entries: "
                             "its values overflow float64")

    out = _out_dir(args)
    manifest = build_manifest(
        "synth",
        {
            "kind": ens.kind, "p": ens.p, "n": ens.n,
            "spikes": list(ens.spikes), "alpha": ens.alpha, "seed": ens.seed,
        },
    )

    matrix_path = out / "matrix.spdm"
    write_matrix(matrix_path, Y)
    outputs = [matrix_path]

    if ens.p <= DENSE_SIZE_CAP:
        values = dense_eig(Y)
        oracle_path = out / "oracle_spectrum.csv"
        rows = [(i, float(v)) for i, v in enumerate(values)]
        atomic_write_text(oracle_path, csv_text(
            ("index", "eigenvalue"), rows, manifest["id"], ORACLE_CSV_SCHEMA))
        outputs.append(oracle_path)

    write_manifest(out / "synth.manifest.json", manifest,
                   wall_time_s=time.monotonic() - start, outputs=outputs)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _spectrum_operator(args) -> tuple:
    """Resolve the operator plus (manifest params, input files)."""
    if args.matrix is not None and args.checkpoint is not None:
        raise UsageError("give either --matrix or --checkpoint, not both")
    if args.matrix is not None:
        path = _require_file(args.matrix, "matrix file")
        op = dense_operator(read_matrix(path), label=f"matrix:{path.name}")
        return op, {"matrix": str(path)}, [path]
    if args.checkpoint is None:
        raise UsageError("need an input: --matrix FILE, or --checkpoint with --data")
    if args.data is None:
        raise UsageError("--checkpoint needs --data pointing at a dataset config")
    lin, params, inputs = _curvature_inputs(args)
    op = hessian_operator(lin, which=args.which)
    return op, {**params, "which": args.which}, inputs


def _density_rows(density: SpectralDensity) -> list:
    return [(float(g), float(v)) for g, v in zip(density.grid, density.values)]


def cmd_spectrum(args) -> int:
    start = time.monotonic()
    steps = args.steps
    if steps is None:
        steps = DEFAULT_LOG_STEPS if args.log else DEFAULT_STEPS
    check_estimator(steps, args.grid_points, args.n_vec, args.kappa,
                    args.epsilon)
    if args.deflate is not None and args.deflate < 1:
        raise UsageError("--deflate takes a positive count")
    op, in_params, inputs = _spectrum_operator(args)
    if args.deflate is not None and args.deflate >= op.dim:
        raise UsageError(f"--deflate takes 1 to p - 1 = {op.dim - 1}, "
                         f"got {args.deflate}")
    # a linear density gains nothing from more steps than p; a log one is
    # not clamped: its bulk occupies a sliver of the linear range, and only
    # the nodes of iterations past p resolve it
    run_steps = steps if args.log else min(steps, op.dim)
    if run_steps < 2:
        raise UsageError(f"--steps is clamped to the operator dimension "
                         f"{op.dim}; a linear density needs at least 2")

    est_params = {
        "steps": steps, "grid_points": args.grid_points, "n_vec": args.n_vec,
        "kappa": args.kappa, "seed": args.seed, "log": bool(args.log),
        "deflate": args.deflate, "epsilon": args.epsilon if args.log else None,
    }
    out = _out_dir(args)
    manifest = build_manifest("spectrum", {**in_params, **est_params},
                              inputs=inputs)

    top = None
    if args.deflate is not None:
        top, op = low_rank_deflation(op, args.deflate, seed=args.seed)

    if args.log:
        density = approx_log_spectrum(
            op, steps=steps, grid_points=args.grid_points, n_vec=args.n_vec,
            kappa=args.kappa, epsilon=args.epsilon, seed=args.seed)
    else:
        density = approx_spectrum(
            op, steps=run_steps, grid_points=args.grid_points, n_vec=args.n_vec,
            kappa=args.kappa, seed=args.seed)

    csv_path = out / "density.csv"
    atomic_write_text(csv_path, csv_text(
        ("grid_value", "density"), _density_rows(density),
        manifest["id"], DENSITY_CSV_SCHEMA))
    json_path = out / "density.json"
    report = {
        "schema": DENSITY_JSON_SCHEMA,
        "manifest": manifest["id"],
        "operator": op.label,
        "mass": density.mass(),
        "density": density.to_dict(),
    }
    atomic_write_text(json_path, json.dumps(report, indent=2) + "\n")
    outputs = [csv_path, json_path]

    if top is not None:
        top_path = out / "top_spectrum.json"
        atomic_write_text(top_path, json.dumps({
            "schema": TOP_JSON_SCHEMA,
            "manifest": manifest["id"],
            "count": top.count,
            **top.to_dict(),
        }, indent=2) + "\n")
        outputs.append(top_path)

    write_manifest(out / "spectrum.manifest.json", manifest,
                   wall_time_s=time.monotonic() - start, outputs=outputs)
    return 0


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    start = time.monotonic()
    steps = args.steps if args.steps is not None else DEFAULT_LOG_STEPS
    check_estimator(steps, args.grid_points, args.n_vec, args.kappa,
                    args.epsilon)
    lin, params, inputs = _curvature_inputs(args)
    C = lin.spec.class_count
    if C * C + C > DENSE_SIZE_CAP:
        # the C^2 + C factor rows have a Gram matrix that dense_eig solves
        raise UsageError(f"decompose refuses {C} classes: their C^2 + C = "
                         f"{C * C + C} factor rows exceed {DENSE_SIZE_CAP}")
    estimator = {
        "steps": steps,
        "grid_points": args.grid_points,
        "n_vec": args.n_vec,
        "kappa": args.kappa,
        "epsilon": args.epsilon,
        "seed": args.seed,
    }
    out = _out_dir(args)
    manifest = build_manifest("decompose", {**params, "estimator": estimator},
                              inputs=inputs)

    report = component_attribution(lin, **estimator)
    report["manifest"] = manifest["id"]
    report_path = out / "attribution.json"
    atomic_write_text(report_path, json.dumps(report, indent=2) + "\n")

    write_manifest(out / "decompose.manifest.json", manifest,
                   wall_time_s=time.monotonic() - start, outputs=[report_path])
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    start = time.monotonic()
    cfg_path = _require_file(args.config, "train config")
    cfg = _load_json(cfg_path, "train config")
    unknown = set(cfg) - {"data", "model", "train"}
    if unknown:
        raise UsageError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    for section in ("data", "model", "train"):
        if section not in cfg or not isinstance(cfg[section], dict):
            raise UsageError(f"config needs a {section!r} object")

    train_data, test_data, data_files = _datasets(cfg["data"])
    spec = _strict_from_dict(MlpSpec, cfg["model"], "model config")
    config = TrainConfig.from_dict(cfg["train"])

    resume = None
    inputs = [cfg_path, *data_files]
    if args.resume is not None:
        resume_path = _require_file(args.resume, "resume checkpoint")
        resume = load_checkpoint(resume_path)
        inputs.append(resume_path)
    # the test set is the train set or a draw from the same spec
    if (train_data.input_dim != spec.input_dim
            or train_data.class_count != spec.class_count):
        raise UsageError("training data does not match the network spec")
    if resume is not None and resume.spec != spec:
        raise UsageError("checkpoint spec does not match requested network")
    if resume is not None and resume.epoch > config.epochs:
        raise UsageError(f"checkpoint is at epoch {resume.epoch}, beyond "
                         f"epochs={config.epochs}")

    out = _out_dir(args)
    manifest = build_manifest(
        "train",
        {"data": cfg["data"], "model": cfg["model"], "train": config.to_dict(),
         "resume_epoch": resume.epoch if resume is not None else None},
        inputs=inputs)

    result = train_sgd(spec, train_data, test_data, config, resume_from=resume)

    outputs = []
    for ck in result.checkpoints:
        path = out / f"checkpoint_epoch{ck.epoch:04d}.npz"
        save_checkpoint(path, ck)
        outputs.append(path)
    metrics_path = out / "metrics.csv"
    atomic_write_text(metrics_path, csv_text(
        METRICS_COLUMNS, [m.row() for m in result.metrics],
        manifest["id"], METRICS_CSV_SCHEMA))
    outputs.append(metrics_path)

    write_manifest(out / "train.manifest.json", manifest,
                   wall_time_s=time.monotonic() - start, outputs=outputs)
    if result.diverged:
        print("training diverged; wrote the last good checkpoint",
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds are nonnegative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _add_estimator_flags(sub, log_only: bool) -> None:
    sub.add_argument("--steps", type=int, default=None,
                     help="Lanczos iterations (default 128 linear, 2048 log)")
    sub.add_argument("--grid-points", type=int, default=DEFAULT_GRID)
    sub.add_argument("--n-vec", type=int, default=1,
                     help="independent Lanczos repetitions to average")
    sub.add_argument("--kappa", type=float, default=DEFAULT_KAPPA,
                     help="bump-width smoothing knob")
    sub.add_argument("--epsilon", type=float, default=DEFAULT_LOG_EPSILON,
                     help="log-axis shift: u = log(lambda + epsilon)")
    sub.add_argument("--seed", type=_seed, default=0)
    if not log_only:
        sub.add_argument("--log", action="store_true",
                         help="estimate on the log-magnitude axis")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdens",
        description="matrix-free spectral density estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="sample a validation ensemble")
    synth.add_argument("--kind", required=True,
                       help="goe | spiked_wishart | pareto_wishart")
    synth.add_argument("--p", type=int, default=None)
    synth.add_argument("--n", type=int, default=None)
    synth.add_argument("--spikes", default=None,
                       help="comma-separated planted values, e.g. 5,4,3")
    synth.add_argument("--alpha", type=float, default=None)
    synth.add_argument("--seed", type=_seed, default=0)
    synth.add_argument("--out-dir", required=True)
    synth.set_defaults(func=cmd_synth)

    spectrum = subs.add_parser("spectrum", help="estimate a spectral density")
    spectrum.add_argument("--matrix", default=None, help="dense matrix file")
    spectrum.add_argument("--checkpoint", default=None)
    spectrum.add_argument("--data", default=None, help="dataset config JSON")
    spectrum.add_argument("--which", choices=("hess", "g", "h"),
                          default="hess")
    spectrum.add_argument("--deflate", type=int, default=None,
                          help="project out this many top eigenpairs first")
    _add_estimator_flags(spectrum, log_only=False)
    spectrum.add_argument("--out-dir", required=True)
    spectrum.set_defaults(func=cmd_spectrum)

    decompose = subs.add_parser(
        "decompose", help="hierarchical curvature attribution report")
    decompose.add_argument("--checkpoint", required=True)
    decompose.add_argument("--data", required=True, help="dataset config JSON")
    _add_estimator_flags(decompose, log_only=True)
    decompose.add_argument("--out-dir", required=True)
    decompose.set_defaults(func=cmd_decompose)

    train = subs.add_parser("train", help="desk-scale SGD training run")
    train.add_argument("--config", required=True,
                       help="JSON with data/model/train sections")
    train.add_argument("--resume", default=None,
                       help="checkpoint to resume from")
    train.add_argument("--out-dir", required=True)
    train.set_defaults(func=cmd_train)

    return parser


# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Stop glibc malloc from handing freed pages back to the kernel after
    every network pass.

    A curvature matvec allocates and frees megabytes of (batch x width)
    temporaries. Under glibc's start-up thresholds each one is mmapped, or
    trimmed off the heap, and faulted in again on the next pass: a
    standalone ``spectrum --checkpoint --which h`` on a 1000-example,
    1386-parameter net took 560k page faults and 1.7 s of system time.
    The values set here are the ones glibc's own dynamic threshold settles
    on after the process first frees a 32 MiB block. A no-op where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:                    # argparse already printed
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InputFormatError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
