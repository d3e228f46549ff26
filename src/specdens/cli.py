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
    AsymmetricInputError,
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
)
from .linalg import dense_eig
from .net import MlpSpec, load_checkpoint, save_checkpoint
from .operators import dense_operator
from .pipeline import (
    METRICS_COLUMNS,
    GmmSpec,
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

ORACLE_EIG_CAP = 4096  # dense eigendecomposition gets slow past this

DENSITY_CSV_SCHEMA = "density-csv/v1"
ORACLE_CSV_SCHEMA = "oracle-spectrum-csv/v1"
METRICS_CSV_SCHEMA = "metrics-csv/v1"
DENSITY_JSON_SCHEMA = "density-report/v1"
TOP_JSON_SCHEMA = "top-spectrum/v2"


def _require_file(path, what: str) -> Path:
    if not isinstance(path, (str, Path)):
        raise UsageError(f"{what} must be a path string, got {path!r}")
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
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# dataset configs: {"kind": "gmm", ...} or {"kind": "idx", ...}
# ---------------------------------------------------------------------------

def _dataset_from_config(cfg: dict) -> tuple[LabeledDataset, list]:
    """Build the dataset a config describes; also return its input files."""
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind == "gmm":
        split = cfg.pop("split", "train")
        if split not in ("train", "test"):
            raise UsageError(f"gmm split must be 'train' or 'test', got {split!r}")
        spec = GmmSpec.from_dict(cfg)
        train, test = gaussian_mixture(spec)
        return (train if split == "train" else test), []
    if kind == "idx":
        unknown = set(cfg) - {"images", "labels", "limit_per_class"}
        if unknown:
            raise UsageError(f"unknown idx data key(s): {', '.join(sorted(unknown))}")
        for key in ("images", "labels"):
            if key not in cfg:
                raise UsageError(f"idx data config needs {key!r}")
        images = _require_file(cfg["images"], "images file")
        labels = _require_file(cfg["labels"], "labels file")
        limit = cfg.get("limit_per_class")
        if limit is not None and type(limit) is not int:
            raise UsageError(f"limit_per_class must be an integer, got {limit!r}")
        data = load_idx(images, labels, limit_per_class=limit)
        return data, [images, labels]
    raise UsageError(f"unknown data kind {kind!r}; pick 'gmm' or 'idx'")


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

    out = _out_dir(args)
    manifest = build_manifest(
        "synth",
        {
            "kind": ens.kind, "p": ens.p, "n": ens.n,
            "spikes": list(ens.spikes), "alpha": ens.alpha, "seed": ens.seed,
        },
        version=__version__,
    )

    Y = sample(ens)
    matrix_path = out / "matrix.spdm"
    write_matrix(matrix_path, Y)
    outputs = [matrix_path]

    if ens.p <= ORACLE_EIG_CAP:
        values = dense_eig(Y).values
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
        try:
            op = dense_operator(read_matrix(path), label=f"matrix:{path.name}")
        except AsymmetricInputError as err:
            # the file format holds symmetric matrices only
            raise InputFormatError(f"{path}: {err}") from err
        return op, {"matrix": str(path)}, [path]
    if args.checkpoint is None:
        raise UsageError("need an input: --matrix FILE, or --checkpoint with --data")
    if args.data is None:
        raise UsageError("--checkpoint needs --data pointing at a dataset config")
    ck_path = _require_file(args.checkpoint, "checkpoint")
    ck = load_checkpoint(ck_path)
    data_path = _require_file(args.data, "data config")
    data_cfg = _load_json(data_path, "data config")
    data, data_files = _dataset_from_config(data_cfg)
    from .net import hessian_operator

    op = hessian_operator(ck.spec, ck.theta, data, which=args.which)
    params = {
        "checkpoint": str(ck_path), "data": data_cfg, "which": args.which,
        "epoch": ck.epoch,
    }
    return op, params, [ck_path, data_path, *data_files]


def _density_rows(density: SpectralDensity) -> list:
    return [(float(g), float(v)) for g, v in zip(density.grid, density.values)]


def cmd_spectrum(args) -> int:
    start = time.monotonic()
    op, in_params, inputs = _spectrum_operator(args)

    steps = args.steps
    if steps is None:
        steps = DEFAULT_LOG_STEPS if args.log else DEFAULT_STEPS
    est_params = {
        "steps": steps, "grid_points": args.grid_points, "n_vec": args.n_vec,
        "kappa": args.kappa, "seed": args.seed, "log": bool(args.log),
        "deflate": args.deflate, "epsilon": args.epsilon if args.log else None,
    }
    out = _out_dir(args)
    manifest = build_manifest("spectrum", {**in_params, **est_params},
                              inputs=inputs, version=__version__)

    top = None
    if args.deflate is not None:
        if args.deflate < 1:
            raise UsageError("--deflate takes a positive count")
        top, op = low_rank_deflation(op, args.deflate, seed=args.seed)

    if args.log:
        density = approx_log_spectrum(
            op, steps=steps, grid_points=args.grid_points, n_vec=args.n_vec,
            kappa=args.kappa, epsilon=args.epsilon, seed=args.seed)
    else:
        density = approx_spectrum(
            op, steps=steps, grid_points=args.grid_points, n_vec=args.n_vec,
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
    ck_path = _require_file(args.checkpoint, "checkpoint")
    ck = load_checkpoint(ck_path)
    data_path = _require_file(args.data, "data config")
    data_cfg = _load_json(data_path, "data config")
    data, data_files = _dataset_from_config(data_cfg)

    estimator = {
        "steps": args.steps if args.steps is not None else DEFAULT_LOG_STEPS,
        "grid_points": args.grid_points,
        "n_vec": args.n_vec,
        "kappa": args.kappa,
        "epsilon": args.epsilon,
        "seed": args.seed,
    }
    out = _out_dir(args)
    manifest = build_manifest(
        "decompose",
        {"checkpoint": str(ck_path), "data": data_cfg, "epoch": ck.epoch,
         "estimator": estimator},
        inputs=[ck_path, data_path, *data_files], version=__version__)

    report = component_attribution(ck.spec, ck.theta, data, **estimator)
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

    data_cfg = dict(cfg["data"])
    data_cfg.pop("split", None)                  # training always uses both
    if data_cfg.get("kind") == "gmm":
        train_data, data_files = _dataset_from_config({**data_cfg, "split": "train"})
        test_data, _ = _dataset_from_config({**data_cfg, "split": "test"})
    else:
        train_data, data_files = _dataset_from_config(data_cfg)
        test_data = train_data                   # idx configs carry one split

    spec = _strict_from_dict(MlpSpec, cfg["model"], "model config")
    config = TrainConfig.from_dict(cfg["train"])

    resume = None
    inputs = [cfg_path, *data_files]
    if args.resume is not None:
        resume_path = _require_file(args.resume, "resume checkpoint")
        resume = load_checkpoint(resume_path)
        inputs.append(resume_path)

    out = _out_dir(args)
    manifest = build_manifest(
        "train",
        {"data": cfg["data"], "model": cfg["model"], "train": config.to_dict(),
         "resume_epoch": resume.epoch if resume is not None else None},
        inputs=inputs, version=__version__)

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
