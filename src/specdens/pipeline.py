"""Desk-scale data and training: Gaussian-mixture synthesis, IDX image
loading, and a bit-reproducible SGD loop with momentum and weight decay.

Reproducibility is the load-bearing property here. Initialization derives
from (seed, 0), epoch e's shuffle from (seed, e); the update order is
frozen (decay added to the gradient, then folded into the momentum
buffer); checkpoints carry the momentum buffer, so a resumed run replays
the exact remaining trajectory of an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import gzip
import struct
import sys
import typing
import zlib
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .errors import InputFormatError, UsageError
from .net import Checkpoint, MlpSpec, gradient, init_params, loss_and_error

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


# ---------------------------------------------------------------------------
# config sections
# ---------------------------------------------------------------------------

def _as_field(value, hint):
    """A JSON value as the field type ``hint`` asks for, or TypeError.

    An int field takes an int, a float field an int or a float of finite
    float64 magnitude, a str field a str, and a ``tuple[int, ...]`` field a
    list of ints; ``X | None`` also takes null. A bool is not a number
    here, and NaN, the infinities (which ``json`` reads) and integers past
    the float64 range are not floats.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_as_field(v, typing.get_args(hint)[0]) for v in value)
    kinds = (int, float) if hint is float else (hint,)
    if type(value) not in kinds:
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    if hint is float and not abs(value) <= sys.float_info.max:
        raise TypeError(f"expected a finite number, got {value!r}")
    return value


def _strict_from_dict(cls, d: dict, what: str):
    """Build the dataclass ``cls`` from a config section: unknown keys and
    values of the wrong type are usage errors, not tracebacks."""
    hints = typing.get_type_hints(cls)
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - allowed
    if unknown:
        raise UsageError(f"unknown {what} key(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, value in d.items():
        try:
            kwargs[key] = _as_field(value, hints[key])
        except TypeError as err:
            raise UsageError(f"bad {what}: {key}: {err}") from err
    try:
        return cls(**kwargs)
    except TypeError as err:
        raise UsageError(f"bad {what}: {err}") from err


# ---------------------------------------------------------------------------
# synthetic Gaussian mixture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GmmSpec:
    """Isotropic Gaussian blobs, one per class, means on orthogonal axes."""

    classes: int
    n_per_class: int
    dim: int
    separation: float
    std: float = 1.0
    seed: int = 0
    n_test_per_class: int | None = None

    def __post_init__(self):
        if self.classes < 2:
            raise UsageError("need at least two classes")
        if self.dim < self.classes:
            raise UsageError(
                f"dim {self.dim} < classes {self.classes}: class means are "
                "placed on distinct coordinate axes"
            )
        if self.n_per_class < 1:
            raise UsageError("n_per_class must be >= 1")
        if self.n_test_per_class is not None and self.n_test_per_class < 1:
            raise UsageError("n_test_per_class must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.std <= 0 or self.separation < 0:
            raise UsageError("std must be positive and separation nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "GmmSpec":
        return _strict_from_dict(cls, d, "gmm spec")


def gaussian_mixture(spec: GmmSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic train/test draw. Class c is N(separation * e_c, std^2 I)."""
    rng = np.random.default_rng(spec.seed)
    means = np.zeros((spec.classes, spec.dim))
    means[np.arange(spec.classes), np.arange(spec.classes)] = spec.separation

    def draw(count: int, split: str) -> LabeledDataset:
        y = np.repeat(np.arange(spec.classes, dtype=np.int64), count)
        z = rng.standard_normal((spec.classes * count, spec.dim))
        return LabeledDataset(x=means[y] + spec.std * z, y=y,
                              class_count=spec.classes, split=split)

    return (draw(spec.n_per_class, "train"),
            draw(spec.n_test_per_class or spec.n_per_class, "test"))


# ---------------------------------------------------------------------------
# IDX image/label files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdxSpec:
    """An IDX image/label file pair, read by :func:`load_idx`."""

    images: str
    labels: str
    limit_per_class: int | None = None


def _read_maybe_gzip(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head != b"\x1f\x8b":
            return fh.read()
        try:
            with gzip.open(fh) as gz:
                return gz.read()
        except (EOFError, gzip.BadGzipFile, zlib.error) as err:
            raise InputFormatError(f"{path}: corrupt or truncated gzip "
                                   f"data ({err})") from err


def load_idx(images_path, labels_path,
             limit_per_class: int | None = None) -> LabeledDataset:
    """Load an IDX image/label pair into a dataset.

    Pixels are scaled to [0, 1] and flattened; headers are big-endian per
    the format. With ``limit_per_class``, keeps the first k examples of
    each class in file order — a deterministic subsample independent of
    any RNG. Raises :class:`InputFormatError` for bad magic, truncation,
    or an image/label count mismatch.
    """
    raw = _read_maybe_gzip(images_path)
    if len(raw) < 16:
        raise InputFormatError(f"{images_path}: too short for an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise InputFormatError(
            f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    need = 16 + count * rows * cols
    if len(raw) != need:
        raise InputFormatError(
            f"{images_path}: payload is {len(raw) - 16} bytes, "
            f"expected {need - 16} for {count} images of {rows}x{cols}"
        )
    images = np.frombuffer(raw, dtype=np.uint8, offset=16)
    x = images.reshape(count, rows * cols).astype(np.float64) / 255.0

    raw_l = _read_maybe_gzip(labels_path)
    if len(raw_l) < 8:
        raise InputFormatError(f"{labels_path}: too short for an IDX label header")
    magic_l, count_l = struct.unpack(">II", raw_l[:8])
    if magic_l != IDX_LABELS_MAGIC:
        raise InputFormatError(
            f"{labels_path}: bad magic 0x{magic_l:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
        )
    if len(raw_l) != 8 + count_l:
        raise InputFormatError(f"{labels_path}: truncated label payload")
    if count_l != count:
        raise InputFormatError(
            f"image/label count mismatch: {count} images vs {count_l} labels"
        )
    y = np.frombuffer(raw_l, dtype=np.uint8, offset=8).astype(np.int64)
    class_count = int(y.max()) + 1 if y.size else 1

    if limit_per_class is not None:
        if limit_per_class < 1:
            raise UsageError("limit_per_class must be >= 1")
        keep = _first_per_class(y, limit_per_class, class_count)
        x, y = x[keep], y[keep]

    return LabeledDataset(x=x, y=y, class_count=class_count, split="train")


def _first_per_class(y: np.ndarray, k: int, class_count: int) -> np.ndarray:
    """Ascending indices of the first ``k`` labels of each class in
    ``range(class_count)``, in the order they come in ``y``."""
    return np.sort(np.concatenate([np.flatnonzero(y == c)[:k]
                                   for c in range(class_count)]))


# ---------------------------------------------------------------------------
# SGD with momentum and weight decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters plus the deterministic schedule knobs.

    ``anneal_at`` defaults to one- and two-thirds of the run; at each
    listed epoch boundary the learning rate is multiplied by
    ``anneal_factor``. ``checkpoint_epochs`` defaults to the geometric set
    {0, 1, 2, 4, 8, ...}; the final epoch is always added. Both are
    resolved on construction; entries outside 0..``epochs`` are refused.
    """

    epochs: int
    lr: float
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    seed: int = 0
    anneal_factor: float = 0.1
    anneal_at: tuple[int, ...] | None = None
    checkpoint_epochs: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        for name in ("lr", "weight_decay", "anneal_factor"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be nonnegative")
        if not 0 <= self.momentum < 1:
            raise UsageError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        epochs = int(self.epochs)
        anneal = self.anneal_at
        if anneal is None:
            anneal = (epochs // 3, (2 * epochs) // 3)
        checkpoints = self.checkpoint_epochs
        if checkpoints is None:
            checkpoints = [0, *(1 << k for k in range(epochs.bit_length()))]
        anneal = tuple(int(e) for e in anneal)
        checkpoints = tuple(sorted({int(e) for e in checkpoints} | {epochs}))
        outside = sorted({e for e in anneal + checkpoints
                          if not 0 <= e <= epochs})
        if outside:
            raise UsageError("anneal_at and checkpoint_epochs take epochs "
                             f"0..{epochs}, got {outside}")
        object.__setattr__(self, "anneal_at", anneal)
        object.__setattr__(self, "checkpoint_epochs", checkpoints)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return _strict_from_dict(cls, d, "train config")

    def lr_for_epoch(self, epoch: int) -> float:
        """Learning rate in effect during 1-based epoch ``epoch``."""
        stage = sum(1 for a in self.anneal_at if 0 < a < epoch)
        return self.lr * self.anneal_factor ** stage

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "anneal_at": list(self.anneal_at),
                "checkpoint_epochs": list(self.checkpoint_epochs)}


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    train_error: float
    test_loss: float
    test_error: float

    def row(self) -> tuple:
        return (self.epoch, self.lr, self.train_loss, self.train_error,
                self.test_loss, self.test_error)


METRICS_COLUMNS = ("epoch", "lr", "train_loss", "train_error",
                   "test_loss", "test_error")


@dataclass
class TrainResult:
    checkpoints: list[Checkpoint] = field(default_factory=list)
    metrics: list[EpochMetrics] = field(default_factory=list)
    diverged: bool = False


def train_sgd(spec: MlpSpec, train: LabeledDataset, test: LabeledDataset,
              config: TrainConfig,
              resume_from: Checkpoint | None = None) -> TrainResult:
    """Momentum SGD on the mean cross-entropy, bit-reproducible.

    Per step: g = grad(batch) + weight_decay * theta; buf = momentum * buf
    + g; theta -= lr * buf. Shuffling for epoch e comes from seed (seed, e)
    regardless of history, so resuming from a checkpoint (which carries
    the momentum buffer) replays the identical remaining run. Divergence
    (non-finite epoch loss) stops the run and flags the result; the last
    recorded checkpoint is the last good state. When ``test`` is ``train``
    the test columns repeat the train numbers; the data is forwarded once.
    """
    if train.class_count != spec.class_count or train.input_dim != spec.input_dim:
        raise UsageError("training data does not match the network spec")
    seed = config.seed
    if resume_from is None:
        theta = init_params(spec, seed)
        buf = np.zeros_like(theta)
        start_epoch = 0
    else:
        if resume_from.spec != spec:
            raise UsageError("checkpoint spec does not match requested network")
        if resume_from.epoch > config.epochs:
            raise UsageError(
                f"checkpoint is at epoch {resume_from.epoch}, beyond "
                f"epochs={config.epochs}"
            )
        theta = resume_from.theta.copy()
        buf = (resume_from.velocity.copy() if resume_from.velocity is not None
               else np.zeros_like(theta))
        start_epoch = resume_from.epoch
        seed = resume_from.seed

    result = TrainResult()

    def evaluate(epoch: int, lr_now: float) -> EpochMetrics:
        train_loss, train_error = loss_and_error(spec, theta, train)
        test_loss, test_error = (
            (train_loss, train_error) if test is train
            else loss_and_error(spec, theta, test))
        return EpochMetrics(epoch=epoch, lr=lr_now,
                            train_loss=train_loss, train_error=train_error,
                            test_loss=test_loss, test_error=test_error)

    def snapshot(epoch: int, lr_now: float) -> Checkpoint:
        return Checkpoint(
            spec=spec, theta=theta.copy(), epoch=epoch, seed=seed, lr=lr_now,
            velocity=buf.copy(), meta={"config": config.to_dict()},
        )

    if start_epoch == 0:
        result.metrics.append(evaluate(0, config.lr_for_epoch(1)))
        if 0 in config.checkpoint_epochs:
            result.checkpoints.append(snapshot(0, config.lr_for_epoch(1)))

    n = train.n
    for epoch in range(start_epoch + 1, config.epochs + 1):
        lr_now = config.lr_for_epoch(epoch)
        perm = np.random.default_rng([seed, epoch]).permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo:lo + config.batch_size]
            batch = LabeledDataset(x=train.x[idx], y=train.y[idx],
                                   class_count=train.class_count)
            g = gradient(spec, theta, batch)
            g += config.weight_decay * theta
            buf = config.momentum * buf + g
            theta = theta - lr_now * buf
        row = evaluate(epoch, lr_now)
        if not all(np.isfinite(v) for v in
                   (row.train_loss, row.test_loss)):
            result.diverged = True
            break
        result.metrics.append(row)
        if epoch in config.checkpoint_epochs:
            result.checkpoints.append(snapshot(epoch, lr_now))
    return result
