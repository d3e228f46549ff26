"""Labeled classification data in plain arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class LabeledDataset:
    """Inputs (n, d) float64 and integer labels (n,) in [0, class_count)."""

    x: np.ndarray
    y: np.ndarray
    class_count: int
    split: str = ""

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 2:
            raise UsageError(f"inputs must be 2-d, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise UsageError(
                f"labels shape {y.shape} does not match {x.shape[0]} examples"
            )
        if self.class_count < 1:
            raise UsageError("class_count must be >= 1")
        if y.size and (y.min() < 0 or y.max() >= self.class_count):
            raise UsageError("labels out of range")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]


def one_hot(y: np.ndarray, class_count: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    out = np.zeros((y.size, class_count))
    out[np.arange(y.size), y] = 1.0
    return out
