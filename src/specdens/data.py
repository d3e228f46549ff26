"""Labeled classification data in plain arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabeledDataset:
    """Inputs (n, d) float64 and int64 labels (n,) in [0, class_count).

    Stored as given: the readers that build one (:mod:`specdens.pipeline`)
    produce those types and at least one example, and the commands in
    :mod:`specdens.cli` check the set against the network it is fed to.
    """

    x: np.ndarray
    y: np.ndarray
    class_count: int
    split: str = ""

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
