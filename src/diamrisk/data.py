"""Data sets as arrays, and synthetic classification data with label noise.

A Dataset holds one row per record: features X of shape (m, d) and integer
labels y. The 1-D analytic losses use d = 0, where the label alone carries
the randomness. Class-conditional Gaussian blobs stand in for image
benchmarks at desk scale; flip_labels corrupts a chosen fraction of training
labels to a uniformly random incorrect class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(eq=False)
class Dataset:
    """m rows: features X (m, d) and integer labels y in [0, num_classes).

    y is stored as int64. Labels of another dtype must survive that cast
    unchanged (1.0 and True do; 0.9 and nan raise ValueError), so a label
    is never silently truncated.
    """

    X: np.ndarray
    y: np.ndarray
    num_classes: int = 2

    def __post_init__(self):
        y = np.asarray(self.y)
        with np.errstate(invalid="ignore"):  # nan and inf cast to junk, refused below
            self.y = y.astype(np.int64, copy=False)
        m = self.y.shape[0] if self.y.ndim == 1 else -1
        self.X = np.asarray(self.X, dtype=np.float64)
        if m < 0 or self.X.ndim != 2 or self.X.shape[0] != m:
            raise ValueError(
                f"need X of shape (m, d) and y of shape (m,), got {self.X.shape} and {self.y.shape}"
            )
        if y.dtype.kind not in "biu":
            changed = self.y.astype(y.dtype) != y
            if changed.any():
                raise ValueError(f"label {y[changed][0]} is not an integer")
        bad = (self.y < 0) | (self.y >= self.num_classes)
        if bad.any():
            raise ValueError(f"label {self.y[bad][0]} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, idx) -> "Dataset":
        """The rows idx (an index array, slice or single index) as a Dataset."""
        if isinstance(idx, (int, np.integer)):
            idx = [idx]
        return Dataset(X=self.X[idx], y=self.y[idx], num_classes=self.num_classes)

    @staticmethod
    def from_labels(labels: Sequence[int], num_classes: int = 2) -> "Dataset":
        """Feature-free dataset for the 1-D analytic losses."""
        y = np.asarray(labels)
        return Dataset(X=np.empty((y.shape[0], 0)), y=y, num_classes=num_classes)


def class_means(num_classes: int, d: int, separation: float) -> np.ndarray:
    """Blob centers: the first num_classes coordinate axes scaled by separation
    (vertices of a regular simplex)."""
    if d < num_classes:
        raise ValueError(f"need d >= num_classes, got d={d} < {num_classes}")
    means = np.zeros((num_classes, d))
    means[np.arange(num_classes), np.arange(num_classes)] = separation
    return means


def gen_gaussian_blobs(num_classes: int, n: int, d: int, separation: float, seed) -> Dataset:
    """Balanced isotropic Gaussian blobs, deterministic in the seed.

    Row i belongs to class i mod num_classes, so any prefix is as balanced
    as it can be.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if separation <= 0:
        raise ValueError("separation must be positive")
    rng = np.random.default_rng(seed)
    means = class_means(num_classes, d, separation)
    y = np.arange(n) % num_classes
    return Dataset(X=means[y] + rng.standard_normal((n, d)), y=y, num_classes=num_classes)


def flip_labels(data: Dataset, frac: float, rng: np.random.Generator) -> Dataset:
    """Flip exactly round(frac * m) uniformly chosen labels to a uniformly
    random incorrect class. Features are shared with the input dataset;
    only the labels change, so the flipped rows are y != data.y."""
    if not 0.0 <= frac <= 1.0:
        raise ValueError("frac must be in [0, 1]")
    if data.num_classes < 2:
        raise ValueError("need at least two classes to flip")
    m = len(data)
    k = int(round(frac * m))
    chosen = rng.choice(m, size=k, replace=False) if k else np.array([], dtype=int)
    y = data.y.copy()
    # One draw per flipped row, in ascending row order; uniform over the
    # other classes by skipping the original label.
    for i in np.sort(chosen):
        offset = int(rng.integers(0, data.num_classes - 1))
        y[i] = offset if offset < y[i] else offset + 1
    return Dataset(X=data.X, y=y, num_classes=data.num_classes)
