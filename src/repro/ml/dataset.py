"""Lightweight labeled dataset container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """A feature matrix with integer class labels and naming metadata.

    ``X`` is (n_instances, n_features) float; ``y`` is (n_instances,) int in
    ``[0, n_classes)``.  Most library functions accept raw arrays; Dataset
    carries the names for reporting and feature selection output.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] = ()
    class_names: tuple[str, ...] = ()
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.ndim != 1 or self.y.shape[0] != self.X.shape[0]:
            raise ValueError("y must be 1-D with one label per row of X")
        if not self.feature_names:
            self.feature_names = tuple(f"f{i}" for i in range(self.X.shape[1]))
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError("feature_names length must match X columns")
        if self.y.size and self.y.min() < 0:
            raise ValueError("labels must be non-negative integers")
        n_classes = int(self.y.max()) + 1 if self.y.size else 0
        if not self.class_names:
            self.class_names = tuple(f"c{i}" for i in range(n_classes))
        elif len(self.class_names) < n_classes:
            raise ValueError("class_names shorter than the number of labels present")

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)
