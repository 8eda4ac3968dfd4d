"""Lightweight labeled dataset container."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane import PulseBatch


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

    @classmethod
    def from_pulse_batch(
        cls,
        batch: "PulseBatch",
        y: np.ndarray,
        class_names: tuple[str, ...] = (),
        name: str = "pulses",
    ) -> "Dataset":
        """Build a dataset straight off a :class:`PulseBatch`.

        The batch's (n, 22) feature matrix is used as ``X`` directly.
        """
        from repro.core.features import FEATURE_NAMES

        return cls(
            X=batch.features,
            y=y,
            feature_names=FEATURE_NAMES,
            class_names=class_names,
            name=name,
        )

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.X[indices],
            self.y[indices],
            self.feature_names,
            self.class_names,
            self.name,
        )

    def select_features(self, feature_indices: list[int]) -> "Dataset":
        return Dataset(
            self.X[:, feature_indices],
            self.y,
            tuple(self.feature_names[i] for i in feature_indices),
            self.class_names,
            self.name,
        )

    def imbalance_ratio(self) -> float:
        """Majority-class count over minority-class count (∞-safe)."""
        counts = self.class_counts()
        counts = counts[counts > 0]
        if counts.size < 2:
            return 1.0
        return float(counts.max() / counts.min())
