"""SMO: support vector machine trained by Sequential Minimal Optimization.

Weka's SMO (Platt 1998) with the simplifications appropriate to this
reproduction: the simplified SMO working-set heuristic (random second
index), linear or RBF kernel, internal feature standardization, and
one-vs-one pairwise decomposition for multiclass problems with majority
voting — Weka's exact multiclass strategy.

The one-vs-one decomposition is why the paper observes SMO training times
*growing* with the number of ALM classes (Fig. 5b): k classes mean
k(k-1)/2 binary machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class _BinarySMO:
    """One binary soft-margin SVM trained with simplified SMO."""

    c: float
    tol: float
    max_passes: int
    kernel: str
    gamma: float
    seed: int
    alphas: np.ndarray | None = None
    b: float = 0.0
    X: np.ndarray | None = None
    y: np.ndarray | None = None

    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return A @ B.T
        if self.kernel == "rbf":
            sq = (
                np.sum(A * A, axis=1)[:, None]
                + np.sum(B * B, axis=1)[None, :]
                - 2.0 * (A @ B.T)
            )
            return np.exp(-self.gamma * np.maximum(sq, 0.0))
        raise ValueError(f"unknown kernel {self.kernel!r}")

    def fit(self, X: np.ndarray, y_pm: np.ndarray) -> "_BinarySMO":
        """Train on labels in {-1, +1}."""
        n = X.shape[0]
        self.X, self.y = X, y_pm
        K = self._kernel_matrix(X, X)
        alphas = np.zeros(n)
        b = 0.0
        rng = np.random.default_rng(self.seed)
        passes = 0
        while passes < self.max_passes:
            changed = 0
            # Decision values for all points under current (alphas, b).
            f = (alphas * y_pm) @ K + b
            errors = f - y_pm
            for i in range(n):
                e_i = float(errors[i])
                if (y_pm[i] * e_i < -self.tol and alphas[i] < self.c) or (
                    y_pm[i] * e_i > self.tol and alphas[i] > 0
                ):
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    e_j = float((alphas * y_pm) @ K[:, j] + b - y_pm[j])
                    a_i, a_j = alphas[i], alphas[j]
                    if y_pm[i] != y_pm[j]:
                        lo, hi = max(0.0, a_j - a_i), min(self.c, self.c + a_j - a_i)
                    else:
                        lo, hi = max(0.0, a_i + a_j - self.c), min(self.c, a_i + a_j)
                    if lo == hi:
                        continue
                    eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                    if eta >= 0:
                        continue
                    a_j_new = np.clip(a_j - y_pm[j] * (e_i - e_j) / eta, lo, hi)
                    if abs(a_j_new - a_j) < 1e-5:
                        continue
                    a_i_new = a_i + y_pm[i] * y_pm[j] * (a_j - a_j_new)
                    b1 = (
                        b - e_i
                        - y_pm[i] * (a_i_new - a_i) * K[i, i]
                        - y_pm[j] * (a_j_new - a_j) * K[i, j]
                    )
                    b2 = (
                        b - e_j
                        - y_pm[i] * (a_i_new - a_i) * K[i, j]
                        - y_pm[j] * (a_j_new - a_j) * K[j, j]
                    )
                    if 0 < a_i_new < self.c:
                        b = b1
                    elif 0 < a_j_new < self.c:
                        b = b2
                    else:
                        b = 0.5 * (b1 + b2)
                    alphas[i], alphas[j] = a_i_new, a_j_new
                    errors = (alphas * y_pm) @ K + b - y_pm
                    changed += 1
            passes = passes + 1 if changed == 0 else 0
        self.alphas, self.b = alphas, b
        return self

    def decision(self, X: np.ndarray) -> np.ndarray:
        assert self.alphas is not None and self.X is not None and self.y is not None
        sv = self.alphas > 1e-8
        if not sv.any():
            return np.full(X.shape[0], self.b)
        K = self._kernel_matrix(X, self.X[sv])
        return K @ (self.alphas[sv] * self.y[sv]) + self.b


@dataclass
class SMO:
    """Multiclass SVM: one-vs-one simplified SMO with voting."""

    c: float = 1.0
    tol: float = 1e-3
    max_passes: int = 3
    kernel: str = "rbf"
    gamma: float | None = None  # default: 1/d after standardization
    #: Cap on instances per binary problem; SMO is O(n²) in kernel evals and
    #: Weka-scale runs subsample internally for tractability.
    max_per_machine: int = 1500
    seed: int = 0
    _machines: list[tuple[int, int, _BinarySMO]] = field(default_factory=list, repr=False)
    _mu: np.ndarray | None = None
    _sigma: np.ndarray | None = None
    n_classes_: int = 0
    classes_seen_: tuple[int, ...] = ()

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SMO":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) with one label per row")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_classes_ = int(y.max()) + 1
        self._mu = X.mean(axis=0)
        sigma = X.std(axis=0)
        sigma[sigma < 1e-12] = 1.0
        self._sigma = sigma
        Xs = (X - self._mu) / self._sigma
        gamma = self.gamma if self.gamma is not None else 1.0 / X.shape[1]

        classes = [int(c) for c in np.unique(y)]
        self.classes_seen_ = tuple(classes)
        self._machines = []
        rng = np.random.default_rng(self.seed)
        for a_pos, cls_a in enumerate(classes):
            for cls_b in classes[a_pos + 1 :]:
                mask = (y == cls_a) | (y == cls_b)
                idx = np.nonzero(mask)[0]
                if idx.size > self.max_per_machine:
                    idx = rng.choice(idx, size=self.max_per_machine, replace=False)
                y_pm = np.where(y[idx] == cls_a, 1.0, -1.0)
                machine = _BinarySMO(
                    c=self.c, tol=self.tol, max_passes=self.max_passes,
                    kernel=self.kernel, gamma=gamma,
                    seed=int(rng.integers(0, 2**31)),
                )
                machine.fit(Xs[idx], y_pm)
                self._machines.append((cls_a, cls_b, machine))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._machines:
            if self.n_classes_ == 0:
                raise RuntimeError("fit() must be called before predict()")
            # Degenerate single-class training set.
            return np.full(np.asarray(X).shape[0], self.classes_seen_[0], dtype=int)
        X = np.asarray(X, dtype=float)
        Xs = (X - self._mu) / self._sigma
        votes = np.zeros((X.shape[0], self.n_classes_), dtype=int)
        for cls_a, cls_b, machine in self._machines:
            dec = machine.decision(Xs)
            votes[dec >= 0, cls_a] += 1
            votes[dec < 0, cls_b] += 1
        return np.argmax(votes, axis=1)
