"""Filter feature selection: the five rankers of Table 4.

Every method maps ``(X, y)`` to one merit score per feature (higher =
better); :func:`select_top_k` keeps the paper's top-10.  The entropy
measures (IG, GR, SU) operate on MDL-discretized attributes, as Weka does.

==========================  ==================  ===========================
Method                      Type                Merit
==========================  ==================  ===========================
InfoGain (IG)               entropy             H(C) − H(C|A)
GainRatio (GR)              entropy             IG / H(A)
SymmetricalUncertainty (SU) entropy             2·IG / (H(A) + H(C))
Correlation (Cor)           linear correlation  mean |Pearson(A, 1[C=c])|
OneR (1R)                   machine learning    1R rule accuracy
==========================  ==================  ===========================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ml._split import entropy_from_counts
from repro.ml.discretize import mdl_discretize


def _joint_entropies(col: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[float, float, float]:
    """(H(A), H(C), H(C|A)) for a discretized attribute column."""
    n = col.size
    n_bins = int(col.max()) + 1 if n else 1
    joint = np.zeros((n_bins, n_classes), dtype=np.int64)
    np.add.at(joint, (col, y), 1)
    h_a = entropy_from_counts(joint.sum(axis=1))
    h_c = entropy_from_counts(joint.sum(axis=0))
    h_c_given_a = 0.0
    for b in range(n_bins):
        nb = joint[b].sum()
        if nb:
            h_c_given_a += (nb / n) * entropy_from_counts(joint[b])
    return h_a, h_c, h_c_given_a


def entropy_merits(X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """IG, GR and SU merits of every feature from one MDL discretization.

    The three entropy rankers read the same ``(H(A), H(C), H(C|A))`` of the
    same discretized columns, so a caller that wants all three pays for
    one MDL search instead of three; each ranker below is its entry.
    """
    binned, _cuts = mdl_discretize(X, y)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max()) + 1
    merits = {name: np.empty(X.shape[1]) for name in ("IG", "GR", "SU")}
    for j in range(X.shape[1]):
        h_a, h_c, h_c_a = _joint_entropies(binned[:, j], y, n_classes)
        ig = h_c - h_c_a
        denom = h_a + h_c
        merits["IG"][j] = ig
        merits["GR"][j] = ig / h_a if h_a > 1e-12 else 0.0
        merits["SU"][j] = 2.0 * ig / denom if denom > 1e-12 else 0.0
    return merits


def rank_info_gain(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return entropy_merits(X, y)["IG"]


def rank_gain_ratio(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return entropy_merits(X, y)["GR"]


def rank_symmetrical_uncertainty(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return entropy_merits(X, y)["SU"]


def rank_correlation(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weka's CorrelationAttributeEval for a nominal class: the class-prior-
    weighted mean |Pearson correlation| between the attribute and each class
    indicator."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = y.size
    n_classes = int(y.max()) + 1
    merits = np.zeros(X.shape[1])
    xc = X - X.mean(axis=0)
    x_std = X.std(axis=0)
    for c in range(n_classes):
        ind = (y == c).astype(float)
        prior = ind.mean()
        if prior == 0.0 or prior == 1.0:
            continue
        ic = ind - prior
        i_std = ind.std()
        cov = xc.T @ ic / n
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(x_std > 1e-12, cov / (x_std * i_std), 0.0)
        merits += prior * np.abs(corr)
    return merits


def rank_oner(X: np.ndarray, y: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """OneR merit: training accuracy of the best single-attribute rule.

    Each attribute is equal-frequency binned; the 1R rule predicts each
    bin's majority class (Holte 1993).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = y.size
    n_classes = int(y.max()) + 1
    merits = np.empty(X.shape[1])
    for j in range(X.shape[1]):
        col = X[:, j]
        # Equal-frequency bin edges.
        qs = np.quantile(col, np.linspace(0, 1, n_bins + 1)[1:-1])
        binned = np.searchsorted(np.unique(qs), col, side="right")
        counts = np.zeros((int(binned.max()) + 1, n_classes), dtype=np.int64)
        np.add.at(counts, (binned, y), 1)
        merits[j] = counts.max(axis=1).sum() / n
    return merits


FS_METHODS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "IG": rank_info_gain,
    "GR": rank_gain_ratio,
    "SU": rank_symmetrical_uncertainty,
    "Cor": rank_correlation,
    "1R": rank_oner,
}


def rank_features(method: str, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Merit score per feature under a Table 4 method name."""
    try:
        fn = FS_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown feature selection method {method!r}; "
                         f"choose from {sorted(FS_METHODS)}") from None
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    return fn(X, y)


def select_top_k(merits: np.ndarray, k: int = 10) -> list[int]:
    """Indices of the k best-ranked features (paper keeps the top ten)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    merits = np.asarray(merits, dtype=float)
    order = np.argsort(-merits, kind="stable")
    return [int(i) for i in order[:k]]
