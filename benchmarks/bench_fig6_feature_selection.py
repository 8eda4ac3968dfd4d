"""Figure 6 / RQ6–RQ7: feature selection × ALM scheme training times.

Paper protocol: each benchmark is split six ways; the first fold feeds the
five feature selection rankers (Table 4), which pick the top-10 features;
classifiers then run cross-validation on the remaining folds with only
those features.  Fig. 6 shows RF (a) and MPN (b) training times per FS
method × scheme × data set.

Expected shape:

- RQ6: feature selection neither helps nor hurts classification much; IG,
  GR and SU leave RF Recall/F essentially unchanged.
- RQ7: IG consistently trims RF training time (the paper's +7% on top of
  ALM), and *every* FS method slashes MPN training time (IG: ~64% for
  binary MPN) because MPN's epoch cost is proportional to input width.
"""

import numpy as np
import pytest

from _bench_utils import emit, format_table
from conftest import learner_factories
from repro.core.alm import ALM_SCHEMES
from repro.ml.feature_selection import (
    FS_METHODS,
    entropy_merits,
    rank_features,
    select_top_k,
)
from repro.ml.validation import cross_validate, paper_protocol_split

SCHEMES = ("2", "4", "7", "8")
FS_NAMES = ("None", "IG", "GR", "SU", "Cor", "1R")


@pytest.fixture(scope="module")
def fs_grid(gbt_benchmark, palfa_benchmark):
    """{(dataset, scheme, fs, learner): report} for RF and MPN."""
    factories = learner_factories()
    out = {}
    for ds_name, bench in (("GBT", gbt_benchmark), ("PALFA", palfa_benchmark)):
        for scheme_name in SCHEMES:
            scheme = ALM_SCHEMES[scheme_name]
            y = bench.labels(scheme)
            fs_fold, rest = paper_protocol_split(y, seed=3)
            subsets: dict[str, list[int] | None] = {"None": None}
            X_fs, y_fs = bench.features[fs_fold], y[fs_fold]
            # IG, GR and SU rank the fold from one shared MDL discretization.
            entropy = entropy_merits(X_fs, y_fs)
            for fs in FS_METHODS:
                merits = entropy[fs] if fs in entropy else rank_features(fs, X_fs, y_fs)
                subsets[fs] = select_top_k(merits, 10)
            for learner in ("RF", "MPN"):
                for fs, subset in subsets.items():
                    out[(ds_name, scheme_name, fs, learner)] = cross_validate(
                        factories[learner],
                        bench.features[rest],
                        y[rest],
                        n_folds=3,
                        positive_collapse=scheme,
                        feature_subset=subset,
                        seed=7,
                    )
    return out


def _table(grid, learner) -> str:
    rows = []
    for ds in ("GBT", "PALFA"):
        for scheme in SCHEMES:
            row = [ds, scheme]
            for fs in FS_NAMES:
                row.append(float(np.median(grid[(ds, scheme, fs, learner)].train_times_s)))
            rows.append(row)
    return format_table(["dataset", "scheme"] + list(FS_NAMES), rows)


def test_fig6a_rf_training_times(benchmark, fs_grid):
    grid = benchmark(lambda: fs_grid)
    text = _table(grid, "RF")

    # RQ7 for RF: InfoGain consistently trims training time vs no selection.
    ig_cuts = []
    for ds in ("GBT", "PALFA"):
        for scheme in SCHEMES:
            none_t = grid[(ds, scheme, "None", "RF")].train_time_s
            ig_t = grid[(ds, scheme, "IG", "RF")].train_time_s
            ig_cuts.append(1.0 - ig_t / none_t)
    mean_cut = float(np.mean(ig_cuts))
    text += f"\n\nRQ7 (RF): mean IG training-time cut {100 * mean_cut:.0f}% (paper: ~7%)"
    assert mean_cut > 0.0

    # RQ6: IG does not harm classification (scores comparable to None).
    for ds in ("GBT", "PALFA"):
        for scheme in SCHEMES:
            none_f = grid[(ds, scheme, "None", "RF")].f_measure
            ig_f = grid[(ds, scheme, "IG", "RF")].f_measure
            assert none_f - ig_f < 0.05, (ds, scheme, none_f, ig_f)
    text += "\nRQ6 (RF): IG F-Measure within noise of no-selection baseline"
    emit("fig6a_rf_feature_selection", text)


def test_fig6b_mpn_training_times(benchmark, fs_grid):
    grid = benchmark(lambda: fs_grid)
    text = _table(grid, "MPN")

    # RQ7 for MPN: every FS method reduces training time; IG cuts binary
    # MPN substantially (paper: 64%).
    for ds in ("GBT", "PALFA"):
        for scheme in SCHEMES:
            none_t = grid[(ds, scheme, "None", "MPN")].train_time_s
            for fs in ("IG", "GR", "SU", "Cor", "1R"):
                assert grid[(ds, scheme, fs, "MPN")].train_time_s < none_t, (ds, scheme, fs)
    ig_bin = np.mean([
        1.0 - grid[(ds, "2", "IG", "MPN")].train_time_s
        / grid[(ds, "2", "None", "MPN")].train_time_s
        for ds in ("GBT", "PALFA")
    ])
    text += f"\n\nRQ7 (MPN): IG cuts binary MPN training by {100 * ig_bin:.0f}% (paper: 64%)"
    assert ig_bin > 0.25
    emit("fig6b_mpn_feature_selection", text)
