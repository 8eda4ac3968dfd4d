"""Property suite for the campaign drift monitors.

Hypothesis drives :class:`~repro.campaign.drift.DriftMonitor` with
synthetic score streams and checks the laws the campaign runner relies on:

- a *stationary* stream never declares drift, across seeds and window
  shapes (the false-positive law — a baseline phase must stay quiet);
- an injected distribution shift is declared within a bounded number of
  batches of the change point (the detection-latency law the end-to-end
  gate depends on);
- ``snapshot``/``restore`` round-trips exactly: a restored monitor emits
  the same signals as the original on any continuation of the stream.

The PSI/KS helpers get direct property checks too (zero on identical
samples, KS bounded and symmetric).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.campaign.drift import CUR_WINDOW, SUSTAIN, DriftMonitor, _ks, _psi  # noqa: E402

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _beta_batches(rng, a, b, n_batches, per_batch=60):
    return [rng.beta(a, b, size=per_batch) for _ in range(n_batches)]


# ---------------------------------------------------------------------------
# The detectors themselves
# ---------------------------------------------------------------------------
@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       size=st.integers(min_value=1, max_value=200))
def test_psi_and_ks_vanish_on_identical_samples(seed, size):
    rng = np.random.default_rng(seed)
    x = rng.random(size)
    assert _psi(x, x, n_bins=8) == pytest.approx(0.0, abs=1e-12)
    assert _ks(x, x) == 0.0


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ks_is_bounded_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = rng.beta(2, 5, size=rng.integers(1, 80))
    b = rng.beta(5, 2, size=rng.integers(1, 80))
    d = _ks(a, b)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(_ks(b, a))


def test_ks_detects_disjoint_supports():
    assert _ks(np.full(50, 0.1), np.full(50, 0.9)) == 1.0


# ---------------------------------------------------------------------------
# Stationarity: no false alarms
# ---------------------------------------------------------------------------
@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=500),
       a=st.sampled_from([2.0, 5.0, 8.0]),
       b=st.sampled_from([2.0, 5.0]))
def test_stationary_stream_never_declares_drift(seed, a, b):
    rng = np.random.default_rng(seed)
    monitor = DriftMonitor()
    for i, scores in enumerate(_beta_batches(rng, a, b, 40)):
        signal = monitor.update(i, scores, n_clusters=len(scores))
        assert not signal.drifted, (
            f"false drift at batch {i}: {signal}"
        )
    assert monitor.n_detections == 0


def test_false_positive_rate_is_low_on_thin_batches():
    """With only ~30 scores per batch the PSI estimate is noisy; the
    monitor may occasionally alarm on a truly stationary stream, but the
    per-stream false-positive rate must stay in the low percent range
    (campaigns see at most a handful of spurious retrains, each harmless)."""
    fp = 0
    n_streams = 120
    for seed in range(n_streams):
        rng = np.random.default_rng(seed)
        monitor = DriftMonitor()
        for i, scores in enumerate(_beta_batches(rng, 2, 5, 40, per_batch=30)):
            if monitor.update(i, scores, 30).drifted:
                fp += 1
                break
    assert fp / n_streams < 0.08, f"{fp}/{n_streams} stationary streams alarmed"


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=500))
def test_constant_rate_never_trips_rate_alarm(seed):
    rng = np.random.default_rng(seed)
    monitor = DriftMonitor()
    for i in range(40):
        signal = monitor.update(i, rng.beta(3, 3, 30), n_clusters=10)
        assert "cluster_rate" not in signal.reasons


# ---------------------------------------------------------------------------
# Detection latency: a real shift is caught within a bounded window
# ---------------------------------------------------------------------------
@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=500),
       warmup=st.integers(min_value=18, max_value=30))
def test_distribution_shift_detected_within_window(seed, warmup):
    rng = np.random.default_rng(seed)
    monitor = DriftMonitor()
    for i, scores in enumerate(_beta_batches(rng, 8, 2, warmup)):
        assert not monitor.update(i, scores, 20).drifted
    # Change point: scores collapse toward zero (the storm regime).
    detected_at = None
    for j, scores in enumerate(_beta_batches(rng, 2, 8, 12)):
        if monitor.update(warmup + j, scores, 20).drifted:
            detected_at = j
            break
    # Worst case: the current window must fill with shifted batches, then
    # the alarm must sustain.
    bound = CUR_WINDOW + SUSTAIN
    assert detected_at is not None and detected_at < bound


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=500),
       mult=st.sampled_from([5, 8, 12]))
def test_cluster_rate_flood_detected(seed, mult):
    rng = np.random.default_rng(seed)
    monitor = DriftMonitor()
    scores = rng.beta(3, 3, 30)
    for i in range(20):
        assert not monitor.update(i, scores, n_clusters=4).drifted
    detected_at = None
    for j in range(12):
        signal = monitor.update(20 + j, scores, n_clusters=4 * mult)
        if signal.drifted:
            assert "cluster_rate" in signal.reasons
            detected_at = j
            break
    assert detected_at is not None and detected_at < CUR_WINDOW + SUSTAIN


# ---------------------------------------------------------------------------
# Latch, rebase, checkpoint
# ---------------------------------------------------------------------------
def _shifting_stream(rng, n):
    """Stationary for n batches, then permanently shifted."""
    return _beta_batches(rng, 8, 2, n) + _beta_batches(rng, 2, 8, n)


def test_latch_prevents_redeclaring_the_same_drift():
    rng = np.random.default_rng(7)
    monitor = DriftMonitor()
    declared = [
        i for i, scores in enumerate(_shifting_stream(rng, 25))
        if monitor.update(i, scores, 20).drifted
    ]
    assert len(declared) >= 1
    # A latched monitor stays latched through a persistent shift — the
    # runner (not the monitor) decides when to rebase.
    assert monitor.n_detections <= 2


def test_rebase_clears_state_and_rearms():
    rng = np.random.default_rng(11)
    monitor = DriftMonitor()
    for i, scores in enumerate(_shifting_stream(rng, 25)):
        monitor.update(i, scores, 20)
    assert monitor.n_detections >= 1
    monitor.rebase()
    assert monitor.snapshot()["scores"] == []
    assert monitor.snapshot()["latched"] is False
    # A fresh stationary stream after rebase stays quiet.
    for i, scores in enumerate(_beta_batches(rng, 3, 3, 30)):
        assert not monitor.update(100 + i, scores, 10).drifted


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=500),
       split=st.integers(min_value=1, max_value=40))
def test_snapshot_restore_roundtrip_preserves_signals(seed, split):
    import json

    rng = np.random.default_rng(seed)
    stream = _shifting_stream(rng, 22)
    original = DriftMonitor()
    for i, scores in enumerate(stream[:split]):
        original.update(i, scores, len(scores) // 2)

    state = json.loads(json.dumps(original.snapshot()))
    restored = DriftMonitor()
    restored.restore(state)

    for i, scores in enumerate(stream[split:], start=split):
        a = original.update(i, scores, len(scores) // 2)
        b = restored.update(i, scores, len(scores) // 2)
        assert a == b
    assert original.n_detections == restored.n_detections
