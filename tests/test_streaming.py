"""Unit tests for the micro-batch streaming engine's components.

The streamed≡offline equivalence law has its own suites
(``test_streaming_equivalence.py`` for the engineered cases,
``test_properties_streaming.py`` for the hypothesis sweep); this file
covers the pieces in isolation: receiver replay and rate credit, watermark
state, the PID estimator, checkpoint round-trips, the serving scorer, and
the observability events the engine emits.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.api import PipelineConfig, StreamingConfig, run_drapid, run_streaming
from repro.dataplane import SPEBatch
from repro.obs import ObsConfig
from repro.streaming import (
    LinearCostModel,
    PIDRateEstimator,
    ReplayReceiver,
    StreamScorer,
    StreamState,
    build_stream,
    canonical_ml_text,
)
from repro.streaming.backpressure import MIN_RATE
from repro.streaming.checkpoint import (
    CheckpointError,
    put_replace,
    read_checkpoint,
    write_checkpoint,
)
from repro.streaming.engine import stream_observations
from repro.streaming.receiver import CLOSE, CLUSTER, DATA, StreamItem


def _item(kind, key, t):
    if kind == DATA:
        return StreamItem(DATA, key, f"1.000,5.000,{t:.6f},0,1", t)
    if kind == CLUSTER:
        line = f"{key},0,1,3,0.000,2.000,0.000000,{t:.6f},9.000,,0"
        return StreamItem(CLUSTER, key, line, t)
    return StreamItem(CLOSE, key, None, None)


class TestReplayReceiver:
    def test_build_stream_is_time_ordered_per_key(self, observation):
        items = build_stream([observation])
        times = [it.time_s for it in items if it.kind != CLOSE]
        assert times == sorted(times)
        assert items[-1].kind == CLOSE

    def test_duplicate_observation_keys_are_refused(self, observation):
        """Two observations under one key would stream as one: the state
        layer keys its row buffers by observation key.  The receiver every
        engine replays from (solo streaming and each serving tenant alike)
        refuses them, naming the key."""
        named = f"duplicate observation key {observation.key.to_key()!r}"
        with pytest.raises(ValueError, match=re.escape(named)):
            build_stream([observation, observation])
        with pytest.raises(ValueError, match=re.escape(named)):
            ReplayReceiver.from_observations([observation, observation])
        with pytest.raises(ValueError, match=re.escape(named)):
            stream_observations([observation, observation], StreamingConfig())

    def test_stable_order_on_equal_times(self, observation):
        """Rows sharing an event time keep their data-file order — the
        property the per-cluster byte-identity proof leans on."""
        rows = observation.spe_batch.to_csv_rows()
        items = [it.payload for it in build_stream([observation]) if it.kind == DATA]
        by_time: dict[float, list[int]] = {}
        for payload in items:
            by_time.setdefault(float(payload.split(",")[2]), []).append(
                rows.index(payload)
            )
        # within every equal-time run, data-file positions must increase
        for positions in by_time.values():
            assert positions == sorted(positions)

    def test_rate_credit_carries_fractions(self):
        items = [_item(DATA, "k", i / 10.0) for i in range(10)]
        rx = ReplayReceiver(items)
        sizes = [
            rx.poll(time_s=j * 1.0, interval_s=1.0, rate_rows_per_s=2.5).n_rows
            for j in range(4)
        ]
        assert sizes == [2, 3, 2, 3]  # 2.5 rows/s alternates deterministically

    def test_close_items_ride_free(self):
        items = [_item(DATA, "k", 0.0), _item(CLOSE, "k", None)]
        rx = ReplayReceiver(items)
        block = rx.poll(time_s=1.0, interval_s=1.0, rate_rows_per_s=1.0)
        kinds = [it.kind for it in block.items]
        assert kinds == [DATA, CLOSE]
        assert block.n_rows == 1  # the close didn't bill against the rate
        assert rx.exhausted

    def test_snapshot_restore_resumes_identically(self):
        items = [_item(DATA, "k", i / 5.0) for i in range(20)]
        a = ReplayReceiver(items)
        for j in range(3):
            a.poll(time_s=j, interval_s=1.0, rate_rows_per_s=3.3)
        snap = json.loads(json.dumps(a.snapshot()))  # through JSON, as the DFS would
        b = ReplayReceiver(items)
        b.restore(snap)
        for j in range(3, 6):
            ba = a.poll(time_s=j, interval_s=1.0, rate_rows_per_s=3.3)
            bb = b.poll(time_s=j, interval_s=1.0, rate_rows_per_s=3.3)
            assert ba.items == bb.items


class TestStreamState:
    def test_watermark_must_strictly_pass_t_hi(self):
        state = StreamState()
        state.ingest(1, [_item(DATA, "k", 1.0), _item(CLUSTER, "k", 1.0)])
        # watermark == t_hi: rows with that exact timestamp may still arrive
        assert state.finalize(1) == []
        state.ingest(2, [_item(DATA, "k", 1.5)])
        units = state.finalize(2)
        assert len(units) == 1
        assert units[0].n_batches_spanned == 2

    def test_key_close_finalizes_and_frees(self):
        state = StreamState()
        state.ingest(1, [_item(DATA, "k", 1.0), _item(CLUSTER, "k", 1.0)])
        state.ingest(2, [_item(CLOSE, "k", None)])
        units = state.finalize(2)
        assert len(units) == 1 and units[0].key == "k"
        assert state.empty  # row buffer freed at key close

    def test_rows_not_consumed_by_overlapping_boxes(self):
        """A row inside two clusters' boxes must feed both finalizations."""
        state = StreamState()
        row = _item(DATA, "k", 1.0)
        c1 = StreamItem(CLUSTER, "k", "k,0,1,3,0.000,2.000,0.000000,1.000000,9.000,,0", 1.0)
        c2 = StreamItem(CLUSTER, "k", "k,1,2,3,0.000,2.000,0.500000,2.000000,9.000,,0", 2.0)
        state.ingest(1, [row, c1])
        state.ingest(2, [StreamItem(DATA, "k", "1.000,5.000,1.500000,0,1", 1.5), c2])
        u1 = state.finalize(2)  # c1 due (watermark 2.0 > 1.0)
        state.ingest(3, [_item(CLOSE, "k", None)])
        u2 = state.finalize(3)  # c2 due at close
        assert row.payload in {ln.split(",", 1)[1] for ln in u1[0].data_lines}
        assert row.payload in {ln.split(",", 1)[1] for ln in u2[0].data_lines}

    def test_unit_skips_a_row_the_parse_drops(self):
        """A buffered row whose DM is not finite never reaches a unit, and
        the rows after it stay aligned with their parsed columns."""
        state = StreamState()
        state.ingest(0, [
            StreamItem(DATA, "k", "nan,5.000,1.000000,0,1", 1.0),
            _item(DATA, "k", 1.0), _item(CLUSTER, "k", 1.0), _item(CLOSE, "k", None),
        ])
        (unit,) = state.finalize(0)
        assert unit.data_lines == ("k,1.000,5.000,1.000000,0,1",)

    def test_snapshot_restore_round_trip(self):
        state = StreamState()
        state.ingest(1, [_item(DATA, "k", 1.0), _item(CLUSTER, "k", 1.0)])
        snap = json.loads(json.dumps(state.snapshot()))
        restored = StreamState.restore(snap)
        assert restored.n_pending_clusters == 1
        assert restored.n_buffered_rows == 1
        assert restored.watermarks() == state.watermarks()


class TestPIDRateEstimator:
    def test_converges_on_processing_rate_under_overload(self):
        est = PIDRateEstimator(batch_interval_s=1.0, initial_rate=400.0)
        capacity = 200.0  # rows/s the (linear) pipeline can actually do
        t, sched = 0.0, 0.0
        for _ in range(30):
            rows = int(est.rate)
            proc = rows / capacity
            t = max(t + 1.0, t + proc)
            sched = max(0.0, sched + proc - 1.0)
            est.compute(t, rows, proc, sched)
        assert est.rate == pytest.approx(capacity, rel=0.05)

    def test_rejects_unusable_updates(self):
        est = PIDRateEstimator(batch_interval_s=1.0, initial_rate=100.0)
        assert est.compute(1.0, 0, 1.0, 0.0) is None      # empty batch
        assert est.compute(1.0, 10, 0.0, 0.0) is None     # zero delay
        est.compute(1.0, 10, 0.1, 0.0)
        assert est.compute(0.5, 10, 0.1, 0.0) is None     # stale time

    def test_rate_floor(self):
        est = PIDRateEstimator(batch_interval_s=1.0, initial_rate=1000.0)
        est.compute(10.0, 1000, 100.0, 50.0)  # catastrophic overload
        assert est.rate == MIN_RATE == 10.0  # spark.streaming.backpressure.pid.minRate

    def test_snapshot_restore(self):
        est = PIDRateEstimator(batch_interval_s=1.0, initial_rate=300.0)
        est.compute(1.0, 100, 0.8, 0.2)
        snap = json.loads(json.dumps(est.snapshot()))
        other = PIDRateEstimator(batch_interval_s=1.0, initial_rate=300.0)
        other.restore(snap)
        assert other.compute(2.0, 100, 0.8, 0.2) == est.compute(2.0, 100, 0.8, 0.2)


class TestCheckpointIO:
    def test_round_trip(self, dfs):
        n = write_checkpoint(dfs, "/ck/state.json", {"batch_index": 3, "x": [1, 2]})
        assert n > 0
        snap = read_checkpoint(dfs, "/ck/state.json")
        assert snap["batch_index"] == 3 and snap["x"] == [1, 2]

    def test_missing_checkpoint_is_none(self, dfs):
        assert read_checkpoint(dfs, "/nope.json") is None

    def test_overwrite_replaces(self, dfs):
        write_checkpoint(dfs, "/ck.json", {"batch_index": 1})
        write_checkpoint(dfs, "/ck.json", {"batch_index": 2})
        assert read_checkpoint(dfs, "/ck.json")["batch_index"] == 2

    def test_version_gate(self, dfs):
        put_replace(dfs, "/ck.json", json.dumps({"checkpoint_version": 99}))
        with pytest.raises(CheckpointError, match="version 99"):
            read_checkpoint(dfs, "/ck.json")

    def test_corrupt_checkpoint_raises(self, dfs):
        put_replace(dfs, "/ck.json", "{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_checkpoint(dfs, "/ck.json")


class TestStreamScorer:
    def test_scores_with_any_predictor(self):
        class Constant:
            def predict(self, X):
                return np.zeros(len(X), dtype=np.int64)

        from repro.dataplane import PulseBatch

        scorer = StreamScorer(Constant())
        assert scorer.score(PulseBatch.empty()).size == 0

    def test_rejects_models_without_predict(self):
        with pytest.raises(TypeError, match="no predict"):
            StreamScorer(object())

    def test_from_path_uses_hardened_loader(self, tmp_path):
        import pickle

        class Evil:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        path = tmp_path / "evil.pkl"
        path.write_bytes(pickle.dumps(Evil()))
        with pytest.raises(pickle.UnpicklingError, match="refusing to unpickle"):
            StreamScorer.from_path(path)


class TestEngineObservability:
    @pytest.fixture(scope="class")
    def traced_run(self):
        config = StreamingConfig(
            pipeline=PipelineConfig(n_pulsars=3, n_observations=1, seed=11,
                                    obs_config=ObsConfig(enabled=True)),
            batch_interval_s=0.25, arrival_rate=600.0, checkpoint_interval=3,
        )
        return run_streaming(config)

    def test_streaming_event_vocabulary_emitted(self, traced_run):
        types = {ev["type"] for ev in traced_run.obs.events()}
        assert {"block_received", "batch_submitted", "batch_completed",
                "watermark_advanced", "rate_updated",
                "checkpoint_written"} <= types

    def test_batch_events_pair_up(self, traced_run):
        events = traced_run.obs.events()
        submitted = [e["batch_id"] for e in events if e["type"] == "batch_submitted"]
        completed = [e["batch_id"] for e in events if e["type"] == "batch_completed"]
        assert submitted == completed == sorted(submitted)

    def test_watermarks_are_monotone_per_key(self, traced_run):
        marks: dict[str, list[float]] = {}
        for ev in traced_run.obs.events():
            if ev["type"] == "watermark_advanced":
                marks.setdefault(ev["key"], []).append(ev["watermark"])
        assert marks
        for series in marks.values():
            assert series == sorted(series)

    def test_counters_recorded(self, traced_run):
        completed = [e for e in traced_run.obs.events()
                     if e["type"] == "batch_completed"]
        assert len(completed) == traced_run.n_batches
        assert sum(e["n_pulses"] for e in completed) == traced_run.n_pulses

    def test_sparklet_job_events_present_per_batch(self, traced_run):
        """Each batch's D-RAPID job runs through Sparklet, so scheduler
        lifecycle events must interleave with the streaming events."""
        types = {ev["type"] for ev in traced_run.obs.events()}
        assert "job_start" in types and "task_end" in types


class TestEngineGuards:
    def test_max_batches_guard(self):
        config = StreamingConfig(
            pipeline=PipelineConfig(n_pulsars=3, n_observations=1, seed=0),
            arrival_rate=50.0, max_batches=3,
        )
        with pytest.raises(RuntimeError, match="max_batches"):
            run_streaming(config)

    def test_empty_observations_drain_immediately(self):
        from repro.streaming import stream_observations

        config = StreamingConfig(pipeline=PipelineConfig(n_pulsars=3))
        result = stream_observations([], config)
        assert result.n_batches == 0 and result.n_pulses == 0

    def test_cost_model_is_deterministic(self):
        model = LinearCostModel(rows_per_s=100.0, fixed_s=0.5)
        assert model.batch_seconds(50) == pytest.approx(1.0)

    @pytest.mark.parametrize("field, value", [
        ("arrival_rate", 0.0),
        ("arrival_rate", -5.0),
        ("arrival_rate", float("nan")),
        ("arrival_rate", float("inf")),
        ("batch_interval_s", 0.0),
        ("batch_interval_s", -1.0),
        ("batch_interval_s", float("nan")),
        ("checkpoint_interval", -1),
    ])
    def test_degenerate_config_rejected_by_name(self, field, value):
        """A zero/negative/NaN rate or interval used to spin empty batches up
        to max_batches (or die converting NaN), and a negative
        checkpoint_interval checkpointed every batch."""
        with pytest.raises(ValueError, match=field):
            StreamingConfig(**{field: value})

    def test_checkpoint_interval_zero_disables_checkpointing(self):
        config = StreamingConfig(
            pipeline=PipelineConfig(n_pulsars=3, n_observations=1, seed=0),
            checkpoint_interval=0,
        )
        result = run_streaming(config)
        assert result.n_batches > 0 and result.checkpoints_written == 0


class TestNonFiniteSPERows:
    """An SPE row whose DM, Sigma or Time is not finite is dropped by the
    offline parse; the stream must drop it too, not trip over it."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_streamed_equals_offline_with_the_row_deleted(self, observation, token):
        spe = observation.spe_batch
        brightest = int(np.argmax(spe.snr))
        snr = spe.snr.copy()
        snr[brightest] = float(token)
        mutated = dataclasses.replace(observation, _spe_batch=SPEBatch(
            spe.dm, snr, spe.time_s, spe.sample, spe.downfact))
        deleted = dataclasses.replace(
            observation, _spe_batch=spe.take(np.delete(np.arange(len(spe)), brightest)))
        pipeline = PipelineConfig(num_partitions=4)

        assert any(token in row for row in mutated.spe_batch.to_csv_rows())
        streamed = stream_observations([mutated], StreamingConfig(
            pipeline=pipeline, batch_interval_s=1.0, arrival_rate=600.0))
        offline = run_drapid(pipeline, [deleted])
        assert streamed.n_batches > 1 and offline.n_pulses > 0
        assert streamed.canonical_ml_text() == canonical_ml_text(offline.pulse_batch)
