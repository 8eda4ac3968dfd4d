"""Unit tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.dfs import DataNode, DFSClient
from repro.obs import (
    NULL_OBS,
    EventLog,
    ObsConfig,
    ObsSession,
    ReplayError,
    Tracer,
    build_report,
    read_events,
    render_json,
    render_text,
    replay_all_job_metrics,
    replay_job_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.sparklet.cluster import NodeCapacity, ResourceManager
from repro.sparklet.context import SparkletContext
from repro.sparklet.faults import FaultConfig
from repro.sparklet.metrics import TaskMetrics


def _run_jobs(ctx):
    first = (
        ctx.parallelize(range(60), 6)
        .map(lambda x: (x % 5, x))
        .reduce_by_key(lambda a, b: a + b)
    )
    first.collect()
    ctx.parallelize(range(12), 3).map(lambda x: x * x).collect()


class TestEventLog:
    def test_emit_assigns_seq_and_type(self):
        log = EventLog()
        log.emit("job_start", job_id=1)
        log.emit("job_end", job_id=1)
        events = log.events
        assert [e["seq"] for e in events] == [0, 1]
        assert events[0]["type"] == "job_start"
        assert events[0]["job_id"] == 1
        assert all("t" in e for e in events)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog(path=path) as log:
            log.emit("job_start", job_id=7, name="x")
            log.emit("job_end", job_id=7)
        events = read_events(path)
        assert len(events) == 2
        assert events[1]["job_id"] == 7

    def test_read_events_drops_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"seq": 0, "type": "job_start"}\n{"seq": 1, "ty')
        events = read_events(path)
        assert len(events) == 1

    def test_read_events_accepts_iterable(self):
        evs = [{"type": "job_start"}, {"type": "job_end"}]
        assert read_events(evs) == evs


class TestMetricsRegistry:
    def test_counter_gauge_histogram_timer(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(0.1)
        with reg.timer("t"):
            pass
        snap = reg.snapshot()
        assert snap["c"]["value"] == 5
        assert snap["g"]["value"] == 2.5
        assert snap["h"]["count"] == 1
        assert snap["t"]["count"] == 1

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_buckets_edge_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", edges=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 99.0):
            h.observe(v)
        d = h.to_dict()
        assert d["counts"] == [2, 1]  # 1.0 lands in the (.., 1.0] bucket
        assert d["overflow"] == 1
        assert d["min"] == 0.5 and d["max"] == 99.0

    def test_each_session_owns_its_registry(self):
        a = ObsSession(ObsConfig(enabled=True))
        b = ObsSession(ObsConfig(enabled=True))
        a.registry.counter("c").inc()
        assert a.registry is not b.registry and b.registry.snapshot() == {}


class TestTracer:
    def test_seeded_ids_are_deterministic(self):
        def spans_of(seed):
            tr = Tracer(seed=seed)
            with tr.span("a"):
                with tr.span("b"):
                    pass
            return [(s.span_id, s.parent_id, s.name) for s in tr.spans]

        assert spans_of(3) == spans_of(3)
        assert spans_of(3) != spans_of(4)

    def test_parent_child_nesting(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        outer = next(s for s in tr.spans if s.name == "outer")
        inner = next(s for s in tr.spans if s.name == "inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration_s <= outer.duration_s

    def test_error_status_recorded(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert tr.spans[0].status == "error:ValueError"


class TestSession:
    def test_null_obs_is_disabled_noop(self):
        assert not NULL_OBS.enabled
        NULL_OBS.emit("job_start", job_id=0)  # must not raise
        with NULL_OBS.tracer.span("x"):
            pass
        assert NULL_OBS.events() == []

    def test_from_config_passthrough(self):
        session = ObsSession(ObsConfig(enabled=True))
        assert ObsSession.from_config(session) is session
        assert ObsSession.from_config(None) is NULL_OBS
        assert ObsSession.from_config(ObsConfig(enabled=False)) is NULL_OBS


class TestReplay:
    def test_clean_run_replays_byte_identically(self):
        ctx = SparkletContext(obs=ObsConfig(enabled=True))
        _run_jobs(ctx)
        live = json.dumps(
            [j.to_dict() for j in ctx.scheduler.job_history], sort_keys=True
        )
        replayed = json.dumps(
            [j.to_dict() for j in replay_job_metrics(ctx.obs.events())],
            sort_keys=True,
        )
        assert live == replayed

    def test_faulted_run_replays_byte_identically(self):
        ctx = SparkletContext(
            num_executors=4,
            obs=ObsConfig(enabled=True),
            fault_config=FaultConfig.chaos(seed=3, rate=0.25),
        )
        _run_jobs(ctx)
        live = ctx.scheduler.job_history
        assert any(j.total_failures for j in live), "chaos config never fired"
        replayed = replay_job_metrics(ctx.obs.events())
        assert live == replayed
        assert json.dumps([j.to_dict() for j in live]) == json.dumps(
            [j.to_dict() for j in replayed]
        )

    def test_replay_from_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ctx = SparkletContext(obs=ObsConfig(enabled=True, event_log_path=path))
        _run_jobs(ctx)
        ctx.obs.close()
        merged = replay_all_job_metrics(path)
        assert merged.to_dict() == ctx.all_job_metrics().to_dict()

    def test_truncated_log_raises(self):
        ctx = SparkletContext(obs=ObsConfig(enabled=True))
        _run_jobs(ctx)
        events = ctx.obs.events()
        with pytest.raises(ReplayError):
            replay_job_metrics(events[:-1])  # drop the final job_end

    def test_unknown_stage_raises(self):
        bad = [
            {"type": "job_start", "job_id": 0},
            {
                "type": "task_end",
                "stage_id": 9,
                "attempt": 0,
                "task": TaskMetrics(9, 0, 0.1).to_dict(),
            },
        ]
        with pytest.raises(ReplayError):
            replay_job_metrics(bad)


class TestInstrumentationCoverage:
    def test_dfs_events_emitted(self):
        session = ObsSession(ObsConfig(enabled=True))
        dfs = DFSClient(
            [DataNode(f"dn{i}") for i in range(3)], replication=2, obs=session
        )
        dfs.put_text("/a.txt", "hello world\n" * 50)
        dfs.heartbeat_tick(now=1.0)
        dfs.kill_datanode("dn0")
        dfs.delete("/a.txt")
        kinds = {e["type"] for e in session.events()}
        assert {"dfs_put", "dfs_heartbeat", "dfs_node_dead", "dfs_delete"} <= kinds
        assert dfs.namenode.summary()["n_files"] == 0

    def test_datanode_io_counters(self):
        node = DataNode("dn0")
        dfs = DFSClient([node], replication=1)
        dfs.put_text("/f", "data")
        dfs.get_text("/f")
        assert node.n_writes == 1
        assert node.n_reads == 1

    def test_resource_manager_events(self):
        session = ObsSession(ObsConfig(enabled=True))
        rm = ResourceManager(
            [NodeCapacity("n0", 4, 8192), NodeCapacity("n1", 4, 8192)], obs=session
        )
        from repro.sparklet.cluster import ExecutorSpec

        grants = rm.request_executors(2, ExecutorSpec())
        rm.release(grants[0])
        rm.decommission_node("n1")
        kinds = [e["type"] for e in session.events()]
        assert kinds.count("container_granted") == 2
        assert "container_released" in kinds
        assert "node_decommissioned" in kinds

    def test_fault_injector_events(self):
        ctx = SparkletContext(
            obs=ObsConfig(enabled=True),
            fault_config=FaultConfig.chaos(seed=3, rate=0.25),
        )
        _run_jobs(ctx)
        injected = [e for e in ctx.obs.events() if e["type"] == "fault_injected"]
        assert len(injected) == ctx.runtime.fault_injector.total_fired > 0

    def test_simulation_events(self):
        from repro.sparklet.cluster import ClusterConfig
        from repro.sparklet.simulation import simulate_job

        ctx = SparkletContext(obs=ObsConfig(enabled=True))
        _run_jobs(ctx)
        session = ctx.obs
        run = simulate_job(
            ctx.all_job_metrics(), ClusterConfig(num_executors=2), obs=session
        )
        sim_events = [e for e in session.events() if e["type"] == "sim_stage"]
        assert len(sim_events) == len(run.stages)


class TestReport:
    def test_report_and_renderers(self):
        ctx = SparkletContext(
            obs=ObsConfig(enabled=True),
            fault_config=FaultConfig.chaos(seed=3, rate=0.25),
        )
        _run_jobs(ctx)
        report = build_report(ctx.obs.events())
        assert report["summary"]["n_jobs"] == 2
        assert report["summary"]["n_tasks"] > 0
        assert report["stages"]
        hist = report["task_skew_histogram"]
        assert sum(hist["counts"]) + hist["overflow"] == report["summary"]["n_tasks"]
        text = render_text(report)
        assert "stage timeline" in text
        assert "injected faults" in text
        parsed = json.loads(render_json(report))
        assert parsed["summary"] == report["summary"]

    def test_span_tree_depths(self):
        session = ObsSession(ObsConfig(enabled=True))
        with session.tracer.span("outer"):
            with session.tracer.span("inner"):
                pass
        report = build_report(session.events())
        depths = {s["name"]: s["depth"] for s in report["spans"]}
        assert depths == {"outer": 0, "inner": 1}
