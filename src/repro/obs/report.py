"""Report renderer: turn an event log into human/machine-readable summaries.

Produces the run views the paper's analysis needs (and Spark's UI would
show): per-stage timelines, task-skew histograms, straggler and
blacklist/executor-loss summaries, fault-injection and DFS activity counts,
and the span tree.  Usable programmatically (:func:`build_report`) or from
the CLI (``python -m repro trace-report <run.jsonl>``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.events import (
    BATCH_COMPLETED,
    BATCH_SUBMITTED,
    DFS_PUT,
    DRIFT_DETECTED,
    EXECUTOR_BLACKLISTED,
    EXECUTOR_LOST,
    FAULT_INJECTED,
    JOB_END,
    JOB_START,
    KERNEL_SELECTED,
    MODEL_SWAPPED,
    RETRAIN_COMPLETED,
    SHM_SEGMENT_CREATED,
    SHM_SEGMENT_RELEASED,
    SIM_STAGE,
    SPAN_END,
    SPAN_START,
    WORKER_EXITED,
    WORKER_SPAWNED,
    read_events,
)
from repro.obs.replay import replay_job_metrics

#: Fixed bucket edges for the task-skew histogram: task duration divided by
#: its stage's mean duration.  1.0 is a perfectly balanced stage; the paper's
#: task-skew "knees" show up as mass beyond 2x.
SKEW_EDGES: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)


def _table(headers: list[str], rows: list[list[Any]]) -> str:
    cells = [[str(h) for h in headers]] + [
        [f"{v:.4f}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r_i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r_i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[idx]


def _tenant_events(events: list[dict], tenant: str) -> list[dict]:
    """One tenant's slice of a shared multi-tenant event log.

    Engine/session events carry explicit ``tenant``/``pool`` fields; stage
    and task events carry neither, but the shared driver executes jobs
    strictly sequentially, so everything between a tenant's ``job_start``
    (whose ``pool`` names the tenant) and its ``job_end`` belongs to it.
    """
    kept: list[dict] = []
    in_tenant_job = False
    for e in events:
        etype = e.get("type")
        tagged = e.get("tenant") == tenant or e.get("pool") == tenant
        if etype == JOB_START:
            in_tenant_job = tagged
            if tagged:
                kept.append(e)
        elif etype == JOB_END:
            if in_tenant_job:
                kept.append(e)
            in_tenant_job = False
        elif in_tenant_job or tagged:
            kept.append(e)
    return kept


def _pool_summaries(events: list[dict]) -> list[dict[str, Any]]:
    """Per-pool scheduling-delay and service summary (streaming + jobs)."""
    delays: dict[str, list[float]] = {}
    processing: dict[str, float] = {}
    n_jobs: dict[str, int] = {}
    for e in events:
        etype = e.get("type")
        if etype == BATCH_SUBMITTED:
            pool = e.get("pool", "default")
            delays.setdefault(pool, []).append(
                float(e.get("start_s", 0.0)) - float(e.get("boundary_s", 0.0))
            )
        elif etype == BATCH_COMPLETED:
            pool = e.get("pool", "default")
            processing[pool] = processing.get(pool, 0.0) + float(
                e.get("processing_s", 0.0)
            )
        elif etype == JOB_START:
            pool = e.get("pool", "default")
            n_jobs[pool] = n_jobs.get(pool, 0) + 1
    pools = sorted(set(delays) | set(processing) | set(n_jobs))
    out = []
    for pool in pools:
        d = sorted(delays.get(pool, []))
        out.append(
            {
                "pool": pool,
                "n_batches": len(d),
                "n_jobs": n_jobs.get(pool, 0),
                "sched_delay_mean_s": sum(d) / len(d) if d else 0.0,
                "sched_delay_p50_s": _percentile(d, 0.50),
                "sched_delay_p99_s": _percentile(d, 0.99),
                "processing_s": processing.get(pool, 0.0),
            }
        )
    return out


def build_report(
    source: str | Path | Iterable[dict], *, tenant: str | None = None
) -> dict[str, Any]:
    """Aggregate an event log into a JSON-able report dict.

    ``tenant`` restricts the report to one tenant's slice of a shared
    multi-tenant log (see :func:`_tenant_events`) — the serving analogue of
    grepping one service out of a fleet's log.
    """
    events = read_events(source)
    if tenant is not None:
        events = _tenant_events(events, tenant)
    jobs = replay_job_metrics(events)

    # -- per-stage timeline ------------------------------------------------
    stages: list[dict[str, Any]] = []
    all_tasks: list[tuple[str, Any]] = []  # (stage label, TaskMetrics)
    skew_counts = [0] * (len(SKEW_EDGES) + 1)
    for job in jobs:
        for sm in job.stages:
            n = len(sm.tasks)
            total = sm.total_task_seconds
            longest = sm.max_task_seconds
            mean = total / n if n else 0.0
            label = f"{sm.stage_id}.{sm.attempt}"
            stages.append(
                {
                    "job_id": job.job_id,
                    "stage": label,
                    "name": sm.name,
                    "kind": "map" if sm.is_shuffle_map else "result",
                    "n_tasks": n,
                    "total_task_s": total,
                    "max_task_s": longest,
                    "skew": longest / mean if mean > 0 else 0.0,
                    "shuffle_read_b": sum(t.shuffle_read_bytes for t in sm.tasks),
                    "shuffle_write_b": sm.total_shuffle_write,
                    "failures": sm.n_task_failures + sm.n_executor_lost + sm.n_fetch_failures,
                }
            )
            for t in sm.tasks:
                all_tasks.append((label, t))
                if mean > 0:
                    ratio = t.duration_s / mean
                    idx = next(
                        (i for i, e in enumerate(SKEW_EDGES) if ratio <= e),
                        len(SKEW_EDGES),
                    )
                    skew_counts[idx] += 1

    # -- stragglers --------------------------------------------------------
    slowest = sorted(all_tasks, key=lambda lt: lt[1].duration_s, reverse=True)[:5]
    stragglers = [
        {
            "stage": label,
            "partition": t.partition,
            "duration_s": t.duration_s,
            "attempts": t.attempts,
            "executor_id": t.executor_id,
            "worker_id": t.worker_id,
        }
        for label, t in slowest
    ]

    # -- worker processes (parallel backend) -------------------------------
    # Per-worker task-time totals expose placement skew: with the static
    # partition % num_workers rule, an unlucky residue class shows up here
    # as one worker's busy-seconds towering over the rest.
    per_worker: dict[str, dict[str, Any]] = {}
    for _label, t in all_tasks:
        if not t.worker_id:
            continue
        w = per_worker.setdefault(
            t.worker_id, {"worker_id": t.worker_id, "n_tasks": 0, "busy_s": 0.0}
        )
        w["n_tasks"] += 1
        w["busy_s"] += t.duration_s
    busy = [w["busy_s"] for w in per_worker.values()]
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    for w in per_worker.values():
        w["skew"] = w["busy_s"] / mean_busy if mean_busy > 0 else 0.0
    shm_created = [e for e in events if e["type"] == SHM_SEGMENT_CREATED]
    shm_released = [e for e in events if e["type"] == SHM_SEGMENT_RELEASED]
    workers = {
        "per_worker": sorted(per_worker.values(), key=lambda w: w["worker_id"]),
        "spawned": sum(1 for e in events if e["type"] == WORKER_SPAWNED),
        "exited": sum(1 for e in events if e["type"] == WORKER_EXITED),
        "shm_segments_created": len(shm_created),
        "shm_bytes_created": sum(e.get("nbytes", 0) for e in shm_created),
        "shm_segments_released": len(shm_released),
    }

    # -- executor / fault / dfs activity -----------------------------------
    lost = [e for e in events if e["type"] == EXECUTOR_LOST]
    blacklisted = [e for e in events if e["type"] == EXECUTOR_BLACKLISTED]
    faults: dict[str, int] = {}
    for e in events:
        if e["type"] == FAULT_INJECTED:
            faults[e["kind"]] = faults.get(e["kind"], 0) + 1
    dfs = {
        "puts": sum(1 for e in events if e["type"] == DFS_PUT),
        "bytes_written": sum(e.get("n_bytes", 0) for e in events if e["type"] == DFS_PUT),
    }

    # -- span tree ---------------------------------------------------------
    durations = {
        e["span_id"]: (e.get("duration_s", 0.0), e.get("status", "ok"))
        for e in events
        if e["type"] == SPAN_END
    }
    spans = []
    depth: dict[str | None, int] = {None: -1}
    for e in events:
        if e["type"] != SPAN_START:
            continue
        d = depth.get(e.get("parent_id"), -1) + 1
        depth[e["span_id"]] = d
        dur, status = durations.get(e["span_id"], (0.0, "open"))
        spans.append(
            {
                "depth": d,
                "name": e["name"],
                "span_id": e["span_id"],
                "duration_s": dur,
                "status": status,
            }
        )

    sim_stages = [
        {k: e[k] for k in ("stage_id", "name", "makespan_s", "spilled_bytes") if k in e}
        for e in events
        if e["type"] == SIM_STAGE
    ]

    # -- model serving: swaps and drift ------------------------------------
    model_swaps = [
        {
            k: e[k]
            for k in ("batch_id", "old_version", "version", "tenant")
            if k in e
        }
        for e in events
        if e["type"] == MODEL_SWAPPED
    ]
    drift_events = [
        {
            k: e[k]
            for k in ("batch_id", "tenant", "psi", "ks", "rate_ratio", "reasons")
            if k in e
        }
        for e in events
        if e["type"] == DRIFT_DETECTED
    ]
    serving = {
        "n_model_swaps": len(model_swaps),
        "model_swaps": model_swaps,
        "n_drift_detections": len(drift_events),
        "drift_detections": drift_events,
        "n_retrains": sum(1 for e in events if e["type"] == RETRAIN_COMPLETED),
    }

    # -- front-end kernels -------------------------------------------------
    # How much of each ladder the dedispersion plan shared (kernel_selected
    # events) and how long each kernel stage actually took ("kernel.*"
    # spans, aggregated).
    kernel_selected = [
        {k: e[k] for k in ("groups", "solo_rows") if k in e}
        for e in events
        if e["type"] == KERNEL_SELECTED
    ]
    span_names = {
        e["span_id"]: e["name"] for e in events if e["type"] == SPAN_START
    }
    kernel_stage_totals: dict[str, dict[str, Any]] = {}
    for e in events:
        if e["type"] != SPAN_END:
            continue
        name = str(e.get("name") or span_names.get(e.get("span_id"), ""))
        if not name.startswith("kernel."):
            continue
        st = kernel_stage_totals.setdefault(
            name, {"stage": name, "count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        st["count"] += 1
        dur = float(e.get("duration_s", 0.0))
        st["total_s"] += dur
        st["max_s"] = max(st["max_s"], dur)
    kernels = {
        "selected": kernel_selected,
        "stages": sorted(kernel_stage_totals.values(), key=lambda r: r["stage"]),
    }

    return {
        "summary": {
            "tenant": tenant,
            "n_events": len(events),
            "n_jobs": len(jobs),
            "n_stage_executions": len(stages),
            "n_tasks": len(all_tasks),
            "total_task_s": sum(t.duration_s for _l, t in all_tasks),
            "n_task_failures": sum(j.n_task_failures for j in jobs),
            "n_executor_lost": sum(j.n_executor_lost for j in jobs),
            "n_fetch_failures": sum(j.n_fetch_failures for j in jobs),
            "n_recomputed_stages": sum(j.n_recomputed_stages for j in jobs),
        },
        "stages": stages,
        "task_skew_histogram": {
            "edges": list(SKEW_EDGES),
            "counts": skew_counts[:-1],
            "overflow": skew_counts[-1],
        },
        "stragglers": stragglers,
        "workers": workers,
        "executors": {
            "lost": [e.get("executor_id", "?") for e in lost],
            "blacklisted": [e.get("executor_id", "?") for e in blacklisted],
        },
        "faults_injected": faults,
        "dfs": dfs,
        "pools": _pool_summaries(events),
        "spans": spans,
        "sim_stages": sim_stages,
        "kernels": kernels,
        "serving": serving,
    }


def render_text(report: dict[str, Any]) -> str:
    """Fixed-width text rendering of :func:`build_report` output."""
    out: list[str] = []
    s = report["summary"]
    out.append("== run summary ==")
    if s.get("tenant"):
        out.append(f"tenant: {s['tenant']}")
    out.append(
        f"events={s['n_events']}  jobs={s['n_jobs']}  "
        f"stage-executions={s['n_stage_executions']}  tasks={s['n_tasks']}  "
        f"task-seconds={s['total_task_s']:.4f}"
    )
    out.append(
        f"failures: task={s['n_task_failures']}  executor={s['n_executor_lost']}  "
        f"fetch={s['n_fetch_failures']}  recomputed-stages={s['n_recomputed_stages']}"
    )

    if report["stages"]:
        out.append("\n== stage timeline ==")
        out.append(
            _table(
                ["job", "stage", "name", "kind", "tasks", "total s", "max s",
                 "skew", "shuf R", "shuf W", "fail"],
                [
                    [r["job_id"], r["stage"], r["name"][:36], r["kind"], r["n_tasks"],
                     r["total_task_s"], r["max_task_s"], r["skew"],
                     r["shuffle_read_b"], r["shuffle_write_b"], r["failures"]]
                    for r in report["stages"]
                ],
            )
        )

    hist = report["task_skew_histogram"]
    if sum(hist["counts"]) + hist["overflow"] > 0:
        out.append("\n== task skew (duration / stage mean) ==")
        labels = [f"<={e}" for e in hist["edges"]] + [f">{hist['edges'][-1]}"]
        counts = hist["counts"] + [hist["overflow"]]
        peak = max(counts) or 1
        for label, count in zip(labels, counts):
            bar = "#" * round(30 * count / peak)
            out.append(f"  {label:>7s}  {count:6d}  {bar}")

    if report["stragglers"]:
        out.append("\n== slowest tasks ==")
        out.append(
            _table(
                ["stage", "partition", "duration s", "attempts", "executor", "worker"],
                [[r["stage"], r["partition"], r["duration_s"], r["attempts"],
                  r["executor_id"], r.get("worker_id", "") or "-"]
                 for r in report["stragglers"]],
            )
        )

    w = report.get("workers", {})
    if w.get("per_worker"):
        out.append("\n== worker processes ==")
        out.append(
            _table(
                ["worker", "tasks", "busy s", "skew"],
                [[r["worker_id"], r["n_tasks"], r["busy_s"], r["skew"]]
                 for r in w["per_worker"]],
            )
        )
        out.append(
            f"spawned={w['spawned']}  exited={w['exited']}  "
            f"shm-segments={w['shm_segments_created']} "
            f"({w['shm_bytes_created']} B created, "
            f"{w['shm_segments_released']} released)"
        )

    ex = report["executors"]
    if ex["lost"] or ex["blacklisted"]:
        out.append("\n== executors ==")
        out.append(f"lost: {', '.join(ex['lost']) or '-'}")
        out.append(f"blacklisted: {', '.join(ex['blacklisted']) or '-'}")

    if report["faults_injected"]:
        out.append("\n== injected faults ==")
        for kind, count in sorted(report["faults_injected"].items()):
            out.append(f"  {kind}: {count}")

    if report["dfs"]["puts"]:
        d = report["dfs"]
        out.append("\n== dfs ==")
        out.append(f"puts={d['puts']}  bytes={d['bytes_written']}")

    if report.get("pools"):
        out.append("\n== scheduling pools ==")
        out.append(
            _table(
                ["pool", "batches", "jobs", "delay mean s", "delay p50 s",
                 "delay p99 s", "processing s"],
                [[r["pool"], r["n_batches"], r["n_jobs"],
                  r["sched_delay_mean_s"], r["sched_delay_p50_s"],
                  r["sched_delay_p99_s"], r["processing_s"]]
                 for r in report["pools"]],
            )
        )

    kernels = report.get("kernels", {})
    if kernels.get("selected") or kernels.get("stages"):
        out.append("\n== front-end kernels ==")
        for sel in kernels.get("selected", []):
            out.append("  selected: " + " ".join(f"{k}={v}" for k, v in sel.items()))
        if kernels.get("stages"):
            out.append(
                _table(
                    ["stage", "count", "total s", "max s"],
                    [[r["stage"], r["count"], r["total_s"], r["max_s"]]
                     for r in kernels["stages"]],
                )
            )

    serving = report.get("serving", {})
    if serving.get("n_model_swaps") or serving.get("n_drift_detections"):
        out.append("\n== model serving ==")
        out.append(
            f"swaps={serving['n_model_swaps']}  "
            f"drift-detections={serving['n_drift_detections']}  "
            f"retrains={serving['n_retrains']}"
        )
        if serving.get("model_swaps"):
            out.append(
                _table(
                    ["batch", "old", "new", "tenant"],
                    [[r.get("batch_id", "?"), r.get("old_version", "-"),
                      r.get("version", "?"), r.get("tenant", "-") or "-"]
                     for r in serving["model_swaps"]],
                )
            )

    if report["spans"]:
        out.append("\n== span tree ==")
        for sp in report["spans"]:
            out.append(
                f"  {'  ' * sp['depth']}{sp['name']}  "
                f"[{sp['duration_s']:.4f}s {sp['status']}]"
            )

    if report["sim_stages"]:
        out.append("\n== simulated stages ==")
        out.append(
            _table(
                ["stage", "name", "makespan s", "spilled B"],
                [[r.get("stage_id", "?"), r.get("name", "?")[:36],
                  r.get("makespan_s", 0.0), r.get("spilled_bytes", 0.0)]
                 for r in report["sim_stages"]],
            )
        )

    return "\n".join(out) + "\n"


def render_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2) + "\n"
