"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the pipeline stages a survey scientist would run:

- ``generate``     — synthesize a survey and print its statistics
- ``identify``     — run the full D-RAPID identification pipeline
- ``stream``       — replay the workload through the micro-batch engine
- ``serve``        — run N tenant streams on one fair-share serving driver
- ``campaign``     — simulate a long observing campaign with drift + retraining
- ``classify``     — build a labeled benchmark and cross-validate a learner
- ``simulate``     — replay an identification job on a configurable cluster
- ``trace-report`` — summarize an observability event log (``--trace-out``)
- ``candidates``   — query the persistent candidate database (``--memo-dir``)
- ``reproduce``    — replay the lineage slice behind one stored candidate

The pipeline-running commands go through :mod:`repro.api` (the blessed
facade); ``--trace-out PATH`` on ``identify``/``simulate`` writes a JSONL
event log that ``trace-report`` (or :mod:`repro.obs`) can replay.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

SURVEYS = ("GBT350Drift", "PALFA", "CHIME", "FAST-CRAFTS")


def _survey(name: str):
    from repro.astro import SurveyConfig

    return SurveyConfig.preset(name)


def _survey_name(value: str) -> str:
    """argparse type: accept any preset name or alias (``chime``, ``fast``,
    ...), normalize to the canonical survey name."""
    from repro.astro import SurveyConfig

    try:
        return SurveyConfig.preset(value).name
    except KeyError as exc:
        raise argparse.ArgumentTypeError(str(exc).strip('"')) from None


def _cluster_field(field: str, convert):
    """argparse type for a value that ends up in one ClusterConfig field:
    ClusterConfig's own validation rejects it at parse time (exit 2), before
    any work runs."""

    def parse(value: str):
        from repro.sparklet import ClusterConfig

        parsed = convert(value)
        try:
            ClusterConfig(**{field: parsed})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return parsed

    parse.__name__ = convert.__name__  # argparse's "invalid int value" wording
    return parse


def _add_execution_args(p: argparse.ArgumentParser) -> None:
    """The shared execution knobs (backend/workers).

    Resolution order is environment < config < CLI: a flag left unset keeps
    the matching :class:`~repro.execution.ExecutionConfig` field ``None``,
    which defers to the ``REPRO_*`` environment defaults.
    """
    p.add_argument("--backend", choices=["serial", "parallel"],
                   default=None,
                   help="execution backend (default: REPRO_BACKEND or serial)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes for --backend parallel")


def _execution_config(args: argparse.Namespace):
    """Build the run's ExecutionConfig from the parsed execution flags."""
    from repro.execution import ExecutionConfig

    return ExecutionConfig(backend=args.backend, num_workers=args.workers)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D-RAPID reproduction: single pulse identification and classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a survey")
    gen.add_argument("--survey", type=_survey_name, metavar="SURVEY", default="GBT350Drift")
    gen.add_argument("--pulsars", type=int, default=8)
    gen.add_argument("--observations", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)

    ident = sub.add_parser("identify", help="run the D-RAPID pipeline")
    ident.add_argument("--survey", type=_survey_name, metavar="SURVEY", default="GBT350Drift")
    ident.add_argument("--pulsars", type=int, default=6)
    ident.add_argument("--observations", type=int, default=3)
    ident.add_argument("--scheme", choices=["2", "4*", "4", "7", "8"], default="2")
    ident.add_argument("--seed", type=int, default=0)
    _add_execution_args(ident)
    ident.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write an observability event log (JSONL) here")
    ident.add_argument("--memo-dir", default=None, metavar="PATH",
                       help="enable lineage-hash memoization + candidate "
                            "recording, persisted under this directory")

    stream = sub.add_parser("stream", help="run the micro-batch streaming engine")
    stream.add_argument("--survey", type=_survey_name, metavar="SURVEY", default="GBT350Drift")
    stream.add_argument("--pulsars", type=int, default=6)
    stream.add_argument("--observations", type=int, default=3)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--batch-interval", type=float, default=1.0, metavar="S",
                        help="micro-batch interval on the simulated clock")
    stream.add_argument("--arrival-rate", type=float, default=4000.0, metavar="ROWS_PER_S",
                        help="source arrival rate (rows per second)")
    stream.add_argument("--no-backpressure", action="store_true",
                        help="disable the PID rate estimator")
    stream.add_argument("--checkpoint-interval", type=int, default=8, metavar="N",
                        help="batches between DFS checkpoints (0 disables)")
    stream.add_argument("--crash-at", type=int, default=None, metavar="BATCH",
                        help="inject a driver crash after this batch and recover")
    stream.add_argument("--model", default=None, metavar="PATH",
                        help="saved classifier for in-stream scoring")
    _add_execution_args(stream)
    stream.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write an observability event log (JSONL) here")

    serve = sub.add_parser(
        "serve", help="run N tenant streams on one fair-share serving driver")
    serve.add_argument("--survey", type=_survey_name, metavar="SURVEY", default="GBT350Drift")
    serve.add_argument("--tenants", type=int, default=2, metavar="N",
                       help="number of tenant streams (tenant-0 … tenant-N-1)")
    serve.add_argument("--pulsars", type=int, default=4)
    serve.add_argument("--observations", type=int, default=2)
    serve.add_argument("--seed", type=int, default=0,
                       help="base seed; tenant i streams seed+i")
    serve.add_argument("--weights", type=float, nargs="+", default=None,
                       metavar="W", help="per-tenant fair-share weights "
                       "(repeated cyclically; default: all 1.0)")
    serve.add_argument("--batch-interval", type=float, default=1.0, metavar="S")
    serve.add_argument("--arrival-rate", type=float, default=4000.0,
                       metavar="ROWS_PER_S")
    serve.add_argument("--capacity", type=float, default=None,
                       metavar="ROWS_PER_S",
                       help="driver capacity for admission control "
                            "(default: derived from the cost model)")
    serve.add_argument("--admission", choices=["degrade", "reject", "off"],
                       default="degrade",
                       help="reaction to aggregate demand above capacity")
    serve.add_argument("--model", default=None, metavar="PATH",
                       help="saved classifier, hot-loaded into the shared "
                            "model cache for in-stream scoring")
    _add_execution_args(serve)
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the shared observability event log here")

    camp = sub.add_parser(
        "campaign",
        help="drive the serving tier through a simulated observing campaign "
             "with drift detection and online retraining")
    camp.add_argument("--scenario", default="three-phase", metavar="NAME",
                      help="built-in scenario name (see repro.campaign."
                           "scenario_names); default: three-phase")
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--no-retrain", action="store_true",
                      help="ablation: detect drift but never retrain/swap")
    _add_execution_args(camp)
    camp.add_argument("--trace-out", default=None, metavar="PATH",
                      help="write the shared observability event log here")
    camp.add_argument("--report-out", default=None, metavar="PATH",
                      help="write the canonical JSON campaign report here")
    camp.add_argument("--json", action="store_true",
                      help="print the campaign report as JSON")

    cls = sub.add_parser("classify", help="benchmark a learner")
    cls.add_argument("--survey", type=_survey_name, metavar="SURVEY", default="GBT350Drift")
    cls.add_argument("--learner", choices=["MPN", "SMO", "JRip", "J48", "PART", "RF"],
                     default="RF")
    cls.add_argument("--scheme", choices=["2", "4*", "4", "7", "8"], default="7")
    cls.add_argument("--positives", type=int, default=200)
    cls.add_argument("--negatives", type=int, default=2000)
    cls.add_argument("--folds", type=int, default=3)
    cls.add_argument("--smote", action="store_true")
    cls.add_argument("--feature-selection", choices=["IG", "GR", "SU", "Cor", "1R"],
                     default=None)
    cls.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="replay an identification job on a cluster")
    sim.add_argument("--survey", type=_survey_name, metavar="SURVEY", default="PALFA")
    sim.add_argument("--observations", type=int, default=10)
    sim.add_argument("--executors", type=_cluster_field("num_executors", int),
                     nargs="+", default=[1, 5, 10, 20])
    # The replay's data_scale is proportional to --data-gb.
    sim.add_argument("--data-gb", type=_cluster_field("data_scale", float), default=10.2,
                     help="scale the workload to this many GB (paper: 10.2)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write an observability event log (JSONL) here")

    trace = sub.add_parser("trace-report",
                           help="summarize an observability event log")
    trace.add_argument("log", help="path to a JSONL event log (--trace-out)")
    trace.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    trace.add_argument("--tenant", default=None, metavar="ID",
                       help="restrict the report to one tenant's events "
                            "(matches the tenant/pool fields)")

    cand = sub.add_parser("candidates",
                          help="query the persistent candidate database")
    cand.add_argument("--memo-dir", default=None, metavar="PATH",
                      help="memoization directory (default: REPRO_MEMO_DIR "
                           "or the temp-dir default)")
    cand.add_argument("--db", default=None, metavar="PATH",
                      help="candidate database path (overrides --memo-dir)")
    cand.add_argument("--runs", action="store_true",
                      help="list recorded runs instead of candidates")
    cand.add_argument("--dm-min", type=float, default=None)
    cand.add_argument("--dm-max", type=float, default=None)
    cand.add_argument("--snr-min", type=float, default=None)
    cand.add_argument("--snr-max", type=float, default=None)
    cand.add_argument("--time-min", type=float, default=None)
    cand.add_argument("--time-max", type=float, default=None)
    cand.add_argument("--obs-key", default=None,
                      help="restrict to one observation key")
    cand.add_argument("--run-id", type=int, default=None)
    cand.add_argument("--limit", type=int, default=20)

    repr_cmd = sub.add_parser(
        "reproduce",
        help="replay the lineage slice behind one stored candidate")
    repr_cmd.add_argument("candidate_id", type=int)
    repr_cmd.add_argument("--memo-dir", default=None, metavar="PATH",
                          help="memoization directory (default: "
                               "REPRO_MEMO_DIR or the temp-dir default)")
    repr_cmd.add_argument("--db", default=None, metavar="PATH",
                          help="candidate database path (overrides --memo-dir)")
    return parser


def _obs_session(trace_out: str | None):
    """An enabled ObsSession writing to ``trace_out``, or None when unset."""
    if trace_out is None:
        return None
    from repro.obs import ObsConfig, ObsSession

    return ObsSession(ObsConfig(enabled=True, event_log_path=trace_out))


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.astro import generate_observation, synthesize_population

    survey = _survey(args.survey)
    population = synthesize_population(args.pulsars, seed=args.seed)
    total_spes = total_clusters = total_pos = 0
    for i in range(args.observations):
        obs = generate_observation(
            survey, [population[i % len(population)]], mjd=55000.0 + i,
            seed=args.seed + i, obs_length_s=min(survey.obs_length_s, 60.0),
        )
        total_spes += len(obs.spes)
        total_clusters += len(obs.clusters)
        total_pos += len(obs.positives())
    print(f"survey: {args.survey}")
    print(f"population: {args.pulsars} sources "
          f"({sum(p.is_rrat for p in population)} RRATs)")
    print(f"observations: {args.observations}")
    print(f"single pulse events: {total_spes}")
    print(f"clusters: {total_clusters} ({total_pos} from known sources)")
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    from repro.api import PipelineConfig, run_pipeline

    session = _obs_session(args.trace_out)
    memo_config = None
    if args.memo_dir is not None:
        from repro.memo import MemoConfig

        memo_config = MemoConfig(dir=args.memo_dir)
    config = PipelineConfig(
        survey=args.survey, scheme=args.scheme, seed=args.seed,
        n_pulsars=args.pulsars, n_observations=args.observations,
        classify=False, obs_config=session,
        execution=_execution_config(args),
        memo_config=memo_config,
    )
    result = run_pipeline(config)
    if session is not None:
        session.close()
        print(f"trace written: {args.trace_out}")
    print(f"clusters searched: {result.drapid.n_clusters}")
    print(f"single pulses identified: {result.drapid.n_pulses}")
    print(f"  positives: {int(result.is_pulsar.sum())}")
    print(f"  negatives: {int((~result.is_pulsar).sum())}")
    scheme = result.scheme
    counts = np.bincount(result.labels, minlength=scheme.n_classes)
    for cls, count in zip(scheme.classes, counts):
        print(f"  {cls:14s} {count}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.api import PipelineConfig, StreamingConfig, run_streaming

    session = _obs_session(args.trace_out)
    config = StreamingConfig(
        pipeline=PipelineConfig(
            survey=args.survey, seed=args.seed, n_pulsars=args.pulsars,
            n_observations=args.observations, obs_config=session,
            execution=_execution_config(args),
        ),
        batch_interval_s=args.batch_interval,
        arrival_rate=args.arrival_rate,
        backpressure=not args.no_backpressure,
        checkpoint_interval=args.checkpoint_interval,
        crash_at_batch=args.crash_at,
        model_path=args.model,
    )
    result = run_streaming(config)
    if session is not None:
        session.close()
        print(f"trace written: {args.trace_out}")
    delays = sorted(b.total_delay_s for b in result.batches)
    p50 = delays[len(delays) // 2] if delays else 0.0
    print(f"batches: {result.n_batches}")
    print(f"pulses identified: {result.n_pulses}"
          + (f" ({int(len(result.predicted))} scored in-stream)"
             if result.predicted is not None else ""))
    print(f"clusters finalized: {sum(b.n_clusters_finalized for b in result.batches)}")
    print(f"widest cluster span: {result.max_batches_spanned} batches")
    print(f"max queue depth: {result.max_queue_depth}")
    print(f"median batch delay: {p50:.3f} s")
    print(f"checkpoints written: {result.checkpoints_written}"
          + (f", recoveries: {result.n_recoveries}" if result.n_recoveries else ""))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import (
        AdmissionConfig,
        PipelineConfig,
        ServingConfig,
        StreamingConfig,
        TenantConfig,
        run_serving,
    )

    session = _obs_session(args.trace_out)
    weights = args.weights or [1.0]
    tenants = tuple(
        TenantConfig(
            tenant_id=f"tenant-{i}",
            streaming=StreamingConfig(
                pipeline=PipelineConfig(
                    survey=args.survey, seed=args.seed + i,
                    n_pulsars=args.pulsars,
                    n_observations=args.observations,
                    execution=_execution_config(args),
                ),
                batch_interval_s=args.batch_interval,
                arrival_rate=args.arrival_rate,
                model_path=args.model,
            ),
            weight=weights[i % len(weights)],
        )
        for i in range(args.tenants)
    )
    config = ServingConfig(
        tenants=tenants,
        admission=AdmissionConfig(mode=args.admission,
                                  capacity_rows_per_s=args.capacity),
        obs_config=session,
        execution=_execution_config(args),
    )
    result = run_serving(config)
    if session is not None:
        session.close()
        print(f"trace written: {args.trace_out}")
    print(f"tenants: {args.tenants} ({len(result.tenants)} admitted, "
          f"{len(result.rejected)} rejected)")
    print(f"batches executed: {result.n_batches}")
    shares = result.shares()
    print(f"{'tenant':10s} {'weight':>6} {'batches':>7} {'pulses':>6} "
          f"{'p99 delay':>9} {'share':>6}")
    for tenant in tenants:
        tid = tenant.tenant_id
        if tid in result.rejected:
            print(f"{tid:10s} {tenant.weight:>6.1f}  rejected: "
                  f"{result.rejected[tid]}")
            continue
        res = result.tenants[tid]
        delays = sorted(b.scheduling_delay_s for b in res.batches)
        p99 = delays[min(len(delays) - 1, int(0.99 * len(delays)))] if delays else 0.0
        print(f"{tid:10s} {tenant.weight:>6.1f} {res.n_batches:>7} "
              f"{res.n_pulses:>6} {p99:>8.3f}s {shares.get(tid, 0.0):>6.3f}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.api import run_campaign
    from repro.campaign.runner import CampaignConfig
    from repro.campaign.scenarios import scenario_names

    if args.scenario not in scenario_names():
        print(f"unknown scenario {args.scenario!r}; "
              f"expected one of {scenario_names()}", file=sys.stderr)
        return 2
    session = _obs_session(args.trace_out)
    config = CampaignConfig(
        scenario=args.scenario, seed=args.seed,
        execution=_execution_config(args), obs_config=session,
    )
    if args.no_retrain:
        config = dataclasses.replace(
            config, retrain=dataclasses.replace(config.retrain, enabled=False)
        )
    result = run_campaign(config)
    if session is not None:
        session.close()
    report = result.report
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(result.to_json() + "\n")
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"scenario: {report['scenario']} (seed {report['seed']}, "
              f"retrain {'on' if report['retrain_enabled'] else 'off'})")
        print(f"batches: {report['n_batches']}  tenants: {report['n_tenants']}")
        print(f"drift detections: {report['n_drift_detections']}  "
              f"retrains: {report['n_retrains']}  "
              f"model swaps: {report['n_swaps']}")
        print(f"{'phase':18s} {'tenant':8s} {'pulses':>6} {'true':>5} "
              f"{'recall':>7} {'precis':>7} {'recall@final':>12}")
        for phase in report["phases"]:
            label = f"{phase['index']}:{phase['name']}"
            for tid, m in sorted(phase["tenants"].items()):
                rec = "-" if m["recall"] is None else f"{m['recall']:.3f}"
                pre = ("-" if m["precision"] is None
                       else f"{m['precision']:.3f}")
                fin = ("-" if m.get("recall_final_model") is None
                       else f"{m['recall_final_model']:.3f}")
                print(f"{label:18s} {tid:8s} {m['n_pulses']:>6} "
                      f"{m['n_true']:>5} {rec:>7} {pre:>7} {fin:>12}")
        for d in report["drift_timeline"]:
            print(f"drift @ batch {d['global_batch']:>3} "
                  f"(phase {d['phase']}, {d['tenant']}): "
                  f"{','.join(d['reasons'])} psi={d['psi']:.3f} "
                  f"ks={d['ks']:.3f} rate×{d['rate_ratio']:.2f}")
        for r in report["retrains"]:
            print(f"retrain @ batch {r['global_batch']:>3}: model v{r['version']} "
                  f"on {r['n_samples']} candidates ({r['n_positive']}+)")
    print(f"report checksum: {result.checksum()}")
    if args.trace_out:
        print(f"trace written: {args.trace_out}")
    if args.report_out:
        print(f"report written: {args.report_out}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.astro.benchmark import build_benchmark
    from repro.core.alm import ALM_SCHEMES
    from repro.ml import LEARNERS
    from repro.ml.feature_selection import rank_features, select_top_k
    from repro.ml.validation import cross_validate, paper_protocol_split

    bench = build_benchmark(
        _survey(args.survey), n_pulsars=max(8, args.positives // 25),
        target_positive=args.positives, target_negative=args.negatives,
        seed=args.seed,
    )
    scheme = ALM_SCHEMES[args.scheme]
    y = bench.labels(scheme)
    subset = None
    X = bench.features
    if args.feature_selection:
        fs_fold, rest = paper_protocol_split(y, seed=args.seed)
        merits = rank_features(args.feature_selection, X[fs_fold], y[fs_fold])
        subset = select_top_k(merits, 10)
        X, y = X[rest], y[rest]
        print(f"feature selection ({args.feature_selection}): kept {subset}")
    factory = LEARNERS[args.learner]
    report = cross_validate(
        lambda: factory(), X, y, n_folds=args.folds,
        positive_collapse=scheme, apply_smote=args.smote,
        feature_subset=subset, seed=args.seed,
    )
    print(f"{args.learner} on {args.survey} scheme {args.scheme} "
          f"({bench.n_positive}+/{bench.n_negative}-, smote={args.smote}):")
    print("  " + report.summary())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.api import PipelineConfig, run_drapid
    from repro.astro import generate_observation, synthesize_population
    from repro.core.drapid import paper_partitions
    from repro.dfs import DataNode, DFSClient
    from repro.sparklet import ClusterConfig, simulate_job

    survey = _survey(args.survey)
    population = synthesize_population(8, seed=args.seed)
    observations = [
        generate_observation(
            survey, [population[i % len(population)]], mjd=56000.0 + i,
            beam=i % survey.n_beams, seed=args.seed + 31 * i, obs_length_s=20.0,
        )
        for i in range(args.observations)
    ]
    session = _obs_session(args.trace_out)
    dfs = DFSClient([DataNode(f"dn{i}") for i in range(15)], replication=3,
                    block_size=64 * 1024, obs=session)
    config = PipelineConfig(
        survey=args.survey, seed=args.seed, obs_config=session,
        num_partitions=paper_partitions(2 * max(args.executors)),
    )
    result = run_drapid(config, observations, dfs=dfs)
    data_scale = args.data_gb * 1024**3 / len(dfs.get("/surveys/data.csv"))
    print(f"identified {result.n_pulses} pulses; replaying at {args.data_gb} GB scale:")
    for n in args.executors:
        run = simulate_job(result.metrics,
                           ClusterConfig(num_executors=n, data_scale=data_scale),
                           obs=session)
        spill = (f", spilled {run.total_spilled_bytes / 1024**3:.1f} GiB"
                 if run.total_spilled_bytes else "")
        print(f"  {n:3d} executors: {run.elapsed_s:9.1f} s{spill}")
    if session is not None:
        session.close()
        print(f"trace written: {args.trace_out}")
    return 0


def _memo_session(args: argparse.Namespace):
    """A MemoSession for the candidate commands (env defaults apply)."""
    import os

    from repro.memo import MemoConfig, MemoSession

    memo_dir = args.memo_dir or os.environ.get("REPRO_MEMO_DIR")
    return MemoSession(MemoConfig(dir=memo_dir, db_path=args.db))


def _cmd_candidates(args: argparse.Namespace) -> int:
    session = _memo_session(args)
    try:
        if args.runs:
            rows = session.db.runs(limit=args.limit)
            if not rows:
                print("no recorded runs")
                return 0
            print(f"{'run':>4}  {'kind':9s} {'survey':12s} {'seed':>5} "
                  f"{'pulses':>6}  {'repro':5s}  lineage")
            for r in rows:
                print(f"{r['run_id']:>4}  {r['kind']:9s} "
                      f"{(r['survey'] or '-'):12s} "
                      f"{r['seed'] if r['seed'] is not None else '-':>5} "
                      f"{r['n_pulses']:>6}  "
                      f"{'yes' if r['reproducible'] else 'no':5s}  "
                      f"{r['lineage_hash'][:12]}")
            return 0
        rows = session.db.query(
            dm_min=args.dm_min, dm_max=args.dm_max,
            snr_min=args.snr_min, snr_max=args.snr_max,
            time_min=args.time_min, time_max=args.time_max,
            observation_key=args.obs_key, run_id=args.run_id,
            limit=args.limit,
        )
        if not rows:
            print("no matching candidates")
            return 0
        print(f"{'id':>5}  {'run':>4}  {'observation':22s} {'cluster':>7} "
              f"{'DM':>8}  {'SNR':>7}  {'time':>9}  psr")
        for c in rows:
            print(f"{c['candidate_id']:>5}  {c['run_id']:>4}  "
                  f"{c['observation_key']:22s} {c['cluster_id']:>7} "
                  f"{c['dm']:>8.2f}  {c['snr']:>7.2f}  {c['time_s']:>9.3f}  "
                  f"{'yes' if c['is_pulsar'] else 'no'}")
        return 0
    finally:
        session.close()


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.memo import reproduce_candidate

    session = _memo_session(args)
    try:
        result = reproduce_candidate(session, args.candidate_id)
    finally:
        session.close()
    print(f"candidate {args.candidate_id} "
          f"(run {result.run_id}, observation {result.observation_key or '-'})")
    if result.ok:
        print(f"reproduced: stored ML row re-emitted byte-identical "
              f"({len(result.replayed_rows)} rows replayed)")
        return 0
    print(f"NOT reproduced: {result.reason}")
    return 1


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import build_report, render_json, render_text

    report = build_report(args.log, tenant=args.tenant)
    print(render_json(report) if args.json else render_text(report), end="")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "identify": _cmd_identify,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "campaign": _cmd_campaign,
        "classify": _cmd_classify,
        "simulate": _cmd_simulate,
        "trace-report": _cmd_trace_report,
        "candidates": _cmd_candidates,
        "reproduce": _cmd_reproduce,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
