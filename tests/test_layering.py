"""``src/`` holds one stage-3 path and one front end; the paths they
replaced live in ``tests/oracles``.  Sparklet's surface is what something runs.

An AST walk, so a docstring that *mentions* an oracle by name is fine and a
definition, import or call of one is not.
"""

import ast
from pathlib import Path

import repro.core

REPO = Path(__file__).resolve().parent.parent
LIVE = sorted((REPO / "src").rglob("*.py")) + sorted((REPO / "examples").glob("*.py"))
ORACLES = sorted((REPO / "tests" / "oracles").glob("*.py"))

#: Defined exactly once under ``tests/oracles/`` (``record_path.py``; the
#: eleven front-end names in ``frontend.py``; the five per-feature split-search
#: and per-segment MDL names in ``ml_hist.py``; the per-pulse survey
#: generator in ``generation.py``).
RELOCATED = {
    "PulseFeatures",
    "RapidResult",
    "SinglePulse",
    "_expand",
    "_reference_box_members",
    "_reference_block_search",
    "_reference_boxcar_snr",
    "_reference_build_cluster_file",
    "_reference_build_data_file",
    "_reference_dbscan",
    "_reference_dedisperse",
    "_reference_dedisperse_block",
    "_reference_exact_search",
    "_reference_best_cut",
    "_reference_best_hist_split",
    "_reference_find_peaks",
    "_reference_fit_binned",
    "_reference_generate_pulsar_spes",
    "_reference_grow_tree",
    "_reference_mdl_accepts",
    "_reference_mdl_cut_points",
    "_reference_merge_artifact_clusters",
    "_reference_search_observation",
    "_reference_single_pulse_search",
    "_reference_small_node_split",
    "_reference_summarize",
    "bin_fit_residual",
    "extract_pulse_features",
    "find_single_pulses_recursive",
    "ols_slope",
    "parse_spe_line",
    "run_rapid_observation",
    "run_rapid_on_cluster",
    "run_reference",
    "spes_to_csv",
}
#: Record adapters the batch types no longer carry, the one deleted reader,
#: the tree dedispersion and decomposed boxcar kernels, the per-row boxcar
#: helpers the row-blocked search replaced, the two ``Dataset`` methods
#: nothing called, the second spelling of a run (the pipeline class,
#: the facade's copy into it, and the paper-partitioning constructor), and
#: every way to dedisperse but the one engine and its pinned wrapper (the
#: exact block, the subband block, the configured block, the one-DM row,
#: the method list and the all-singletons plan builder).
GONE = {
    "_best_z",
    "_widths_at",
    "_median_inplace",
    "to_records",
    "record",
    "read_ml_files",
    "dedisperse_tree",
    "_tree_plan",
    "_tree_cost",
    "_tree_effective_shifts",
    "tree_shift_bound",
    "_pow2_window_sums",
    "_window_sum_decomposed",
    "_best_z_decomposed",
    "_widths_at_decomposed",
    "BOXCAR_MODES",
    "subset",
    "class_counts",
    "SinglePulsePipeline",
    "_pipeline_for",
    "with_paper_partitioning",
    "dedisperse_batch",
    "dedisperse_subband",
    "dedisperse_grid",
    "dedisperse",
    "KERNEL_METHODS",
    "_direct_plan",
    # The DFS's failure and capacity models and YARN node decommissioning:
    # no figure, benchmark or pipeline kills, starves or drains a node.
    "kill_datanode",
    "heartbeat_tick",
    "rereplicate",
    "under_replicated",
    "expired_nodes",
    "forget_node",
    "record_heartbeat",
    "last_heartbeat",
    "forget_heartbeat",
    "HeartbeatReport",
    "DataNodeFullError",
    "free_bytes",
    "revive",
    "blocks_on",
    "has_block",
    "remove_replica",
    "decommission_node",
    "unschedulable",
    # Memoization keys whole jobs only, in one on-disk tier: prefix reuse
    # inside a context is the scheduler's completed-shuffle skip.
    "stage_key",
    "export_shuffle",
    "import_shuffle",
    "_run_memoized_map_stage",
    "_apply_stage_hit",
    "_admit_memory",
    "max_memory_entries",
    # The event log is the one observability record: no metrics registry
    # beside it, no private per-tenant mirror of it.
    "MetricsRegistry",
    "Gauge",
    "Timer",
    "_NULL_REGISTRY",
    "tenant_trace_dir",
    "private_log",
}


def names_in(tree: ast.AST, variables: bool) -> set[str]:
    """Every name a module defines, imports or reads as an attribute — and,
    with ``variables``, every bare name it reads (``record`` is also an
    ordinary loop variable, so the adapters are matched as members only)."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif variables and isinstance(node, ast.Name):
            found.add(node.id)
    return found


def imported_roots(tree: ast.AST) -> set[str]:
    roots: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_live_code_is_free_of_the_record_path():
    offenders = {}
    for path in LIVE:
        tree = ast.parse(path.read_text())
        found = (
            imported_roots(tree) & {"oracles", "tests"}
            | names_in(tree, variables=True) & RELOCATED
            | names_in(tree, variables=False) & GONE
        )
        if found:
            offenders[str(path.relative_to(REPO))] = sorted(found)
    assert len(LIVE) > 100 and offenders == {}


def test_pulse_batch_takes_no_records():
    from repro.dataplane import ClusterBatch, PulseBatch, SPEBatch

    assert not hasattr(PulseBatch, "from_records")
    # Records still *enter* at the two boundaries that produce them.
    assert hasattr(SPEBatch, "from_records") and hasattr(ClusterBatch, "from_records")


def test_each_oracle_is_defined_once_under_tests_oracles():
    defined = [
        node.name for path in ORACLES for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert RELOCATED <= set(defined)
    assert len(defined) == len(set(defined))


def test_pytest_collects_nothing_from_the_oracles():
    # pyproject's python_files: test_*.py and bench_*.py.
    assert len(ORACLES) == 5  # __init__, record_path, frontend, ml_hist, generation
    assert [p.name for p in ORACLES if p.name.startswith(("test_", "bench_"))] == []


def test_core_public_surface_names_only_what_runs():
    assert repro.core.__all__ == [
        "ALM_SCHEMES",
        "AlmScheme",
        "DRapidDriver",
        "DRapidResult",
        "FEATURE_NAMES",
        "MultithreadedRapid",
        "PipelineResult",
        "SearchParams",
        "ThreadedBoxModel",
        "dynamic_bin_size",
        "find_single_pulses",
        "label_instances",
        "run_rapid_observation_batch",
        "search_observation_columns",
    ]
    assert all(hasattr(repro.core, name) for name in repro.core.__all__)


#: Operators kept for a law rather than a pipeline, each with what needs it.
#: They are exempt from the walk below, where ``str.join`` or ``list.count``
#: would vouch for them by accident.
LAW_OPERATORS = {
    # the generic shuffle of the fault, obs and memo suites (test_sparklet_faults,
    # test_sparklet_scheduler, test_chaos_fault_tolerance, test_properties_memo,
    # test_obs_events, ...)
    "reduce_by_key",
    # bench_ablations.py: the paper's aggregateByKey-vs-groupByKey argument
    "group_by_key",
    # copartitioned join is narrow, uncopartitioned join shuffles both sides
    # (test_sparklet_pairs::TestJoins, test_properties_sparklet::TestPairOracles)
    "join",
    # what join and left_outer_join are built on; test_sparklet_pairs::TestJoins
    "cogroup",
    # serial == parallel == memo-warm on actions other than collect
    # (test_parallel_backend, test_properties_memo); run_reference's null-join
    # count (tests/oracles/record_path.py)
    "count",
    # run_reference's text and malformed-row filters: the other side of the
    # run == run_reference law (test_dataplane_batches, test_codec)
    "filter",
}


def test_every_sparklet_operator_has_a_caller():
    """An operator exists when a pipeline, an example, a benchmark script or
    a named scheduler law calls it — so the surface cannot regrow unnoticed."""
    from repro.sparklet import RDD, SparkletContext

    called: set[str] = set()
    for path in LIVE + sorted((REPO / "benchmarks").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    public = {
        name for cls in (RDD, SparkletContext) for name, member in vars(cls).items()
        if callable(member) and not name.startswith("_")
    }
    assert len(public) > 20 and LAW_OPERATORS <= public
    assert public - LAW_OPERATORS - called == set()


def test_numpy_is_the_only_kernel_layer():
    """No JIT layer in ``src/``: the one mention of numba left is the
    ``HAS_NUMBA = False`` constant the benchmark records read."""
    mentions = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        text = path.read_text()
        if path.relative_to(REPO / "src").as_posix() == "repro/astro/kernels.py":
            assert text.count("HAS_NUMBA = False") == 1
            text = text.replace("HAS_NUMBA", "")
        if "numba" in text.lower():
            mentions[str(path.relative_to(REPO))] = text.lower().count("numba")
    assert mentions == {}


def test_simulator_is_the_failure_free_fig4_engine():
    """``simulate_job`` replays a failure-free job; faults are injected into
    real tasks (``FaultInjector``), never into the simulated clock."""
    import inspect

    import repro.sparklet
    from repro.sparklet.simulation import simulate_job

    params = inspect.signature(simulate_job).parameters
    assert list(params) == ["job", "config", "obs"] and params["obs"].default is None
    gone = {"SimFaultProfile", "StragglerModel", "SpeculationConfig"}
    assert gone.isdisjoint(repro.sparklet.__all__)
    assert not any(hasattr(repro.sparklet.simulation, name) for name in gone)


def test_front_end_has_one_dedispersion_engine_and_one_boxcar():
    """``plan_dedispersion`` is the one engine and ``dedisperse_all`` its
    pinned wrapper; the boxcar search is the cumulative-sum one.
    ``KernelConfig`` selects nothing: it has no init fields, and keeps what
    the end-to-end harness reads of it."""
    import dataclasses
    import inspect

    import repro.astro.filterbank as filterbank
    import repro.astro.kernels as kernels
    import repro.execution as execution
    from repro.execution import KernelConfig

    dedisperse = {
        name for module in (kernels, filterbank) for name in module.__dict__
        if "dedispers" in name and inspect.isfunction(getattr(module, name))
    }
    assert dedisperse == {"plan_dedispersion", "dedisperse_all"}
    params = inspect.signature(kernels.plan_dedispersion).parameters
    assert "kernel" not in params
    assert [p.name for p in params.values() if p.kind is p.KEYWORD_ONLY] == [
        "n_subbands", "tol_samples",
    ]
    assert not hasattr(execution, "BOXCAR_MODES")
    assert [f.name for f in dataclasses.fields(KernelConfig) if f.init] == []
    k = KernelConfig()
    assert k.resolved() is k
    assert (k.boxcar, k.impl) == ("cumsum", "numpy")


#: A config dataclass is a ``@dataclass`` in ``src/`` named for the policy it
#: records.
CONFIG_SUFFIXES = ("Config", "Scenario", "Timeline", "Spec", "Model", "Params", "Scheme")
#: Config fields that no constructor call or ``dataclasses.replace`` sets,
#: each kept for the reason above it.
UNSET_ON_PURPOSE = {
    # Modelled hardware: the simulated cluster and the multithreaded box
    # are described field by field, and the simulation laws read them all.
    "ClusterConfig.scheduler_delay_s",
    "ClusterConfig.disk_bandwidth_mbps",
    "ClusterConfig.spill_cpu_penalty",
    "ClusterConfig.spill_io_passes",
    "ThreadedBoxModel.cpu_speed",
    "ThreadedBoxModel.per_task_overhead_s",
    "ThreadedBoxModel.memory_bytes",
    "ThreadedBoxModel.thrash_coeff",
    # Part of the survey presets' description.
    "SurveyConfig.snr_threshold",
    # The fair-scheduler floor a tenant hands its pool; test_sparklet_pools
    # drives it on PoolConfig.
    "TenantConfig.min_share",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None)):
            return True
    return False


def _init_fields(node: ast.ClassDef) -> list[str]:
    """The class's ``__init__`` fields in order: no ClassVar, no init=False."""
    names = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and any(
            kw.arg == "init" and getattr(kw.value, "value", True) is False
            for kw in value.keywords
        ):
            continue
        names.append(stmt.target.id)
    return names


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_config_field_has_a_caller():
    """A config field exists when a constructor call or ``dataclasses.replace``
    somewhere in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/`` sets
    it; a policy nothing varies is a module constant where it is read."""
    configs: dict[str, list[str]] = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ClassDef) and node.name.endswith(CONFIG_SUFFIXES)
                    and _is_dataclass(node)):
                assert node.name not in configs, f"two config classes named {node.name}"
                configs[node.name] = _init_fields(node)
    fields_named: dict[str, set[str]] = {}
    for cls, names in configs.items():
        for name in names:
            fields_named.setdefault(name, set()).add(cls)

    set_by_caller: set[str] = set()
    callers = [REPO / d for d in ("src", "benchmarks", "examples", "tests")]
    for path in sorted(p for root in callers for p in root.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = _callee(call)
            keywords = {kw.arg for kw in call.keywords if kw.arg}
            if name in configs:
                n_positional = sum(not isinstance(a, ast.Starred) for a in call.args)
                keywords.update(configs[name][:n_positional])
                set_by_caller.update(f"{name}.{kw}" for kw in keywords)
            elif name == "replace" and call.args:
                # The replaced object's class is known when it is built in
                # place; otherwise the keyword vouches for every config field
                # of that name.
                target = call.args[0]
                known = _callee(target) if isinstance(target, ast.Call) else None
                for kw in keywords:
                    owners = {known} if known in configs else fields_named.get(kw, set())
                    set_by_caller.update(f"{cls}.{kw}" for cls in owners)

    every_field = {f"{cls}.{name}" for cls, names in configs.items() for name in names}
    assert len(configs) > 20 and UNSET_ON_PURPOSE <= every_field
    assert every_field - set_by_caller == UNSET_ON_PURPOSE


def test_every_event_type_has_an_emitter():
    """Each constant of the ``obs.events`` vocabulary is used — by name or by
    its string value — in some ``src/`` module that is not the vocabulary
    itself or one of the two readers, so no event type outlives its emitter."""
    events_py = REPO / "src" / "repro" / "obs" / "events.py"
    vocabulary = {
        node.targets[0].id: node.value.value
        for node in ast.parse(events_py.read_text()).body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    }
    readers = {events_py, events_py.with_name("report.py"), events_py.with_name("replay.py")}
    used: set[str] = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        if path in readers:
            continue
        tree = ast.parse(path.read_text())
        used |= names_in(tree, variables=True)
        used |= {n.value for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert len(vocabulary) > 40
    assert {name for name, value in vocabulary.items()
            if name not in used and value not in used} == set()
