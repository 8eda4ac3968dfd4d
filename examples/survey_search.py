"""Survey-scale identification: D-RAPID on a multi-observation PALFA run.

Demonstrates the distributed side of the paper:

- a simulated HDFS cluster with block replication,
- the Fig. 3 staged dataflow (map to KVP → partition → aggregate → left
  outer join → search) with the shuffle-free copartitioned join,
- cluster simulation: how elapsed time would scale on the paper's
  YARN testbed at 1/5/10/15/20 executors, versus the multithreaded
  single-box baseline (Fig. 4's experiment, in miniature).

Run:  python examples/survey_search.py
"""

from repro.astro import PALFA, generate_observation, synthesize_population
from repro.core.drapid import DRapidDriver, paper_partitions
from repro.core.multithreaded import (
    MultithreadedRapid,
    ThreadedBoxModel,
    observation_search_tasks,
)
from repro.dataplane import PulseBatch
from repro.dfs import DataNode, DFSClient
from repro.io.spe_files import dataset_grids, upload_observations
from repro.sparklet import ClusterConfig, SparkletContext, simulate_job
from repro.sparklet.cluster import ExecutorSpec, paper_testbed


def main() -> None:
    print("=== survey-scale D-RAPID run (PALFA-like) ===")
    population = synthesize_population(10, rrat_fraction=0.1, max_dm=600.0, seed=7)
    observations = [
        generate_observation(
            PALFA, [population[i % len(population)]], mjd=56000.0 + i, beam=i % 7,
            n_noise_clusters=30, n_rfi_bursts=1, n_pulse_mimics=6,
            seed=11 * i, obs_length_s=30.0,
        )
        for i in range(20)
    ]
    n_spes = sum(len(o.spes) for o in observations)
    n_clusters = sum(len(o.clusters) for o in observations)
    print(f"workload: {len(observations)} observations, {n_spes} SPEs, {n_clusters} clusters")

    # --- DFS with replication -------------------------------------------------
    dfs = DFSClient([DataNode(f"dn{i}") for i in range(15)], replication=3,
                    block_size=64 * 1024)
    data_path, cluster_path = upload_observations(dfs, observations)
    print(f"uploaded {len(dfs.get(data_path)) / 1024:.0f} KiB to the DFS")

    # --- YARN grant + D-RAPID -------------------------------------------------
    rm = paper_testbed()
    grants = rm.request_executors(20, ExecutorSpec())
    print(f"YARN granted {len(grants)} executors across "
          f"{len({g.node_id for g in grants})} nodes")

    ctx = SparkletContext(app_name="survey-search", default_parallelism=8)
    driver = DRapidDriver(
        ctx=ctx, dfs=dfs, grids=dataset_grids(observations),
        num_partitions=paper_partitions(40),
    )
    result = driver.run(data_path, cluster_path)
    positives = int(result.pulse_batch.is_pulsar.sum())
    print(f"\nD-RAPID: {result.n_pulses} single pulses "
          f"({positives} from known sources), {result.n_null_joins} null joins")
    print(f"ML files written under {result.ml_output_path}: "
          f"{len(dfs.ls(result.ml_output_path))} partitions")

    # --- replay on the simulated cluster (Fig. 4 in miniature) ------------
    print("\nelapsed time on the simulated testbed (data scaled to 10.2 GB):")
    data_scale = 10.2 * 1024**3 / len(dfs.get(data_path))
    for n in (1, 5, 10, 15, 20):
        run = simulate_job(result.metrics, ClusterConfig(num_executors=n,
                                                         data_scale=data_scale))
        spill = f", spilled {run.total_spilled_bytes / 1024**3:.1f} GiB" if run.total_spilled_bytes else ""
        print(f"  {n:2d} executors: {run.elapsed_s:8.1f} s{spill}")

    # --- multithreaded baseline ------------------------------------------------
    # One task per observation: the same search a D-RAPID executor runs.
    runner = MultithreadedRapid(n_threads=1)
    baseline = PulseBatch.concat(runner.run(observation_search_tasks(observations)))
    box = ThreadedBoxModel()
    print(f"\nmultithreaded RAPID on the 6-core box (same scaled workload, "
          f"{len(baseline)} single pulses):")
    for n, t in box.sweep([d * data_scale for d in runner.durations], [1, 5, 10, 20],
                          input_bytes=10.2 * 1024**3).items():
        print(f"  {n:2d} threads:   {t:8.1f} s")


if __name__ == "__main__":
    main()
