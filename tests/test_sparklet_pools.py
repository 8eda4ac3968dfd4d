"""Fair-share scheduler pools: ordering laws and pool threading.

The pools component decides which pool's queued work the shared driver
serves next; its ordering must be deterministic (the serving byte-identity
law depends on it) and must match the Spark fair-scheduler shape: starved
pools (below min-share) first, then smallest weighted service share, names
breaking ties.  Pool identity must also survive the trip through the DAG
scheduler into job metrics, events and replay.
"""

from __future__ import annotations

import pytest

from repro.obs import ObsConfig
from repro.obs.replay import replay_job_metrics
from repro.obs.session import ObsSession
from repro.sparklet import SparkletContext
from repro.sparklet.pools import DEFAULT_POOL, PoolConfig, SchedulerPools, pool_salt


class TestPoolConfig:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            PoolConfig("")

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            PoolConfig("p", weight=0.0)

    def test_rejects_negative_min_share(self):
        with pytest.raises(ValueError, match="min_share"):
            PoolConfig("p", min_share=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("weight", float("nan")),
        ("weight", float("inf")),
        ("min_share", float("nan")),
        ("min_share", float("inf")),
    ])
    def test_rejects_non_finite_terms(self, field, value):
        """NaN passed ``<= 0`` and ``< 0`` and then ordered pools by NaN
        comparisons."""
        with pytest.raises(ValueError, match=field):
            PoolConfig("p", **{field: value})


class TestFairOrdering:
    def test_default_pool_exists(self):
        pools = SchedulerPools()
        assert DEFAULT_POOL in pools.pool_names

    def test_single_pool_is_fifo(self):
        pools = SchedulerPools()
        for item in ["a", "b", "c"]:
            pools.submit(DEFAULT_POOL, item)
        drained = [pools.next_entry()[1] for _ in range(3)]
        assert drained == ["a", "b", "c"]

    def test_unknown_pool_auto_registers(self):
        pools = SchedulerPools()
        pools.submit("mystery", "x")
        assert "mystery" in pools.pool_names
        assert pools.config_of("mystery").weight == 1.0

    def test_least_served_pool_goes_first(self):
        pools = SchedulerPools()
        pools.register(PoolConfig("a"))
        pools.register(PoolConfig("b"))
        pools.submit("a", 1)
        pools.submit("b", 2)
        pools.charge("a", 10.0)
        assert pools.pick() == "b"

    def test_weighted_shares_divide_service(self):
        # Pool "heavy" (weight 2) with twice the service of "light"
        # (weight 1) has the same weighted ratio; the name breaks the tie.
        pools = SchedulerPools()
        pools.register(PoolConfig("heavy", weight=2.0))
        pools.register(PoolConfig("light", weight=1.0))
        pools.submit("heavy", 1)
        pools.submit("light", 2)
        pools.charge("heavy", 4.0)
        pools.charge("light", 2.0)
        assert pools.pick() == "heavy"
        # Tip the balance: light now under-served relative to weight.
        pools.charge("heavy", 1.0)
        assert pools.pick() == "light"

    def test_min_share_pool_preempts_weighted_order(self):
        pools = SchedulerPools()
        pools.register(PoolConfig("vip", weight=0.1, min_share=0.5))
        pools.register(PoolConfig("bulk", weight=10.0))
        pools.submit("vip", 1)
        pools.submit("bulk", 2)
        pools.charge("vip", 1.0)   # terrible weighted ratio (10.0)
        pools.charge("bulk", 0.1)  # great weighted ratio (0.01)
        # At t=10s vip's floor is 5s and it has only 1s: starved, goes first.
        assert pools.pick(now_s=10.0) == "vip"
        # With no elapsed time there is no floor; weighted order wins.
        assert pools.pick(now_s=0.0) == "bulk"

    def test_eligible_filter_restricts_choice(self):
        pools = SchedulerPools()
        pools.register(PoolConfig("a"))
        pools.register(PoolConfig("b"))
        pools.submit("a", 1)
        pools.submit("b", 2)
        assert pools.pick(eligible={"b"}) == "b"
        assert pools.pick(eligible=set()) is None

    def test_interleaves_equal_weight_pools(self):
        pools = SchedulerPools()
        pools.register(PoolConfig("a"))
        pools.register(PoolConfig("b"))
        for i in range(3):
            pools.submit("a", f"a{i}")
            pools.submit("b", f"b{i}")
        order = []
        while True:
            picked = pools.next_entry(pools.total_service())
            if picked is None:
                break
            name, entry = picked
            order.append(entry)
            pools.charge(name, 1.0)
        # Equal weights + equal charges → strict alternation, a first (name tie).
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_shares_sum_to_one(self):
        pools = SchedulerPools()
        pools.register(PoolConfig("a"))
        pools.register(PoolConfig("b"))
        pools.charge("a", 3.0)
        pools.charge("b", 1.0)
        shares = pools.shares()
        assert shares["a"] == pytest.approx(0.75)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_stats_snapshot_shape(self):
        pools = SchedulerPools()
        pools.register(PoolConfig("t0", weight=2.0, min_share=0.25))
        pools.submit("t0", object())
        pools.charge("t0", 1.5)
        stats = pools.stats()
        assert stats["t0"]["weight"] == 2.0
        assert stats["t0"]["min_share"] == 0.25
        assert stats["t0"]["service_s"] == 1.5
        assert stats["t0"]["queued"] == 1


class TestPoolSalt:
    def test_default_pool_salts_to_zero(self):
        assert pool_salt(DEFAULT_POOL) == 0

    def test_named_pools_salt_deterministically(self):
        assert pool_salt("tenant-0") == pool_salt("tenant-0")
        assert pool_salt("tenant-0") != pool_salt("tenant-1")


class TestPoolThreading:
    """Pool identity flows context → scheduler → metrics → events → replay."""

    def test_default_pool_on_job_metrics(self, ctx):
        ctx.parallelize(range(8), 4).collect()
        assert ctx.last_job_metrics().pool == "default"

    def test_set_pool_tags_job_metrics(self, ctx):
        ctx.set_pool("tenant-a")
        ctx.parallelize(range(8), 4).collect()
        assert ctx.last_job_metrics().pool == "tenant-a"
        assert ctx.current_pool == "tenant-a"

    def test_pool_context_manager_restores_previous(self, ctx):
        with ctx.pool("tenant-b"):
            ctx.parallelize(range(4), 2).count()
            assert ctx.last_job_metrics().pool == "tenant-b"
        assert ctx.current_pool == "default"
        ctx.parallelize(range(4), 2).count()
        assert ctx.last_job_metrics().pool == "default"

    def test_metrics_to_dict_round_trips_pool(self, ctx):
        with ctx.pool("tenant-d"):
            ctx.parallelize(range(4), 2).collect()
        from repro.sparklet.metrics import JobMetrics

        job = ctx.last_job_metrics()
        assert JobMetrics.from_dict(job.to_dict()).pool == "tenant-d"

    def test_pool_on_job_start_event_and_replay(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = ObsSession.from_config(
            ObsConfig(enabled=True, event_log_path=str(path))
        )
        ctx = SparkletContext(app_name="t", default_parallelism=2, obs=obs)
        try:
            with ctx.pool("tenant-e"):
                ctx.parallelize(range(6), 2).collect()
        finally:
            ctx.close()
        obs.flush()
        starts = [e for e in obs.events() if e["type"] == "job_start"]
        assert starts and starts[-1]["pool"] == "tenant-e"
        replayed = replay_job_metrics(str(path))
        assert replayed[-1].pool == "tenant-e"

    def test_failing_job_charges_pool_and_raises(self, serial_ctx):
        def boom(x):
            raise ValueError("task body failure")

        # The pool is only a tag: the task body's own error surfaces
        # unchanged and the previous tag is restored.
        with serial_ctx.pool("tenant-f"), pytest.raises(ValueError):
            serial_ctx.parallelize(range(4), 2).map(boom).collect()
        assert serial_ctx.current_pool == "default"
