"""Shard router: deterministic placement, full delivery, merged stats."""

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.serving import FleetConfig, FleetContext, ManualClock, build_fleet, shard_for_user


@pytest.fixture()
def cluster(unit_world, test_set):
    model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
    return build_fleet(
        unit_world,
        model,
        FleetConfig(num_workers=3, seed=11, max_batch_size=4, flush_deadline_ms=1e9),
        backend="inprocess",
        ctx=FleetContext(clock=ManualClock()),
    )


class TestRouting:
    def test_same_user_always_same_shard(self):
        for user in range(200):
            shards = {shard_for_user(user, 4) for _ in range(5)}
            assert len(shards) == 1

    def test_mapping_is_the_documented_hash(self):
        # Pin the exact mapping so a refactor cannot silently reshuffle the
        # fleet (which would orphan every per-shard cache in a rollout).
        assert shard_for_user(0, 3) == 0
        assert shard_for_user(1, 3) == (2654435761 % (1 << 32)) % 3

    def test_users_spread_across_shards(self):
        counts = np.bincount([shard_for_user(u, 4) for u in range(1000)], minlength=4)
        assert np.all(counts > 150)  # no dead or dominant shard

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_for_user(1, 0)

    def test_cluster_routes_to_owning_worker(self, cluster):
        for user in (1, 7, 42):
            worker = cluster.workers[shard_for_user(user, cluster.num_shards)]
            assert worker.shard_id == shard_for_user(user, cluster.num_shards)


class TestClusterServing:
    def test_every_query_answered_once(self, cluster, unit_world):
        traffic = [(user, int(np.argmax(unit_world.user_interests[user]))) for user in range(20)]
        results = []
        for user, qcat in traffic:
            results.extend(cluster.submit(user, qcat))
        results.extend(cluster.flush())
        assert sorted(r.user for r in results) == sorted(u for u, _ in traffic)

    def test_queries_land_only_on_owned_shard(self, cluster):
        cluster.submit(5, 0)
        owner = shard_for_user(5, cluster.num_shards)
        for worker in cluster.workers:
            expected = 1 if worker.shard_id == owner else 0
            assert worker.batcher.pending == expected
        cluster.flush()

    def test_shards_have_independent_rngs(self, cluster):
        # Engines draw from SeedBank children: distinct streams per shard.
        draws = {worker.engine._rng.integers(0, 1 << 30) for worker in cluster.workers}
        assert len(draws) == len(cluster.workers)

    def test_merged_metrics_and_summary(self, cluster, unit_world):
        for user in range(12):
            cluster.submit(user, int(np.argmax(unit_world.user_interests[user])))
        cluster.flush()
        merged = cluster.merged_metrics()
        assert merged.queries == 12
        summary = cluster.summary()
        assert summary["queries"] == 12
        assert summary["num_shards"] == 3
        assert sum(shard["queries"] for shard in summary["shards"]) == 12

    def test_repeated_sessions_hit_owning_shards_cache(self, cluster):
        for _ in range(3):
            cluster.submit(5, 1)
            cluster.flush()
        owner = cluster.workers[shard_for_user(5, cluster.num_shards)]
        assert owner.cache.gates.stats.hits == 2
        assert cluster.merged_metrics().cache_stats.hits == 2

    def test_invalid_num_shards(self, unit_world, test_set):
        model = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_fleet(unit_world, model, FleetConfig(num_workers=0), backend="inprocess")
