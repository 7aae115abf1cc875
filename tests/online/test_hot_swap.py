"""Hot-swap under load: no mixed-version batches, no stale cached gates,
no stale retrieval embeddings."""

import numpy as np
import pytest

from repro.retrieval import CascadeConfig
from repro.serving import (
    FleetConfig,
    FleetContext,
    ManualClock,
    MicroBatcher,
    SearchEngine,
    SessionCache,
    build_fleet,
    shard_for_user,
)


@pytest.fixture()
def model_a(make_model):
    return make_model(trained=True)


@pytest.fixture()
def model_b(make_model):
    # Architecture-identical but differently initialized: scores differ
    # loudly, so any stale-version leak is detectable.
    return make_model(trained=False, init_seed=99)


@pytest.fixture()
def cluster(unit_world, model_a):
    clock = ManualClock()
    cluster = build_fleet(
        unit_world,
        model_a,
        FleetConfig(
            num_workers=2, seed=0, max_batch_size=4, flush_deadline_ms=5.0,
            cache_capacity=64,
        ),
        backend="inprocess",
        ctx=FleetContext(clock=clock),
    )
    for worker in cluster.workers:
        worker.engine.set_model(model_a, "v1")
    return cluster


def _drive(cluster, events):
    results = []
    for user, category in events:
        results.extend(cluster.submit(user, category))
    return results


class TestSwapUnderLoad:
    def test_no_mixed_version_results(self, cluster, model_b):
        """Results before the swap carry the old tag, results after the new
        one, and the swap itself drains pending work under the old model —
        a flush is one forward, so no batch can mix versions."""
        rng = np.random.default_rng(3)
        events = [
            (int(rng.integers(0, 200)), int(rng.integers(0, 8))) for _ in range(40)
        ]
        pre = _drive(cluster, events[:20])
        drained = cluster.swap_model(model_b, "v2")
        post = _drive(cluster, events[20:])
        post.extend(cluster.flush())

        assert all(r.model_version == "v1" for r in pre + drained)
        assert all(r.model_version == "v2" for r in post)
        assert len(pre) + len(drained) + len(post) == 40
        for worker in cluster.workers:
            assert worker.engine.model is model_b
        assert cluster.model_version == "v2"
        assert cluster.control.swaps == 1
        assert cluster.merged_metrics().swaps == 1

    def test_swap_invalidates_gate_cache(self, cluster, model_b):
        """Cached gate vectors die with the model that produced them."""
        events = [(7, 1)] * 4 + [(7, 1)] * 4  # same session key: second batch hits
        _drive(cluster, events)
        worker = cluster.workers[shard_for_user(7, cluster.num_shards)]
        assert worker.cache.gates.stats.hits > 0
        assert len(worker.cache.gates) > 0
        generation = worker.cache.generation

        cluster.swap_model(model_b, "v2")
        assert len(worker.cache.gates) == 0
        assert worker.cache.generation == generation + 1

    def test_post_swap_scores_match_new_model_exactly(
        self, unit_world, cluster, model_b
    ):
        """After the swap, a hot session's scores equal a from-scratch
        engine running the new model — no stale gate can linger."""
        user, category = 7, 1
        _drive(cluster, [(user, category)] * 4)  # cache the session gate under v1
        cluster.swap_model(model_b, "v2")
        results = _drive(cluster, [(user, category)] * 4)
        assert results and all(r.model_version == "v2" for r in results)

        engine = cluster.workers[shard_for_user(user, cluster.num_shards)].engine
        for ranking in results:
            batch = engine.build_batch(user, category, ranking.items)
            expected = model_b.predict_proba(batch)
            np.testing.assert_allclose(ranking.scores, expected, rtol=1e-6, atol=1e-7)


class TestCascadeSwapUnderLoad:
    """Fleets serving through the retrieval cascade rebuild the ANN index
    from the new weight snapshot inside the same swap that switches the
    model and plan — a post-swap query can never retrieve against the old
    model's embeddings."""

    CASCADE = CascadeConfig(retrieve_n=10, prune=6, nprobe="all")

    @pytest.fixture()
    def cascade_cluster(self, unit_world, model_a):
        cluster = build_fleet(
            unit_world,
            model_a,
            FleetConfig(
                num_workers=2, seed=0, max_batch_size=4, flush_deadline_ms=5.0,
                cache_capacity=64, cascade=self.CASCADE,
            ),
            backend="inprocess",
            ctx=FleetContext(clock=ManualClock()),
        )
        for worker in cluster.workers:
            worker.engine.set_model(model_a, "v1")
        return cluster

    def test_no_stale_embeddings_under_concurrent_load(
        self, unit_world, cascade_cluster, model_b
    ):
        """Swap mid-traffic with queries pending in every shard: drained
        results come from the old snapshot, every later result from the new
        one — candidate sets *and* scores."""
        # Make the snapshots retrieval-distinguishable (random inits are too
        # close to move the top-K).
        weight = model_b.embedder.item.weight
        weight.data = (weight.data * 25.0).astype(weight.data.dtype)

        rng = np.random.default_rng(5)
        events = [
            (int(rng.integers(0, 200)), int(rng.integers(0, 8))) for _ in range(40)
        ]
        pre = _drive(cascade_cluster, events[:20])
        # Leave work queued on both shards, then swap under load.
        drained = cascade_cluster.swap_model(model_b, "v2")
        post = _drive(cascade_cluster, events[20:])
        post.extend(cascade_cluster.flush())
        assert all(r.model_version == "v1" for r in pre + drained)
        assert all(r.model_version == "v2" for r in post)
        assert len(pre) + len(drained) + len(post) == 40

        # Twin engine: same compiled-scorer build path as the swapped fleet,
        # so probe/calibration floats (and thus candidate sets) must match.
        fresh = SearchEngine(
            unit_world, model_b, np.random.default_rng(9), cascade=self.CASCADE
        ).cascade
        for ranking in post:
            want = np.sort(fresh.retrieve(ranking.user, ranking.query_category))
            np.testing.assert_array_equal(np.sort(ranking.items), want)
            shard = shard_for_user(ranking.user, cascade_cluster.num_shards)
            engine = cascade_cluster.workers[shard].engine
            batch = engine.build_batch(ranking.user, ranking.query_category, ranking.items)
            np.testing.assert_allclose(
                ranking.scores, model_b.predict_proba(batch), rtol=1e-5, atol=1e-6
            )

    def test_shards_share_one_build_but_own_their_scratch(
        self, cascade_cluster, model_b
    ):
        """One swap = one cascade build: shards share the immutable snapshot
        (item vectors, index slabs, calibrated weights) but each owns its
        prefilter."""
        before = [worker.engine.cascade for worker in cascade_cluster.workers]
        cascade_cluster.swap_model(model_b, "v2")
        after = [worker.engine.cascade for worker in cascade_cluster.workers]
        assert all(a is not b for a, b in zip(before, after))
        assert len({id(c) for c in after}) == len(after)
        first, second = after
        assert first.index is second.index
        assert first.item_vectors is second.item_vectors
        assert first._weights is second._weights
        assert first.prefilter is not second.prefilter


class TestGenerationGuard:
    def test_stale_gate_discarded_without_flush(self, unit_world, model_a, model_b):
        """Even a rogue swap that skips the drain cannot leak an old gate:
        the batcher re-resolves any gate whose cache generation went stale
        between submit and flush."""
        engine = SearchEngine(unit_world, model_a, np.random.default_rng(0), model_version="v1")
        cache = SessionCache(32)
        batcher = MicroBatcher(engine, max_batch_size=64, cache=cache)

        user, category = 11, 2
        # Seed the cache with a v1 gate, then enqueue a query that hits it.
        candidates = engine.retrieve(category)
        seed_batch = engine.build_batch(user, category, candidates)
        cache.put_gate(user, category, engine.serving_gate(seed_batch)[0])
        batcher.submit(user, category)
        assert batcher._pending[0].gate is not None

        # Rogue swap: no drain, just model switch + invalidation.
        engine.set_model(model_b, "v2")
        cache.invalidate_all()
        results = batcher.flush()

        assert len(results) == 1
        ranking = results[0]
        assert ranking.model_version == "v2"
        batch = engine.build_batch(user, category, ranking.items)
        np.testing.assert_allclose(
            ranking.scores, model_b.predict_proba(batch), rtol=1e-6, atol=1e-7
        )

    def test_stale_cascade_candidates_reretrieved_without_drain(
        self, unit_world, model_a, model_b
    ):
        """Candidates are snapshot state like gates: even a rogue swap that
        skips the drain cannot serve ids retrieved against the old model's
        embeddings — the flush re-retrieves them from the new cascade."""
        weight = model_b.embedder.item.weight
        weight.data = (weight.data * 25.0).astype(weight.data.dtype)
        cascade = CascadeConfig(retrieve_n=10, prune=6, nprobe="all")
        engine = SearchEngine(
            unit_world, model_a, np.random.default_rng(0),
            model_version="v1", cascade=cascade,
        )
        batcher = MicroBatcher(engine, max_batch_size=64, cache=SessionCache(32))
        batcher.submit(11, 2)
        engine.set_model(model_b, "v2")  # rogue swap: no drain
        results = batcher.flush()
        assert len(results) == 1
        ranking = results[0]
        assert ranking.model_version == "v2"
        np.testing.assert_array_equal(
            np.sort(ranking.items), engine.retrieve(2, user=11)
        )

    def test_without_invalidation_stale_gate_would_leak(
        self, unit_world, model_a, model_b
    ):
        """Control experiment for the regression test above: skipping the
        invalidation really does serve v1 gates under v2 — the hazard the
        generation tag exists to kill."""
        engine = SearchEngine(unit_world, model_a, np.random.default_rng(0), model_version="v1")
        cache = SessionCache(32)
        batcher = MicroBatcher(engine, max_batch_size=64, cache=cache)
        user, category = 11, 2
        candidates = engine.retrieve(category)
        seed_batch = engine.build_batch(user, category, candidates)
        stale_gate = engine.serving_gate(seed_batch)[0]
        cache.put_gate(user, category, stale_gate)
        batcher.submit(user, category)
        engine.set_model(model_b, "v2")  # no invalidate_all: the bug
        results = batcher.flush()

        ranking = results[0]
        batch = engine.build_batch(user, category, ranking.items)
        clean = model_b.predict_proba(batch)
        leaked = model_b.predict_proba(
            batch, gate_override=np.tile(stale_gate, (len(ranking.items), 1))
        )
        np.testing.assert_allclose(
            ranking.scores, np.sort(leaked)[::-1], rtol=1e-6, atol=1e-7
        )
        assert not np.allclose(np.sort(leaked)[::-1], np.sort(clean)[::-1])
