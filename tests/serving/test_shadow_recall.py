"""Shadow-sampled live recall: sampling, oracle agreement, fleet wiring."""

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.obs import MetricsRegistry, ShadowRecallMonitor
from repro.retrieval import CascadeConfig, RetrievalProbe
from repro.serving import (
    FleetConfig,
    SearchEngine,
    ZipfLoadGenerator,
    build_fleet,
    replay,
)


@pytest.fixture()
def model(test_set):
    return build_model(
        "aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0)
    )


class TestSamplingDecision:
    def test_rate_bounds_and_counters(self):
        monitor = ShadowRecallMonitor(rate=0.0)
        assert not any(monitor.should_sample() for _ in range(50))
        assert monitor.requests == 50
        always = ShadowRecallMonitor(rate=1.0)
        assert all(always.should_sample() for _ in range(10))

    def test_partial_rate_is_seeded_and_roughly_proportional(self):
        def decisions(seed):
            monitor = ShadowRecallMonitor(rate=0.2, seed=seed)
            return [monitor.should_sample() for _ in range(500)]

        assert decisions(3) == decisions(3)
        assert 50 < sum(decisions(3)) < 150  # ~100 expected

    def test_validation(self):
        with pytest.raises(ValueError):
            ShadowRecallMonitor(rate=1.5)
        with pytest.raises(ValueError):
            ShadowRecallMonitor(k=0)
        with pytest.raises(ValueError):
            ShadowRecallMonitor().observe(1.2)


class TestBookkeeping:
    def test_running_mean_and_gauge(self):
        registry = MetricsRegistry()
        monitor = ShadowRecallMonitor(rate=1.0, registry=registry)
        monitor.observe(1.0)
        monitor.observe(0.5)
        assert monitor.recall_at_k == pytest.approx(0.75)
        assert registry.gauge("retrieval_recall_at_k").value == pytest.approx(0.75)
        assert monitor.stats()["samples"] == 2


class TestEngineShadowProbe:
    def test_exhaustive_cascade_scores_perfect_recall(self, unit_world, model):
        """The oracle is the exhaustive cascade's own surface, so a cascade
        in exhaustive-parity mode must shadow-measure recall exactly 1.0."""
        monitor = ShadowRecallMonitor(rate=1.0, k=10)
        engine = SearchEngine(
            unit_world,
            model,
            np.random.default_rng(1),
            cascade=CascadeConfig.exhaustive(),
            shadow_recall=monitor,
        )
        for user, category in [(1, 1), (2, 2), (3, 1), (5, 3)]:
            engine.retrieve(category, user=user)
        assert monitor.samples == 4
        assert monitor.recall_at_k == 1.0

    def test_lossy_cascade_matches_retrieval_probe_oracle(self, unit_world, model):
        """Shadow recall over a replayed query set agrees with the canary
        RetrievalProbe on the same queries — same oracle, same answer."""
        config = CascadeConfig(retrieve_n=32, prune=16, nprobe=2)
        queries = [(user, user % unit_world.config.num_categories)
                   for user in range(1, 21)]
        monitor = ShadowRecallMonitor(rate=1.0, k=10)
        engine = SearchEngine(
            unit_world,
            model,
            np.random.default_rng(1),
            cascade=config,
            shadow_recall=monitor,
        )
        for user, category in queries:
            engine.retrieve(category, user=user)
        probe = RetrievalProbe(
            unit_world, config, queries=queries, k=10, min_recall=0.0
        )
        _, probe_recall = probe.check(model)
        assert monitor.samples == len(queries)
        assert monitor.recall_at_k == pytest.approx(probe_recall, abs=0.02)

    def test_unsampled_calls_do_not_run_the_oracle(self, unit_world, model):
        monitor = ShadowRecallMonitor(rate=0.0)
        engine = SearchEngine(
            unit_world,
            model,
            np.random.default_rng(1),
            cascade=CascadeConfig(retrieve_n=32, prune=16, nprobe=2),
            shadow_recall=monitor,
        )
        engine.retrieve(1, user=1)
        assert monitor.requests == 1
        assert monitor.samples == 0

    def test_cluster_runtime_attachment(self, unit_world, model):
        """The benchmark/ops pattern: time a fleet clean, then switch the
        shared monitor on — every shard's engine starts consulting it."""
        cluster = build_fleet(
            unit_world,
            model,
            FleetConfig(
                num_workers=2, seed=0,
                cascade=CascadeConfig(retrieve_n=32, prune=16, nprobe=2),
            ),
            backend="inprocess",
        )
        events = ZipfLoadGenerator(
            np.random.default_rng(5), world=unit_world
        ).generate(6)
        replay(cluster, events)
        monitor = ShadowRecallMonitor(rate=1.0, k=10)
        assert monitor.requests == 0
        cluster.attach_shadow_recall(monitor)
        replay(cluster, events)
        assert monitor.requests == 6
        assert monitor.samples == 6
        assert 0.0 <= monitor.recall_at_k <= 1.0
        cluster.attach_shadow_recall(None)
        replay(cluster, events)
        assert monitor.requests == 6  # detached: no longer consulted

    def test_sampling_path_without_cascade_never_samples(self, unit_world, model):
        """Shadow recall is a cascade quality probe: the plain sampling
        retrieval path (no cascade) does not consult the monitor."""
        monitor = ShadowRecallMonitor(rate=1.0)
        engine = SearchEngine(
            unit_world, model, np.random.default_rng(1), shadow_recall=monitor
        )
        engine.retrieve(1, user=1)
        assert monitor.requests == 0
