"""Load generator (Zipf traffic, Poisson arrivals) and metrics sink."""

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.serving import (
    FleetContext,
    ManualClock,
    MetricsSink,
    MicroBatcher,
    SearchEngine,
    SessionCache,
    ZipfLoadGenerator,
    latency_percentile,
    replay,
)


class TestZipfLoadGenerator:
    def test_deterministic_given_seed(self, unit_world):
        def make():
            return ZipfLoadGenerator(np.random.default_rng(4), world=unit_world).generate(50)

        assert make() == make()

    def test_arrival_times_monotone(self, unit_world):
        events = ZipfLoadGenerator(np.random.default_rng(4), world=unit_world).generate(100)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert times[0] > 0

    def test_traffic_is_skewed(self, unit_world):
        """Zipf exponent > 0 concentrates traffic on few users — the regime
        where the session cache pays off."""
        events = ZipfLoadGenerator(
            np.random.default_rng(4), world=unit_world, zipf_exponent=1.1
        ).generate(400)
        counts = np.bincount([e.user for e in events], minlength=unit_world.num_users)
        top10_share = np.sort(counts)[-10:].sum() / 400
        assert top10_share > 0.5

    def test_zero_exponent_roughly_uniform(self, unit_world):
        events = ZipfLoadGenerator(
            np.random.default_rng(4), world=unit_world, zipf_exponent=0.0
        ).generate(400)
        counts = np.bincount([e.user for e in events], minlength=unit_world.num_users)
        assert counts.max() <= 12  # no user dominates without skew

    def test_categories_follow_interests(self, unit_world):
        events = ZipfLoadGenerator(np.random.default_rng(4), world=unit_world).generate(300)
        for event in events[:50]:
            assert unit_world.user_interests[event.user, event.query_category] > 0

    def test_world_free_mode(self):
        generator = ZipfLoadGenerator(
            np.random.default_rng(0), num_users=50, num_categories=5
        )
        events = generator.generate(20)
        assert all(0 <= e.user < 50 and 0 <= e.query_category < 5 for e in events)

    def test_parameter_validation(self, unit_world):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ZipfLoadGenerator(rng)  # neither world nor sizes
        with pytest.raises(ValueError):
            ZipfLoadGenerator(rng, world=unit_world, zipf_exponent=-1)
        with pytest.raises(ValueError):
            ZipfLoadGenerator(rng, world=unit_world, target_qps=0)


class TestReplay:
    def test_replay_drains_every_event(self, unit_world, test_set):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        clock = ManualClock()
        engine = SearchEngine(unit_world, model, np.random.default_rng(1))
        batcher = MicroBatcher(
            engine, max_batch_size=4, flush_deadline_ms=20.0,
            cache=SessionCache(128), ctx=FleetContext(clock=clock),
        )
        events = ZipfLoadGenerator(
            np.random.default_rng(4), world=unit_world, target_qps=500.0
        ).generate(30)
        results = replay(batcher, events, clock=clock)
        assert len(results) == 30
        assert engine.queries_served == 30
        # Deadline flushes fired along the way: more than one batch, none
        # larger than the size cap.
        assert batcher.metrics.batches >= 2
        assert batcher.metrics.max_batch_size <= 4

    def test_sparse_traffic_latency_bounded_by_deadline(self, unit_world, test_set):
        """Deadline flushes fire *at the deadline* in simulated time, not at
        the next arrival — a 10 s traffic gap must not inflate latency."""
        from repro.serving import TrafficEvent

        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        clock = ManualClock()
        batcher = MicroBatcher(
            SearchEngine(unit_world, model, np.random.default_rng(1)),
            max_batch_size=100,
            flush_deadline_ms=50.0,
            ctx=FleetContext(clock=clock),
        )
        events = [
            TrafficEvent(time=0.001, user=1, query_category=0),
            TrafficEvent(time=10.0, user=2, query_category=1),
        ]
        results = replay(batcher, events, clock=clock)
        assert len(results) == 2
        assert results[0].latency_ms == pytest.approx(50.0)
        assert results[1].latency_ms == pytest.approx(50.0)


class TestMetricsSink:
    def test_percentiles_nearest_rank(self):
        latencies = list(range(1, 101))  # 1..100 ms
        assert latency_percentile(latencies, 50) == 50
        assert latency_percentile(latencies, 95) == 95
        assert latency_percentile(latencies, 99) == 99
        assert latency_percentile(latencies, 100) == 100
        assert latency_percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            latency_percentile(latencies, 0)

    def test_qps_over_recorded_span(self):
        clock = ManualClock()
        sink = MetricsSink(clock=clock)
        for _ in range(11):
            sink.record_query(1.0)
            clock.advance(0.1)
        # 11 queries recorded across a 1-second span (first at t=0, last at t=1).
        assert sink.qps == pytest.approx(11 / 1.0)

    def test_qps_zero_without_span(self):
        sink = MetricsSink(clock=ManualClock())
        assert sink.qps == 0.0
        sink.record_query(1.0)
        assert sink.qps == 0.0  # single instant, no span

    def test_merge_pools_everything(self):
        clock = ManualClock()
        a, b = MetricsSink(clock=clock), MetricsSink(clock=clock)
        a.record_query(1.0, now=0.0)
        b.record_query(3.0, now=2.0)
        a.record_batch(2)
        b.record_batch(4)
        merged = a.merge(b)
        assert merged.queries == 2
        assert merged.wall_seconds == 2.0
        assert merged.batch_size_histogram() == {2: 1, 4: 1}

    def test_summary_is_json_ready(self):
        import json

        sink = MetricsSink(clock=ManualClock())
        sink.record_query(5.0, now=0.0)
        sink.record_query(7.0, now=1.0)
        sink.record_batch(2)
        summary = sink.summary()
        payload = json.loads(json.dumps(summary))
        assert payload["queries"] == 2
        assert payload["latency_ms"]["mean"] == 6.0  # the mean is exact
        assert payload["latency_ms"]["p50"] == pytest.approx(5.0, rel=0.02)
        assert payload["mean_batch_size"] == 2.0

    def test_manual_clock_validation(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        clock.advance_to(5.0)
        clock.advance_to(1.0)  # never moves backwards
        assert clock.now() == 5.0


class TestOnlineEventMetrics:
    """Online-loop events flow through the same sink as query metrics."""

    def test_swap_and_canary_counters(self):
        sink = MetricsSink(clock=ManualClock())
        sink.record_swap()
        sink.record_swap()
        sink.record_canary(True)
        sink.record_canary(False)
        sink.record_log_lag(37)
        assert sink.swaps == 2
        assert (sink.canary_passes, sink.canary_failures) == (1, 1)
        assert sink.log_lag == 37

    def test_merge_sums_counters_and_takes_worst_lag(self):
        a, b = MetricsSink(clock=ManualClock()), MetricsSink(clock=ManualClock())
        a.record_swap()
        a.record_canary(True)
        a.record_log_lag(5)
        b.record_canary(False)
        b.record_log_lag(50)
        merged = a.merge(b)
        assert merged.swaps == 1
        assert (merged.canary_passes, merged.canary_failures) == (1, 1)
        assert merged.log_lag == 50

    def test_summary_includes_online_section(self):
        import json

        sink = MetricsSink(clock=ManualClock())
        sink.record_swap()
        sink.record_canary(True)
        sink.record_log_lag(12)
        payload = json.loads(json.dumps(sink.summary()))
        assert payload["online"] == {
            "swaps": 1,
            "canary_passes": 1,
            "canary_failures": 0,
            "click_log_lag": 12,
        }

    def test_summary_percentiles_match_single_sort(self):
        """summary() reads its percentiles off the streaming histogram; they
        must stay within its 2% bound of the nearest-rank values
        latency_percentile computes by sorting the list the test holds."""
        rng = np.random.default_rng(8)
        latencies = [float(value) for value in rng.random(257) * 100]
        sink = MetricsSink(clock=ManualClock())
        for value in latencies:
            sink.record_query(value)
        summary = sink.summary()
        for key, p in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert summary["latency_ms"][key] == pytest.approx(
                latency_percentile(latencies, p), rel=0.02
            )
        assert summary["latency_ms"]["mean"] == pytest.approx(np.mean(latencies))

    def test_cost_model_translates_cache_hits_to_flops(self, unit_world):
        from repro.serving import compare_gate_strategies
        from repro.serving.cache import CacheStats

        report = compare_gate_strategies(
            ModelConfig.unit(), unit_world.meta(), items_per_session=8, seq_len=8
        )
        sink = MetricsSink(clock=ManualClock())
        assert sink.gate_flops_saved == 0
        sink.record_cost_model(report)
        sink.record_cache(CacheStats(hits=10, misses=5, evictions=0))
        assert sink.gate_flops_saved == 10 * report.gate_flops
        summary = sink.summary()
        assert summary["cost"]["gate_flops"] == report.gate_flops
        assert summary["cost"]["gate_flops_saved_by_cache"] == 10 * report.gate_flops
        assert summary["cost"]["session_saving_factor"] > 1.0
        assert summary["cost"]["behavior_flops"] == report.behavior_flops
        assert summary["cost"]["behavior_saving_factor"] == report.behavior_saving_factor
        # The cost model survives a merge.
        merged = sink.merge(MetricsSink(clock=ManualClock()))
        assert merged.cost_model is report
