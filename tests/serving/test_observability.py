"""Observability threaded through the serving stack.

Covers the MetricsSink streaming/exact duality, its event + SLO + registry
surface, and the request traces the engine, batcher, and cluster emit.
"""

import json

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.obs import InMemoryExporter, SloTracker, Tracer
from repro.retrieval import CascadeConfig
from repro.serving import (
    CacheStats,
    FleetConfig,
    ManualClock,
    MetricsSink,
    MicroBatcher,
    SearchEngine,
    build_fleet,
    latency_percentile,
)


def _engine(unit_world, test_set, tracer=None, cascade=None, seed=1):
    model = build_model(
        "aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0)
    )
    return SearchEngine(
        unit_world,
        model,
        np.random.default_rng(seed),
        tracer=tracer,
        cascade=cascade,
    )


def _span_tree(trace_dict):
    """{span id: record} plus a name → children-names map."""
    spans = {span["id"]: span for span in trace_dict["spans"]}
    children = {}
    for span in trace_dict["spans"]:
        if span["parent"] is not None:
            parent_name = spans[span["parent"]]["name"]
            children.setdefault(parent_name, []).append(span["name"])
    return spans, children


# ----------------------------------------------------------------------
# MetricsSink: streaming by default, exact on request
# ----------------------------------------------------------------------
class TestSinkModes:
    def test_streaming_sink_holds_no_raw_samples(self):
        sink = MetricsSink(clock=ManualClock())
        for i in range(100):
            sink.record_query(float(i + 1))
            sink.record_batch((i % 4) + 1)
        assert sink.latencies_ms is None
        assert sink.batch_sizes is None
        assert sink.queries == 100
        assert sink.max_batch_size == 4

    def test_streaming_percentiles_track_exact(self):
        rng = np.random.default_rng(0)
        latencies = (rng.lognormal(1.0, 0.7, size=5_000) + 0.1).tolist()
        streaming = MetricsSink(clock=ManualClock())
        exact = MetricsSink(clock=ManualClock(), exact=True)
        for latency in latencies:
            streaming.record_query(latency)
            exact.record_query(latency)
        for p in (50.0, 95.0, 99.0):
            truth = latency_percentile(latencies, p)
            assert exact.percentile(p) == truth  # exact mode is bitwise
            assert streaming.percentile(p) == pytest.approx(truth, rel=0.02)

    def test_batch_histograms_agree_across_modes(self):
        streaming = MetricsSink(clock=ManualClock())
        exact = MetricsSink(clock=ManualClock(), exact=True)
        for size in [3, 1, 3, 7, 1, 3]:
            streaming.record_batch(size)
            exact.record_batch(size)
        expected = {1: 2, 3: 3, 7: 1}
        assert streaming.batch_size_histogram() == expected
        assert exact.batch_size_histogram() == expected
        assert streaming.max_batch_size == exact.max_batch_size == 7

    def test_merge_demotes_to_streaming_unless_both_exact(self):
        exact_a = MetricsSink(clock=ManualClock(), exact=True)
        exact_b = MetricsSink(clock=ManualClock(), exact=True)
        streaming = MetricsSink(clock=ManualClock())
        for sink, latency in ((exact_a, 1.0), (exact_b, 2.0), (streaming, 3.0)):
            sink.record_query(latency)
        both_exact = exact_a.merge(exact_b)
        assert both_exact.exact and sorted(both_exact.latencies_ms) == [1.0, 2.0]
        demoted = exact_a.merge(streaming)
        assert not demoted.exact and demoted.latencies_ms is None
        assert demoted.queries == 2
        assert demoted.percentile(99) == pytest.approx(3.0, rel=0.02)


class TestSinkEventsAndSlo:
    def test_control_plane_events_recorded(self):
        clock = ManualClock()
        sink = MetricsSink(clock=clock)
        sink.record_swap(version="v2")
        clock.advance(1.0)
        sink.record_canary(False, version="v3", recall=0.84)
        sink.record_log_lag(5)
        kinds = [event.kind for event in sink.events.events()]
        assert kinds == ["hot_swap", "canary_verdict", "recall_probe", "click_log_lag"]
        verdict = sink.events.events("canary_verdict")[0]
        assert verdict.attrs == {"passed": False, "version": "v3"}
        assert sink.events.events("recall_probe")[0].attrs["recall"] == 0.84
        assert sink.summary()["events"]["hot_swap"] == 1

    def test_record_query_feeds_slo(self):
        slo = SloTracker(latency_slo_ms=10.0, availability_target=0.9)
        clock = ManualClock()
        sink = MetricsSink(clock=clock, slo=slo)
        sink.record_query(50.0)
        sink.record_query(1.0)
        assert slo.window_violations() == 1
        status = sink.summary()["slo"]
        assert status["window_requests"] == 2
        assert status["healthy"] is False

    def test_summary_without_slo_reports_none(self):
        assert MetricsSink(clock=ManualClock()).summary()["slo"] is None


class TestSinkExport:
    def test_registry_and_prometheus_snapshot(self):
        sink = MetricsSink(clock=ManualClock())
        for latency in (1.0, 2.0, 8.0):
            sink.record_query(latency)
        sink.record_batch(3)
        sink.record_cache(CacheStats(hits=1, misses=2, evictions=0))
        sink.record_swap(version="v2")
        registry = sink.to_registry()
        assert registry.counter("repro_queries_total").value == 3
        assert registry.counter("repro_cache_hits_total").value == 1
        assert registry.counter("repro_model_swaps_total").value == 1
        hist = registry.histogram("repro_latency_ms")
        assert hist.count == 3
        assert hist.quantile(50) == pytest.approx(2.0, rel=0.02)
        text = sink.prometheus_text()
        assert "repro_queries_total 3" in text
        assert 'repro_latency_ms_bucket{le="+Inf"} 3' in text
        json.dumps(registry.to_json())


# ----------------------------------------------------------------------
# Request traces through the serving layers
# ----------------------------------------------------------------------
class TestEngineTraces:
    def test_search_emits_stage_and_kernel_spans(self, unit_world, test_set):
        exporter = InMemoryExporter()
        tracer = Tracer(exporter=exporter)
        engine = _engine(unit_world, test_set, tracer=tracer)
        engine.search(user=3, query_category=1)
        (record,) = exporter.records
        assert record["name"] == "search"
        assert record["attrs"]["user"] == 3
        spans, children = _span_tree(record)
        top_level = [s["name"] for s in record["spans"] if s["parent"] is None]
        # No cascade → no session-gate stage to resolve up front.
        assert top_level == ["retrieve", "assemble", "rank"]
        # Per-kernel children under rank, stamped with the cost model.
        kernels = children["rank"]
        assert "experts" in kernels and "mix" in kernels
        experts = next(s for s in record["spans"] if s["name"] == "experts")
        assert experts["attrs"]["flops"] > 0

    def test_cascade_substages_traced(self, unit_world, test_set):
        exporter = InMemoryExporter()
        tracer = Tracer(exporter=exporter)
        engine = _engine(
            unit_world,
            test_set,
            tracer=tracer,
            cascade=CascadeConfig(retrieve_n=12, prune=8, nprobe=1),
        )
        engine.search(user=3, query_category=1)
        (record,) = exporter.records
        _, children = _span_tree(record)
        top_level = [s["name"] for s in record["spans"] if s["parent"] is None]
        assert top_level[0] == "gate"  # session gate resolved once, up front
        assert "session-vector" in children["retrieve"]
        assert "ivf-probe" in children["retrieve"]

    def test_untraced_search_unchanged(self, unit_world, test_set):
        baseline = _engine(unit_world, test_set).search(3, 1)
        traced = _engine(unit_world, test_set, tracer=Tracer()).search(3, 1)
        assert np.array_equal(baseline.items, traced.items)
        assert np.array_equal(baseline.scores, traced.scores)


class TestBatcherTraces:
    def test_batched_request_span_tree(self, unit_world, test_set):
        clock = ManualClock()
        exporter = InMemoryExporter()
        tracer = Tracer(exporter=exporter, clock=clock)
        engine = _engine(unit_world, test_set)
        batcher = MicroBatcher(
            engine, max_batch_size=2, flush_deadline_ms=1e9, clock=clock, tracer=tracer
        )
        batcher.submit(1, 0)
        clock.advance(0.003)
        results = batcher.submit(2, 1)  # size trigger flushes both
        assert len(results) == 2
        assert len(exporter.records) == 2
        first, second = exporter.records
        spans, children = _span_tree(first)
        top_level = [s["name"] for s in first["spans"] if s["parent"] is None]
        assert top_level == ["submit", "queue-wait", "flush"]
        # The feature join happens once per flush, not once per submit.
        assert children["submit"] == ["gate", "retrieve"]
        assert children["flush"][:2] == ["assemble", "gate-flush"]
        assert "rank" in children["flush"]
        assert "experts" in children["rank"]  # shared batch work fanned out
        # The first query waited for the second; the second never queued.
        wait_first = next(s for s in first["spans"] if s["name"] == "queue-wait")
        wait_second = next(s for s in second["spans"] if s["name"] == "queue-wait")
        assert wait_first["duration_ms"] == pytest.approx(3.0)
        assert wait_second["duration_ms"] == pytest.approx(0.0)
        flush = next(s for s in first["spans"] if s["name"] == "flush")
        assert flush["attrs"]["batch_size"] == 2

    def test_gate_cache_hit_lands_on_span(self, unit_world, test_set):
        clock = ManualClock()
        exporter = InMemoryExporter()
        tracer = Tracer(exporter=exporter, clock=clock)
        from repro.serving import SessionCache

        batcher = MicroBatcher(
            _engine(unit_world, test_set),
            max_batch_size=1,
            cache=SessionCache(8),
            clock=clock,
            tracer=tracer,
        )
        batcher.submit(3, 2)  # miss: session not yet cached
        batcher.submit(3, 2)  # hit: same session re-issued
        hits = []
        for record in exporter.records:
            gate = next(s for s in record["spans"] if s["name"] == "gate")
            hits.append(gate["attrs"]["cache_hit"])
        assert hits == [False, True]

    def test_unsampled_traffic_records_nothing(self, unit_world, test_set):
        clock = ManualClock()
        exporter = InMemoryExporter()
        tracer = Tracer(sample_rate=0.0, exporter=exporter, clock=clock)
        batcher = MicroBatcher(
            _engine(unit_world, test_set), max_batch_size=2, clock=clock, tracer=tracer
        )
        batcher.submit(1, 0)
        results = batcher.submit(2, 1)
        assert len(results) == 2
        assert exporter.records == []
        assert tracer.stats()["started"] == 2


class TestClusterObservability:
    @pytest.fixture()
    def cluster(self, unit_world, test_set):
        model = build_model(
            "aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0)
        )
        clock = ManualClock()
        tracer = Tracer(exporter=InMemoryExporter(), clock=clock)
        slo = SloTracker(latency_slo_ms=1e6, window_seconds=600.0)
        cluster = build_fleet(
            unit_world,
            model,
            FleetConfig(num_workers=2, max_batch_size=2),
            backend="inprocess",
            clock=clock,
            tracer=tracer,
            slo=slo,
        )
        return cluster, clock

    def test_fleet_report_sections(self, cluster):
        cluster, clock = cluster
        for user in range(8):
            cluster.submit(user, user % 3)
        cluster.flush()
        cluster.swap_model(cluster.workers[0].engine.model, version="v2")
        report = cluster.fleet_report()
        assert "fleet — 2 shard(s), model v2" in report
        assert "per-shard" in report
        assert "SLO: p99" in report and "HEALTHY" in report
        assert "requests sampled (rate 1.00)" in report
        assert "recent control-plane events" in report
        assert "hot_swap" in report and "cache_invalidation" in report

    def test_shard_sinks_feed_one_slo(self, cluster):
        cluster, clock = cluster
        for user in range(8):
            cluster.submit(user, 0)
        cluster.flush()
        assert cluster.slo.window_requests() == 8
        assert cluster.merged_metrics().summary()["slo"]["window_requests"] == 8

    def test_every_request_traced_across_shards(self, cluster):
        cluster, clock = cluster
        for user in range(6):
            cluster.submit(user, 0)
        cluster.flush()
        stats = cluster.tracer.stats()
        assert stats["started"] == 6
        assert stats["exported"] == 6
