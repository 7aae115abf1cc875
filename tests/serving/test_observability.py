"""Observability threaded through the serving stack.

Covers the MetricsSink's registry instruments, its event + SLO + export
surface, the request traces the engine, batcher, and cluster emit, and the
one fleet snapshot both report back-ends render.
"""

import json

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.obs import NULL_TRACER, SloTracker, Tracer, report_sections
from repro.retrieval import CascadeConfig
from repro.serving import (
    CacheStats,
    FleetConfig,
    FleetContext,
    ManualClock,
    MetricsSink,
    MicroBatcher,
    SearchEngine,
    build_fleet,
    latency_percentile,
)


def _engine(unit_world, test_set, tracer=NULL_TRACER, cascade=None, seed=1):
    model = build_model(
        "aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0)
    )
    return SearchEngine(
        unit_world,
        model,
        np.random.default_rng(seed),
        cascade=cascade,
        ctx=FleetContext(tracer=tracer),
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
# MetricsSink: one writer, recording straight into registry instruments
# ----------------------------------------------------------------------
class TestSinkModes:
    def test_streaming_sink_holds_no_raw_samples(self):
        sink = MetricsSink(clock=ManualClock())
        for i in range(100):
            sink.record_query(float(i + 1))
            sink.record_batch((i % 4) + 1)
        assert not hasattr(sink, "latencies_ms") and not hasattr(sink, "batch_sizes")
        assert sink.queries == 100
        assert sink.batch_size_histogram() == {1: 25, 2: 25, 3: 25, 4: 25}
        assert sink.max_batch_size == 4

    def test_streaming_percentiles_track_exact(self):
        rng = np.random.default_rng(0)
        latencies = (rng.lognormal(1.0, 0.7, size=5_000) + 0.1).tolist()
        sink = MetricsSink(clock=ManualClock())
        for latency in latencies:
            sink.record_query(latency)
        for p in (50.0, 95.0, 99.0):
            truth = latency_percentile(latencies, p)  # oracle over the held list
            assert sink.percentile(p) == pytest.approx(truth, rel=0.02)

    def test_sink_records_into_its_registry_and_exports_snapshots(self):
        """No mirror: ``sink.registry`` holds the instruments the sink
        records into.  ``to_registry()`` and ``merge()`` results are
        snapshots — they alias no instrument a sink keeps recording into."""
        sink = MetricsSink(clock=ManualClock())
        sink.record_query(2.0)
        sink.record_tier("full")
        assert dict(sink.registry)["repro_latency_ms"].count == 1
        assert dict(sink.registry)["repro_served_full_total"].value == 1
        exported = sink.to_registry()
        merged = sink.merge(MetricsSink(clock=ManualClock()))
        sink.record_query(3.0)
        sink.record_tier("full")
        sink.record_swap()
        assert dict(sink.registry)["repro_latency_ms"].count == sink.queries == 2
        for snapshot in (exported, merged.registry):
            assert dict(snapshot)["repro_latency_ms"].count == 1
            assert dict(snapshot)["repro_served_full_total"].value == 1
            assert dict(snapshot)["repro_model_swaps_total"].value == 0
        # ...and recording into a merged sink leaves its operands alone.
        merged.record_query(5.0)
        merged.record_tier("popularity")
        assert (merged.queries, sink.queries) == (2, 2)
        assert sink.tier_counts == {"full": 2}

    def test_merged_ratios_are_pooled_not_maxed(self):
        """Two shards with different batch sizes / shed rates: the merged
        gauges are ratios of the pooled counters (Gauge.merge alone would
        report the worst shard's)."""
        a, b = MetricsSink(clock=ManualClock()), MetricsSink(clock=ManualClock())
        for size in (2, 2, 2):
            a.record_batch(size)
        b.record_batch(8)
        for _ in range(9):
            a.record_tier("full")
        b.record_tier("popularity")
        b.record_shed()
        merged = a.merge(b).to_registry()
        assert dict(merged)["repro_mean_batch_size"].value == pytest.approx(14 / 4)
        assert dict(merged)["repro_shed_rate"].value == pytest.approx(1 / 10)
        assert dict(merged)["repro_degraded_share"].value == pytest.approx(1 / 10)
        # ...where each shard alone reads 2.0 / 8.0 and 0.0 / 1.0.
        assert dict(b.to_registry())["repro_mean_batch_size"].value == 8.0
        assert dict(b.to_registry())["repro_shed_rate"].value == 1.0

    def test_export_names_and_values_for_fixed_traffic(self):
        """The JSON export for a fixed recorded traffic — the metric names
        and values the pre-instrument sink exported."""
        sink = MetricsSink(clock=ManualClock())
        for latency in (1.0, 2.0, 8.0):
            sink.record_query(latency)
            sink.record_tier("full")
        sink.record_query(0.0)
        sink.record_tier("popularity")
        sink.record_shed()
        sink.record_batch(3)
        sink.record_cache(CacheStats(hits=1, misses=2, evictions=0))
        sink.record_swap(version="v2")
        sink.record_canary(True)
        sink.record_canary(False)
        sink.record_log_lag(5)
        payload = sink.to_registry().to_json()
        scalars = {
            name: metric["value"] for name, metric in payload.items() if "value" in metric
        }
        assert scalars == {
            "repro_queries_total": 4,
            "repro_batches_total": 1,
            "repro_mean_batch_size": 3.0,
            "repro_cache_hits_total": 1,
            "repro_cache_misses_total": 2,
            "repro_cache_evictions_total": 0,
            "repro_model_swaps_total": 1,
            "repro_canary_passes_total": 1,
            "repro_canary_failures_total": 1,
            "repro_click_log_lag": 5.0,
            "repro_served_full_total": 3,
            "repro_served_popularity_total": 1,
            "repro_requests_shed_total": 1,
            "repro_shed_rate": 0.25,
            "repro_degraded_share": 0.25,
        }
        assert set(payload) - set(scalars) == {"repro_latency_ms"}
        assert payload["repro_latency_ms"]["count"] == 4
        assert payload["repro_latency_ms"]["sum"] == 11.0


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
    def test_registry_snapshot(self):
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
        json.dumps(registry.to_json())


# ----------------------------------------------------------------------
# Request traces through the serving layers
# ----------------------------------------------------------------------
class TestEngineTraces:
    def test_search_emits_stage_and_kernel_spans(self, unit_world, test_set):
        tracer = Tracer()
        engine = _engine(unit_world, test_set, tracer=tracer)
        engine.search(user=3, query_category=1)
        (record,) = tracer.finished
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
        tracer = Tracer()
        engine = _engine(
            unit_world,
            test_set,
            tracer=tracer,
            cascade=CascadeConfig(retrieve_n=12, prune=8, nprobe=1),
        )
        engine.search(user=3, query_category=1)
        (record,) = tracer.finished
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
        tracer = Tracer(clock=clock)
        engine = _engine(unit_world, test_set)
        batcher = MicroBatcher(
            engine, max_batch_size=2, flush_deadline_ms=1e9,
            ctx=FleetContext(clock=clock, tracer=tracer),
        )
        batcher.submit(1, 0)
        clock.advance(0.003)
        results = batcher.submit(2, 1)  # size trigger flushes both
        assert len(results) == 2
        assert len(tracer.finished) == 2
        first, second = tracer.finished
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
        tracer = Tracer(clock=clock)
        from repro.serving import SessionCache

        batcher = MicroBatcher(
            _engine(unit_world, test_set),
            max_batch_size=1,
            cache=SessionCache(8),
            ctx=FleetContext(clock=clock, tracer=tracer),
        )
        batcher.submit(3, 2)  # miss: session not yet cached
        batcher.submit(3, 2)  # hit: same session re-issued
        hits = []
        for record in tracer.finished:
            gate = next(s for s in record["spans"] if s["name"] == "gate")
            hits.append(gate["attrs"]["cache_hit"])
        assert hits == [False, True]

    def test_unsampled_traffic_records_nothing(self, unit_world, test_set):
        clock = ManualClock()
        tracer = Tracer(sample_rate=0.0, clock=clock)
        batcher = MicroBatcher(
            _engine(unit_world, test_set), max_batch_size=2,
            ctx=FleetContext(clock=clock, tracer=tracer),
        )
        batcher.submit(1, 0)
        results = batcher.submit(2, 1)
        assert len(results) == 2
        assert not tracer.finished
        assert tracer.stats()["started"] == 2


class TestClusterObservability:
    @pytest.fixture()
    def cluster(self, unit_world, test_set):
        model = build_model(
            "aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0)
        )
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        slo = SloTracker(latency_slo_ms=1e6, window_seconds=600.0)
        cluster = build_fleet(
            unit_world,
            model,
            FleetConfig(num_workers=2, max_batch_size=2),
            backend="inprocess",
            ctx=FleetContext(clock=clock, tracer=tracer, slo=slo),
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

    def test_text_and_html_show_the_same_sections(self, cluster, tmp_path):
        """One snapshot, one section list: whatever the text report shows
        the dashboard shows too (registry metrics, per-shard table, p95,
        tracer stats included); span trees are the one HTML-only panel."""
        cluster, clock = cluster
        for user in range(8):
            cluster.submit(user, user % 3)
        cluster.flush()
        cluster.swap_model(cluster.workers[0].engine.model, version="v2")
        sections = report_sections(cluster.summary())
        titles = [section.title for section in sections]
        for expected in ("per-shard", "degradation ladder", "circuit breakers", "SLO",
                         "tracing", "metrics — histograms", "recent control-plane events"):
            assert expected in titles
        path = tmp_path / "fleet.html"
        text = cluster.fleet_report(dashboard_path=str(path))
        html = path.read_text()
        for title in titles:
            assert title in text and title in html
        assert "p95 ms" in html and "repro_latency_ms" in text
        assert "Sampled traces" in html and "Sampled traces" not in text

    def test_one_snapshot_is_one_merge_and_one_reports_walk(self, cluster, tmp_path, monkeypatch):
        cluster, clock = cluster
        for user in range(8):
            cluster.submit(user, 0)
        cluster.flush()
        calls = {"reports": 0, "merge": 0}
        reports, merge = cluster.transport.reports, MetricsSink.merge

        def counting_reports(fresh=False):
            calls["reports"] += 1
            return reports(fresh)

        def counting_merge(self, other):
            calls["merge"] += 1
            return merge(self, other)

        monkeypatch.setattr(cluster.transport, "reports", counting_reports)
        monkeypatch.setattr(MetricsSink, "merge", counting_merge)
        for render in (
            cluster.summary,
            cluster.fleet_report,
            lambda: cluster.dashboard(str(tmp_path / "a.html")),
            lambda: cluster.fleet_report(dashboard_path=str(tmp_path / "b.html")),
            cluster.telemetry_extra,
            cluster.telemetry,
        ):
            calls.update(reports=0, merge=0)
            render()
            # One walk; one pooling pass = the control sink and each shard's
            # folded onto a fresh one.
            assert calls == {"reports": 1, "merge": cluster.num_shards + 1}
        # The status accessors stay dict walks over the last reports: no merge.
        calls.update(reports=0, merge=0)
        assert cluster.worker_status() and cluster.open_breakers == 0
        assert calls == {"reports": 2, "merge": 0}

    def test_health_accessors_read_the_snapshot(self, cluster):
        cluster, clock = cluster
        cluster.submit(1, 0)
        cluster.flush()
        summary = cluster.summary()
        telemetry = cluster.telemetry_extra()
        assert telemetry == summary["telemetry"] == cluster.telemetry()[1]
        assert cluster.telemetry()[0].to_json() == summary["metrics"]
        # The pooled view is nobody's recording sink.
        assert cluster.merged_metrics().registry is not cluster.control.registry
        assert {"shed_rate", "degraded_share", "open_breakers", "workers_available",
                "worker_restarts", "quarantined_workers", "slab_bytes"} <= set(telemetry)
        assert cluster.open_breakers == telemetry["open_breakers"] == 0
        assert cluster.workers_available == telemetry["workers_available"] == 2
        assert cluster.restarts_total == cluster.quarantined_workers == 0
        assert cluster.worker_status() == summary["shards"]
        assert cluster.breaker_status() == summary["breakers"]
        json.dumps(summary)  # the whole snapshot is an artifact

    def test_shard_sinks_feed_one_slo(self, cluster):
        cluster, clock = cluster
        for user in range(8):
            cluster.submit(user, 0)
        cluster.flush()
        assert cluster.ctx.slo.window_requests() == 8
        assert cluster.merged_metrics().summary()["slo"]["window_requests"] == 8

    def test_every_request_traced_across_shards(self, cluster):
        cluster, clock = cluster
        for user in range(6):
            cluster.submit(user, 0)
        cluster.flush()
        stats = cluster.ctx.tracer.stats()
        assert stats["started"] == 6
        assert len(cluster.ctx.tracer.finished) == 6
