"""The fleet report: one section list, two back-ends, the written artifact."""

from repro.obs import (
    AlertManager,
    DriftMonitor,
    InMemoryExporter,
    MetricsRegistry,
    EventLog,
    ShadowRecallMonitor,
    SloTracker,
    Tracer,
    render_dashboard,
    render_text,
    report_sections,
    write_dashboard,
)
from repro.serving import ManualClock, MetricsSink


def _full_telemetry():
    """A hand-assembled ``Fleet.summary()``-shaped snapshot (every key a
    collaborator fills comes from that collaborator's own dict method) plus
    one refresh trace."""
    registry = MetricsRegistry()
    registry.counter("queries_total", "queries").inc(100)
    registry.gauge("log_lag").set(2.0)
    registry.histogram("latency_ms", "latency").record_many([1.0, 2.0, 9.0])
    slo = SloTracker(latency_slo_ms=50.0)
    slo.record(5.0, now=0.0)
    events = EventLog()
    events.record("hot_swap", 1.0, version="v0002")
    drift = DriftMonitor(min_samples=1)
    drift.observe_many("ctr", [0.1] * 40)
    drift.freeze_reference()
    drift.observe_many("ctr", [0.9] * 40)
    alerts = AlertManager(["ctr-drift: drift_psi_ctr > 0.25 severity critical"], events=events)
    alerts.evaluate({"drift_psi_ctr": drift.psi("ctr")}, 2.0)
    shadow = ShadowRecallMonitor(rate=1.0, k=10)
    shadow.observe(0.9)
    clock = ManualClock()
    tracer = Tracer(sample_rate=1.0, exporter=InMemoryExporter(), clock=clock)
    trace = tracer.trace("refresh", cycle=0)
    with trace.span("serve"):
        clock.advance(0.001)
        with trace.span("rank"):
            clock.advance(0.001)
    trace.finish(promoted=True)
    sink = MetricsSink(clock=clock)
    sink.record_query(5.0, now=0.0)
    sink.record_query(7.0, now=2.0)
    sink.record_tier("full")
    sink.record_tier("popularity")
    summary = {
        **sink.summary(),
        "num_shards": 2,
        "model_version": "v0002",
        "generation": 1,
        "slab_bytes": 0,
        "metrics": registry.to_json(),
        "slo": slo.status(),
        "tracer": tracer.stats(),
        "shadow_recall": shadow.stats(),
        "drift": drift.to_dict(),
        "alerts": alerts.status(),
        "events": events.counts(),
        "event_tail": [event.to_dict() for event in events.tail(12)],
    }
    return summary, list(tracer.finished)


class TestRenderDashboard:
    def test_all_panels_render(self):
        summary, traces = _full_telemetry()
        html = render_dashboard(report_sections(summary), title="unit fleet", traces=traces)
        assert html.startswith("<!DOCTYPE html>")
        assert "unit fleet" in html
        # One recognizable anchor per panel.
        assert "2 shard(s), model v0002" in html and "qps" in html  # headline
        assert "degradation ladder" in html and "popularity" in html
        assert "ctr-drift" in html and "FIRING" in html  # alerts
        assert "drift vs training reference" in html  # drift panel with the feature row
        assert "shadow recall@10" in html  # shadow panel
        assert "latency_ms" in html and "queries_total" in html  # registry
        assert "hot_swap" in html and "alert_fired" in html  # event tail
        assert "refresh" in html and "serve" in html and "rank" in html  # trace tree

    def test_text_and_html_render_the_same_sections(self):
        summary, traces = _full_telemetry()
        sections = report_sections(summary)
        titles = [section.title for section in sections]
        assert len(titles) == len(set(titles)) >= 9
        text = render_text(sections)
        html = render_dashboard(sections, traces=traces)
        for section in sections:
            assert section.title in text and section.title in html
            for row in section.rows:
                assert str(row[0]) in text and str(row[0]) in html
        assert "Sampled traces" in html and "Sampled traces" not in text  # HTML only

    def test_empty_dashboard_still_valid(self):
        assert report_sections({}) == []
        html = render_dashboard(title="empty")
        assert html.startswith("<!DOCTYPE html>")
        assert "empty" in html

    def test_attribute_values_are_escaped(self):
        events = EventLog()
        events.record("hot_swap", 0.0, note="<script>alert(1)</script>")
        html = render_dashboard(
            report_sections({"event_tail": [event.to_dict() for event in events.tail()]})
        )
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_drift_without_reference_shows_placeholder(self):
        drift = DriftMonitor()
        drift.observe("ctr", 0.1)
        sections = report_sections({"drift": drift.to_dict()})
        assert "no reference frozen yet" in render_dashboard(sections)
        assert "no reference frozen yet" in render_text(sections)

    def test_self_contained_single_document(self):
        summary, traces = _full_telemetry()
        html = render_dashboard(report_sections(summary), traces=traces)
        # No external fetches: inline style only, no script/src/link tags.
        assert "<link" not in html and "src=" not in html
        assert "<style>" in html


class TestWriteDashboard:
    def test_writes_the_rendered_document(self, tmp_path):
        path = tmp_path / "dash.html"
        summary, traces = _full_telemetry()
        returned = write_dashboard(
            str(path), report_sections(summary), title="written fleet", traces=traces
        )
        assert returned == str(path)
        content = path.read_text()
        assert content.startswith("<!DOCTYPE html>")
        assert "written fleet" in content
