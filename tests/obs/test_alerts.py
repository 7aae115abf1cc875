"""Alerting: rule parsing, hysteresis, event wiring, snapshot flattening."""

import pytest

from repro.obs import (
    AlertManager,
    AlertRule,
    DriftMonitor,
    EventLog,
    MetricsRegistry,
    SloTracker,
    telemetry_snapshot,
)


class TestRuleParsing:
    def test_minimal_rule(self):
        rule = AlertRule.parse("slo_burn_rate > 1.0")
        assert rule.name == "slo_burn_rate"  # unnamed rules take the metric name
        assert rule.metric == "slo_burn_rate"
        assert rule.op == ">"
        assert rule.threshold == 1.0
        assert (rule.for_count, rule.clear_count, rule.severity) == (1, 1, "warning")

    def test_full_rule(self):
        rule = AlertRule.parse("ctr-drift: drift_psi_ctr >= 0.25 for 2 clear 3 severity critical")
        assert rule.name == "ctr-drift"
        assert rule.metric == "drift_psi_ctr"
        assert rule.op == ">="
        assert rule.threshold == 0.25
        assert rule.for_count == 2
        assert rule.clear_count == 3
        assert rule.severity == "critical"

    def test_scientific_notation_and_less_than(self):
        rule = AlertRule.parse("recall-floor: retrieval_recall_at_k < 9.5e-1")
        assert rule.op == "<"
        assert rule.threshold == pytest.approx(0.95)

    @pytest.mark.parametrize(
        "text",
        ["", "no-op-here", "metric !> 1.0", "metric > abc", "metric > 1.0 for zero"],
    )
    def test_unparseable_rules_rejected(self, text):
        with pytest.raises(ValueError, match="unparseable|expected"):
            AlertRule.parse(text)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            AlertRule("r", "m", ">", 1.0, for_count=0)
        with pytest.raises(ValueError):
            AlertRule("r", "m", "!", 1.0)


class TestOperators:
    @pytest.mark.parametrize(
        "op,value,expected",
        [(">", 1.1, True), (">", 1.0, False), (">=", 1.0, True),
         ("<", 0.9, True), ("<", 1.0, False), ("<=", 1.0, True)],
    )
    def test_breached(self, op, value, expected):
        assert AlertRule("r", "m", op, 1.0).breached(value) is expected


def firing(manager):
    return tuple(row["rule"] for row in manager.status() if row["firing"])


class TestHysteresis:
    def test_fires_only_after_for_count_consecutive_breaches(self):
        manager = AlertManager(["hot: t > 1.0 for 3"])
        assert manager.evaluate({"t": 2.0}, 0.0) == []
        assert manager.evaluate({"t": 2.0}, 1.0) == []
        assert "hot" not in firing(manager)
        (transition,) = manager.evaluate({"t": 2.0}, 2.0)
        assert transition.action == "fired"
        assert firing(manager) == ("hot",)

    def test_breach_streak_resets_on_a_clear_window(self):
        manager = AlertManager(["hot: t > 1.0 for 2"])
        manager.evaluate({"t": 2.0}, 0.0)
        manager.evaluate({"t": 0.5}, 1.0)  # streak broken
        assert manager.evaluate({"t": 2.0}, 2.0) == []  # back to streak 1
        assert "hot" not in firing(manager)

    def test_resolves_only_after_clear_count_consecutive_clears(self):
        manager = AlertManager(["hot: t > 1.0 clear 2"])
        manager.evaluate({"t": 2.0}, 0.0)
        assert "hot" in firing(manager)
        assert manager.evaluate({"t": 0.5}, 1.0) == []  # one clear: still firing
        (transition,) = manager.evaluate({"t": 0.5}, 2.0)
        assert transition.action == "resolved"
        assert firing(manager) == ()

    def test_refire_after_resolve(self):
        manager = AlertManager(["hot: t > 1.0"])
        manager.evaluate({"t": 2.0}, 0.0)
        manager.evaluate({"t": 0.5}, 1.0)
        manager.evaluate({"t": 2.0}, 2.0)
        (row,) = manager.status()
        assert row["fired_count"] == 2
        assert row["resolved_count"] == 1
        assert row["firing"] is True

    def test_missing_metric_is_healthy_and_clears(self):
        """No data is not an incident — and counts as a clear window."""
        manager = AlertManager(["hot: t > 1.0"])
        assert manager.evaluate({}, 0.0) == []
        manager.evaluate({"t": 2.0}, 1.0)
        assert "hot" in firing(manager)
        (transition,) = manager.evaluate({}, 2.0)
        assert transition.action == "resolved"
        assert transition.value is None


class TestManagerWiring:
    def test_duplicate_rule_names_rejected(self):
        manager = AlertManager(["a: t > 1.0"])
        with pytest.raises(ValueError, match="duplicate"):
            manager.add_rule("a: u > 2.0")

    def test_non_rule_rejected(self):
        with pytest.raises(TypeError):
            AlertManager([42])

    def test_transitions_record_typed_events(self):
        events = EventLog()
        manager = AlertManager(
            ["hot: t > 1.0 severity critical"], events=events
        )
        manager.evaluate({"t": 2.5}, 10.0)
        manager.evaluate({"t": 0.1}, 11.0)
        fired, resolved = events.events()
        assert fired.kind == "alert_fired"
        assert fired.attrs["rule"] == "hot"
        assert fired.attrs["value"] == 2.5
        assert fired.attrs["threshold"] == 1.0
        assert fired.attrs["severity"] == "critical"
        assert resolved.kind == "alert_resolved"
        assert events.counts() == {"alert_fired": 1, "alert_resolved": 1}

    def test_status_rows(self):
        manager = AlertManager(["a: t > 1.0", "b: u < 0.5"])
        manager.evaluate({"t": 3.0, "u": 0.7}, 0.0)
        rows = {row["rule"]: row for row in manager.status()}
        assert rows["a"]["firing"] is True
        assert rows["a"]["last_value"] == 3.0
        assert rows["b"]["firing"] is False


class TestTelemetrySnapshot:
    def test_flattens_every_source(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(7)
        registry.gauge("lag").set(3.0)
        latency = registry.histogram("latency_ms")
        for value in (1.0, 2.0, 10.0):
            latency.record(value)
        slo = SloTracker(latency_slo_ms=50.0)
        slo.record(5.0, now=0.0)
        drift = DriftMonitor(min_samples=1)
        for _ in range(30):
            drift.observe("ctr", 0.1)
        drift.freeze_reference()
        for _ in range(30):
            drift.observe("ctr", 0.9)
        snapshot = telemetry_snapshot(
            registry=registry, slo=slo, drift=drift.scores(), extra={"click_log_lag": 2.0}
        )
        assert snapshot["queries_total"] == 7.0
        assert snapshot["lag"] == 3.0
        assert snapshot["latency_ms_count"] == 3.0
        assert snapshot["latency_ms_p99"] >= snapshot["latency_ms_p50"]
        assert "slo_burn_rate" in snapshot and "slo_p99_ms" in snapshot
        assert snapshot["drift_psi_ctr"] > 0.25
        assert snapshot["drift_psi_worst"] == snapshot["drift_psi_ctr"]
        assert set(name for name in snapshot if name.startswith("drift_")) == {
            "drift_psi_ctr", "drift_psi_worst"
        }
        assert snapshot["click_log_lag"] == 2.0

    def test_empty_sources_give_empty_snapshot(self):
        assert telemetry_snapshot() == {}

    def test_extra_overrides_merge_last(self):
        registry = MetricsRegistry()
        registry.gauge("lag").set(1.0)
        snapshot = telemetry_snapshot(registry=registry, extra={"lag": 9.0})
        assert snapshot["lag"] == 9.0
