"""SLO tracker: sliding-window quantiles, burn rate, window rotation."""

import pytest

from repro.obs import SloTracker
from repro.obs import slo as slo_module


@pytest.fixture(autouse=True)
def six_sub_windows(monkeypatch):
    """10 s rotation on the 60 s window: the times below are chosen for it."""
    monkeypatch.setattr(slo_module, "NUM_BUCKETS", 6)


def make_tracker(**kwargs):
    defaults = dict(
        latency_slo_ms=10.0,
        availability_target=0.9,
        window_seconds=60.0,
    )
    defaults.update(kwargs)
    return SloTracker(**defaults)


class TestAccounting:
    def test_violations_and_burn_rate(self):
        # 0.875 and 1/8 are exact in binary floats, so "exactly on budget"
        # really is exactly 1.0.
        tracker = make_tracker(availability_target=0.875)
        for i in range(8):
            tracker.record(5.0 if i else 50.0, now=1.0)  # 1/8 over SLO
        assert tracker.window_requests() == 8
        assert tracker.window_violations() == 1
        assert tracker.violation_rate() == pytest.approx(0.125)
        assert tracker.error_budget_burn_rate() == 1.0
        assert tracker.healthy()  # exactly on budget

    def test_burning_fleet_is_unhealthy(self):
        tracker = make_tracker(availability_target=0.999)
        for _ in range(10):
            tracker.record(99.0, now=0.0)
        assert tracker.error_budget_burn_rate() == pytest.approx(1000.0)
        assert not tracker.healthy()

    def test_empty_tracker_is_healthy(self):
        tracker = make_tracker()
        assert tracker.violation_rate() == 0.0
        assert tracker.p99() == 0.0
        assert tracker.healthy()


class TestSlidingWindow:
    def test_old_violations_age_out(self):
        """A burst at t=0 must vanish once the window slides past it."""
        tracker = make_tracker()  # 60 s window, 10 s sub-windows
        for _ in range(5):
            tracker.record(100.0, now=0.0)
        assert tracker.window_violations(now=0.0) == 5
        assert tracker.window_violations(now=59.0) == 5  # still inside
        tracker.record(1.0, now=70.1)  # rotation evicts the t=0 sub-window
        assert tracker.window_violations(now=70.1) == 0
        assert tracker.window_requests(now=70.1) == 1
        # Lifetime totals survive the slide.
        assert tracker.total_recorded == 6
        assert tracker.total_violations == 5

    def test_quantiles_cover_only_live_window(self):
        tracker = make_tracker()
        tracker.record(100.0, now=0.0)
        tracker.record(2.0, now=70.0)
        assert tracker.quantile(99, now=70.0) == pytest.approx(2.0, rel=0.02)

    def test_queries_default_to_latest_observed_time(self):
        tracker = make_tracker()
        tracker.record(100.0, now=0.0)
        tracker.record(2.0, now=70.0)
        # No explicit now: evaluated at the last record's clock.
        assert tracker.window_violations() == 0

    def test_p99_tracks_tail(self):
        tracker = make_tracker()
        for i in range(100):
            tracker.record(5.0 if i < 98 else 80.0, now=1.0)
        assert tracker.p99() == pytest.approx(80.0, rel=0.02)
        assert tracker.quantile(50) == pytest.approx(5.0, rel=0.02)


class TestStatus:
    def test_status_snapshot_is_json_ready(self):
        import json

        tracker = make_tracker()
        tracker.record(20.0, now=3.0)
        tracker.record(4.0, now=3.0)
        status = tracker.status()
        json.dumps(status)
        assert status["latency_slo_ms"] == 10.0
        assert status["window_requests"] == 2
        assert status["window_violations"] == 1
        assert status["violation_rate"] == pytest.approx(0.5)
        assert status["error_budget_burn_rate"] == pytest.approx(5.0)
        assert status["p99_ms"] == pytest.approx(20.0, rel=0.02)
        assert status["healthy"] is False
        assert status["total_recorded"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SloTracker(latency_slo_ms=0.0)
        with pytest.raises(ValueError):
            SloTracker(latency_slo_ms=1.0, availability_target=1.0)
        with pytest.raises(ValueError):
            SloTracker(latency_slo_ms=1.0, window_seconds=0.0)
