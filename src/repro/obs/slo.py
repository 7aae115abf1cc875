"""SLO tracking: sliding-window tail latency and error-budget burn rate.

An SLO ("p99 under X ms, 99.9% of requests") is only meaningful over a
window — lifetime aggregates hide a fleet that was healthy all week and on
fire for the last minute.  :class:`SloTracker` keeps :data:`NUM_BUCKETS`
rotating sub-windows, each a bounded
:class:`~repro.obs.streaming.StreamingHistogram` plus violation counters;
queries merge the live sub-windows, so p99 and the burn rate always reflect
the last ``window_seconds`` at O(1) memory.

**Burn rate** is the standard SRE quantity: observed violation rate divided
by the allowed rate (``1 - availability_target``).  1.0 means the error
budget is being spent exactly as provisioned; 10 means ten times too fast.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.streaming import StreamingHistogram

__all__ = ["SloTracker"]

#: Rotating sub-windows per SLO window: rotation granularity is
#: ``window_seconds / NUM_BUCKETS``.
NUM_BUCKETS = 12


class _Window:
    """One rotating sub-window of the sliding SLO window."""

    __slots__ = ("histogram", "total", "violations")

    def __init__(self, histogram: StreamingHistogram) -> None:
        self.histogram = histogram
        self.total = 0
        self.violations = 0


class SloTracker:
    """Sliding-window latency-SLO evaluation.

    Parameters
    ----------
    latency_slo_ms:
        The per-request latency objective; a request above it (or flagged
        ``error=True``) spends error budget.
    availability_target:
        Fraction of requests allowed to meet the SLO, e.g. ``0.999``.
    window_seconds:
        Length of the sliding evaluation window.
    """

    def __init__(
        self,
        latency_slo_ms: float,
        availability_target: float = 0.999,
        window_seconds: float = 60.0,
    ) -> None:
        if latency_slo_ms <= 0:
            raise ValueError(f"latency_slo_ms must be > 0, got {latency_slo_ms}")
        if not 0.0 < availability_target < 1.0:
            raise ValueError(
                f"availability_target must be in (0, 1), got {availability_target}"
            )
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        self.latency_slo_ms = float(latency_slo_ms)
        self.availability_target = float(availability_target)
        self.window_seconds = float(window_seconds)
        self._span = self.window_seconds / NUM_BUCKETS
        self._windows: Dict[int, _Window] = {}
        self._last_now = 0.0
        self.total_recorded = 0
        self.total_violations = 0

    def _new_histogram(self) -> StreamingHistogram:
        # 512 buckets at growth 1.04 cover 1e-3 ms .. ~5e5 ms — any latency
        # a request-serving path can plausibly produce.
        return StreamingHistogram(min_value=1e-3, growth=1.04, num_buckets=512)

    def _epoch(self, now: float) -> int:
        return int(now // self._span)

    def _evict(self, now: float) -> None:
        horizon = self._epoch(now) - NUM_BUCKETS
        for epoch in [epoch for epoch in self._windows if epoch <= horizon]:
            del self._windows[epoch]

    def record(self, latency_ms: float, now: float, error: bool = False) -> None:
        """Account one request observed at clock time ``now`` (seconds)."""
        now = float(now)
        self._last_now = max(self._last_now, now)
        self._evict(now)
        window = self._windows.get(self._epoch(now))
        if window is None:
            window = _Window(self._new_histogram())
            self._windows[self._epoch(now)] = window
        window.histogram.record(latency_ms)
        window.total += 1
        self.total_recorded += 1
        if error or latency_ms > self.latency_slo_ms:
            window.violations += 1
            self.total_violations += 1

    def _live(self, now: Optional[float]) -> list:
        now = self._last_now if now is None else float(now)
        horizon = self._epoch(now) - NUM_BUCKETS
        return [window for epoch, window in self._windows.items() if epoch > horizon]

    def window_requests(self, now: Optional[float] = None) -> int:
        return sum(window.total for window in self._live(now))

    def window_violations(self, now: Optional[float] = None) -> int:
        return sum(window.violations for window in self._live(now))

    def quantile(self, p: float, now: Optional[float] = None) -> float:
        """Latency quantile over the live window (0.0 when empty)."""
        live = self._live(now)
        if not live:
            return 0.0
        merged = live[0].histogram
        for window in live[1:]:
            merged = merged.merge(window.histogram)
        return merged.quantile(p)

    def p99(self, now: Optional[float] = None) -> float:
        return self.quantile(99, now)

    def violation_rate(self, now: Optional[float] = None) -> float:
        total = self.window_requests(now)
        if total == 0:
            return 0.0
        return self.window_violations(now) / total

    def error_budget_burn_rate(self, now: Optional[float] = None) -> float:
        """Observed violation rate / allowed rate.  1.0 = on budget."""
        allowed = 1.0 - self.availability_target
        return self.violation_rate(now) / allowed

    def healthy(self, now: Optional[float] = None) -> bool:
        return self.error_budget_burn_rate(now) <= 1.0

    def status(self, now: Optional[float] = None) -> Dict[str, Any]:
        """JSON-ready snapshot of the live window."""
        return {
            "latency_slo_ms": self.latency_slo_ms,
            "availability_target": self.availability_target,
            "window_seconds": self.window_seconds,
            "window_requests": self.window_requests(now),
            "window_violations": self.window_violations(now),
            "violation_rate": self.violation_rate(now),
            "error_budget_burn_rate": self.error_budget_burn_rate(now),
            "p50_ms": self.quantile(50, now),
            "p99_ms": self.p99(now),
            "healthy": self.healthy(now),
            "total_recorded": self.total_recorded,
            "total_violations": self.total_violations,
        }
