"""Per-shard circuit breakers: stop routing at a crashing component.

Classic three-state breaker (closed → open → half-open → closed):

* **closed** — healthy; requests flow.  ``allow`` is a single attribute
  compare with no clock read, so the happy path costs nothing.
* **open** — :data:`FAILURE_THRESHOLD` consecutive failures tripped it;
  ``allow`` refuses until :data:`COOLDOWN_S` has elapsed on the breaker's
  clock (wall time in production, :class:`~repro.serving.metrics.
  ManualClock` in tests — injected latency advances the same clock, so
  recovery is deterministic).
* **half_open** — cooldown elapsed; trial requests flow.  One failure
  re-trips immediately; one success closes it again.

The breaker only *counts* — routing decisions (skip this shard, reroute
to a sibling) live in :class:`~repro.serving.fleet.Fleet` and the guard in
:meth:`repro.serving.shard.ShardWorker.submit`.  It records its own
transitions: with an ``events`` log attached, every trip is a
``circuit_open`` and every recovery a ``circuit_closed`` event carrying
``shard``, whichever path — a crashed submit, a failed flush, a half-open
trial — reported the outcome that caused it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

__all__ = ["CircuitBreaker"]

#: Consecutive failures that trip a closed breaker open.
FAILURE_THRESHOLD = 3
#: Seconds an open breaker refuses before admitting a half-open trial.
COOLDOWN_S = 0.05


class CircuitBreaker:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        events: Any = None,
        shard: Optional[int] = None,
    ) -> None:
        self._clock = clock
        #: :class:`~repro.obs.EventLog` receiving the state transitions.
        self.events = events
        self.shard = shard
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        # Lifetime counters for reporting.
        self.opens = 0
        self.failures_total = 0
        self.successes_total = 0

    def allow(self) -> bool:
        """May a request be routed here right now?

        An open breaker transitions to half-open (and admits the caller as
        the trial request) once the cooldown has elapsed.
        """
        if self.state != self.OPEN:
            return True
        if self._clock() - self._opened_at < COOLDOWN_S:
            return False
        self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        self.successes_total += 1
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED
            self._consecutive_failures = 0
            if self.events is not None:
                self.events.record("circuit_closed", self._clock(), shard=self.shard)
        elif self._consecutive_failures:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        self.failures_total += 1
        if self.state == self.HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= FAILURE_THRESHOLD:
            self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self._opened_at = self._clock()
        self.opens += 1
        self._consecutive_failures = 0
        if self.events is not None:
            self.events.record(
                "circuit_open", self._opened_at, shard=self.shard, failures=self.failures_total
            )

    def status(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "opens": self.opens,
            "failures": self.failures_total,
            "successes": self.successes_total,
            "consecutive_failures": self._consecutive_failures,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker(state={self.state!r}, opens={self.opens})"
