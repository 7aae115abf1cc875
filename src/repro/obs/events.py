"""Control-plane events: typed, timestamped, bounded.

The online loop's deployment actions — hot swaps, canary verdicts, cascade
recall probes, click-log lag observations — used to exist only as counters.
Counters answer "how many"; incident response needs "what happened, when,
with what outcome".  :class:`EventLog` keeps the most recent events in a
ring buffer (bounded memory, like everything in :mod:`repro.obs`) while
running per-kind totals survive eviction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

__all__ = ["Event", "EventLog", "EVENT_KINDS"]

#: Events an :class:`EventLog` retains; older ones are dropped (and counted).
CAPACITY = 256

#: The control-plane vocabulary.  ``record`` rejects unknown kinds so a
#: typo'd event name fails at the producer, not silently in a dashboard.
EVENT_KINDS = frozenset(
    {
        "hot_swap",  # a model version deployed into the serving fleet
        "canary_verdict",  # the canary gate passed/failed a candidate
        "recall_probe",  # a cascade retrieval-recall probe measurement
        "click_log_lag",  # feedback-loop freshness observation
        "cache_invalidation",  # session-cache generation bump
        "drift_score",  # per-cycle live-vs-reference drift measurement
        "alert_fired",  # an AlertRule crossed its hysteresis fire threshold
        "alert_resolved",  # a firing AlertRule cleared
        # Fault tolerance (repro.faults):
        "fault_injected",  # the fault injector fired a scheduled fault
        "load_shed",  # admission control answered a request at the fallback tier
        "degraded",  # a request was served below the full tier
        "circuit_open",  # a shard's circuit breaker tripped open
        "circuit_closed",  # a shard's circuit breaker recovered to closed
        "shard_failover",  # a request was rerouted off a failed shard
        "rollback",  # the fleet/registry reverted to the previous production version
        "quarantine",  # a corrupted candidate checkpoint was quarantined
        "retry",  # a transient train/canary failure was retried with backoff
        "state_recovered",  # persistent state (index/log/shm) was repaired at startup
        # Process backend (repro.serving.pipe):
        "worker_spawned",  # a fleet worker process came up and acked ready
        "worker_died",  # a worker crashed or was declared hung and killed
        "worker_restarted",  # a dead worker was respawned after backoff
        "worker_quarantined",  # flap detection parked a repeatedly-dying worker
        "slab_published",  # a shared-memory snapshot slab was written and committed
        "slab_unlinked",  # a slab generation was unlinked (superseded or torn)
    }
)


@dataclass(frozen=True)
class Event:
    """One control-plane occurrence."""

    kind: str
    timestamp: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "timestamp": self.timestamp, "attrs": dict(self.attrs)}


class EventLog:
    """Ring buffer of recent events plus eviction-proof per-kind totals."""

    def __init__(self) -> None:
        self._events: Deque[Event] = deque(maxlen=CAPACITY)
        self.recorded = 0
        self.dropped = 0
        self._counts: Dict[str, int] = {}

    def record(self, kind: str, timestamp: float, **attrs: Any) -> Event:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; known: {sorted(EVENT_KINDS)}")
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        event = Event(kind, float(timestamp), attrs)
        self._events.append(event)
        self.recorded += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1
        return event

    def events(self, kind: Optional[str] = None) -> Tuple[Event, ...]:
        """Retained events oldest-first, optionally filtered by kind."""
        if kind is None:
            return tuple(self._events)
        return tuple(event for event in self._events if event.kind == kind)

    def tail(self, n: int = 10) -> Tuple[Event, ...]:
        """The ``n`` most recent retained events, oldest-first (none for
        ``n <= 0``)."""
        if n <= 0:
            return ()
        return tuple(self._events)[-n:]

    def counts(self) -> Dict[str, int]:
        """Per-kind totals over everything ever recorded (incl. evicted)."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._events)

    def merge(self, other: "EventLog") -> "EventLog":
        """Chronological union, bounded like any log.

        Retains the **latest** events when the union overflows (old ones
        count as dropped), and sums the eviction-proof totals — so a fleet
        merge reports every swap that ever happened even if the ring only
        shows the recent tail.
        """
        merged = EventLog()
        union = sorted(
            list(self._events) + list(other._events), key=lambda event: event.timestamp
        )
        overflow = max(len(union) - merged._events.maxlen, 0)
        for event in union[overflow:]:
            merged._events.append(event)
        merged.recorded = self.recorded + other.recorded
        merged.dropped = self.dropped + other.dropped + overflow
        for counts in (self._counts, other._counts):
            for kind, count in counts.items():
                merged._counts[kind] = merged._counts.get(kind, 0) + count
        return merged
