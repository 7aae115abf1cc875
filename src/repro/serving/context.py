"""The serving stack's live collaborators, carried as one frozen object.

A :class:`FleetContext` holds what a serving stack calls into besides its
own components: the clock, the request tracer, the fault injector (or the
plan one is built from), the SLO tracker, the shadow-recall monitor, and
the drift / alert monitors the online loop feeds.  It is the only way those
enter the stack: :func:`~repro.serving.build_fleet` takes one and hands it
down unchanged — transport → :class:`~repro.serving.shard.ShardWorker` →
:class:`~repro.serving.engine.SearchEngine` /
:class:`~repro.serving.batcher.MicroBatcher` — so no layer re-declares a
collaborator or re-defaults it.

Every default is a null object (``time.perf_counter``, the null tracer, the
null injector) or ``None``, so a stack built with ``FleetContext()`` runs
the uninstrumented hot path and never branches on "is X configured?".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Optional

from repro.faults.injector import NULL_INJECTOR, FaultInjector, FaultPlan
from repro.obs import NULL_TRACER, AlertManager, DriftMonitor, ShadowRecallMonitor, SloTracker

__all__ = ["FleetContext"]


@dataclass(frozen=True)
class FleetContext:
    """One interpreter's live collaborators for a serving stack.

    ``clock`` stamps latencies and every control-plane event (a
    :class:`~repro.serving.metrics.ManualClock` makes a run simulated);
    ``tracer`` samples requests wherever they land; ``injector`` is visited
    at the stack's fault points, or built from ``fault_plan`` by
    :meth:`armed`; ``slo`` is fed by every shard's sink, so p99 and burn
    rate are fleet-wide; ``shadow_recall`` is shared by every shard's
    engine.  ``drift`` and ``alerts`` are never fed by the fleet — the online
    loop owns observation and evaluation — but the fleet's reports show
    their state next to the serving metrics they alarm on.
    """

    clock: Callable[[], float] = time.perf_counter
    tracer: Any = NULL_TRACER
    injector: Any = NULL_INJECTOR
    fault_plan: Optional[FaultPlan] = None
    slo: Optional[SloTracker] = None
    shadow_recall: Optional[ShadowRecallMonitor] = None
    drift: Optional[DriftMonitor] = None
    alerts: Optional[AlertManager] = None

    def armed(self) -> "FleetContext":
        """This context with ``fault_plan`` built into an injector on
        ``clock`` — the one place a plan becomes a
        :class:`~repro.faults.FaultInjector`.  An explicit ``injector`` wins."""
        if self.fault_plan is None or self.injector is not NULL_INJECTOR:
            return self
        return replace(self, injector=FaultInjector(self.fault_plan, clock=self.clock))

    def check_portable(self) -> None:
        """Check that a process fleet can honour this context.  Its
        workers rebuild only ``fault_plan``; ``drift`` and ``alerts`` stay
        with the supervisor (the loop and the reports read them); every
        other field is a live object the shards would need, so one set away
        from its default raises :class:`TypeError` naming it."""
        live = [
            field.name
            for field in fields(self)
            if field.name not in ("fault_plan", "drift", "alerts")
            and getattr(self, field.name) is not field.default
        ]
        if live:
            raise TypeError(
                f"FleetContext fields {live} are live objects of this interpreter and "
                "apply to the in-process backend only"
            )

    def bind_events(self, log) -> None:
        """Point every collaborator that records events but has no log yet
        (the injector, the alert manager) at ``log``."""
        for collaborator in (self.injector, self.alerts):
            if collaborator not in (None, NULL_INJECTOR) and collaborator.events is None:
                collaborator.events = log
