"""Canned chaos: the default fault plan, resilience alert rules, and the
soak runner the chaos benchmark and CI smoke job drive.

:func:`default_chaos_plan` is one opinionated schedule that exercises every
failure family the stack claims to survive — injected latency on retrieval,
a shard crashing mid-incident (long enough to trip its breaker), torn
registry-index and click-log writes, one corrupted checkpoint, transient
train/canary failures, and a crash mid-hot-swap.  :func:`run_chaos_soak`
replays generated traffic through an :class:`~repro.online.OnlineLoop`
under that schedule and audits the availability invariant: **every
submitted request is answered from some tier** (full, prefilter, or
popularity — degraded, never dropped).

The plans and rules live here, next to the injector, rather than in the
benchmark: a soak you can import is a soak tests can shrink.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.faults.injector import FaultInjector, FaultPlan, FaultSpec

__all__ = [
    "DEFAULT_FAULT_ALERT_RULES",
    "default_fault_alert_rules",
    "default_chaos_plan",
    "default_fleet_chaos_plan",
    "run_chaos_soak",
    "run_fleet_soak",
]

#: Declarative alert rules over the resilience telemetry the online loop
#: feeds into its snapshots (``repro.obs.AlertRule.parse`` syntax).  Two
#: consecutive breaches are required for the rate rules so one bad flush
#: doesn't page; an open breaker pages immediately — it *is* the incident.
#: Every rule names a :meth:`repro.serving.fleet.Fleet.telemetry_extra`
#: scalar, which the loop's snapshot carries on either backend; a snapshot
#: without one counts as healthy — absent data is not an incident.
DEFAULT_FAULT_ALERT_RULES = (
    "shed-rate: shed_rate > 0.05 for 2",
    "fallback-share: degraded_share > 0.25 for 2",
    "open-breakers: open_breakers >= 1",
    "worker-flap: worker_restarts >= 3",
    "worker-quarantine: quarantined_workers >= 1",
    "fleet-capacity: workers_available < 1",
)


def default_fault_alert_rules() -> List[str]:
    """The default resilience rules (a fresh list, safe to extend)."""
    return list(DEFAULT_FAULT_ALERT_RULES)


def default_chaos_plan(seed: int = 0, shards: int = 2) -> FaultPlan:
    """One schedule touching every fault family the stack must survive.

    Sized for a small soak (a few cycles of ~100 events): the shard-0 crash
    burst is long enough to trip a default breaker (3 consecutive failures)
    and reroute its users; the checkpoint corruption hits the **first
    refresh candidate** (``after=1`` skips the bootstrap registration), so
    the soak exercises quarantine + rollback on a real promotion path; the
    ``swap.shard`` crash targets the *last* shard so the transactional swap
    has maximum work to roll back.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return FaultPlan(
        seed=seed,
        specs=(
            # Slow retrieval, fleet-wide, forever: the deadline-budget tier
            # (prefilter shortlist) absorbs it.
            FaultSpec(
                "engine.retrieve", "latency",
                probability=0.05, times=None, latency_ms=20.0,
            ),
            # Shard 0 dies for a 6-request burst once warm: trips its
            # breaker, reroutes its users to siblings, then heals.
            FaultSpec(
                "batcher.submit", "crash",
                after=20, times=6, match={"shard": 0},
            ),
            # One torn index write (absorbed by the registry's internal
            # retry; tmp+rename keeps the published index intact).
            FaultSpec("registry.save_index", "torn_write", after=1, times=1),
            # One corrupted checkpoint — the first refresh candidate.  Its
            # CRC verification fails at deploy time; the loop quarantines it
            # and rolls back to the parent.
            FaultSpec("registry.checkpoint", "corrupt", after=1, times=1),
            # Two torn click-log appends (dropped by the recovery scan on
            # the next restart; counted live as torn_writes).
            FaultSpec("clicklog.append", "torn_write", after=10, times=2),
            # One transient failure each in train and canary — retried with
            # backoff, the cycle still completes.
            FaultSpec("trainer.update", "transient", times=1),
            FaultSpec("canary.judge", "transient", times=1),
            # One crash mid-hot-swap at the last shard: every earlier shard
            # has already swapped and must roll back to a consistent
            # generation.  ``after=1`` spares the bootstrap deployment.  (On
            # the process backend the worker that crashes here is killed and
            # restarts onto the published generation instead.)
            FaultSpec(
                "swap.shard", "crash",
                after=1, times=1, match={"shard": shards - 1},
            ),
            # Process-fleet family (no-ops on the in-process path, which
            # never visits these points; per-spec RNG streams are
            # independent, so appending them never shifts the schedule
            # above): one worker-process death mid-traffic, a lost-
            # heartbeat burst long enough to trip the hung-worker deadline,
            # and one torn slab publish on the first post-bootstrap swap.
            FaultSpec("worker.exec", "crash", after=25, times=1, match={"worker": 0}),
            FaultSpec(
                "worker.heartbeat", "crash",
                after=3, times=8, match={"worker": shards - 1},
            ),
            FaultSpec("slab.publish", "torn_write", after=1, times=1),
        ),
    )


def default_fleet_chaos_plan(seed: int = 0, workers: int = 2) -> FaultPlan:
    """The process-fleet drill: every failure mode the supervisor claims to
    survive, sized for a soak of a few hundred requests.

    Worker 0 is OOM-killed mid-batch once warm (``worker.exec`` crash →
    ``os._exit``), the last worker loses a burst of heartbeats long enough
    to be declared hung and killed, the first post-bootstrap slab publish
    is torn (destroyed and retried under a fresh name), and worker 0's
    first restart hits a transient spawn failure (one more backoff cycle).
    The zero-drop invariant must hold throughout: every submitted request
    is answered by a sibling, a restarted worker, or the supervisor's
    popularity floor.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec("worker.exec", "crash", after=12, times=1, match={"worker": 0}),
            FaultSpec(
                "worker.heartbeat", "crash",
                after=3, times=12, match={"worker": workers - 1},
            ),
            FaultSpec("slab.publish", "torn_write", after=1, times=1),
            # ``after`` counts *matching* visits, so this spares worker 0's
            # bootstrap spawn and fails its first restart attempt instead.
            FaultSpec(
                "worker.spawn", "transient",
                after=1, times=1, match={"worker": 0},
            ),
        ),
    )


def run_chaos_soak(
    loop,
    generator,
    cycles: int = 4,
    events_per_cycle: int = 100,
    injector: Optional[FaultInjector] = None,
) -> Dict[str, Any]:
    """Drive ``loop`` through ``cycles`` refresh cycles of generated traffic.

    Bootstraps the loop if it has no production yet, then runs each cycle
    and audits the zero-drop invariant: the fleet must answer exactly as
    many rankings as requests submitted (micro-batching means answers
    arrive from ``poll``/``flush``, but the replay drains fully each
    cycle).  Returns a JSON-serializable report — the chaos benchmark's
    artifact — with per-cycle summaries, the merged degradation ladder,
    breaker states, control-plane event totals, and (when ``injector`` is
    passed) the fired-fault count.
    """
    if loop.registry.production is None:
        loop.bootstrap()
    submitted = 0
    answered = 0
    reports = []
    for _ in range(int(cycles)):
        events = generator.generate(int(events_per_cycle))
        report = loop.run_cycle(events)
        submitted += len(events)
        answered += report.queries_served
        reports.append(report.summary())
    summary = loop.cluster.summary()
    return {
        "cycles": int(cycles),
        "submitted": submitted,
        "answered": answered,
        "dropped": submitted - answered,
        "degradation": summary["degradation"],
        "breakers": summary["breakers"],
        "open_breakers": int(summary["telemetry"]["open_breakers"]),
        "rollbacks": sum(1 for report in reports if report["rollback"] is not None),
        "event_counts": loop.cluster.control.events.counts(),
        "faults_fired": None if injector is None else injector.fired(),
        "reports": reports,
    }


def run_fleet_soak(
    fleet,
    generator,
    events: int = 300,
    swap_models: Optional[List[Any]] = None,
    settle_s: float = 0.0,
) -> Dict[str, Any]:
    """Drive a :class:`~repro.serving.fleet.Fleet` (sized for the process
    backend) through generated traffic (plus optional hot swaps) and audit
    zero drops.

    ``swap_models`` hot-swaps each ``(model, version)`` pair at evenly
    spaced points in the traffic — under a fleet fault plan the first swap
    is where the torn ``slab.publish`` fires and is retried.  ``settle_s``
    keeps servicing the fleet after the drain so in-flight restarts
    complete before the report snapshots worker states.  Returns the
    JSON-serializable soak report (the fleet benchmark's artifact).
    """
    traffic = generator.generate(int(events))
    swaps = list(swap_models or [])
    swap_at = {
        (index + 1) * len(traffic) // (len(swaps) + 1): swap
        for index, swap in enumerate(swaps)
    }
    answered = 0
    swaps_done = 0
    for index, event in enumerate(traffic):
        if index in swap_at:
            model, version = swap_at[index]
            answered += len(fleet.swap_model(model, version=version))
            swaps_done += 1
        answered += len(fleet.submit(event.user, event.query_category))
    answered += len(fleet.flush())
    if settle_s > 0:
        deadline = time.monotonic() + settle_s
        while time.monotonic() < deadline:
            answered += len(fleet.poll())
            time.sleep(0.01)
        answered += len(fleet.flush())
    summary = fleet.summary()
    telemetry = summary["telemetry"]
    return {
        "submitted": len(traffic),
        "answered": answered,
        "dropped": len(traffic) - answered,
        "swaps": swaps_done,
        "generation": fleet.generation,
        "restarts": int(telemetry["worker_restarts"]),
        "quarantined": int(telemetry["quarantined_workers"]),
        "workers_available": int(telemetry["workers_available"]),
        "recovered_segments": summary.get("recovered_segments", []),
        "worker_status": summary["shards"],
        "event_counts": fleet.control.events.counts(),
        "faults_fired_supervisor": fleet.ctx.injector.fired(),
        "telemetry": telemetry,
    }
