"""The serving fleet: one routing/failover/telemetry policy over a transport.

:class:`Fleet` is everything that does not depend on *where* the shards
(:class:`~repro.serving.shard.ShardWorker`) run: user → shard routing, the
``(home + k) % N`` failover order, the popularity last resort, re-dispatch
of what a dead shard left behind, metric merging and the reports.  Where
they run is the transport's business — :class:`InThreadTransport` calls
them in the caller's interpreter, :class:`~repro.serving.pipe.PipeTransport`
hosts each in a supervised worker process.  A transport is

* ``workers``, one endpoint per shard, whose ``submit(user, category)``
  raises :class:`~repro.serving.shard.ShardRefused` when the shard will
  not take the request — in-thread that endpoint *is* the
  :class:`ShardWorker`, so the request path adds no call layer, allocation,
  lock or pickling;
* over all shards: ``poll()``, ``flush()``, ``next_flush_due()``,
  ``swap(model, version)``, ``reports(fresh)`` — one status row per shard,
  its sink under ``metrics`` while it has one — ``describe()``, ``stop()``;
* state: ``injector``, ``generation``, and three buffers the fleet drains —
  ``delivered`` (results that arrived outside an exchange), ``orphans``
  (requests of a dead shard, to re-dispatch) and ``retired`` (sinks of
  dead incarnations).

Swap-failure handling is the one place the transports legitimately differ:
an in-thread shard is rolled back, a process that fails its flip is killed
and restarts onto the generation already published.
"""

from __future__ import annotations

import os
import signal
import time
from functools import cached_property
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.ranking_model import RankingModel
from repro.data.synthetic import World
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import NULL_INJECTOR, FaultInjector, FaultPlan
from repro.infer.slabs import shared_memory_available
from repro.obs import (
    NULL_TRACER,
    AlertManager,
    DriftMonitor,
    ShadowRecallMonitor,
    write_dashboard,
)
from repro.retrieval import category_popularity_probs
from repro.serving.degrade import TIER_POPULARITY, popularity_floor
from repro.serving.engine import RankedList
from repro.serving.metrics import MetricsSink
from repro.serving.pipe import PipeTransport
from repro.serving.shard import (
    HEALTHY,
    QUARANTINED,
    FleetConfig,
    ShardRefused,
    ShardWorker,
    SwapFailed,
    shard_for_user,
)
from repro.utils.tables import format_table

__all__ = ["Fleet", "InThreadTransport", "build_fleet"]


class InThreadTransport:
    """Every shard is a :class:`ShardWorker` in the caller's interpreter and
    every operation a direct call on it.  ``live`` are that interpreter's
    collaborators (``clock`` always among them), handed to every shard."""

    # Nothing arrives outside a call and nothing dies, so the buffers the
    # fleet drains are permanently empty.
    delivered = orphans = retired = ()

    def __init__(
        self,
        world: World,
        model: RankingModel,
        config: FleetConfig,
        version: Optional[str],
        fault_plan: Optional[FaultPlan],
        events,
        **live: Any,
    ) -> None:
        self.injector = live.setdefault(
            "injector", FaultInjector(fault_plan) if fault_plan is not None else NULL_INJECTOR
        )
        self.generation = 0
        self._events, self._clock = events, live["clock"]
        self.workers: List[ShardWorker] = []
        # One cascade build for the whole fleet: shard 0 builds it, every
        # other shard gets a worker view (shared immutable snapshot, own
        # prefilter scratch) — probe pass, calibration, and k-means are paid
        # once, not per shard.
        for shard in range(config.num_workers):
            self.workers.append(
                ShardWorker(
                    config, shard, world, model, version, self._shared_cascade(),
                    events=events, **live,
                )
            )

    def _shared_cascade(self):
        """A view of shard 0's cascade for a later shard (``None`` for shard
        0 itself, and without a cascade config)."""
        built = self.workers[0].engine.cascade if self.workers else None
        return built.worker_view() if built is not None else None

    def poll(self) -> List[RankedList]:
        return [result for worker in self.workers for result in worker.batcher.poll()]

    def next_flush_due(self) -> Optional[float]:
        dues = (worker.batcher.next_flush_due() for worker in self.workers)
        return min((due for due in dues if due is not None), default=None)

    def flush(self) -> List[RankedList]:
        return [result for worker in self.workers for result in worker.batcher.flush()]

    def reports(self, fresh: bool = False) -> List[Dict[str, Any]]:
        health = {
            "state": HEALTHY, "pid": os.getpid(), "generation": self.generation, "restarts": 0
        }
        return [{**worker.report(), **health} for worker in self.workers]

    def describe(self) -> Dict[str, Any]:
        return {"slab_bytes": 0}

    def swap(self, model: RankingModel, version: Optional[str]) -> List[RankedList]:
        """Shard by shard, **transactional at fleet granularity**.

        The cascade's expensive build output (probe pass, calibration,
        index slabs) is an *immutable* snapshot, so it is built once — by
        shard 0's swap — and every other shard receives a
        :meth:`~repro.retrieval.RetrievalCascade.worker_view` of it.

        The previous model/version/cascade of every shard is captured up
        front, and a failure at any shard rolls every already-swapped shard
        back to its captured state — the old cascade objects are reused, no
        rebuild on the rollback path — with a fresh generation bump, so no
        gate vector resolved against the transient new model can survive.
        All shards new on success, all shards old on :class:`SwapFailed`,
        never mixed.
        """
        previous = [
            (worker.engine.model, worker.engine.model_version, worker.engine.cascade)
            for worker in self.workers
        ]
        drained: List[RankedList] = []
        for index, worker in enumerate(self.workers):
            try:
                worker.swap(
                    model, version, self._shared_cascade() if index else None, drained
                )
            except Exception as exc:
                for swapped, state in zip(self.workers[:index], previous):
                    swapped.engine.set_model(state[0], state[1], cascade=state[2])
                    swapped.cache.invalidate_all()
                self._events.record(
                    "rollback", self._clock(), version=version,
                    swapped_shards=index, reason=type(exc).__name__,
                )
                raise SwapFailed(
                    f"hot swap to {version!r} failed at shard {index}: {exc}",
                    drained=drained,
                ) from exc
        self.generation += 1
        return drained

    def stop(self) -> None:
        pass


class Fleet:
    """Route queries across ``config.num_workers`` shards behind a transport.

    ``backend="inprocess"`` accepts this interpreter's ``live`` objects:
    ``clock`` (a :class:`~repro.serving.metrics.ManualClock` for simulated
    time), ``tracer`` (one sampling decision per request, wherever it
    lands), ``slo`` (every shard's sink feeds the same sliding windows, so
    p99 and burn rate are fleet-wide), a ``shadow_recall`` monitor shared
    by every shard's engine, and an ``injector``.  None of them can cross
    into a worker process: ``backend="process"`` raises ``TypeError`` on
    any, takes faults as a ``fault_plan``, and reads :attr:`tracer` /
    :attr:`slo` / :attr:`shadow_recall` as the null tracer / ``None``.

    ``drift`` and ``alerts`` are never fed by the fleet — the online loop
    owns observation and evaluation — but holding them here lets
    :meth:`fleet_report` and the HTML dashboard surface their state next to
    the serving metrics they alarm on.

    Every submitted query yields a response; on the process backend
    delivery is at-least-once (a re-dispatched request can be answered
    twice), and any call may return results of earlier ones.
    """

    def __init__(
        self,
        world: World,
        model: RankingModel,
        config: Optional[FleetConfig] = None,
        backend: str = "inprocess",
        version: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        drift: Optional[DriftMonitor] = None,
        alerts: Optional[AlertManager] = None,
        **live: Any,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        self.num_shards = self.config.num_workers
        self.backend = backend
        #: The version currently serving (identical across shards).
        self.model_version = version
        self.drift = drift
        self.alerts = alerts
        live = {name: value for name, value in live.items() if value is not None}
        self.tracer = live.get("tracer", NULL_TRACER)
        self.slo = live.get("slo")
        self.shadow_recall: Optional[ShadowRecallMonitor] = live.get("shadow_recall")
        if backend == "process":
            self._clock = time.monotonic
        elif backend == "inprocess":
            self._clock = live.setdefault("clock", time.perf_counter)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self._world = world
        #: Fleet-level control-plane sink: one entry per deployment or
        #: lifecycle event (hot swap, canary verdict, click-log lag, worker
        #: death) regardless of shard count, plus the last-resort answers;
        #: merged into :meth:`merged_metrics`.
        self.control = MetricsSink(clock=self._clock, slo=self.slo)
        transport = PipeTransport if backend == "process" else InThreadTransport
        self.transport = transport(
            world, model, self.config, version, fault_plan, self.control.events, **live
        )
        #: Fleet fault injector (:class:`repro.faults.FaultInjector`); each
        #: shard binds its id so plans can target individual shards.
        self.injector = self.transport.injector
        #: Per-shard endpoints: :class:`ShardWorker` in-process, the
        #: supervisor's worker handles on the process backend.
        self.workers = self.transport.workers

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, user: int) -> int:
        return shard_for_user(user, self.num_shards)

    def worker_for(self, user: int):
        return self.workers[self.shard_for(user)]

    def submit(self, user: int, query_category: int) -> List[RankedList]:
        """Route one query to its owning shard; returns what is ready now.

        Fault-aware routing: a shard that refuses (breaker open, process
        down) is skipped, and one that crashes on the submit — a
        :class:`~repro.faults.CrashFault` at ``batcher.submit`` — records a
        breaker failure and the query **reroutes deterministically** to the
        next sibling — ``(home + 1) % N``, ``(home + 2) % N``, … — so the
        same user under the same fault state always lands on the same
        fallback shard (its gate/behaviour caches stay warm there for the
        duration of the incident).  If every shard refuses, the popularity
        prior answers as the last-resort tier: a submitted query *always*
        yields a response.  On the healthy in-process path this is the
        home shard's :meth:`ShardWorker.submit` and nothing else.
        """
        workers = self.workers
        home = shard_for_user(user, self.num_shards)
        for offset in range(self.num_shards):
            shard = (home + offset) % self.num_shards
            try:
                results = workers[shard].submit(user, query_category)
                break
            except ShardRefused as refused:
                if refused.reason == "crash":
                    self.control.events.record(
                        "shard_failover", self._clock(), shard=shard, user=int(user)
                    )
        else:
            results = [self._last_resort(user, query_category)]
        transport = self.transport
        if transport.orphans or transport.delivered:
            results = results + self._drain()
        return results

    @cached_property
    def _popularity(self) -> List[tuple]:
        """Per-category ``(members, prior)``, built on the first last-resort
        answer — a healthy fleet never pays for it."""
        probs = category_popularity_probs(self._world)
        return [
            (np.flatnonzero(self._world.item_category == cat), probs[cat])
            for cat in range(len(probs))
        ]

    def _last_resort(self, user: int, query_category: int) -> RankedList:
        """Every shard refused: the popularity prior answers from the fleet
        itself (no model forward, no cascade, no shard — nothing left to
        fail), counted as a shed response on the control sink."""
        limit = self.config.candidates_per_query or self._world.config.items_per_session
        items, scores = popularity_floor(*self._popularity[query_category], limit)
        now = self._clock()
        self.control.record_query(0.0, now=now)
        self.control.record_tier(TIER_POPULARITY)
        self.control.record_shed()
        self.control.events.record(
            "load_shed", now, user=int(user), reason="all_shards_unavailable"
        )
        return RankedList(
            user=user,
            query_category=query_category,
            items=items,
            scores=scores,
            latency_ms=0.0,
            model_version=self.model_version,
            tier=TIER_POPULARITY,
        )

    def _drain(self) -> List[RankedList]:
        """Re-submit what dead shards left unanswered (so: down the same
        failover order), then collect what arrived outside an exchange."""
        transport = self.transport
        results: List[RankedList] = []
        if transport.orphans:
            orphans = list(transport.orphans)
            transport.orphans.clear()
            for user, category in orphans:
                results.extend(self.submit(user, category))
        if transport.delivered:
            results.extend(transport.delivered)
            transport.delivered.clear()
        return results

    def poll(self) -> List[RankedList]:
        """Deadline check on every shard; returns all flushed results."""
        return self.transport.poll() + self._drain()

    def next_flush_due(self) -> Optional[float]:
        """Earliest deadline-trigger time across shards (``None`` if idle,
        or when shards flush on their own timers)."""
        return self.transport.next_flush_due()

    def flush(self) -> List[RankedList]:
        """Force-flush every shard (end-of-traffic drain)."""
        return self.transport.flush() + self._drain()

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Hot swaps committed since construction."""
        return self.transport.generation

    def swap_model(self, model: RankingModel, version: Optional[str] = None) -> List[RankedList]:
        """Hot-swap every shard to ``model`` with zero dropped queries
        (per shard: :meth:`ShardWorker.swap`; across shards: the
        transport's ``swap``).

        Returns the drained results (old-version rankings), which callers
        serving live traffic should still deliver.  On :class:`SwapFailed`
        the fleet is consistently on the old generation and the exception
        carries what was drained.
        """
        drained = self.transport.swap(model, version)
        self.model_version = version
        self.control.events.record(
            "cache_invalidation", self._clock(), shards=self.num_shards
        )
        self.control.record_swap(version=version)
        drained.extend(self._drain())
        return drained

    def attach_shadow_recall(self, monitor: Optional[ShadowRecallMonitor]) -> None:
        """Attach (or replace, or with ``None`` detach) the fleet's shared
        shadow-recall monitor at runtime (in-process backend only).

        The ops pattern this serves: warm or benchmark a fleet clean, then
        switch sampling on — every shard's engine consults ``monitor`` on
        its next cascade retrieval.
        """
        for worker in self.workers:
            worker.engine.shadow_recall = monitor
        self.shadow_recall = monitor

    # ------------------------------------------------------------------
    # fleet health
    # ------------------------------------------------------------------
    def refresh_reports(self) -> None:
        """Pull a fresh report from every shard that can give one (a no-op
        in-process, where reports are always live)."""
        self.transport.reports(fresh=True)

    def worker_status(self) -> List[Dict[str, Any]]:
        """Per-shard status rows (JSON-able): ``shard``, ``state``, ``pid``,
        ``generation``, ``restarts``, ``outstanding`` and — as of the
        shard's latest report, absent while it has none — ``queries``,
        ``avg_latency_ms``, ``cache_hit_rate``, ``breaker``."""
        return [
            {key: value for key, value in report.items() if key != "metrics"}
            for report in self.transport.reports()
        ]

    def breaker_status(self) -> List[Dict[str, object]]:
        """Per-shard circuit-breaker health state (a shard that is down has
        no row)."""
        return [
            {"shard": row["shard"], **row["breaker"]}
            for row in self.worker_status()
            if "breaker" in row
        ]

    @property
    def open_breakers(self) -> int:
        """Shards currently not fully closed (open or half-open)."""
        return sum(
            1 for row in self.breaker_status() if row["state"] != CircuitBreaker.CLOSED
        )

    @property
    def workers_available(self) -> int:
        return sum(1 for row in self.worker_status() if row["state"] == HEALTHY)

    @property
    def restarts_total(self) -> int:
        return sum(row["restarts"] for row in self.worker_status())

    @property
    def quarantined_workers(self) -> int:
        return sum(1 for row in self.worker_status() if row["state"] == QUARANTINED)

    def telemetry_extra(self) -> Dict[str, float]:
        """Scalars for :func:`repro.obs.telemetry_snapshot`'s ``extra`` —
        the namespace the fleet alert rules evaluate over."""
        return {
            "worker_restarts": float(self.restarts_total),
            "worker_deaths": float(self.control.events.counts().get("worker_died", 0)),
            "quarantined_workers": float(self.quarantined_workers),
            "workers_available": float(self.workers_available),
            "slab_generation": float(self.generation),
            "slab_bytes": float(self.transport.describe()["slab_bytes"]),
        }

    def kill_worker(self, shard: int, sig: int = signal.SIGKILL) -> Optional[int]:
        """Crash drill (process backend): signal a shard's worker process."""
        return self.transport.kill(shard, sig)

    def stop(self) -> None:
        """Release everything the transport holds (worker processes, shared
        memory); idempotent, and a no-op in-process."""
        self.transport.stop()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # fleet metrics
    # ------------------------------------------------------------------
    def merged_metrics(self) -> MetricsSink:
        """The control-plane sink plus every incarnation's latest shard
        sink (dead incarnations included), pooled into one."""
        merged = self.control
        for sink in self.transport.retired:
            merged = merged.merge(sink)
        for report in self.transport.reports():
            if "metrics" in report:
                merged = merged.merge(report["metrics"])
        return merged

    def summary(self) -> Dict[str, object]:
        """Fleet report: merged headline metrics plus the per-shard rows."""
        self.refresh_reports()
        fleet = self.merged_metrics().summary()
        fleet["num_shards"] = self.num_shards
        fleet["backend"] = self.backend
        fleet["model_version"] = self.model_version or "unversioned"
        fleet["generation"] = self.generation
        fleet["shards"] = self.worker_status()
        fleet["breakers"] = self.breaker_status()
        fleet.update(self.transport.describe())
        return fleet

    def dashboard(
        self, path: str, registry=None, title: str = "repro fleet", traces=None
    ) -> str:
        """Write the self-contained HTML dashboard; returns ``path``.

        Renders everything the text :meth:`fleet_report` shows — fleet
        summary, streaming metrics, SLO, control-plane events — plus the
        drift, alert, and shadow-recall panels and the tracer's recent
        sampled span trees (request traces and, when the online loop shares
        this tracer, refresh-cycle traces).  ``registry`` merges extra
        metrics in (the online loop passes the trainer's registry so
        train-step histograms land on the same page).  ``traces`` overrides
        the trace list — pass ``list(loop.tracer.finished)`` to render the
        refresh-cycle spans when the loop's tracer is separate from the
        fleet's request tracer.
        """
        summary = self.summary()
        merged_registry = self.merged_metrics().to_registry()
        if registry is not None:
            merged_registry = merged_registry.merge(registry)
        degradation = summary["degradation"]
        flat_summary = {
            "shards": self.num_shards,
            "model_version": summary["model_version"],
            "queries": summary["queries"],
            "qps": round(summary["qps"], 1),
            "p50_ms": round(summary["latency_ms"]["p50"], 3),
            "p99_ms": round(summary["latency_ms"]["p99"], 3),
            "mean_batch": round(summary["mean_batch_size"], 2),
            "cache_hit_rate": round(summary["cache"]["hit_rate"], 4),
            "requests_shed": degradation["shed"],
            "degraded_share": round(degradation["degraded_share"], 4),
            "open_breakers": self.open_breakers,
        }
        return write_dashboard(
            path,
            title=title,
            summary=flat_summary,
            registry=merged_registry,
            slo=self.slo,
            events=self.control.events,
            drift=self.drift,
            alerts=self.alerts,
            shadow=self.shadow_recall,
            breakers=summary["breakers"],
            tiers=degradation["tiers"],
            traces=(
                traces
                if traces is not None
                else (list(self.tracer.finished) if self.tracer.enabled else None)
            ),
        )

    def fleet_report(self, dashboard_path: Optional[str] = None) -> str:
        """Text dashboard of the fleet: headline metrics, per-shard status,
        the degradation ladder, SLO status, drift/alert/shadow-recall
        state, and the recent control-plane event tail — what examples and
        benchmarks print after a traffic run.  ``dashboard_path``
        additionally writes the HTML dashboard there and appends its
        location to the report."""
        summary = self.summary()
        latency = summary["latency_ms"]
        degradation = summary["degradation"]
        tiers = degradation["tiers"]
        title = f"fleet — {self.num_shards} shard(s), model {summary['model_version']}"
        if summary["slab_bytes"]:
            title += (
                f", generation {self.generation},"
                f" slab {summary['slab_bytes'] / 1024:.0f} KiB"
            )
        sections = [
            format_table(
                ["queries", "qps", "p50 ms", "p95 ms", "p99 ms", "mean batch", "cache hit"],
                [[
                    summary["queries"],
                    f"{summary['qps']:.0f}",
                    f"{latency['p50']:.2f}",
                    f"{latency['p95']:.2f}",
                    f"{latency['p99']:.2f}",
                    f"{summary['mean_batch_size']:.2f}",
                    f"{summary['cache']['hit_rate']:.1%}",
                ]],
                title=title,
            ),
            format_table(
                ["shard", "state", "pid", "gen", "restarts", "outstanding",
                 "queries", "avg ms", "cache hit", "breaker", "opens"],
                [
                    [
                        row["shard"], row["state"], row["pid"] or "-",
                        row["generation"], row["restarts"], row["outstanding"],
                        *(
                            [
                                row["queries"],
                                f"{row['avg_latency_ms']:.2f}",
                                f"{row['cache_hit_rate']:.1%}",
                                row["breaker"]["state"],
                                row["breaker"]["opens"],
                            ]
                            if "breaker" in row
                            else ["-"] * 5
                        ),
                    ]
                    for row in summary["shards"]
                ],
                title="per-shard",
            ),
            format_table(
                ["full", "prefilter", "popularity", "shed", "degraded share", "open breakers"],
                [[
                    tiers.get("full", 0),
                    tiers.get("prefilter", 0),
                    tiers.get("popularity", 0),
                    degradation["shed"],
                    f"{degradation['degraded_share']:.2%}",
                    self.open_breakers,
                ]],
                title="degradation ladder",
            ),
        ]
        if self.slo is not None:
            status = self.slo.status()
            sections.append(
                f"SLO: p99 {status['p99_ms']:.2f} ms vs {status['latency_slo_ms']:.2f} ms"
                f" | violation rate {status['violation_rate']:.2%}"
                f" | error-budget burn {status['error_budget_burn_rate']:.2f}x"
                f" | {'HEALTHY' if status['healthy'] else 'BURNING'}"
            )
        if self.tracer.enabled:
            stats = self.tracer.stats()
            sections.append(
                f"tracing: {stats['sampled']}/{stats['started']} requests sampled"
                f" (rate {stats['sample_rate']:.2f}), {stats['exported']} exported"
            )
        shadow = self.shadow_recall
        if shadow is not None and shadow.samples:
            sections.append(
                f"shadow recall@{shadow.k}: {shadow.recall_at_k:.4f} over "
                f"{shadow.samples}/{shadow.requests} sampled retrievals"
                f" (rate {shadow.rate:.3%})"
            )
        if self.drift is not None and self.drift.has_reference:
            sections.append(
                format_table(
                    ["feature", "psi", "ks", "live n"],
                    [
                        [name, f"{scores['psi']:.4f}", f"{scores['ks']:.4f}",
                         scores["live_samples"]]
                        for name, scores in sorted(self.drift.scores().items())
                    ],
                    title="drift vs training reference",
                )
            )
        if self.alerts is not None and self.alerts.rules:
            firing = self.alerts.firing()
            sections.append(
                format_table(
                    ["rule", "predicate", "state", "last value"],
                    [
                        [
                            row["rule"],
                            f"{row['metric']} {row['op']} {row['threshold']:g}",
                            "FIRING" if row["firing"] else "ok",
                            "-" if row["last_value"] is None
                            else f"{row['last_value']:.4f}",
                        ]
                        for row in self.alerts.status()
                    ],
                    title=f"alerts — {len(firing)} firing",
                )
            )
        events = self.control.events.tail(8)
        if events:
            sections.append(
                format_table(
                    ["t", "kind", "attrs"],
                    [
                        [f"{event.timestamp:.3f}", event.kind, str(event.attrs)]
                        for event in events
                    ],
                    title="recent control-plane events",
                )
            )
        if dashboard_path is not None:
            sections.append(f"dashboard: {self.dashboard(dashboard_path)}")
        return "\n\n".join(sections)


def build_fleet(
    world: World,
    model: RankingModel,
    config: Optional[FleetConfig] = None,
    backend: str = "auto",
    version: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    **live: Any,
) -> Fleet:
    """Build a serving fleet — the front door.

    ``backend="inprocess"`` runs the shards in this interpreter,
    ``backend="process"`` as supervised worker processes, and
    ``backend="auto"`` picks ``process`` when POSIX shared memory works
    here and ``inprocess`` otherwise: the same :class:`Fleet` serving the
    same ``config`` with bitwise-identical scores.  ``live`` passes
    ``drift`` / ``alerts`` and this interpreter's collaborators (see
    :class:`Fleet` for which of them the process backend can honour).
    """
    if backend == "auto":
        backend = "process" if shared_memory_available() else "inprocess"
    return Fleet(world, model, config, backend, version, fault_plan, **live)
