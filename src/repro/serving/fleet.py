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
* state: ``generation``, and four buffers the fleet drains —
  ``delivered`` (results that arrived outside an exchange), ``orphans``
  (requests of a dead shard, to re-dispatch), ``refused``
  (``(user, category, shard, reason)`` a shard refused after its
  ``submit`` returned, to re-route from the next shard) and ``retired``
  (sinks of dead incarnations).

Swap-failure handling is the one place the transports legitimately differ:
an in-thread shard is rolled back, a process that fails its flip is killed
and restarts onto the generation already published.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.ranking_model import RankingModel
from repro.data.synthetic import World
from repro.faults.breaker import CircuitBreaker
from repro.infer.slabs import shared_memory_available
from repro.obs import (
    MetricsRegistry,
    Section,
    ShadowRecallMonitor,
    render_text,
    report_sections,
    write_dashboard,
)
from repro.serving.context import FleetContext
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

__all__ = ["Fleet", "InThreadTransport", "build_fleet"]


class InThreadTransport:
    """Every shard is a :class:`ShardWorker` in the caller's interpreter and
    every operation a direct call on it, built on the fleet's ``ctx``; each
    shard's breaker records its transitions on ``events``, the control log."""

    # Nothing arrives outside a call, nothing dies and nothing is refused
    # inside a batch, so the buffers the fleet drains are permanently empty.
    delivered = orphans = refused = retired = ()

    def __init__(
        self,
        world: World,
        model: RankingModel,
        config: FleetConfig,
        version: Optional[str],
        ctx: FleetContext,
        events,
    ) -> None:
        self._events, self._clock = events, ctx.clock
        self.generation = 0
        self.workers: List[ShardWorker] = []
        # One cascade build for the whole fleet: shard 0 builds it, every
        # other shard gets a worker view (shared immutable snapshot, own
        # prefilter) — probe pass, calibration, and k-means are paid
        # once, not per shard.
        for shard in range(config.num_workers):
            worker = ShardWorker(
                config, shard, world, model, version, self._shared_cascade(), ctx
            )
            worker.breaker.events = events
            self.workers.append(worker)

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

    ``ctx`` (:class:`~repro.serving.context.FleetContext`) is the one way
    live collaborators enter: ``backend="inprocess"`` hands it to every
    shard, so one tracer samples each request wherever it lands, one SLO
    tracker sees every shard's latencies and one shadow-recall monitor every
    engine's retrievals.  Those cannot cross into a worker process:
    ``backend="process"`` ships ``fault_plan`` to its workers, keeps
    ``drift`` / ``alerts`` for the supervisor, raises ``TypeError`` naming
    any other field set away from its default, and stamps the control plane
    with ``time.monotonic``.  At build the fleet turns a ``fault_plan`` into
    the injector on its clock and points every collaborator without an
    event log at :attr:`control`'s.

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
        ctx: FleetContext = FleetContext(),
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        self.num_shards = self.config.num_workers
        self.backend = backend
        #: The version currently serving (identical across shards).
        self.model_version = version
        if backend == "process":
            ctx.check_portable()
            ctx = replace(ctx, clock=time.monotonic)
        elif backend != "inprocess":
            raise ValueError(f"unknown backend {backend!r}")
        self._world = world
        #: The fleet's live collaborators; ``ctx.clock`` is the one time base
        #: of the control plane: every event the fleet, its transport, its
        #: fault injector and an :class:`~repro.online.OnlineLoop` over it
        #: record is stamped there.
        self.ctx = ctx.armed()
        #: Fleet-level control-plane sink: one entry per deployment or
        #: lifecycle event (hot swap, canary verdict, click-log lag, worker
        #: death) regardless of shard count, plus the last-resort answers;
        #: merged into :meth:`merged_metrics`.
        self.control = MetricsSink(clock=self.ctx.clock, slo=self.ctx.slo)
        self.ctx.bind_events(self.control.events)
        transport = PipeTransport if backend == "process" else InThreadTransport
        self.transport = transport(
            world, model, self.config, version, self.ctx, self.control.events
        )
        #: Per-shard endpoints: :class:`ShardWorker` in-process, the
        #: supervisor's worker handles on the process backend.
        self.workers = self.transport.workers

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
        yields a response (on the process backend by the next :meth:`poll`
        / :meth:`flush`: a buffered request is refused when its batch is
        sent).  On the healthy in-process path this is the home shard's
        :meth:`ShardWorker.submit` and nothing else.
        """
        return self._route(user, query_category, 0)

    def _route(self, user: int, query_category: int, first_offset: int) -> List[RankedList]:
        """:meth:`submit` from the ``first_offset``-th shard of the user's
        failover order on."""
        workers = self.workers
        home = shard_for_user(user, self.num_shards)
        for offset in range(first_offset, self.num_shards):
            shard = (home + offset) % self.num_shards
            try:
                results = workers[shard].submit(user, query_category)
                break
            except ShardRefused as refused:
                self._record_refusal(user, shard, refused.reason)
        else:
            results = [self._last_resort(user, query_category)]
        transport = self.transport
        if transport.orphans or transport.delivered or transport.refused:
            results = results + self._drain()
        return results

    def _record_refusal(self, user: int, shard: int, reason: str) -> None:
        """A batcher crash is the one refusal that counts as a failover."""
        if reason == "crash":
            self.control.events.record(
                "shard_failover", self.ctx.clock(), shard=shard, user=int(user)
            )

    def _last_resort(self, user: int, query_category: int) -> RankedList:
        """Every shard refused: the popularity prior answers from the fleet
        itself (no model forward, no cascade, no shard — nothing left to
        fail), counted as a shed response on the control sink."""
        world = self._world
        items, scores = popularity_floor(
            world.category_items[query_category],
            world.category_popularity[query_category],
            world.config.items_per_session,
        )
        now = self.ctx.clock()
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
        failover order) and what a shard refused inside a batch (from the
        next shard in that order), then collect what arrived outside an
        exchange."""
        transport = self.transport
        results: List[RankedList] = []
        if transport.orphans:
            orphans = list(transport.orphans)
            transport.orphans.clear()
            for user, category in orphans:
                results.extend(self._route(user, category, 0))
        if transport.refused:
            refused = list(transport.refused)
            transport.refused.clear()
            for user, category, shard, reason in refused:
                self._record_refusal(user, shard, reason)
                offset = (shard - shard_for_user(user, self.num_shards)) % self.num_shards
                results.extend(self._route(user, category, offset + 1))
        if transport.delivered:
            results.extend(transport.delivered)
            transport.delivered.clear()
        return results

    def poll(self) -> List[RankedList]:
        """Deadline check on every shard; returns all flushed results."""
        return self.transport.poll() + self._drain()

    def next_flush_due(self) -> Optional[float]:
        """Earliest deadline-trigger time across shards, ``None`` if idle.
        On the process backend, whose workers flush on their own timers,
        the time the oldest still-unsent request was buffered: a caller
        that polls when this comes due sends partial batches at once."""
        return self.transport.next_flush_due()

    def flush(self) -> List[RankedList]:
        """Force-flush every shard (end-of-traffic drain), until no request
        re-routed by the drain is left buffered."""
        transport = self.transport
        results = transport.flush() + self._drain()
        while transport.next_flush_due() is not None:
            results += transport.flush() + self._drain()
        return results

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
            "cache_invalidation", self.ctx.clock(), shards=self.num_shards
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
        if self.backend != "inprocess":
            raise TypeError(
                f"attach_shadow_recall needs the engines in this interpreter and applies "
                f"to the in-process backend only, not backend={self.backend!r}"
            )
        for worker in self.workers:
            worker.engine.shadow_recall = monitor
        self.ctx = replace(self.ctx, shadow_recall=monitor)

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
        return _status_rows(self.transport.reports())

    def breaker_status(self) -> List[Dict[str, object]]:
        """Per-shard circuit-breaker health state (a shard that is down has
        no row)."""
        return _breaker_rows(self.worker_status())

    def _health(self, shards: List[Dict[str, Any]]) -> Dict[str, float]:
        """The fleet scalars that status rows give without a sink merge."""
        return {
            "worker_restarts": float(sum(row["restarts"] for row in shards)),
            "worker_deaths": float(self.control.events.counts().get("worker_died", 0)),
            "quarantined_workers": float(sum(row["state"] == QUARANTINED for row in shards)),
            "workers_available": float(sum(row["state"] == HEALTHY for row in shards)),
            "slab_generation": float(self.generation),
            "slab_bytes": float(self.transport.describe()["slab_bytes"]),
            "open_breakers": float(
                sum(row["state"] != CircuitBreaker.CLOSED for row in _breaker_rows(shards))
            ),
        }

    # The status accessors walk the shards' latest reports — no RPC, no sink
    # merge — so a harness may read them between passes; each is the
    # :meth:`summary` value of the same name as of the last heartbeat.
    @property
    def open_breakers(self) -> int:
        """Shards currently not fully closed (open or half-open)."""
        return int(self._health(self.worker_status())["open_breakers"])

    @property
    def workers_available(self) -> int:
        return int(self._health(self.worker_status())["workers_available"])

    @property
    def restarts_total(self) -> int:
        return int(self._health(self.worker_status())["worker_restarts"])

    @property
    def quarantined_workers(self) -> int:
        return int(self._health(self.worker_status())["quarantined_workers"])

    def kill_worker(self, shard: int, sig: int = signal.SIGKILL) -> Optional[int]:
        """Crash drill (process backend): signal a shard's worker process."""
        if self.backend != "process":
            raise TypeError(
                f"kill_worker signals a worker process and applies to the process "
                f"backend only, not backend={self.backend!r}"
            )
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
    # fleet telemetry: one snapshot, two renderings
    # ------------------------------------------------------------------
    def _pooled(self, reports: List[Dict[str, Any]]) -> MetricsSink:
        # Folded onto a fresh sink, so the result never is (or shares an
        # instrument with) the control sink or a shard's.
        merged = MetricsSink(clock=self.ctx.clock, slo=self.ctx.slo).merge(self.control)
        for sink in self.transport.retired:
            merged = merged.merge(sink)
        for report in reports:
            if "metrics" in report:
                merged = merged.merge(report["metrics"])
        return merged

    def merged_metrics(self) -> MetricsSink:
        """The control-plane sink plus every incarnation's latest shard
        sink (dead incarnations included), pooled into one."""
        return self._pooled(self.transport.reports())

    def _observe(self) -> Tuple[MetricsSink, List[Dict[str, Any]], Dict[str, float]]:
        """One fresh ``transport.reports()`` walk and one pooling pass: the
        pooled sink, the shard rows and the scalars alert rules may name."""
        reports = self.transport.reports(fresh=True)
        pooled = self._pooled(reports)
        shards = _status_rows(reports)
        telemetry = {
            **self._health(shards),
            # Resilience: the degradation ladder is alertable (and drives
            # the online loop's watch-window rollback).
            "shed_rate": pooled.shed_rate,
            "degraded_share": pooled.degraded_share,
        }
        shadow = self.ctx.shadow_recall
        if shadow is not None and shadow.samples:
            telemetry["retrieval_recall_at_k"] = shadow.recall_at_k
        return pooled, shards, telemetry

    def telemetry(self) -> Tuple[MetricsRegistry, Dict[str, float]]:
        """What alert rules evaluate over, from one :meth:`summary`-grade
        pass without the rendering work: the pooled serving registry and
        the fleet scalars — :func:`repro.obs.telemetry_snapshot`'s
        ``registry`` and ``extra``."""
        pooled, _, telemetry = self._observe()
        return pooled.to_registry(), telemetry

    def telemetry_extra(self) -> Dict[str, float]:
        """The fleet scalars of :meth:`summary` (its ``telemetry``)."""
        return self._observe()[2]

    def summary(self, registry: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
        """The one telemetry snapshot (JSON-able): everything
        :meth:`fleet_report`, the dashboard, the alert rules and the soak
        artifacts show, from one fresh ``transport.reports()`` walk and one
        pooling pass.

        On top of the pooled sink's :meth:`MetricsSink.summary` — headline
        metrics, ``cache``, ``online``, ``degradation``, ``events`` totals,
        ``slo``, ``cost`` — it carries the fleet's identity (``num_shards``,
        ``backend``, ``model_version``, ``generation``, the transport's
        ``describe()``), the per-shard ``shards`` and ``breakers`` rows, the
        ``telemetry`` scalars alert rules may name (:meth:`telemetry_extra`),
        the pooled registry as ``metrics`` (with ``registry`` merged in — the
        trainer's, say, so train-step histograms land on the same page),
        and the state of every attached collaborator or
        ``None``: ``tracer`` stats, ``shadow_recall`` stats, ``drift``
        scores, ``alerts`` rows, plus the control-plane ``event_tail``.
        """
        pooled, shards, telemetry = self._observe()
        metrics = pooled.to_registry()
        if registry is not None:
            metrics = metrics.merge(registry)
        ctx = self.ctx
        return {
            **pooled.summary(),
            "num_shards": self.num_shards,
            "backend": self.backend,
            "model_version": self.model_version or "unversioned",
            "generation": self.generation,
            "shards": shards,
            "breakers": _breaker_rows(shards),
            **self.transport.describe(),
            "telemetry": telemetry,
            "metrics": metrics.to_json(),
            "tracer": ctx.tracer.stats() if ctx.tracer.enabled else None,
            "shadow_recall": ctx.shadow_recall.stats() if ctx.shadow_recall is not None else None,
            "drift": ctx.drift.to_dict() if ctx.drift is not None else None,
            "alerts": ctx.alerts.status() if ctx.alerts is not None else None,
            "event_tail": [event.to_dict() for event in self.control.events.tail(12)],
        }

    def _write_page(
        self, path: str, sections: List[Section], traces=None, title: str = "repro fleet"
    ) -> str:
        if traces is None and self.ctx.tracer.enabled:
            traces = list(self.ctx.tracer.finished)
        return write_dashboard(path, sections, title=title, traces=traces)

    def dashboard(
        self, path: str, registry=None, title: str = "repro fleet", traces=None
    ) -> str:
        """Write the self-contained HTML dashboard; returns ``path``.

        The same sections as :meth:`fleet_report` from the same
        :meth:`summary` (``registry`` merges extra metrics in), plus the
        tracer's recent sampled span trees.  ``traces`` overrides the trace
        list — pass ``list(loop.tracer.finished)`` to render the
        refresh-cycle spans when the loop's tracer is separate from the
        fleet's request tracer.
        """
        return self._write_page(path, report_sections(self.summary(registry)), traces, title)

    def fleet_report(
        self, dashboard_path: Optional[str] = None, registry=None, traces=None
    ) -> str:
        """Text rendering of :meth:`summary` — what examples and benchmarks
        print after a traffic run.  ``dashboard_path`` additionally writes
        the HTML dashboard there from the same snapshot (the other
        arguments are :meth:`dashboard`'s) and appends its location."""
        sections = report_sections(self.summary(registry))
        text = render_text(sections)
        if dashboard_path is None:
            return text
        return f"{text}\n\ndashboard: {self._write_page(dashboard_path, sections, traces)}"


def _status_rows(reports: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [
        {key: value for key, value in report.items() if key != "metrics"}
        for report in reports
    ]


def _breaker_rows(shards: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [{"shard": row["shard"], **row["breaker"]} for row in shards if "breaker" in row]


def build_fleet(
    world: World,
    model: RankingModel,
    config: Optional[FleetConfig] = None,
    backend: str = "auto",
    version: Optional[str] = None,
    ctx: FleetContext = FleetContext(),
) -> Fleet:
    """Build a serving fleet — the front door.

    ``backend="inprocess"`` runs the shards in this interpreter,
    ``backend="process"`` as supervised worker processes, and
    ``backend="auto"`` picks ``process`` when POSIX shared memory works
    here and ``inprocess`` otherwise: the same :class:`Fleet` serving the
    same ``config`` with bitwise-identical scores.  ``ctx`` carries this
    interpreter's live collaborators (see :class:`Fleet` for which of them
    the process backend can honour).
    """
    if backend == "auto":
        backend = "process" if shared_memory_available() else "inprocess"
    return Fleet(world, model, config, backend, version, ctx)
