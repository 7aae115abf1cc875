"""``repro.serving`` — the online serving stack (§III-F) and A/B testing (§IV-I).

The serving pipeline mirrors the paper's Fig. 6 deployment, grown into a
high-throughput subsystem::

    traffic (loadgen) ──► shard router (fleet) ────► micro-batcher (batcher)
                                                          │
                             session cache (cache) ◄──────┤ gate reuse
                                                          ▼
                          retrieval + feature dump + model forward (engine)
                                                          │
                                metrics sink (metrics) ◄──┘ QPS / p99 / hits

* :mod:`~repro.serving.engine` — retrieval (the :mod:`repro.retrieval`
  ANN + prefilter cascade on large catalogs), feature assembly, scoring;
* :mod:`~repro.serving.batcher` — size/deadline micro-batching with one
  gate evaluation per session (§III-F1);
* :mod:`~repro.serving.cache` — LRU session cache for gate vectors and
  behaviour encodings, with hit/miss accounting;
* :mod:`~repro.serving.context` — :class:`FleetContext`, the one frozen
  object carrying the live collaborators (clock, tracer, injector / fault
  plan, SLO tracker, shadow recall, drift, alerts) down the stack;
* :mod:`~repro.serving.shard` — deterministic user → shard hashing,
  :class:`FleetConfig` (the one description of a shard stack) and
  :class:`ShardWorker` (the one place it is assembled);
* :mod:`~repro.serving.fleet` — :class:`Fleet`, the one routing / failover /
  hot-swap / telemetry policy, over a transport: shards called in-thread, or
  hosted in supervised worker processes (:mod:`~repro.serving.pipe`);
  :func:`build_fleet` is the front door for both;
* :mod:`~repro.serving.loadgen` — Zipf user traffic with Poisson arrivals;
* :mod:`~repro.serving.metrics` — QPS, latency percentiles, batch-size
  histogram, cache hit rate: :class:`MetricsSink` records into the
  instruments of a :class:`repro.obs.MetricsRegistry` it owns (bounded
  memory; one JSON export, ``MetricsSink.to_registry().to_json()``);
* :mod:`~repro.serving.cost` / :mod:`~repro.serving.ab_test` — the paper's
  FLOP cost model and simulated online A/B test.

Observability threads through every layer via :mod:`repro.obs`: a
:class:`repro.obs.Tracer` in the :class:`FleetContext` gives per-request
span trees (submit → queue-wait → gate → retrieve → rank → flush, with
cascade sub-stages and per-kernel rank children), and a
:class:`repro.obs.SloTracker` sliding-window p99 and error-budget burn
rate.  ``Fleet.summary()`` is the one telemetry
snapshot: ``Fleet.fleet_report()`` (text), ``Fleet.dashboard()`` (HTML),
``Fleet.telemetry()`` (what alert rules evaluate over) and the soak
artifacts all render or read it.

Scoring executes through the compiled inference path (:mod:`repro.infer`)
by default: engines compile models into flat fused-kernel plans at
construction and on every hot swap; models with no registered compiler
serve through the eager forward.

The stack is hot-swappable: :meth:`Fleet.swap_model` drains each
shard between micro-batches, recompiles and switches the model+plan, and
invalidates the gate cache (generation-tagged), which is how the online
learning loop (:mod:`repro.online`) deploys refreshed versions with zero
downtime.  The swap is transactional: a mid-drain failure rolls every
already-swapped shard back and raises :class:`SwapFailed` — the fleet is
never left serving mixed generations.

Resilience (PR 8, :mod:`repro.faults`): a :class:`DegradationPolicy` gives
every request a deadline budget and admission control, degrading full
cascade ranking to a prefilter shortlist or the popularity prior instead of
timing out (each response's :attr:`RankedList.tier` says which); per-shard
circuit breakers plus deterministic failover rerouting keep a crashing
shard from taking its users down with it.
"""

from repro.serving.ab_test import ABTestResult, run_ab_test
from repro.serving.batcher import MicroBatcher, PreparedQuery
from repro.serving.cache import CacheStats, LRUCache, SessionCache
from repro.serving.context import FleetContext
from repro.serving.degrade import (
    TIER_FULL,
    TIER_POPULARITY,
    TIER_PREFILTER,
    TIERS,
    DegradationPolicy,
)
from repro.serving.cost import (
    CascadeCostReport,
    GateCostReport,
    compare_gate_strategies,
    compare_retrieval_strategies,
    gate_network_flops,
    mlp_flops,
    model_flops,
)
from repro.serving.engine import RankedList, SearchEngine
from repro.serving.fleet import Fleet, build_fleet
from repro.serving.loadgen import TrafficEvent, ZipfLoadGenerator, replay
from repro.serving.metrics import (
    ManualClock,
    MetricsSink,
    latency_percentile,
)
from repro.serving.shard import FleetConfig, ShardWorker, SwapFailed, shard_for_user

__all__ = [
    "ABTestResult",
    "run_ab_test",
    "MicroBatcher",
    "PreparedQuery",
    "CacheStats",
    "LRUCache",
    "SessionCache",
    "FleetContext",
    "ShardWorker",
    "SwapFailed",
    "shard_for_user",
    "Fleet",
    "FleetConfig",
    "build_fleet",
    "TIER_FULL",
    "TIER_POPULARITY",
    "TIER_PREFILTER",
    "TIERS",
    "DegradationPolicy",
    "CascadeCostReport",
    "GateCostReport",
    "compare_gate_strategies",
    "compare_retrieval_strategies",
    "gate_network_flops",
    "mlp_flops",
    "model_flops",
    "RankedList",
    "SearchEngine",
    "TrafficEvent",
    "ZipfLoadGenerator",
    "replay",
    "ManualClock",
    "MetricsSink",
    "latency_percentile",
]
