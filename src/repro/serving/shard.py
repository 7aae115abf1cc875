"""One shard of the serving fleet: its description, its stack, its operations.

Users are hashed onto shards with a fixed multiplicative hash — *not*
Python's randomized ``hash`` — so the mapping is deterministic across
processes and runs: the same user always lands on the same shard, which is
what makes per-shard session caches effective (a user's gate vectors and
behaviour encodings live on exactly one shard and are never duplicated or
thrashed across the fleet).

:class:`FleetConfig` is the only description of a shard stack and
:class:`ShardWorker` the only place one is assembled — in the caller's
thread or inside a worker process (:mod:`repro.serving.pipe`), from the
same config and :class:`~repro.utils.rng.SeedBank` child stream, which is
what makes the two backends score bit for bit alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.core.ranking_model import RankingModel
from repro.data.synthetic import World
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import CrashFault
from repro.retrieval import CascadeConfig, RetrievalCascade
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import SessionCache
from repro.serving.context import FleetContext
from repro.serving.degrade import DegradationPolicy
from repro.serving.engine import RankedList, SearchEngine
from repro.serving.metrics import MetricsSink
from repro.utils.rng import SeedBank

__all__ = ["FleetConfig", "ShardRefused", "ShardWorker", "SwapFailed", "shard_for_user"]

#: Shard states a transport reports (``Fleet.worker_status``).  An in-thread
#: shard is always healthy; a worker process moves through all four.
HEALTHY = "healthy"
RESTARTING = "restarting"
QUARANTINED = "quarantined"
STOPPED = "stopped"

#: Knuth's multiplicative hash constant (2^32 / golden ratio).
_HASH_MULTIPLIER = 2654435761


def shard_for_user(user: int, num_shards: int) -> int:
    """Deterministic user → shard mapping (stable across runs/processes)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return int((int(user) * _HASH_MULTIPLIER) % (1 << 32)) % num_shards


class SwapFailed(RuntimeError):
    """A hot swap failed and the fleet is still consistently on the old model.

    Raised by :meth:`repro.serving.fleet.Fleet.swap_model` after every
    already-swapped in-thread shard has been restored to the previous
    model/cascade/generation (or, on the process backend, when the new
    generation's slab could not be published at all).  ``drained`` carries
    the results flushed before the failure; they were scored by the old
    model and should still be delivered.
    """

    def __init__(self, message: str, drained: Optional[List[RankedList]] = None) -> None:
        super().__init__(message)
        self.drained: List[RankedList] = list(drained) if drained is not None else []


class ShardRefused(Exception):
    """The shard did not take this request; the fleet fails over.
    ``reason``: ``"breaker_open"``, ``"crash"`` (the batcher crashed on the
    submit — the one refusal that counts as a ``shard_failover``),
    ``"unavailable"`` (a worker process that is down) or ``"died"`` (it went
    down during the exchange)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class FleetConfig:
    """Everything needed to build a shard's serving stack, on any transport.
    :class:`ShardWorker` reads the first group only; the supervisor knobs
    (heartbeat, restart backoff) tune the robustness machinery of the
    process backend and are inert in-process.  The rest of that machinery's
    tuning is :mod:`repro.serving.pipe` constants, the breaker's
    :mod:`repro.faults.breaker` constants."""

    num_workers: int = 2
    seed: int = 0
    max_batch_size: int = 8
    flush_deadline_ms: float = 5.0
    cache_capacity: int = 512
    compile: bool = True
    cascade: Optional[CascadeConfig] = None
    policy: Optional[DegradationPolicy] = None
    # --- supervisor knobs -------------------------------------------------
    heartbeat_interval_s: float = 0.05
    heartbeat_deadline_s: float = 1.0
    restart_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.heartbeat_deadline_s < self.heartbeat_interval_s:
            raise ValueError("heartbeat_deadline_s must cover >= 1 interval")


class ShardWorker:
    """One shard's serving stack: engine, session cache, metrics sink,
    circuit breaker and micro-batcher, wired together here and nowhere else.

    All shards score with the same (shared) model weights — as production
    replicas do — but own disjoint RNG streams (``SeedBank(config.seed)``
    child ``shard-<id>``), caches, batch queues and compiled plans (plans
    own mutable scratch buffers).  ``cascade`` is a
    :meth:`~repro.retrieval.RetrievalCascade.worker_view` of a build shared
    across the fleet (``None``: the engine builds its own when the config
    attaches a cascade).  ``ctx`` holds the live collaborators of the
    interpreter the shard runs in; its injector is bound with ``shard=<id>``
    so fault plans can target individual shards.  The breaker records its
    ``circuit_open`` / ``circuit_closed`` transitions on the shard's own
    sink until the fleet points it at its control log.
    """

    def __init__(
        self,
        config: FleetConfig,
        shard_id: int,
        world: World,
        model: RankingModel,
        version: Optional[str] = None,
        cascade: Optional[RetrievalCascade] = None,
        ctx: FleetContext = FleetContext(),
    ) -> None:
        self.shard_id = int(shard_id)
        self.injector = ctx.injector.bind(shard=self.shard_id)
        ctx = replace(ctx, injector=self.injector)
        self.engine = SearchEngine(
            world,
            model,
            SeedBank(config.seed).child(f"shard-{self.shard_id}"),
            model_version=version,
            compile=config.compile,
            cascade=config.cascade,
            prebuilt_cascade=cascade,
            ctx=ctx,
        )
        self.cache = SessionCache(config.cache_capacity)
        self.metrics = MetricsSink(clock=ctx.clock, slo=ctx.slo)
        self.breaker = CircuitBreaker(
            clock=ctx.clock, events=self.metrics.events, shard=self.shard_id
        )
        self.batcher = MicroBatcher(
            self.engine,
            max_batch_size=config.max_batch_size,
            flush_deadline_ms=config.flush_deadline_ms,
            cache=self.cache,
            metrics=self.metrics,
            policy=config.policy,
            breaker=self.breaker,
            ctx=ctx,
        )

    def submit(self, user: int, query_category: int) -> List[RankedList]:
        """Breaker-guarded ``batcher.submit``.

        An open breaker refuses without an attempt; a
        :class:`~repro.faults.CrashFault` at ``batcher.submit`` counts as a
        breaker failure and refuses.  Either way :class:`ShardRefused`
        tells the fleet to reroute.  A clean enqueue is not an outcome —
        the flush that scores it reports one — except as the half-open
        trial, whose admission closes the breaker.  On the healthy path
        (breaker closed, no crash) this is two attribute compares over a
        bare submit.
        """
        breaker = self.breaker
        if not breaker.allow():
            raise ShardRefused("breaker_open")
        try:
            results = self.batcher.submit(user, query_category)
        except CrashFault:
            breaker.record_failure()
            raise ShardRefused("crash") from None
        if breaker.state == CircuitBreaker.HALF_OPEN:
            breaker.record_success()
        return results

    def swap(
        self,
        model: RankingModel,
        version: Optional[str],
        cascade: Optional[RetrievalCascade],
        drained: List[RankedList],
    ) -> None:
        """Switch this shard to ``model``, appending what it drains to
        ``drained`` (an out-parameter, so a failure below loses nothing).

        In order: (1) force-flush the micro-batcher so every pending query
        is scored by the *old* model's plan — a flush is one plan
        execution, so no batch can mix versions or run a stale plan;
        (2) recompile and switch the engine's model+plan+cascade together
        (:meth:`SearchEngine.set_model` assigns them atomically, and builds
        the cascade from the *new* weight snapshot unless ``cascade`` hands
        it a view of a shared build), so no post-swap query can retrieve
        against the old model's embeddings; (3) invalidate the session
        cache's gate vectors and bump its generation, so no gate computed
        by the old plan can ever be applied under the new one (the batcher
        additionally re-resolves any gate whose generation went stale
        between submit and flush).

        A failure in step 2 — a build exception, an injected ``swap.shard``
        / ``cascade.build`` crash — propagates with the shard still on the
        old model (``set_model`` assigns only after every build step
        succeeds).
        """
        drained.extend(self.batcher.flush())
        self.injector.fire("swap.shard", version=version)
        self.engine.set_model(model, version, cascade=cascade)
        self.cache.invalidate_all()

    def report(self) -> Dict[str, Any]:
        """Cumulative telemetry of this incarnation: the sink under
        ``metrics`` plus a JSON-able status row.  Associative, so a fleet
        only ever merges the *latest* one per incarnation."""
        return {
            "shard": self.shard_id,
            "metrics": self.metrics,
            "queries": self.engine.queries_served,
            "avg_latency_ms": self.engine.avg_latency_ms,
            "cache_hit_rate": self.cache.gate_hit_rate,
            "breaker": self.breaker.status(),
            "outstanding": self.batcher.pending,
        }
