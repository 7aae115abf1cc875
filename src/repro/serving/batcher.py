"""Micro-batch scheduler: coalesce concurrent queries into one forward.

Production rankers never score one query at a time — a scheduler collects
the queries that arrive within a short window and runs them through the
model as a single batch, trading a bounded queueing delay for much higher
hardware utilization.  This module implements that tick loop over the
:class:`~repro.serving.engine.SearchEngine`:

* a query is **prepared** at submit time (its user's feature tables, from
  the session cache or built once, its gate, and retrieval);
* the pending set is **flushed** — one vectorised feature assembly and one
  model forward over all its sessions — when it reaches ``max_batch_size``
  or when the oldest entry has waited ``flush_deadline_ms`` (checked by
  :meth:`MicroBatcher.poll`);
* at flush, gate vectors are resolved per the §III-F1 deployed design: one
  gate evaluation per *cache-missing session* (batched across sessions),
  never one per candidate; cache hits skip the gate network entirely.

Scores are identical to the one-query-at-a-time path — the batcher changes
*when* the model runs, never *what* it computes — which
``tests/serving/test_batcher.py`` asserts end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.data.features import UserState
from repro.data.schema import SessionBatch
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import CrashFault
from repro.obs.trace import NULL_SPAN, NULL_TRACE, kernel_span_hook
from repro.serving.cache import SessionCache
from repro.serving.context import FleetContext
from repro.serving.degrade import TIER_FULL, TIER_POPULARITY, TIER_PREFILTER, DegradationPolicy
from repro.serving.engine import RankedList, SearchEngine
from repro.serving.metrics import MetricsSink

__all__ = ["MicroBatcher", "PreparedQuery"]


@dataclass
class PreparedQuery:
    """One enqueued query: candidates retrieved, gate looked up, and the
    user's half of the features at hand (the join waits for the flush)."""

    user: int
    query_category: int
    candidates: np.ndarray
    state: UserState
    gate: Optional[np.ndarray]  # (K,) cached session gate, None = cache miss
    enqueue_time: float
    #: Cache generation the gate was read under; if the cache's generation
    #: advances before the flush (a model hot-swap), the gate is stale and
    #: is re-resolved against the new model instead of being applied.
    gate_generation: int = 0
    #: The retrieval cascade the candidates came from (``None`` without
    #: one).  Candidates are snapshot state exactly like gate vectors: if
    #: the engine's cascade is swapped before the flush, these ids were
    #: retrieved against embeddings the scoring model no longer owns and
    #: must be re-retrieved.
    cascade: Optional[object] = None
    #: This request's trace (:data:`NULL_TRACE` when unsampled) and its
    #: open ``queue-wait`` span, ended when the flush picks the query up.
    trace: object = NULL_TRACE
    queue_span: object = NULL_SPAN

    @property
    def num_candidates(self) -> int:
        return int(self.candidates.size)


class MicroBatcher:
    """Deadline/size-triggered micro-batching over a :class:`SearchEngine`.

    Parameters
    ----------
    engine:
        The retrieval + ranking pipeline to serve through.
    max_batch_size:
        Flush as soon as this many queries are pending (size trigger).
    flush_deadline_ms:
        Maximum queueing delay: :meth:`poll` flushes once the oldest pending
        query has waited this long (deadline trigger).
    cache:
        Optional :class:`~repro.serving.cache.SessionCache`; enables gate
        reuse across sessions and behaviour-encoding reuse across queries.
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsSink` receiving
        latency, batch-size, and cache accounting.
    policy:
        Deadline budget + admission control (:class:`~repro.serving.
        degrade.DegradationPolicy`).  ``None`` — the default — performs no
        budget or queue checks at all: the pre-policy hot path.
    breaker:
        The owning shard's circuit breaker; the batcher only reports flush
        outcomes to it — routing decisions live in the fleet.
    ctx:
        The :class:`~repro.serving.context.FleetContext` whose ``clock``
        (seconds; a :class:`~repro.serving.metrics.ManualClock` in tests),
        ``tracer`` and ``injector`` (``batcher.submit`` / ``batcher.flush``
        fault points) the batcher uses.  A sampled request's trace follows
        it end to end: ``submit`` (with ``gate`` / ``retrieve`` children),
        ``queue-wait`` (open from submit until the flush picks the query
        up), and ``flush`` (with the shared ``assemble``, batched
        ``gate-flush`` and per-kernel ``rank`` work attached).  For
        consistent span offsets, give the tracer the same clock.
    """

    def __init__(
        self,
        engine: SearchEngine,
        max_batch_size: int = 8,
        flush_deadline_ms: float = 5.0,
        cache: Optional[SessionCache] = None,
        metrics: Optional[MetricsSink] = None,
        policy: Optional[DegradationPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        ctx: FleetContext = FleetContext(),
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if flush_deadline_ms < 0:
            raise ValueError(f"flush_deadline_ms must be >= 0, got {flush_deadline_ms}")
        self.engine = engine
        self.max_batch_size = int(max_batch_size)
        self.flush_deadline_ms = float(flush_deadline_ms)
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsSink(clock=ctx.clock)
        self.policy = policy
        self.breaker = breaker
        self.tracer = ctx.tracer
        self.injector = ctx.injector
        self._clock = ctx.clock
        self._pending: List[PreparedQuery] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queries waiting for the next flush."""
        return len(self._pending)

    def submit(self, user: int, query_category: int) -> List[RankedList]:
        """Enqueue one query; returns flushed results when the size trigger
        fires, an empty list otherwise.

        With a :class:`~repro.serving.degrade.DegradationPolicy` attached,
        a request may instead be answered **immediately** below the full
        tier — shed at admission (queue over ``max_queue`` or drowning past
        ``deadline_ms``), dropped to the prefilter tier when submit-side
        preparation burns past the budget, or dropped to popularity when
        retrieval itself crashes.  Degraded requests never enter the queue,
        so every submit yields a response from *some* tier — nothing is
        dropped on the floor.  A ``crash`` fault at the ``batcher.submit``
        injection point raises before admission: the request is untouched
        and the cluster reroutes it to a sibling shard.
        """
        now = self._clock()
        self.injector.fire("batcher.submit", user=int(user), category=int(query_category))
        policy = self.policy
        if policy is not None and self._should_shed(now, policy):
            return [
                self._respond_degraded(
                    user, query_category, TIER_POPULARITY, "load_shed", now, shed=True
                )
            ]
        trace = self.tracer.trace("serve", user=int(user), category=int(query_category))
        use_gate = self.engine.supports_session_gate
        submit_span = trace.begin("submit")
        state = self.cache.get_behavior(user) if self.cache is not None else None
        if state is None:
            state = self.engine.user_state(user)
            if self.cache is not None:
                self.cache.put_behavior(user, state)
        # Gate resolution happens *before* retrieval: a cascade-enabled
        # engine scores retrieval through the same §III-F1 session gate, so
        # a cached vector saves the cascade its own gate evaluation — and on
        # a cache miss the vector the cascade computes is cached right here,
        # so neither the flush nor a later query evaluates this session's
        # gate again.
        gate = None
        generation = 0
        with trace.span("gate") as gate_span:
            if use_gate and self.cache is not None:
                gate = self.cache.get_gate(user, query_category)
                generation = self.cache.generation
            gate_span.set(cache_hit=gate is not None)
            if use_gate and gate is None and self.engine.cascade is not None:
                gate = self.engine.cascade.resolve_gate(user, query_category, state=state)
                if gate is not None and self.cache is not None:
                    self.cache.put_gate(user, query_category, gate)
                    generation = self.cache.generation
        try:
            with trace.span("retrieve", cascade=self.engine.cascade is not None) as span:
                candidates = self.engine.retrieve(
                    query_category, user=user, gate=gate, trace=trace, state=state
                )
                span.set(candidates=int(candidates.size))
        except CrashFault:
            # Retrieval is gone for this call; the popularity prior still
            # answers (no cascade, no model) — degraded beats dropped.
            submit_span.end()
            return [
                self._respond_degraded(
                    user, query_category, TIER_POPULARITY, "retrieve_failure",
                    now, trace=trace,
                )
            ]
        if policy is not None:
            elapsed_ms = (self._clock() - now) * 1000.0
            if elapsed_ms > policy.degrade_after_ms:
                # Submit-side preparation (gate + retrieval) already burned
                # the full-tier budget — a latency spike in the cascade, say
                # — so answer now from the prefilter over the shortlist we
                # just retrieved instead of queueing for a forward that
                # would land past the deadline.
                submit_span.end()
                return [
                    self._respond_degraded(
                        user, query_category, TIER_PREFILTER, "deadline_budget",
                        now, trace=trace, candidates=candidates, gate=gate, state=state,
                    )
                ]
        submit_span.end()
        self._pending.append(
            PreparedQuery(
                user=user,
                query_category=query_category,
                candidates=candidates,
                state=state,
                gate=gate,
                enqueue_time=now,
                gate_generation=generation,
                cascade=self.engine.cascade,
                trace=trace,
                queue_span=trace.begin("queue-wait"),
            )
        )
        if len(self._pending) >= self.max_batch_size:
            return self.flush()
        return []

    def poll(self) -> List[RankedList]:
        """Flush if the oldest pending query has exceeded the deadline.

        The comparison uses exactly :meth:`next_flush_due`'s arithmetic: a
        simulated-time driver that advances its clock *to* the due time must
        observe the flush fire (computing the wait as ``(now - enqueue) *
        1000 >= deadline_ms`` instead can fall one float ULP short of the
        deadline and spin forever).
        """
        if not self._pending:
            return []
        if self._clock() >= self._deadline():
            return self.flush()
        return []

    def _deadline(self) -> float:
        """Clock time (seconds) at which the oldest pending query expires."""
        return self._pending[0].enqueue_time + self.flush_deadline_ms / 1000.0

    def next_flush_due(self) -> Optional[float]:
        """Clock time (seconds) when the deadline trigger next fires, or
        ``None`` with nothing pending.  Simulated-time drivers advance the
        clock here before polling so queueing latency reflects the deadline,
        not the gap until the next arrival."""
        if not self._pending:
            return None
        return self._deadline()

    # ------------------------------------------------------------------
    # degradation ladder
    # ------------------------------------------------------------------
    def _should_shed(self, now: float, policy: DegradationPolicy) -> bool:
        """Admission control: is the queue too deep or too stale to join?"""
        if policy.max_queue is not None and len(self._pending) >= policy.max_queue:
            return True
        if self._pending:
            waited_ms = (now - self._pending[0].enqueue_time) * 1000.0
            return waited_ms > policy.deadline_ms
        return False

    def _respond_degraded(
        self,
        user: int,
        query_category: int,
        tier: str,
        reason: str,
        enqueue_time: float,
        trace=NULL_TRACE,
        candidates: Optional[np.ndarray] = None,
        shed: bool = False,
        gate: Optional[np.ndarray] = None,
        state: Optional[UserState] = None,
    ) -> RankedList:
        """Answer one request below the full tier, immediately.

        The response is produced by :meth:`SearchEngine.degraded_ranking`
        (which may itself fall further down the ladder), counted on the
        metrics sink, stamped on the trace as a span attribute, and logged
        as a typed ``load_shed`` / ``degraded`` event.  ``gate`` and
        ``state`` forward what submit already prepared for this request, so
        the tiers that exist because time ran out redo none of it.
        """
        items, scores, tier = self.engine.degraded_ranking(
            user, query_category, tier, candidates=candidates, gate=gate, state=state
        )
        done = self._clock()
        latency_ms = (done - enqueue_time) * 1000.0
        self.engine.record_query(latency_ms)
        self.metrics.record_query(latency_ms, now=done)
        self.metrics.record_tier(tier)
        if shed:
            self.metrics.record_shed()
            self.metrics.events.record(
                "load_shed", done, user=int(user), queued=len(self._pending)
            )
        else:
            self.metrics.events.record(
                "degraded", done, tier=tier, reason=reason, user=int(user)
            )
        trace.finish(latency_ms=latency_ms, tier=tier, degraded=reason)
        return RankedList(
            user=user,
            query_category=query_category,
            items=items,
            scores=scores,
            latency_ms=latency_ms,
            model_version=self.engine.model_version,
            tier=tier,
        )

    def _flush_degraded(self, pending: List[PreparedQuery], exc: Exception) -> List[RankedList]:
        """Answer a whole failed flush one tier down.

        Each query keeps its own submit-time shortlist, so the prefilter
        tier still ranks personalized retrievals; without a cascade the
        popularity prior answers.  The flush therefore *never* raises —
        ``poll``/``replay`` drivers survive any scoring failure.
        """
        reason = f"flush:{type(exc).__name__}"
        results = [
            self._respond_degraded(
                q.user,
                q.query_category,
                TIER_PREFILTER if self.engine.cascade is not None else TIER_POPULARITY,
                reason,
                q.enqueue_time,
                trace=q.trace,
                candidates=q.candidates,
                gate=q.gate,
                state=q.state,
            )
            for q in pending
        ]
        if self.cache is not None:
            self.metrics.record_cache(self.cache.gates.stats)
        return results

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def flush(self) -> List[RankedList]:
        """Assemble every pending query's features in one vectorised join
        and score them in one model forward.

        Sampled traces get the shared micro-batched work attached: each
        opens a ``flush`` span holding the ``assemble`` join and the batched
        ``gate-flush`` forward (each timed once, recorded on every sampled
        trace) and the ``rank`` forward with one child span per fused kernel.
        """
        if not self._pending:
            return []
        pending, self._pending = self._pending, []

        for q in pending:
            q.queue_span.end()
        # (query, flush span) pairs for the sampled subset only — with
        # tracing off this list is empty and nothing below touches it.
        sampled = [
            (q, q.trace.begin("flush", batch_size=len(pending)))
            for q in pending
            if q.trace.sampled
        ]

        # Stale-retrieval guard: a model swap between submit and flush also
        # swaps the engine's cascade; candidates retrieved from the old
        # snapshot were chosen against embeddings the scoring model no
        # longer owns, so they are re-retrieved against the current one (no
        # features exist yet to go stale).  The sanctioned swap path
        # drains first, so this fires only on a swap that skipped the drain
        # — the retrieval analogue of the stale-gate guard below.
        for q in pending:
            if q.cascade is not self.engine.cascade:
                q.candidates = self.engine.retrieve(
                    q.query_category, user=q.user, state=q.state
                )
                q.gate = None
                q.cascade = self.engine.cascade

        # Stale-gate guard: a model swap between submit and flush bumps the
        # cache generation; any gate resolved under an older generation was
        # produced by the previous model and must not score this batch.
        if self.cache is not None:
            for q in pending:
                if q.gate is not None and q.gate_generation != self.cache.generation:
                    q.gate = None
                    q.gate_generation = self.cache.generation

        rank_spans = []
        try:
            self.injector.fire("batcher.flush", batch=len(pending))
            assemble_begin = self._clock()
            combined = self.engine.build_batches(
                [q.state for q in pending],
                [q.query_category for q in pending],
                [q.candidates for q in pending],
            )
            gate_begin = self._clock()
            for q, flush_span in sampled:
                q.trace.record_span("assemble", assemble_begin, gate_begin, parent=flush_span)
            gate_rows: Optional[np.ndarray] = None
            if self.engine.supports_session_gate:
                missing = self._resolve_gates(pending, combined)
                gate_end = self._clock()
                for q, flush_span in sampled:
                    q.trace.record_span(
                        "gate-flush", gate_begin, gate_end,
                        parent=flush_span, sessions=missing,
                    )
                gate_rows = np.stack([q.gate for q in pending])  # one row per session

            # ``begin`` nests each rank span under its trace's open flush
            # span; the hook fans every kernel's interval out to all of them.
            rank_spans = [
                (q.trace, q.trace.begin("rank", rows=combined.num_rows)) for q, _ in sampled
            ]
            scores = self.engine.score_candidates(
                combined, gate=gate_rows, step_hook=kernel_span_hook(*rank_spans)
            )
        except Exception as exc:
            # The batched forward (or its gate resolution) failed — degrade
            # every queued request one tier instead of losing the batch.
            # The shard's breaker counts the failure; enough of them in a
            # row and the cluster stops routing here until the cooldown.
            for _, rank_span in rank_spans:
                rank_span.end()
            for _, flush_span in sampled:
                flush_span.end()
            if self.breaker is not None:
                self.breaker.record_failure()
            return self._flush_degraded(pending, exc)
        if self.breaker is not None:
            self.breaker.record_success()
        for _, rank_span in rank_spans:
            rank_span.end()
        self.metrics.record_batch(len(pending))

        for _, flush_span in sampled:
            flush_span.end()

        results: List[RankedList] = []
        done = self._clock()
        offset = 0
        for q in pending:
            query_scores = scores[offset : offset + q.num_candidates]
            offset += q.num_candidates
            order = np.argsort(-query_scores, kind="stable")
            latency_ms = (done - q.enqueue_time) * 1000.0
            self.engine.record_query(latency_ms)
            self.metrics.record_query(latency_ms, now=done)
            self.metrics.record_tier(TIER_FULL)
            q.trace.finish(latency_ms=latency_ms, batch_size=len(pending), tier=TIER_FULL)
            results.append(
                RankedList(
                    user=q.user,
                    query_category=q.query_category,
                    items=q.candidates[order],
                    scores=query_scores[order],
                    latency_ms=latency_ms,
                    model_version=self.engine.model_version,
                )
            )
        if self.cache is not None:
            self.metrics.record_cache(self.cache.gates.stats)
        return results

    def _resolve_gates(self, pending: List[PreparedQuery], combined: SessionBatch) -> int:
        """Fill cache-missing gate vectors with ONE batched gate forward;
        returns how many were missing.

        The gate is candidate-independent (§III-F1), so each missing session
        contributes its row of the flush's session side to the gate batch.
        """
        missing = [row for row, q in enumerate(pending) if q.gate is None]
        if not missing:
            return 0
        # Resolved through the engine so the compiled gate plan (when one
        # exists) serves the cache, not the eager gate network.
        gates = self.engine.serving_gate(
            {key: rows[missing] for key, rows in combined.session.items()}
        )  # (len(missing), K)
        for row, gate in zip(missing, gates):
            q = pending[row]
            q.gate = gate
            if self.cache is not None:
                self.cache.put_gate(q.user, q.query_category, gate)
        return len(missing)
