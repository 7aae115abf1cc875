"""Search-engine serving simulator (paper §III-F2, Fig. 6).

Models the online loop: a user issues a query → the engine retrieves
candidate items → the ranking model scores every candidate → the engine
returns the ranked list.  Latency per query is measured so the deployment
benchmark can report the per-session gate optimization end to end.

Retrieval has two modes: the original popularity-biased sample within the
query category (like a non-personalized candidate generator), and — when a
:class:`~repro.retrieval.CascadeConfig` is attached — the two-stage
retrieval cascade of :mod:`repro.retrieval` (ANN item index + linear
prefilter), which keeps serving cost sublinear in catalog size and is
rebuilt from the model's weight snapshot on every hot swap.

The engine exposes two scoring paths:

* :meth:`SearchEngine.search` — the classic one-query-per-call loop: one
  full model forward (gate included) per query;
* :meth:`SearchEngine.score_candidates` + :meth:`SearchEngine.serving_gate`
  — the decomposed path used by the micro-batcher
  (:mod:`repro.serving.batcher`): the gate is evaluated once per session
  (and cached across sessions by :mod:`repro.serving.cache`), while the
  input network and experts run per candidate, matching the deployed design
  of §III-F1.

Both paths execute through the **compiled inference plan**
(:mod:`repro.infer`) by default — the training autodiff never runs in the
hot path.  Models with no registered compiler (the DNN/DIN/Category-MoE
baselines) fall back to the eager ``Tensor`` forward transparently, and
``compile=False`` forces the eager path for benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.ranking_model import RankingModel
from repro.data.features import (
    BehaviorEncoding,
    UserState,
    assemble_session,
    assemble_sessions,
    encode_behavior,
)
from repro.data.schema import SessionBatch
from repro.data.synthetic import World
from repro.infer import CompiledModel, CompileError, compile_model
from repro.obs import NULL_TRACE
from repro.obs.trace import kernel_span_hook
from repro.retrieval import CascadeConfig, RetrievalCascade
from repro.serving.context import FleetContext
from repro.serving.degrade import (
    TIER_FULL,
    TIER_POPULARITY,
    TIER_PREFILTER,
    popularity_floor,
)

__all__ = ["RankedList", "SearchEngine"]


@dataclass
class RankedList:
    """Result of one query: items sorted by predicted score (descending)."""

    user: int
    query_category: int
    items: np.ndarray  # 0-based item ids, ranked
    scores: np.ndarray  # predicted probabilities, same order
    latency_ms: float
    #: Which model version produced the scores (``None`` before the engine
    #: is told a version).  Stamped at scoring time, so hot-swap tests can
    #: assert no flush ever mixes versions.
    model_version: Optional[str] = None
    #: Degradation tier that produced this ranking (``full`` outside
    #: incidents — see :mod:`repro.serving.degrade`).
    tier: str = TIER_FULL


class SearchEngine:
    """Retrieval + ranking pipeline over a synthetic world.

    From ``ctx`` (:class:`~repro.serving.context.FleetContext`) the engine
    uses the ``tracer`` (:meth:`search` spans), the ``injector``
    (``engine.retrieve`` / ``cascade.build`` fault points) and the
    ``shadow_recall`` monitor: a head-sampled fraction of live cascade
    retrievals is re-run through the exhaustive oracle (full-model top-k over
    every category member — the ``nprobe="all"``/``prune=None`` surface)
    after the query is answered, measuring live recall@k.
    """

    def __init__(
        self,
        world: World,
        model: RankingModel,
        rng: np.random.Generator,
        candidates_per_query: Optional[int] = None,
        model_version: Optional[str] = None,
        compile: bool = True,
        cascade: Optional[CascadeConfig] = None,
        prebuilt_cascade: Optional[RetrievalCascade] = None,
        ctx: FleetContext = FleetContext(),
    ) -> None:
        self.world = world
        self._rng = rng
        self.injector = ctx.injector
        self.shadow_recall = ctx.shadow_recall
        self.tracer = ctx.tracer
        self.candidates_per_query = candidates_per_query or world.config.items_per_session
        # The world's catalog table: category members, the popularity prior
        # and its reciprocal (retrieval's race scale), computed once per world.
        self._by_category = world.category_items
        self._category_pop_probs = world.category_popularity
        self._category_inv_probs = world.category_inverse_popularity
        self.queries_served = 0
        self.total_latency_ms = 0.0
        self.compile_enabled = bool(compile)
        self.cascade_config = cascade
        # set_model assigns model / compiled_model / cascade / model_version.
        # ``prebuilt_cascade`` lets a cluster share one cascade build across
        # its shards (each shard receiving a worker view).
        self.set_model(model, model_version, cascade=prebuilt_cascade)

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    def set_model(
        self,
        model: RankingModel,
        version: Optional[str] = None,
        cascade: Optional[RetrievalCascade] = None,
    ) -> None:
        """Switch the serving model, recompiling its inference plan.

        ``cascade`` accepts a prebuilt retrieval cascade for **this model's
        snapshot** (a :meth:`~repro.retrieval.RetrievalCascade.worker_view`
        of a shared build — :meth:`repro.serving.fleet.Fleet.swap_model`
        builds once and hands each shard a view); when omitted
        and a cascade config is attached, the engine builds its own.

        Compilation — and, when a :class:`~repro.retrieval.CascadeConfig` is
        attached, the rebuild of the retrieval cascade's ANN index from the
        new model's item-embedding snapshot — happens *before* anything is
        swapped; then model, plan, cascade, and version are assigned
        together.  A query scored after this call can never see the new
        model with the old plan, nor retrieve against embeddings the scoring
        model no longer owns (stale-embedding retrieval is the cascade
        analogue of a stale gate vector).  Callers that batch queries must
        drain pending work first so no flush mixes versions, and must
        invalidate any cache holding gate vectors from the old model —
        :meth:`repro.serving.shard.ShardWorker.swap` does both.
        Models with no registered compiler serve through the eager forward.
        """
        # "cascade.build" injection point: an index-build exception here
        # (mid-hot-swap) leaves the engine untouched — nothing is assigned
        # until every build step below has succeeded — so the caller's
        # rollback sees a consistent old-model shard.
        self.injector.fire("cascade.build", version=version)
        compiled: Optional[CompiledModel] = None
        if self.compile_enabled:
            try:
                compiled = compile_model(model)
            except CompileError:
                compiled = None
        if self.cascade_config is None:
            cascade = None
        elif cascade is None:
            # The build's probe/calibration passes score through the plan
            # just compiled (the surface the fleet will serve), avoiding a
            # second compilation.
            cascade = RetrievalCascade.from_model(
                model,
                self.world,
                self.cascade_config,
                scorer=compiled if compiled is not None else model,
            )
        else:
            # A prebuilt view still points at its builder's gate plan —
            # mutable scratch that must not be shared across workers; bind
            # this engine's own scoring surface instead.
            cascade.bind_scorer(compiled if compiled is not None else model)
        self.model = model
        self.compiled_model = compiled
        self.cascade = cascade
        self.model_version = version

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def retrieve(
        self,
        query_category: int,
        user: Optional[int] = None,
        gate: Optional[np.ndarray] = None,
        trace=NULL_TRACE,
        state: Optional[UserState] = None,
    ) -> np.ndarray:
        """Candidate generation: the retrieval cascade when one is attached,
        the popularity-biased in-category sample otherwise.

        With a cascade (and a ``user`` to personalize for), stage 1+2 run:
        the ANN index probes the category's IVF cells and the prefilter
        prunes to the survivors the full model will rank — sublinear in
        category size.  ``gate`` forwards a cached §III-F1 session-gate
        vector (the micro-batcher passes its session-cache entry) so the
        cascade skips its own gate evaluation; ``state`` likewise forwards
        the user's cached tables to the prefilter's cross features.  In the
        cascade's exhaustive-parity mode this returns every category member in
        ascending id order, exactly like the sampling path's small-category
        case.

        Without a cascade, when the category holds no more items than
        ``candidates_per_query`` the whole category is returned (no
        sampling, no RNG draw) — small categories always expose their full
        inventory.  Otherwise ``candidates_per_query`` members are drawn
        without replacement, popularity-weighted, by an exponential race:
        each member gets the key ``E / p`` with ``E ~ Exp(1)`` and the ``k``
        smallest keys win.  That is the Gumbel-top-k trick without the logs
        (Kool et al., 2019), the same distribution as successive sampling
        (numpy's ``choice`` with ``replace=False, p=p``) in one fixed-size
        draw.  The ``1 / p`` scales live on the world's catalog table
        (:attr:`~repro.data.synthetic.World.category_inverse_popularity`),
        computed once per world.  The winners come back in no particular
        order: the ranker orders them.
        """
        members = self._by_category[query_category]
        if members.size == 0:
            raise ValueError(f"category {query_category} has no items")
        self.injector.fire("engine.retrieve", category=int(query_category))
        if self.cascade is not None and user is not None:
            candidates = self.cascade.retrieve(
                user, query_category, gate=gate, trace=trace, state=state
            )
            if self.shadow_recall is not None and self.shadow_recall.should_sample():
                with trace.span("shadow-recall") as span:
                    recall = self._shadow_probe(user, query_category, candidates)
                    span.set(recall=recall, k=self.shadow_recall.k)
            return candidates
        k = self.candidates_per_query
        if members.size <= k:
            return members.copy()
        keys = self._rng.standard_exponential(members.size)
        keys *= self._category_inv_probs[query_category]
        return members[np.argpartition(keys, k - 1)[:k]]

    def _shadow_probe(
        self, user: int, query_category: int, candidates: np.ndarray
    ) -> float:
        """Measure live recall@k of ``candidates`` vs the exhaustive oracle.

        The oracle is the same surface :class:`~repro.retrieval.RetrievalProbe`
        checks at canary time — the serving model's own top-``k`` over
        *every* category member (what the cascade's exhaustive-parity mode
        ``nprobe="all"``/``prune=None`` would rank) — but computed on a live
        query, after the cascade's answer already shipped.  Off the hot path
        by sampling, not by threading: the ~0.5% default rate keeps the full
        category scan amortized to noise (gated in
        ``benchmarks/test_serving_throughput.py``).
        """
        monitor = self.shadow_recall
        members = self._by_category[query_category]
        batch = self.build_batch(user, query_category, members)
        full_scores = self._score_candidates(batch, None)
        k = min(monitor.k, members.size)
        oracle = members[np.argsort(-full_scores, kind="stable")[:k]]
        kept = set(int(item) for item in candidates)
        recall = sum(1 for item in oracle.tolist() if item in kept) / k
        monitor.observe(recall)
        return recall

    def degraded_ranking(
        self,
        user: int,
        query_category: int,
        tier: str,
        candidates: Optional[np.ndarray] = None,
        gate: Optional[np.ndarray] = None,
        state: Optional[UserState] = None,
    ) -> tuple:
        """Best-effort ``(items, scores, tier)`` below the full tier.

        ``prefilter`` ranks with the cascade's calibrated linear prefilter
        (:meth:`~repro.retrieval.RetrievalCascade.score_candidates`) —
        personalized, no full-model forward.  ``popularity`` ranks by the
        category's precomputed popularity prior — no model at all, no RNG,
        fully deterministic.  A requested tier that cannot be served (no
        cascade attached, prefilter itself failing) falls through to
        popularity; the tier actually used is returned.

        ``candidates`` restricts ranking to an already-retrieved shortlist
        (the deadline-budget path reuses its submit-time retrieval); when
        omitted the popularity tier ranks the whole category and the
        prefilter tier retrieves through the cascade first.  ``gate`` and
        ``state`` are the session gate and user tables the request already
        resolved: with them the prefilter tier tabulates nothing and never
        calls the model it is degrading away from.
        """
        if tier == TIER_PREFILTER and self.cascade is not None and user is not None:
            try:
                if candidates is None:
                    shortlist = self.cascade.retrieve(
                        user, query_category, gate=gate, state=state
                    )
                else:
                    shortlist = np.asarray(candidates)
                scores = np.asarray(
                    self.cascade.score_candidates(
                        user, query_category, shortlist, gate=gate, state=state
                    ),
                    dtype=np.float32,
                )
                order = np.argsort(-scores, kind="stable")
                return shortlist[order], scores[order], TIER_PREFILTER
            except Exception:
                pass  # the floor of the ladder below never fails
        items, scores = popularity_floor(
            self._by_category[query_category],
            self._category_pop_probs[query_category],
            self.candidates_per_query,
            candidates,
        )
        return items, scores, TIER_POPULARITY

    def build_batch(
        self,
        user: int,
        query_category: int,
        candidates: np.ndarray,
        spec: int = 1,
        behavior: Optional[BehaviorEncoding] = None,
    ) -> SessionBatch:
        """Feature assembly for (user, query, candidates) — the feature dump
        step of Fig. 6, the session side stored once (``.flat()`` is the
        per-candidate batch).  ``behavior`` accepts a cached encoding so hot
        users skip re-encoding their history."""
        return assemble_session(
            self.world, user, query_category, candidates, spec=spec, behavior=behavior
        )

    def build_batches(
        self, states: Sequence[UserState], categories: Sequence[int], candidate_lists
    ) -> SessionBatch:
        """:meth:`build_batch` for a whole flush in one vectorised join:
        session ``s`` is ``states[s]``'s user querying ``categories[s]`` over
        ``candidate_lists[s]``."""
        return assemble_sessions(self.world, states, categories, candidate_lists)

    def user_state(self, user: int) -> UserState:
        """The user half of every assembly: feature tables plus behaviour
        encoding, all history-only (cacheable)."""
        return UserState(self.world, user, self.encode_user_behavior(user))

    def encode_user_behavior(self, user: int) -> BehaviorEncoding:
        """Padded behaviour-sequence arrays for one user (cacheable)."""
        return encode_behavior(self.world, user, self.world.config.max_seq_len)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score_candidates(
        self,
        batch: SessionBatch,
        gate: Optional[np.ndarray] = None,
        step_hook=None,
    ) -> np.ndarray:
        """Predicted probabilities for every candidate row of ``batch``.

        ``gate`` is an optional precomputed gate matrix with one row per
        session of ``batch`` (or a single ``(K,)`` vector, applied to every
        row); models that support gate overrides skip the gate network
        entirely — the §III-F1 serving optimization.  Scoring executes the
        compiled plan when one exists; eager otherwise.

        ``step_hook`` is a per-kernel hook (``InferencePlan.step_hook``)
        installed on the compiled score plan for this call only — the
        tracer's :func:`~repro.obs.trace.kernel_span_hook` attaches
        per-kernel spans to sampled requests this way.  It is ignored on the
        eager path (no kernel boundaries to time).
        """
        if step_hook is not None and self.compiled_model is not None:
            plan = self.compiled_model.score_plan
            previous, plan.step_hook = plan.step_hook, step_hook
            try:
                return self._score_candidates(batch, gate)
            finally:
                plan.step_hook = previous
        return self._score_candidates(batch, gate)

    def _score_candidates(self, batch: SessionBatch, gate: Optional[np.ndarray]) -> np.ndarray:
        scorer = self.compiled_model if self.compiled_model is not None else self.model
        if gate is None or not self.supports_session_gate:
            return scorer.predict_proba(batch)
        gate = np.asarray(gate, dtype=np.float32)
        return scorer.predict_proba(batch, gate_override=gate[None] if gate.ndim == 1 else gate)

    @property
    def supports_session_gate(self) -> bool:
        """Whether the model's gate can be computed once per session."""
        return bool(getattr(self.model, "gate_is_candidate_independent", False))

    def serving_gate(self, batch) -> np.ndarray:
        """Cache-ready gate matrix: one row per session of a session batch,
        or per row of a plain batch of session-side arrays.

        Runs the compiled **gate plan** (the candidate-independent subgraph
        split out at compile time) when available, so the micro-batcher's
        batched gate resolution and the session cache are fed by the same
        compiled path that scores candidates.
        """
        if self.compiled_model is not None:
            return self.compiled_model.serving_gate(batch)
        return self.model.serving_gate(batch)

    def search(self, user: int, query_category: int) -> RankedList:
        """Serve one query end to end and record latency.

        With a cascade attached, the session gate is resolved **once** and
        shared by retrieval and scoring (§III-F1: the gate is a per-session
        quantity; evaluating it per stage would pay the cost twice).

        When the engine's tracer samples the request, every stage (gate,
        retrieve with cascade sub-stages, assemble, rank with per-kernel
        children) lands as a span on the exported trace.
        """
        trace = self.tracer.trace("search", user=int(user), category=int(query_category))
        start = time.perf_counter()
        state = self.user_state(user)  # shared by retrieval and assembly
        gate = None
        if self.cascade is not None and self.supports_session_gate:
            with trace.span("gate", source="resolve"):
                gate = self.cascade.resolve_gate(user, query_category, state=state)
        with trace.span("retrieve", cascade=self.cascade is not None) as retrieve_span:
            candidates = self.retrieve(
                query_category, user=user, gate=gate, trace=trace, state=state
            )
            retrieve_span.set(candidates=int(candidates.size))
        with trace.span("assemble"):
            batch = self.build_batches([state], [query_category], [candidates])
        if gate is None and self.supports_session_gate:
            # From the session rows, as the micro-batcher and the cascade
            # resolve it: one gate path, so exhaustive parity is bitwise.
            gate = self.serving_gate(batch.session)
        with trace.span("rank", rows=int(candidates.size)) as rank_span:
            scores = self.score_candidates(
                batch, gate=gate, step_hook=kernel_span_hook((trace, rank_span))
            )
        order = np.argsort(-scores, kind="stable")
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.record_query(elapsed_ms)
        trace.finish(latency_ms=elapsed_ms)
        return RankedList(
            user=user,
            query_category=query_category,
            items=candidates[order],
            scores=scores[order],
            latency_ms=elapsed_ms,
            model_version=self.model_version,
        )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def record_query(self, latency_ms: float) -> None:
        """Account one served query (also used by the micro-batcher)."""
        self.queries_served += 1
        self.total_latency_ms += latency_ms

    @property
    def avg_latency_ms(self) -> float:
        """Average serving latency over all queries so far."""
        if self.queries_served == 0:
            return 0.0
        return self.total_latency_ms / self.queries_served
