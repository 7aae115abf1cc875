"""The two-stage retrieval cascade: ANN item index → prefilter → full ranker.

Production rankers of this paper's class are the *last* stage of a cascade
(JD's AMoE serves behind a product-search retrieval stage; Yandex's
personalized ranker is explicitly the final stage of a candidate-generation
→ ranking cascade).  Scoring every catalog item with the full model is
linear in catalog size; the cascade makes the pipeline sublinear:

1. **ANN retrieval** — the :class:`~repro.retrieval.index.ItemIndex` probes
   ``nprobe`` IVF cells of the query category and returns the best
   ``retrieve_n`` ids by the cascade score below;
2. **prefilter** — the :class:`~repro.retrieval.prefilter.Prefilter`
   re-ranks those N by stage 1's score plus the user x item cross-feature
   boost the index cannot express as a dot product, and keeps the top
   ``prune`` survivors;
3. **full ranking** — the compiled AW-MoE scores only the survivors.

The cheap score both stages share is one inner product per item,

    score(u, i) = <session_vec(u, query), x_i>  ( + cross boost in stage 2 )

over an **item vector space built from the model snapshot**:

* **per-expert probe scores** ``s̃_{a,k}(i)``: every expert's score for
  item ``i`` under a fixed reference session (an empty-history user),
  evaluated once per build **per age group** ``a`` (the age one-hot is a
  model input, and a trained ranker reorders the catalog tail noticeably
  across ages — for an empty-history user the age-matched probe reproduces
  their ranking *exactly*).  The session vector activates only its own age
  block and weights it both statically and **through the user's own
  session gate** ``g(u)`` (candidate-independent in search mode, §III-F1 —
  the same vector the serving cache stores), so the retrieval score
  inherits the model's personalization backbone ``Σ_k g_k·s_k`` at
  dot-product cost;
* the item-id **embedding** row of the model's table (bias-corrected: its
  contribution is weighted against the session's mean embedding, not the
  raw norm, so hot high-norm embeddings cannot dominate every query);
* the **popularity prior** (the per-category sampling probability the
  non-cascade retriever uses) and the item's **sales** signal;
* the item's dense profile ``d_i`` and its square ``d_i²`` — with the
  session vector carrying ``(2·p_u, -1)`` weights this scores the quadratic
  profile match ``-(d_i - p_u)²`` around the user's historical preference
  point ``p_u`` (a price-sensitive user peaks at low price, a
  trend-follower at high popularity).

The weights combining these terms are **calibrated at build time**: a ridge
regression fits them to the full model's logits on sampled (user, item)
probe pairs — a few exhaustive queries' worth of compute, amortized over
the build — with the top scorers of every probe query up-weighted
(retrieval cares about the head of the ranking, not mean error) and
separate weights for three behaviour regimes: brand-new users (no history —
their scores are a pure function of item/age/query, which the age-matched
gate x probe term reproduces almost exactly) and the paper's Fig. 2
category-new vs category-old split.  The regime is constant within a query
and selects the weight vector at retrieval time.

``nprobe="all"`` + ``prune=None`` is **exhaustive-parity mode**: stage 1
returns the whole category, stage 2 passes everything through, and the full
model scores exactly what the pre-cascade pipeline scored — bitwise, since
both produce candidates in ascending id order (tests and canaries rely on
this oracle).

A cascade is a snapshot of one model version.  It is built (and rebuilt on
every hot swap) by :meth:`repro.serving.engine.SearchEngine.set_model`,
which assigns model, plan, and cascade together — retrieval can never serve
embeddings of a model that is no longer scoring.  The fleet answers nothing
meanwhile, so the build scores through the request path's own fast paths.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from repro.data.features import (
    BRAND_CAP,
    ITEM_CAP,
    SHOP_CAP,
    UserState,
    assemble_session,
    assemble_sessions,
    session_side,
)
from repro.data.synthetic import AGE_GROUPS
from repro.obs.trace import NULL_TRACE
from repro.retrieval.index import ItemIndex
from repro.retrieval.prefilter import Prefilter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.synthetic import World

__all__ = ["CascadeConfig", "RetrievalCascade", "RetrievalProbe"]

#: Calibration rows whose target logit falls in the top tail of their probe
#: query get up-weighted by ``_TOP_WEIGHT``: retrieval recall lives at the
#: head of the ranking, so the fit trades mean accuracy for head accuracy.
_TOP_QUANTILE = 0.95
_TOP_WEIGHT = 10.0
#: Ridge regularizer of the calibration fit.
_RIDGE_LAMBDA = 1.0


@dataclass(frozen=True)
class CascadeConfig:
    """Knobs of the two-stage cascade (recall on the left, speed on the right).

    ``nprobe="all"`` with ``prune=None`` selects exhaustive-parity mode.
    """

    #: Stage-1 retrieval depth N: ids the ANN index returns per query.
    retrieve_n: int = 2048
    #: Stage-2 survivors K the full model ranks; ``None`` disables pruning.
    prune: Optional[int] = 1024
    #: IVF cells probed per query; ``"all"`` scans the whole category.
    nprobe: Union[int, str] = 32
    #: Build-time calibration: (user, category) probe queries sampled ...
    calibration_queries: int = 128
    #: ... and items scored per probe query (capped by category size).
    calibration_items: int = 256
    #: Seeds the IVF k-means and the calibration sampling (builds are
    #: deterministic given the snapshot).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retrieve_n < 1:
            raise ValueError(f"retrieve_n must be >= 1, got {self.retrieve_n}")
        if self.prune is not None and self.prune < 1:
            raise ValueError(f"prune must be >= 1 or None, got {self.prune}")
        if self.nprobe != "all" and int(self.nprobe) < 1:
            raise ValueError(f"nprobe must be >= 1 or 'all', got {self.nprobe!r}")
        if self.calibration_queries < 2:
            raise ValueError("calibration_queries must be >= 2")
        if self.calibration_items < 2:
            raise ValueError("calibration_items must be >= 2")

    @staticmethod
    def exhaustive() -> "CascadeConfig":
        """Parity mode: scan everything, prune nothing (the test oracle)."""
        return CascadeConfig(retrieve_n=1, prune=None, nprobe="all")

    def with_exhaustive_stage1(self) -> "CascadeConfig":
        """Copy with an exact stage 1 (only the prefilter prunes)."""
        return replace(self, nprobe="all")

    @property
    def is_exhaustive(self) -> bool:
        return self.nprobe == "all" and self.prune is None


def _logits(scorer, batch) -> np.ndarray:
    """Full-model log-odds for a batch, via whatever scoring surface the
    caller serves through (compiled plan or eager model)."""
    proba = np.asarray(scorer.predict_proba(batch), dtype=np.float64)
    proba = np.clip(proba, 1e-7, 1.0 - 1e-7)
    return np.log(proba) - np.log1p(-proba)


class RetrievalCascade:
    """One model version's retrieval stack: vector space, index, prefilter.

    Build order (all deterministic given the model snapshot and config):

    1. snapshot the item-embedding table; assemble the raw feature blocks;
    2. **probe pass** — every expert scores every item once per age group
       under a fixed empty-history reference session, in one-session chunks
       through the scorer's ``expert_scores`` (on a compiled plan the
       session side runs once per chunk, not per item); the item matrix is
       standardized;
    3. **calibration** — top-weighted ridge fit of the per-regime score
       weights against full-model logits on sampled (user, item) pairs,
       scored a few probe queries per flush;
    4. build the IVF index (k-means per category) and the prefilter.

    Steps 2–3 score through ``scorer`` (the plan the engine serves with);
    ``stats()["build_seconds"]`` splits the build's wall time by phase.
    """

    # Vector-space layout:
    # [prior, sales, expert_probes(A*K), emb(E), dense(4), dense²(4)]
    # where A = age groups and K = experts; a session reads only its own
    # age's K-column probe block.
    _NUM_STATIC = 2  # popularity prior, sales
    _NUM_DENSE = 4  # price, popularity, quality, style (repro.data.features.item_dense)

    def __init__(self, world: "World", model, config: CascadeConfig, scorer=None) -> None:
        """Build from a live model.  ``scorer`` optionally supplies the
        scoring surface for the gate/calibration passes (the engine hands
        over its already-compiled plan so the build does not recompile);
        defaults to the eager model."""
        self.world = world
        self.config = config
        self._model = model
        self._scorer = model if scorer is None else scorer

        # -- raw feature blocks (the embedding copy mirrors the inference
        # compiler's packing; row 0 of the table is the padding id).
        table = model.embedder.item.weight.detach_numpy()
        self._emb = np.array(table[1 : world.num_items + 1], dtype=np.float32, order="C")
        self.embed_dim = int(self._emb.shape[1])
        self._dense = world.item_slab.dense
        self._by_category = world.category_items
        priors = np.zeros(world.num_items, dtype=np.float32)
        for members, probs in zip(self._by_category, world.category_popularity):
            # The world's popularity prior, rescaled by partition size so
            # "uniform within category" scores ~1 regardless of catalog scale.
            priors[members] = probs * members.size

        # The age one-hot block width is fixed by the feature schema, not by
        # which ages this world happened to sample.
        self.num_ages = len(AGE_GROUPS)
        marks = [time.perf_counter()]
        expert_probes = self._probe_pass()
        #: Probe columns per age block (experts, or 1 for gateless models).
        self.num_probes = int(expert_probes.shape[1]) // self.num_ages
        raw = np.concatenate(
            [
                priors[:, None],
                world.item_sales[:, None].astype(np.float32),
                expert_probes,
                self._emb,
                self._dense,
                self._dense**2,
            ],
            axis=1,
        ).astype(np.float32)
        # Standardize columns so k-means geometry and the ridge fit see
        # comparably scaled axes; the per-query constant mean offset is
        # irrelevant to ranking, the scale is folded into session vectors.
        self._scale = (raw.std(axis=0) + 1e-6).astype(np.float32)
        self.item_vectors = np.ascontiguousarray(
            (raw - raw.mean(axis=0)) / self._scale, dtype=np.float32
        )
        self.dim = int(self.item_vectors.shape[1])

        marks.append(time.perf_counter())
        self._weights, self._count_weights, self.calibration_r2 = self._calibrate()
        marks.append(time.perf_counter())

        self.index = ItemIndex(
            self.item_vectors,
            world.item_category,
            world.config.num_categories,
            seed=config.seed,
        )
        self.prefilter = Prefilter(self.item_vectors)
        marks.append(time.perf_counter())
        #: Wall seconds per build phase, reported by :meth:`stats` (``probe``
        #: runs up to the standardized item matrix).
        self.build_seconds = dict(zip(("probe", "calibrate", "index"), np.diff(marks).tolist()))

    @classmethod
    def from_model(
        cls, model, world: "World", config: CascadeConfig, scorer=None
    ) -> "RetrievalCascade":
        return cls(world, model, config, scorer=scorer)

    def worker_view(self) -> "RetrievalCascade":
        """A per-worker handle onto this build's immutable snapshot.

        Everything expensive about a cascade — the probe pass, the
        calibration fit, the k-means index — produces *read-only* state
        (item vectors, slabs, weights) that replicas can share.  The view
        shares it and gets its own :class:`Prefilter` over the same vectors,
        so a sharded fleet pays for one build per swap instead of one per
        shard while each shard's ``prefilter.prune`` stays a separate bound
        method (the perf harness wraps it once per shard).

        The view still references the builder's scorer (whose gate plan is
        mutable scratch) until the owning worker calls :meth:`bind_scorer`
        with its own — :meth:`repro.serving.engine.SearchEngine.set_model`
        does so with the plan it just compiled.
        """
        view = copy.copy(self)
        view.prefilter = Prefilter(self.item_vectors)
        return view

    def bind_scorer(self, scorer) -> None:
        """Point query-time gate evaluation at this worker's own scoring
        surface.  Plans own mutable scratch, so a shared cascade view must
        not run the builder's gate plan — each worker binds the plan it
        serves with (the gate is a pure function of the weights, so any
        scorer compiled from the same snapshot yields identical vectors).
        """
        self._scorer = scorer

    def detach_for_publish(self) -> "RetrievalCascade":
        """A picklable twin of this build for shared-memory publishing.

        The expensive build output — item vectors, index slabs, calibration
        weights, the model's weight arrays — is plain numpy and ships
        zero-copy through a :class:`~repro.infer.slabs.SnapshotSlab`.  Two
        per-worker members are dropped: the prefilter (rebuilt by
        :meth:`worker_view` on the attaching side) and the scorer, which
        holds compiled-plan closures (each worker binds the plan it compiles
        via :meth:`bind_scorer`, exactly as in-process shards do).
        """
        detached = copy.copy(self)
        detached.prefilter = None
        detached._scorer = None
        return detached

    # ------------------------------------------------------------------
    # build passes
    # ------------------------------------------------------------------
    @property
    def _probe_user(self) -> int:
        """Reference session for the probe pass: the emptiest history in the
        world (deterministic), so the probe isolates the model's
        candidate-dependent pathway from personalization."""
        lengths = [len(h) for h in self.world.histories]
        return int(np.argmin(lengths))

    @property
    def _build_rows(self) -> int:
        """Rows per build-time scoring call: what a one-session serving flush
        ranks (``prune`` survivors, else a whole category).  The serving
        plan does the build; scoring in serving's shapes gives it the floats
        a serving flush gives and keeps the plan's arena under serving's
        high-water mark."""
        return self.config.prune or max(members.size for members in self._by_category)

    def _probe_pass(self) -> np.ndarray:
        """Per-(age, expert) scores of every item in its own category under
        the reference session, through the scorer's ``expert_scores``: on a
        compiled plan the behaviour side of each one-session chunk runs once,
        not once per item.

        Each chunk is assembled once, then the age one-hot block of
        ``other_features`` is patched per age group (a model input the
        reference user fixes otherwise).  Models without an expert pool (the
        single-FFN baselines) contribute their logit as one pseudo-expert.
        """
        state = UserState(self.world, self._probe_user)
        has_experts = hasattr(self._scorer, "expert_scores")
        eager = self._scorer is self._model  # whose ``expert_scores`` reads flat rows
        columns = None
        for cat, members in enumerate(self._by_category):
            if members.size == 0:
                continue
            rows = min(self._build_rows, members.size)
            # Equal-shape chunks; the last one steps back over rows already
            # scored rather than score a remainder in a shape serving never runs.
            for start in [*range(0, members.size - rows, rows), members.size - rows]:
                chunk = members[start : start + rows]
                batch = assemble_session(self.world, state.user, cat, chunk, state=state)
                for age in range(self.num_ages):
                    batch["other_features"][:, 1 : 1 + self.num_ages] = 0.0
                    batch["other_features"][:, 1 + age] = 1.0
                    if has_experts:
                        scores = self._scorer.expert_scores(batch.flat() if eager else batch)
                    else:
                        scores = _logits(self._scorer, batch)[:, None]
                    if columns is None:
                        shape = (self.world.num_items, self.num_ages, scores.shape[1])
                        columns = np.zeros(shape, dtype=np.float32)
                    columns[chunk, age] = scores
        if columns is None:  # pragma: no cover - needs a world with zero items
            columns = np.zeros((self.world.num_items, self.num_ages, 1), dtype=np.float32)
        return columns.reshape(self.world.num_items, -1)

    def resolve_gate(
        self,
        user: int,
        query_category: int,
        gate: Optional[np.ndarray] = None,
        state: Optional[UserState] = None,
    ) -> Optional[np.ndarray]:
        """The session-gate vector retrieval scores with: the supplied
        cached vector when there is one, else one gate-plan evaluation
        (``None`` for models without a candidate-independent gate), reading
        the behaviour encoding off ``state`` when the caller holds one.

        Callers that also *score* with the gate (the engine's single-query
        path, the micro-batcher) resolve it here once and pass it both to
        :meth:`retrieve` and to the ranker — §III-F1's one-gate-per-session
        economy extended across the whole cascade.
        """
        if gate is not None:
            return gate
        return self._session_gate(state or UserState(self.world, user), query_category)

    @property
    def _has_session_gate(self) -> bool:
        return getattr(self._model, "gate_is_candidate_independent", False)

    def _session_gate(self, state: UserState, query_category: int) -> Optional[np.ndarray]:
        """The user's session gate ``g`` (§III-F1) — the expert-activation
        vector the full model will apply to every candidate of this session.
        ``None`` when the model's gate is candidate-dependent or absent
        (baselines): the interaction block then stays zero and retrieval
        falls back to the statically weighted expert probes.
        """
        if not self._has_session_gate:
            return None
        # The gate reads the session side only; no candidate is assembled.
        session = session_side(self.world, state.user, query_category, behavior=state.behavior)
        return np.asarray(self._scorer.serving_gate(session)[0], dtype=np.float32)

    #: Calibration regimes, constant within a query → select the weight set.
    #: New users' scores are a pure function of (item, age, query) — their
    #: regime discovers the near-exact gate x age-probe solution — while the
    #: other two mirror the paper's Fig. 2 category-new/old split.
    _REGIME_NEW_USER, _REGIME_CATEGORY_NEW, _REGIME_CATEGORY_OLD = 0, 1, 2
    _REGIMES = (0, 1, 2)

    def _regime(self, state: UserState, query_category: int) -> int:
        if state.length == 0:
            return self._REGIME_NEW_USER
        if state.category_count[query_category] > 0:
            return self._REGIME_CATEGORY_OLD
        return self._REGIME_CATEGORY_NEW

    @property
    def _num_terms(self) -> int:
        # static + probes + gate-interacted probes + emb-dot + quad-match + counts
        # (the calibration sees only the session's age-matched probe block).
        return self._NUM_STATIC + 2 * self.num_probes + 1 + self._NUM_DENSE + 4

    def _age_block(self, user: int) -> slice:
        """The user's age-matched probe columns in the item matrix."""
        age = int(self.world.user_age[user])
        start = self._NUM_STATIC + age * self.num_probes
        return slice(start, start + self.num_probes)

    def _pair_features(
        self, state: UserState, items: np.ndarray, gate: Optional[np.ndarray]
    ) -> np.ndarray:
        """Calibration design matrix: one row per item, the session-resolved
        value of every scored term (vector-space terms first, then the
        cross-feature counters)."""
        history = state.items
        d = self._dense[items]
        n_static, n_probes = self._NUM_STATIC, self.num_probes
        probe_cols = self.item_vectors[items][:, self._age_block(state.user)]
        features = np.zeros((items.size, self._num_terms), np.float32)
        features[:, :n_static] = self.item_vectors[items][:, :n_static]
        features[:, n_static : n_static + n_probes] = probe_cols
        if gate is not None:
            features[:, n_static + n_probes : n_static + 2 * n_probes] = (
                probe_cols * gate[None, :]
            )
        cursor = n_static + 2 * n_probes
        if len(history):
            features[:, cursor] = self._emb[items] @ self._emb[history].mean(axis=0)
            profile = self._dense[history].mean(axis=0)
            features[:, cursor + 1 : cursor + 1 + self._NUM_DENSE] = 2.0 * profile * d - d**2
            features[:, cursor + 1 + self._NUM_DENSE :] = self._cross_counts(state, items)
        return features

    def _cross_counts(self, state: UserState, items: np.ndarray) -> np.ndarray:
        """The cheap user x item cross features (capped counters + price
        gap), mirroring their ``FEATURE_NAMES`` counterparts the full model
        reads — capped where :func:`~repro.data.features.assemble_sessions`
        caps them, so the boost saturates exactly where the model's feature
        does.  O(N) gathers from the user's tables per query, inexpressible
        as a dot product against a static item vector."""
        world = self.world
        out = np.empty((items.size, 4), dtype=np.float32)
        out[:, 0] = np.minimum(state.brand_count[world.item_brand[items]], BRAND_CAP)
        out[:, 1] = np.minimum(state.shop_count[world.item_shop[items]], SHOP_CAP)
        out[:, 2] = np.minimum(state.repeat_counts(items), ITEM_CAP)
        out[:, 3] = state.price_gap(world, items)
        return out

    def _calibration_rows(self) -> dict:
        """Per regime, the ``(design, target, sample_weight)`` blocks of the
        sampled probe queries, scored through the serving surface a few
        queries per flush."""
        config, world = self.config, self.world
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xCA11]))
        rows: dict = {regime: ([], [], []) for regime in self._REGIMES}
        categories = [cat for cat, m in enumerate(self._by_category) if m.size > 0]
        # Every draw first, in one fixed order (the build is a pure function
        # of snapshot and config), then scoring in flushes of whole queries.
        queries = []
        for _ in range(config.calibration_queries):
            user = int(rng.integers(0, world.num_users))
            cat = int(categories[rng.integers(0, len(categories))])
            members = self._by_category[cat]
            sample = (
                members
                if members.size <= config.calibration_items
                else rng.choice(members, size=config.calibration_items, replace=False)
            )
            queries.append((UserState(world, user), cat, sample))
        per_flush = max(1, self._build_rows // max(sample.size for _, _, sample in queries))
        for start in range(0, len(queries), per_flush):
            flush = queries[start : start + per_flush]
            states, cats, samples = zip(*flush)
            batch = assemble_sessions(world, states, cats, samples)
            targets = _logits(self._scorer, batch)
            gates = self._scorer.serving_gate(batch.session) if self._has_session_gate else None
            for s, (state, cat, sample) in enumerate(flush):
                target = targets[batch.bounds[s] : batch.bounds[s + 1]]
                # Head-weighted: what matters is whether a query's top scorers
                # land in the survivor set, not the mean error over the tail.
                sample_weight = np.where(
                    target >= np.quantile(target, _TOP_QUANTILE), _TOP_WEIGHT, 1.0
                )
                regime = self._regime(state, cat)
                gate = None if gates is None else gates[s].astype(np.float32)
                rows[regime][0].append(self._pair_features(state, sample, gate))
                rows[regime][1].append(target)
                rows[regime][2].append(sample_weight)
        return rows

    def _calibrate(self):
        """Top-weighted ridge fit of the cheap score against full-model logits.

        Returns per-regime ``(weights, count_weights)`` plus the in-sample
        R² (reported via :meth:`stats`; a diagnostic, not a gate).  A regime
        with no sampled rows inherits its nearest neighbour's fit, which
        keeps tiny test worlds working.
        """
        num_terms = self._num_terms
        rows = self._calibration_rows()
        fits: dict = {}
        r2: dict = {}
        for regime in self._REGIMES:
            if not rows[regime][0]:
                continue
            design = np.concatenate(rows[regime][0]).astype(np.float64)
            target = np.concatenate(rows[regime][1]).astype(np.float64)
            sample_weight = np.concatenate(rows[regime][2]).astype(np.float64)
            scale = design.std(axis=0) + 1e-6
            z = (design - design.mean(axis=0)) / scale
            centered = target - np.average(target, weights=sample_weight)
            weighted_z = z * sample_weight[:, None]
            gram = z.T @ weighted_z + _RIDGE_LAMBDA * np.eye(num_terms)
            weights = np.linalg.solve(gram, weighted_z.T @ centered) / scale
            fits[regime] = weights.astype(np.float32)
            variance = np.var(target)
            prediction = design @ weights
            residual = (prediction - prediction.mean()) - (target - target.mean())
            r2[regime] = (
                float(1.0 - np.mean(residual**2) / variance) if variance > 0 else 0.0
            )
        if not fits:  # pragma: no cover - needs a world with zero categories
            fallback = np.zeros(num_terms, dtype=np.float32)
            fallback[self._NUM_STATIC] = 1.0
            fits = {regime: fallback for regime in self._REGIMES}
            r2 = {regime: 0.0 for regime in self._REGIMES}
        for regime in self._REGIMES:
            if regime not in fits:
                # A regime the sample never hit inherits its nearest
                # neighbour (new-user ← category-new ← category-old).
                for fallback in sorted(fits, key=lambda other: abs(other - regime)):
                    fits[regime] = fits[fallback]
                    r2[regime] = r2[fallback]
                    break
        weights = {regime: fit[: num_terms - 4] for regime, fit in fits.items()}
        count_weights = {regime: fit[num_terms - 4 :] for regime, fit in fits.items()}
        return weights, count_weights, r2

    # ------------------------------------------------------------------
    # session vectors
    # ------------------------------------------------------------------
    def session_vector(
        self,
        user: int,
        query_category: int,
        gate: Optional[np.ndarray] = None,
        state: Optional[UserState] = None,
    ) -> np.ndarray:
        """The calibrated query vector: term weights folded into one vector
        so both stages score with a single inner product per item.

        ``gate`` accepts a precomputed session-gate vector (the serving
        cache's §III-F1 entry); by default the gate plan runs on one row.
        An empty history zeroes the embedding/profile blocks — retrieval
        degrades to the static and gate-weighted expert-probe terms, the
        behaviour a candidate generator wants for brand-new users.
        """
        state = state or UserState(self.world, user)
        weights = self._weights[self._regime(state, query_category)]
        history = state.items
        vec = np.zeros(self.dim, dtype=np.float32)
        n_static, n_probes, n_dense = self._NUM_STATIC, self.num_probes, self._NUM_DENSE
        vec[:n_static] = weights[:n_static]
        # Expert-probe block: only the session's age-matched columns are
        # activated, with static + gate-interacted weights.  The probe
        # columns are standardized in both the item matrix and the
        # calibration design, so the weights apply directly.
        age_block = self._age_block(user)
        vec[age_block] = weights[n_static : n_static + n_probes]
        if gate is None:
            gate = self._session_gate(state, query_category)
        if gate is not None:
            vec[age_block] += weights[n_static + n_probes : n_static + 2 * n_probes] * gate
        cursor = n_static + 2 * n_probes
        probe_end = n_static + self.num_ages * n_probes
        if len(history):
            emb_block = slice(probe_end, probe_end + self.embed_dim)
            dense_block = slice(emb_block.stop, emb_block.stop + n_dense)
            square_block = slice(dense_block.stop, None)
            # Undo the item-matrix standardization per block: the stored
            # columns are (raw - mean) / scale, so multiplying the session
            # weight by the scale recovers the raw-feature inner product
            # (the subtracted mean is a per-query constant).
            vec[emb_block] = (
                weights[cursor] * self._emb[history].mean(axis=0) * self._scale[emb_block]
            )
            profile = self._dense[history].mean(axis=0)
            dense_weights = weights[cursor + 1 : cursor + 1 + n_dense]
            vec[dense_block] = dense_weights * 2.0 * profile * self._scale[dense_block]
            vec[square_block] = -dense_weights * self._scale[square_block]
        return vec

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def retrieve(
        self,
        user: int,
        query_category: int,
        gate: Optional[np.ndarray] = None,
        trace=NULL_TRACE,
        state: Optional[UserState] = None,
    ) -> np.ndarray:
        """Candidate ids for one (user, query) — the cascade's stages 1+2.
        ``state`` accepts the user's cached tables (the micro-batcher's).

        A sampled ``trace`` receives one span per sub-stage
        (``session-vector``, ``ivf-probe``, ``prefilter`` → ``prune``) so a
        slow retrieval can be attributed to the index probe vs the prune.
        """
        size = self.index.partition_size(query_category)
        if size == 0:
            raise ValueError(f"category {query_category} has no items")
        state = state or UserState(self.world, user)
        with trace.span("session-vector"):
            session_vec = self.session_vector(user, query_category, gate=gate, state=state)
        topn = size if self.config.is_exhaustive else min(self.config.retrieve_n, size)
        # Stage 2 re-ranks by the same inner product plus the cross boost,
        # so stage 1 hands its scores over instead of stage 2 re-gathering.
        stage1 = None if self.config.prune is None else np.empty(topn, dtype=np.float32)
        with trace.span("ivf-probe", nprobe=self.config.nprobe, topn=topn) as probe_span:
            candidates = self.index.search(
                session_vec,
                query_category,
                topn=topn,
                nprobe=self.config.nprobe,
                scores_out=stage1,
            )
            probe_span.set(candidates=int(candidates.size))
        if self.config.prune is None or self.config.prune >= candidates.size:
            return candidates
        with trace.span("prefilter", candidates=int(candidates.size)):
            boost = self._cross_counts(state, candidates) @ self._count_weights[
                self._regime(state, query_category)
            ]
            with trace.span("prune", survivors=int(self.config.prune)):
                return self.prefilter.prune(
                    candidates,
                    session_vec,
                    self.config.prune,
                    extra=boost,
                    base=stage1[: candidates.size],
                )

    def score_candidates(
        self,
        user: int,
        query_category: int,
        candidates: np.ndarray,
        gate: Optional[np.ndarray] = None,
        state: Optional[UserState] = None,
    ) -> np.ndarray:
        """The cascade's cheap score for explicit candidates (fresh array) —
        what stage 2 ranks by; the retrieval probe's oracle ranking.  The
        degraded tiers hand over the ``gate`` and ``state`` their request
        already resolved, so answering below the full tier tabulates no user
        and runs no gate plan."""
        state = state or UserState(self.world, user)
        session_vec = self.session_vector(user, query_category, gate=gate, state=state)
        boost = self._cross_counts(state, candidates) @ self._count_weights[
            self._regime(state, query_category)
        ]
        return self.prefilter.scores(candidates, session_vec, extra=boost)

    def stats(self) -> dict:
        report = self.index.stats()
        report["retrieve_n"] = self.config.retrieve_n
        report["prune"] = self.config.prune
        report["nprobe"] = self.config.nprobe
        report["vector_dim"] = self.dim
        report["expert_probes"] = self.num_probes
        report["build_seconds"] = dict(self.build_seconds)
        report["calibration_r2"] = {
            "new_user": self.calibration_r2[self._REGIME_NEW_USER],
            "category_new": self.calibration_r2[self._REGIME_CATEGORY_NEW],
            "category_old": self.calibration_r2[self._REGIME_CATEGORY_OLD],
        }
        return report


@dataclass(frozen=True)
class RetrievalProbe:
    """Canary check for the retrieval stage of a candidate model.

    The canary gate replays ranking metrics; a corrupted *embedding table*
    can pass those (the ranker still orders its survivors well) while the
    rebuilt index silently stops surfacing the right candidates.  The probe
    measures retrieval-stage recall of the candidate's pruned cascade
    against the candidate's **own full-model exhaustive ranking** of each
    probed category — the same oracle the cascade benchmark gates — over
    sampled (user, category) queries, failing promotion below
    ``min_recall``.  The full model judges, never the cheap score: a
    calibration that stopped tracking the model (the quiet failure mode)
    degrades this recall even though the cascade still agrees with itself.

    Each check builds the candidate's cascade fresh (pass ``scorer`` — the
    canary gate hands over its compiled plan — so the probe's build floats
    match what the fleet's swap will rebuild); the promotion swap then
    builds its own, so a promoted version pays the build twice.  Reusing
    the probe's build across the swap is an open item (ROADMAP).
    """

    world: "World"
    config: CascadeConfig
    #: (user, query_category) pairs to probe.
    queries: Tuple[Tuple[int, int], ...]
    #: Floor on mean recall@k of cascade candidates vs the exhaustive oracle.
    min_recall: float = 0.95
    k: int = 10

    def recall(self, model, scorer=None) -> float:
        """Mean recall@k of the pruned cascade vs the full-model oracle."""
        cascade = RetrievalCascade.from_model(model, self.world, self.config, scorer=scorer)
        ranker = cascade._scorer
        scores = []
        for user, category in self.queries:
            kept = set(cascade.retrieve(user, category).tolist())
            members = cascade.index.partition_ids(category)
            batch = assemble_session(self.world, user, category, members)
            full = np.asarray(ranker.predict_proba(batch))
            top = members[np.argsort(-full, kind="stable")][: self.k]
            if top.size == 0:
                continue
            scores.append(sum(1 for item in top.tolist() if item in kept) / top.size)
        return float(np.mean(scores)) if scores else 1.0

    def check(self, model, scorer=None) -> Tuple[bool, float]:
        recall = self.recall(model, scorer=scorer)
        return recall >= self.min_recall, recall
