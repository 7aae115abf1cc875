"""Retrieval cascade: exhaustive parity, recall monotonicity, hot-swap
rebuilds, and the canary retrieval probe."""

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.infer import compile_model
from repro.retrieval import (
    CascadeConfig,
    Prefilter,
    RetrievalCascade,
    RetrievalProbe,
)
from repro.serving import SearchEngine, SessionCache, MicroBatcher


@pytest.fixture()
def model(test_set):
    return build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))


@pytest.fixture()
def other_model(test_set):
    return build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(99))


class TestPrefilter:
    def test_scores_linear_form(self):
        vectors = np.arange(12, dtype=np.float32).reshape(4, 3)
        extra = np.array([1.0, -1.0, 2.0], dtype=np.float32)
        prefilter = Prefilter(vectors)
        session = np.array([1.0, 0.0, -1.0], dtype=np.float32)
        candidates = np.array([0, 2, 3])
        got = prefilter.scores(candidates, session, extra=extra)
        np.testing.assert_allclose(got, vectors[candidates] @ session + extra)
        assert not np.shares_memory(got, prefilter.scores(candidates, session, extra=extra))

    def test_prune_keeps_top_k_ascending(self):
        vectors = np.eye(5, dtype=np.float32)
        extra = np.array([0.0, 5.0, 1.0, 4.0, 2.0], dtype=np.float32)
        prefilter = Prefilter(vectors)
        survivors = prefilter.prune(np.arange(5), np.zeros(5, dtype=np.float32), 2, extra=extra)
        np.testing.assert_array_equal(survivors, [1, 3])

    def test_prune_from_base_scores_skips_the_plan(self, monkeypatch):
        """With stage 1's inner products handed over, pruning ranks by
        ``base + extra`` and never gathers item vectors."""
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(40, 4)).astype(np.float32)
        prefilter = Prefilter(vectors)
        candidates = np.arange(0, 40, 2)
        session = rng.normal(size=4).astype(np.float32)
        extra = rng.normal(size=candidates.size).astype(np.float32)
        want = prefilter.prune(candidates, session, keep=6, extra=extra)
        monkeypatch.setattr(prefilter, "scores", None)
        got = prefilter.prune(
            candidates, session, keep=6, extra=extra, base=vectors[candidates] @ session
        )
        np.testing.assert_array_equal(got, want)

    def test_prune_none_is_identity(self):
        prefilter = Prefilter(np.ones((3, 2), dtype=np.float32))
        candidates = np.array([0, 2])
        assert prefilter.prune(candidates, np.zeros(2, dtype=np.float32), None) is candidates


class TestExhaustiveParity:
    def test_cascade_parity_with_sampling_pipeline(self, unit_world, model):
        """nprobe='all' + prune=None serves *exactly* what the pre-cascade
        pipeline serves: same candidates, bitwise-equal scores."""
        plain = SearchEngine(
            unit_world, model, np.random.default_rng(1),
            candidates_per_query=unit_world.num_items + 1,
        )
        cascade = SearchEngine(
            unit_world, model, np.random.default_rng(1),
            candidates_per_query=unit_world.num_items + 1,
            cascade=CascadeConfig.exhaustive(),
        )
        for user, category in ((3, 2), (11, 0), (40, 5)):
            want = plain.search(user, category)
            got = cascade.search(user, category)
            np.testing.assert_array_equal(got.items, want.items)
            np.testing.assert_array_equal(got.scores, want.scores)

    def test_exhaustive_mode_returns_whole_category(self, unit_world, model):
        engine = SearchEngine(
            unit_world, model, np.random.default_rng(1), cascade=CascadeConfig.exhaustive()
        )
        members = np.flatnonzero(unit_world.item_category == 3)
        np.testing.assert_array_equal(engine.retrieve(3, user=2), members)

    def test_batched_cascade_matches_single_query(self, unit_world, model):
        """The micro-batcher over a cascade engine scores the same survivors
        to the same values as the one-query loop (the batcher contract)."""
        config = CascadeConfig(retrieve_n=12, prune=8, nprobe="all")
        single = SearchEngine(unit_world, model, np.random.default_rng(1), cascade=config)
        batched_engine = SearchEngine(unit_world, model, np.random.default_rng(2), cascade=config)
        batcher = MicroBatcher(batched_engine, max_batch_size=4, cache=SessionCache(64))
        queries = [(3, 2), (11, 0), (40, 5), (7, 1)]
        results = []
        for user, category in queries:
            results.extend(batcher.submit(user, category))
        results.extend(batcher.flush())
        assert len(results) == len(queries)
        for ranking in results:
            want = single.search(ranking.user, ranking.query_category)
            np.testing.assert_array_equal(ranking.items, want.items)
            np.testing.assert_allclose(ranking.scores, want.scores, rtol=1e-5, atol=1e-6)

    def test_batcher_cached_gate_feeds_cascade(self, unit_world, model, monkeypatch):
        """A session-cache gate hit saves the cascade its own gate
        evaluation — retrieval and scoring share one §III-F1 vector."""
        config = CascadeConfig(retrieve_n=12, prune=8, nprobe="all")
        engine = SearchEngine(unit_world, model, np.random.default_rng(1), cascade=config)
        cache = SessionCache(64)
        batcher = MicroBatcher(engine, max_batch_size=64, cache=cache)
        calls = []
        original = engine.cascade._session_gate

        def counting_gate(state, category):
            calls.append((state.user, category))
            return original(state, category)

        monkeypatch.setattr(engine.cascade, "_session_gate", counting_gate)
        batcher.submit(7, 2)  # cache miss: the cascade evaluates its own gate
        assert calls == [(7, 2)]
        first = batcher.flush()  # resolves and caches the session gate
        batcher.submit(7, 2)  # cache hit: the cached vector is forwarded
        assert calls == [(7, 2)]
        second = batcher.flush()
        np.testing.assert_array_equal(
            np.sort(first[0].items), np.sort(second[0].items)
        )

    def test_session_gate_assembles_no_candidates(self, unit_world, model, monkeypatch):
        """The gate reads the session side only: resolving it builds no
        candidate features — and, handed the caller's ``UserState``, encodes
        no behaviour either — and equals the gate of the session's full
        batch on both scoring surfaces."""
        import repro.data.features as features_module
        import repro.retrieval.cascade as cascade_module

        for compile_flag in (True, False):
            engine = SearchEngine(
                unit_world, model, np.random.default_rng(1), compile=compile_flag,
                cascade=CascadeConfig(retrieve_n=12, prune=8, nprobe="all"),
            )
            batch = engine.build_batch(7, 2, engine.retrieve(2))
            with monkeypatch.context() as patched:
                for name in ("assemble_session", "assemble_sessions"):
                    patched.setattr(
                        cascade_module, name,
                        lambda *a, **k: pytest.fail("gate resolution assembled candidates"),
                    )
                gate = engine.cascade.resolve_gate(7, 2)
                state = engine.user_state(7)
                patched.setattr(
                    features_module, "encode_behavior",
                    lambda *a, **k: pytest.fail("gate resolution re-encoded the behaviour"),
                )
                from_state = engine.cascade.resolve_gate(7, 2, state=state)
                via_vector = engine.cascade.session_vector(7, 2, state=state)
            np.testing.assert_array_equal(gate, engine.serving_gate(batch)[0])
            np.testing.assert_array_equal(from_state, gate)
            np.testing.assert_array_equal(via_vector, engine.cascade.session_vector(7, 2))

    def test_without_user_falls_back_to_sampling(self, unit_world, model):
        """retrieve() without a user cannot personalize; it keeps the
        popularity-sampling behaviour so old callers stay valid."""
        engine = SearchEngine(
            unit_world, model, np.random.default_rng(1),
            cascade=CascadeConfig(retrieve_n=6, prune=4, nprobe=1),
        )
        twin = SearchEngine(unit_world, model, np.random.default_rng(1))
        np.testing.assert_array_equal(engine.retrieve(2), twin.retrieve(2))


class TestRecallMonotonicity:
    def _recall(self, unit_world, model, config, queries):
        cascade = RetrievalCascade.from_model(model, unit_world, config)
        hits = total = 0
        for user, category in queries:
            kept = set(cascade.retrieve(user, category).tolist())
            everything = cascade.index.partition_ids(category)
            order = np.argsort(
                -cascade.score_candidates(user, category, everything), kind="stable"
            )
            top = everything[order][:5]
            hits += sum(1 for item in top.tolist() if item in kept)
            total += top.size
        return hits / total

    def test_recall_monotone_in_prune_and_nprobe(self, unit_world, model):
        rng = np.random.default_rng(4)
        queries = [
            (int(rng.integers(0, unit_world.num_users)), int(rng.integers(0, 8)))
            for _ in range(24)
        ]
        by_prune = [
            self._recall(unit_world, model, CascadeConfig(retrieve_n=30, prune=prune, nprobe="all"), queries)
            for prune in (5, 10, 20)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(by_prune, by_prune[1:]))
        by_nprobe = [
            self._recall(unit_world, model, CascadeConfig(retrieve_n=10, prune=None, nprobe=nprobe), queries)
            for nprobe in (1, 2, "all")
        ]
        assert all(a <= b + 1e-12 for a, b in zip(by_nprobe, by_nprobe[1:]))
        assert by_nprobe[-1] == 1.0

    def test_cross_counts_mirror_the_model_features(self, unit_world, model):
        """The prefilter's counters are the capped twins of the (N, H)
        ``cross_features`` the ranker reads, looked up instead of compared."""
        from repro.data.features import UserState, cross_features

        cascade = RetrievalCascade.from_model(
            model, unit_world, CascadeConfig(retrieve_n=6, prune=4, nprobe=1)
        )
        rng = np.random.default_rng(8)
        for user in range(0, unit_world.num_users, 7):
            history = unit_world.histories[user]
            items = rng.choice(unit_world.num_items, size=40, replace=False)
            items[: min(len(history), 5)] = history[: min(len(history), 5)]
            cross = cross_features(UserState(unit_world, user), unit_world, items)
            want = np.stack(
                [
                    np.minimum(cross["brand_click_cnt"], 5),
                    np.minimum(cross["shop_click_cnt"], 5),
                    np.minimum(cross["item_click_cnt"], 3),
                    cross["price_gap"],
                ],
                axis=1,
            ).astype(np.float32)
            np.testing.assert_array_equal(
                cascade._cross_counts(UserState(unit_world, user), items), want
            )

    def test_survivors_are_the_top_of_the_cheap_score(self, unit_world, model):
        """Stage 2 starts from stage 1's inner products; what survives is
        still the top of ``score_candidates`` over what stage 1 retrieved."""
        config = CascadeConfig(retrieve_n=30, prune=8, nprobe="all")
        cascade = RetrievalCascade.from_model(model, unit_world, config)
        for user, category in [(3, 1), (7, 2), (11, 5)]:
            session_vec = cascade.session_vector(user, category)
            retrieved = cascade.index.search(session_vec, category, topn=30, nprobe="all")
            cheap = cascade.score_candidates(user, category, retrieved)
            want = np.sort(retrieved[np.argsort(-cheap, kind="stable")[:8]])
            np.testing.assert_array_equal(cascade.retrieve(user, category), want)

    def test_empty_history_users_share_static_ranking(self, unit_world, model):
        """Without history the embedding/profile blocks zero out; what
        remains — statics plus the age-matched, gate-weighted probe block —
        is identical for any two new users of the same age group, so they
        retrieve the same candidates."""
        cascade = RetrievalCascade.from_model(
            model, unit_world, CascadeConfig(retrieve_n=5, prune=3, nprobe="all")
        )
        by_age: dict = {}
        for u in range(unit_world.num_users):
            if len(unit_world.histories[u]) == 0:
                by_age.setdefault(int(unit_world.user_age[u]), []).append(u)
        age, users = next((a, us) for a, us in by_age.items() if len(us) >= 2)
        vec = cascade.session_vector(users[0], 1)
        probe_end = cascade._NUM_STATIC + cascade.num_ages * cascade.num_probes
        assert not vec[probe_end:].any()  # no history → no emb/profile terms
        assert vec[cascade._age_block(users[0])].any()
        first = cascade.retrieve(users[0], 1)
        second = cascade.retrieve(users[1], 1)
        assert 0 < first.size <= 3
        np.testing.assert_array_equal(first, second)


class TestHotSwapRebuild:
    def test_set_model_rebuilds_cascade_atomically(self, unit_world, model, other_model):
        config = CascadeConfig(retrieve_n=10, prune=6, nprobe="all")
        engine = SearchEngine(unit_world, model, np.random.default_rng(1), cascade=config)
        before = engine.cascade
        engine.set_model(other_model, "v2")
        assert engine.cascade is not before
        # The rebuilt index serves the new snapshot: candidate sets match a
        # twin engine built directly on the new model (same compiled scorer
        # path, so probe/calibration floats are identical), per category.
        fresh = SearchEngine(
            unit_world, other_model, np.random.default_rng(2), cascade=config
        ).cascade
        for user, category in ((3, 2), (11, 0), (40, 5)):
            np.testing.assert_array_equal(
                engine.retrieve(category, user=user), fresh.retrieve(user, category)
            )

    def test_swap_changes_retrieval_when_embeddings_change(self, unit_world, model, other_model):
        """Different embedding snapshots must actually retrieve differently
        for history-rich users — otherwise the rebuild test is vacuous.
        Fresh random inits are too small to shift the top-K, so the swapped
        model's table is scaled to trained-like magnitudes."""
        weight = other_model.embedder.item.weight
        weight.data = (weight.data * 25.0).astype(weight.data.dtype)
        config = CascadeConfig(retrieve_n=8, prune=4, nprobe="all")
        engine = SearchEngine(unit_world, model, np.random.default_rng(1), cascade=config)
        rich = [u for u in range(unit_world.num_users) if len(unit_world.histories[u]) >= 4]
        before = [engine.retrieve(c, user=u) for u in rich[:20] for c in range(4)]
        engine.set_model(other_model, "v2")
        after = [engine.retrieve(c, user=u) for u in rich[:20] for c in range(4)]
        assert any(
            not np.array_equal(a, b) for a, b in zip(before, after)
        ), "swap did not change any candidate set"


class TestRetrievalProbe:
    def test_healthy_model_passes(self, unit_world, model):
        probe = RetrievalProbe(
            unit_world,
            CascadeConfig(retrieve_n=40, prune=20, nprobe="all"),
            queries=((3, 2), (11, 0), (40, 5)),
            min_recall=0.9,
            k=5,
        )
        ok, recall = probe.check(model)
        assert ok and recall > 0.9

    def test_corrupted_embeddings_fail(self, unit_world, model):
        """Scrambling the embedding table collapses retrieval recall under a
        tight (low-nprobe, hard-pruning) cascade — the failure the probe
        exists to catch before a hot swap."""
        import copy

        probe = RetrievalProbe(
            unit_world,
            CascadeConfig(retrieve_n=6, prune=3, nprobe=1),
            queries=tuple((u, c) for u in (3, 11, 40, 7, 19) for c in range(8)),
            min_recall=0.95,
            k=5,
        )
        corrupted = copy.deepcopy(model)
        weight = corrupted.embedder.item.weight
        weight.data = weight.data * 40.0 + np.random.default_rng(0).normal(
            scale=10.0, size=weight.data.shape
        ).astype(weight.data.dtype)
        ok, recall = probe.check(corrupted)
        healthy_ok, healthy_recall = probe.check(model)
        # The probe measures each model against its *own* oracle; corruption
        # shows up as a recall drop, not a score change.
        assert recall <= healthy_recall

    def test_canary_gate_blocks_on_probe(self, unit_world, model, test_set):
        from repro.online import CanaryGate

        class FailingProbe:
            min_recall = 0.99

            def check(self, _model, scorer=None):
                return False, 0.5

        gate = CanaryGate(retrieval_probe=FailingProbe())
        report = gate.judge(model, None, test_set)
        assert not report.passed
        assert any("retrieval recall" in reason for reason in report.reasons)
        assert report.candidate["retrieval_recall"] == 0.5


def _per_query_calibration_rows(cascade):
    """The calibration loop this repo shipped before probe queries were
    scored a flush at a time: one assembly, one gate evaluation and one
    ranker call per sampled query.  Kept verbatim as the oracle — the RNG
    draw order (user, category, items per query) is part of the contract."""
    from repro.data.features import UserState, assemble_session
    from repro.retrieval.cascade import _TOP_QUANTILE, _TOP_WEIGHT, _logits

    config = cascade.config
    world = cascade.world
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xCA11]))
    rows: dict = {regime: ([], [], []) for regime in cascade._REGIMES}
    categories = [cat for cat, m in enumerate(cascade._by_category) if m.size > 0]
    for _ in range(config.calibration_queries):
        user = int(rng.integers(0, world.num_users))
        cat = int(categories[rng.integers(0, len(categories))])
        members = cascade._by_category[cat]
        sample = (
            members
            if members.size <= config.calibration_items
            else rng.choice(members, size=config.calibration_items, replace=False)
        )
        state = UserState(world, user)
        batch = assemble_session(world, user, cat, sample, state=state)
        target = _logits(cascade._scorer, batch)
        sample_weight = np.where(
            target >= np.quantile(target, _TOP_QUANTILE),
            _TOP_WEIGHT,
            1.0,
        )
        regime = cascade._regime(state, cat)
        gate = cascade._session_gate(state, cat)
        rows[regime][0].append(cascade._pair_features(state, sample, gate))
        rows[regime][1].append(target)
        rows[regime][2].append(sample_weight)
    return rows


class TestBuildThroughServingPaths:
    """The rebuild scores through the surface the fleet serves with."""

    def test_compiled_build_never_runs_the_eager_model(self, unit_world, model, monkeypatch):
        calls = []
        for name in ("forward", "expert_scores"):
            monkeypatch.setattr(model, name, lambda *a, _name=name, **k: calls.append(_name))
        cascade = RetrievalCascade.from_model(
            model, unit_world, CascadeConfig(retrieve_n=6, prune=4, nprobe=1),
            scorer=compile_model(model),
        )
        assert calls == []
        assert cascade.num_probes == model.config.num_experts

    def test_build_leaves_no_buffers_serving_would_not_hold(self, unit_world, model):
        """The engine's serving plan does the build, and its arena keeps
        every shape it ever saw: after one flush of every batch size, a plan
        that also built holds within 10% of one that only served."""
        config = CascadeConfig(
            retrieve_n=6, prune=4, nprobe="all", calibration_queries=16, calibration_items=2
        )
        builder = SearchEngine(unit_world, model, np.random.default_rng(1), cascade=config)
        server = SearchEngine(
            unit_world, model, np.random.default_rng(1), cascade=config,
            prebuilt_cascade=builder.cascade.worker_view(),
        )
        held = []
        for engine in (builder, server):
            batcher = MicroBatcher(engine, max_batch_size=8, cache=SessionCache(64))
            for size in range(1, 5):
                for user in range(size):
                    batcher.submit(3 + 7 * user, (user + size) % 8)
                assert len(batcher.flush()) == size
            held.append(engine.compiled_model.stats()["score"]["arena_bytes"])
        assert held[1] > 0
        assert held[0] <= 1.1 * held[1]

    @pytest.mark.parametrize("compiled", [True, False])
    def test_batched_calibration_matches_the_per_query_loop(self, unit_world, model, compiled):
        # Whole categories (7-19 items) are sampled and two or more fit one
        # 40-row flush, so the flushes are ragged.
        config = CascadeConfig(retrieve_n=60, prune=40, nprobe="all", calibration_queries=24)
        cascade = RetrievalCascade.from_model(
            model, unit_world, config, scorer=compile_model(model) if compiled else None
        )
        want_rows = _per_query_calibration_rows(cascade)
        got_rows = cascade._calibration_rows()
        exact = cascade._NUM_STATIC + cascade.num_probes  # pure gathers by sampled item
        for regime in cascade._REGIMES:
            assert len(got_rows[regime][0]) == len(want_rows[regime][0])
            for got, want in zip(got_rows[regime][0], want_rows[regime][0]):
                np.testing.assert_array_equal(got[:, :exact], want[:, :exact])
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        cascade._calibration_rows = lambda: want_rows
        weights, count_weights, r2 = cascade._calibrate()
        for regime in cascade._REGIMES:
            for got, want in (
                (cascade._weights[regime], weights[regime]),
                (cascade._count_weights[regime], count_weights[regime]),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())
            assert cascade.calibration_r2[regime] == pytest.approx(r2[regime], abs=1e-6)

    def test_build_seconds_survive_publish(self, unit_world, model):
        import pickle

        cascade = RetrievalCascade.from_model(
            model, unit_world, CascadeConfig(retrieve_n=6, prune=4, nprobe=1)
        )
        phases = cascade.stats()["build_seconds"]
        assert set(phases) == {"probe", "calibrate", "index"}
        assert all(seconds > 0 for seconds in phases.values())
        attached = pickle.loads(pickle.dumps(cascade.detach_for_publish())).worker_view()
        assert attached.stats()["build_seconds"] == phases
