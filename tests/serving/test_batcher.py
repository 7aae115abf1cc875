"""Micro-batcher: flush triggers, gate caching, and score parity.

The central invariant: micro-batching (with or without the session gate
cache) changes *when* the model runs, never *what* it computes — batched
rankings must match the one-query-at-a-time path exactly.
"""

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.core import ModelConfig, build_model
from repro.data import UserState, assemble_session
from repro.retrieval import CascadeConfig
from repro.serving import FleetContext, ManualClock, MicroBatcher, SearchEngine, SessionCache

#: Repeated (user, query-category) traffic: users 3 and 5 re-issue sessions.
TRAFFIC = [(3, 2), (5, 1), (3, 2), (9, 0), (5, 1), (3, 4), (3, 2), (11, 2)]


def _engine(unit_world, test_set, model_name="aw_moe", seed=1, model_seed=0, **kwargs):
    model = build_model(
        model_name, ModelConfig.unit(), test_set.meta, np.random.default_rng(model_seed)
    )
    return SearchEngine(unit_world, model, np.random.default_rng(seed), **kwargs)


class TestFlushTriggers:
    def test_flush_on_size(self, unit_world, test_set):
        clock = ManualClock()
        batcher = MicroBatcher(
            _engine(unit_world, test_set), max_batch_size=3, flush_deadline_ms=1e9, ctx=FleetContext(clock=clock)
        )
        assert batcher.submit(1, 0) == []
        assert batcher.submit(2, 1) == []
        results = batcher.submit(3, 2)  # third query hits the size trigger
        assert len(results) == 3
        assert batcher.pending == 0
        assert batcher.metrics.batch_size_histogram() == {3: 1}

    def test_flush_on_deadline(self, unit_world, test_set):
        clock = ManualClock()
        batcher = MicroBatcher(
            _engine(unit_world, test_set), max_batch_size=100, flush_deadline_ms=5.0, ctx=FleetContext(clock=clock)
        )
        batcher.submit(1, 0)
        clock.advance(0.004)  # 4 ms < 5 ms deadline
        assert batcher.poll() == []
        clock.advance(0.002)  # 6 ms total
        results = batcher.poll()
        assert len(results) == 1
        assert results[0].latency_ms == pytest.approx(6.0)

    def test_poll_without_pending_is_noop(self, unit_world, test_set):
        batcher = MicroBatcher(_engine(unit_world, test_set), ctx=FleetContext(clock=ManualClock()))
        assert batcher.poll() == []
        assert batcher.flush() == []

    def test_invalid_parameters_rejected(self, unit_world, test_set):
        engine = _engine(unit_world, test_set)
        with pytest.raises(ValueError):
            MicroBatcher(engine, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(engine, flush_deadline_ms=-1.0)

    def test_queueing_latency_accounted_per_query(self, unit_world, test_set):
        clock = ManualClock()
        batcher = MicroBatcher(
            _engine(unit_world, test_set), max_batch_size=2, flush_deadline_ms=1e9, ctx=FleetContext(clock=clock)
        )
        batcher.submit(1, 0)
        clock.advance(0.010)
        results = batcher.submit(2, 1)
        assert results[0].latency_ms == pytest.approx(10.0)  # waited in queue
        assert results[1].latency_ms == pytest.approx(0.0)


class TestScoreParity:
    def _run_both_paths(self, unit_world, test_set, cache, compile=True):
        single = _engine(unit_world, test_set, seed=1, compile=compile)
        batched_engine = _engine(unit_world, test_set, seed=1, compile=compile)
        batcher = MicroBatcher(
            batched_engine,
            max_batch_size=4,
            flush_deadline_ms=1e9,
            cache=cache,
            ctx=FleetContext(clock=ManualClock()),
        )
        expected = [single.search(user, qcat) for user, qcat in TRAFFIC]
        got = []
        for user, qcat in TRAFFIC:
            got.extend(batcher.submit(user, qcat))
        got.extend(batcher.flush())
        return expected, got

    @pytest.mark.parametrize("with_cache", [False, True])
    def test_batched_identical_to_single_query(self, unit_world, test_set, with_cache):
        """Acceptance: batched (+cached) rankings == per-query rankings."""
        self._assert_parity(unit_world, test_set, with_cache, compile=True)

    @pytest.mark.parametrize("with_cache", [False, True])
    def test_batched_identical_to_single_query_on_the_eager_forward(
        self, unit_world, test_set, with_cache
    ):
        self._assert_parity(unit_world, test_set, with_cache, compile=False)

    def _assert_parity(self, unit_world, test_set, with_cache, compile):
        cache = SessionCache(64) if with_cache else None
        expected, got = self._run_both_paths(unit_world, test_set, cache, compile)
        assert len(got) == len(expected)
        for want, have in zip(expected, got):
            assert (want.user, want.query_category) == (have.user, have.query_category)
            np.testing.assert_array_equal(want.items, have.items)
            np.testing.assert_allclose(want.scores, have.scores, rtol=1e-6, atol=1e-7)

    def test_cache_hits_under_repeated_traffic(self, unit_world, test_set):
        cache = SessionCache(64)
        _, got = self._run_both_paths(unit_world, test_set, cache)
        assert len(got) == len(TRAFFIC)
        # Repeats landing in a *later* batch than their first sight hit the
        # cache: the second (5, 1) and the third (3, 2).  The second (3, 2)
        # misses — it shares the first batch with its first sight, whose
        # gate is only published at flush.
        assert cache.gates.stats.hits == 2
        assert cache.gate_hit_rate > 0.0
        # Behaviour encodings are keyed by user: 4 distinct users miss once.
        assert cache.behaviors.stats.misses == 4

    def test_gateless_model_still_batches(self, unit_world, test_set):
        """DNN has no candidate-independent gate: batching must still work
        (coalesced forward, no gate cache accounting)."""
        single = _engine(unit_world, test_set, model_name="dnn", seed=1)
        batched_engine = _engine(unit_world, test_set, model_name="dnn", seed=1)
        assert not batched_engine.supports_session_gate
        cache = SessionCache(64)
        batcher = MicroBatcher(
            batched_engine, max_batch_size=4, flush_deadline_ms=1e9, cache=cache,
            ctx=FleetContext(clock=ManualClock()),
        )
        expected = [single.search(user, qcat) for user, qcat in TRAFFIC]
        got = []
        for user, qcat in TRAFFIC:
            got.extend(batcher.submit(user, qcat))
        got.extend(batcher.flush())
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(want.items, have.items)
            np.testing.assert_allclose(want.scores, have.scores, rtol=1e-6, atol=1e-7)
        assert cache.gates.stats.lookups == 0  # gate cache never consulted


class TestAccounting:
    def test_engine_stats_cover_batched_traffic(self, unit_world, test_set):
        engine = _engine(unit_world, test_set)
        batcher = MicroBatcher(engine, max_batch_size=2, ctx=FleetContext(clock=ManualClock()))
        for user, qcat in TRAFFIC[:4]:
            batcher.submit(user, qcat)
        assert engine.queries_served == 4

    def test_batch_size_histogram(self, unit_world, test_set):
        batcher = MicroBatcher(
            _engine(unit_world, test_set), max_batch_size=3, flush_deadline_ms=1e9,
            ctx=FleetContext(clock=ManualClock()),
        )
        for user, qcat in TRAFFIC[:7]:  # 7 queries -> flushes of 3, 3, then 1
            batcher.submit(user, qcat)
        batcher.flush()
        assert batcher.metrics.batch_size_histogram() == {1: 1, 3: 2}
        assert batcher.metrics.queries == 7


class TestFlushLevelAssembly:
    """Features are joined once per flush; submit only looks the user up."""

    @pytest.fixture()
    def assemblies(self, monkeypatch):
        """Counts every feature assembly the serving stack performs."""
        calls = []
        original = engine_module.assemble_sessions

        def counted(world, states, *args, **kwargs):
            calls.append(len(states))
            return original(world, states, *args, **kwargs)

        monkeypatch.setattr(engine_module, "assemble_sessions", counted)
        monkeypatch.setattr(
            engine_module, "assemble_session",
            lambda *a, **k: pytest.fail("the batcher assembled one session on its own"),
        )
        return calls

    @pytest.mark.parametrize("cascade", [None, CascadeConfig(retrieve_n=12, prune=8, nprobe="all")])
    def test_submit_assembles_nothing_and_a_flush_once(
        self, unit_world, test_set, assemblies, cascade
    ):
        batcher = MicroBatcher(
            _engine(unit_world, test_set, cascade=cascade), max_batch_size=4,
            flush_deadline_ms=1e9, cache=SessionCache(64), ctx=FleetContext(clock=ManualClock()),
        )
        del assemblies[:]  # a cascade build assembles its probe batches
        for user, qcat in TRAFFIC[:3]:
            assert batcher.submit(user, qcat) == []
        assert assemblies == []
        assert len(batcher.submit(*TRAFFIC[3])) == 4  # the size trigger
        assert assemblies == [4]
        for user, qcat in TRAFFIC[4:7]:
            batcher.submit(user, qcat)
        assert assemblies == [4]
        assert len(batcher.flush()) == 3
        assert assemblies == [4, 3]
        assert batcher.flush() == [] and assemblies == [4, 3]

    def test_swap_between_submit_and_flush_answers_from_the_new_version(
        self, unit_world, test_set, assemblies
    ):
        """A rogue swap (no drain) after submit: the flush re-retrieves from
        the new cascade, re-resolves every gate under the new model, and
        joins features only then — nothing of the old version is scored."""
        cascade = CascadeConfig(retrieve_n=12, prune=8, nprobe="all")
        engine = _engine(unit_world, test_set, cascade=cascade, model_version="v1")
        reference = _engine(unit_world, test_set, model_seed=5, cascade=cascade)
        weight = reference.model.embedder.item.weight
        weight.data = (weight.data * 25.0).astype(weight.data.dtype)
        reference.set_model(reference.model, "v2")
        cache = SessionCache(64)
        batcher = MicroBatcher(engine, max_batch_size=64, cache=cache, ctx=FleetContext(clock=ManualClock()))
        queries = [(3, 2), (11, 0), (3, 4)]
        for user, qcat in queries:
            batcher.submit(user, qcat)
        stale = [q.candidates.copy() for q in batcher._pending]
        states = {user: cache.get_behavior(user) for user, _ in queries}
        del assemblies[:]

        engine.set_model(reference.model, "v2")
        cache.invalidate_all()
        results = batcher.flush()

        assert assemblies == [3]
        assert [r.model_version for r in results] == ["v2"] * 3
        for (user, qcat), ranking, old in zip(queries, results, stale):
            fresh = reference.cascade.retrieve(user, qcat)
            np.testing.assert_array_equal(np.sort(ranking.items), fresh)
            assert not np.array_equal(np.sort(old), fresh)
            batch = assemble_session(unit_world, user, qcat, ranking.items)
            np.testing.assert_allclose(
                ranking.scores, reference.model.predict_proba(batch), rtol=1e-5, atol=1e-6
            )
            np.testing.assert_allclose(
                cache.get_gate(user, qcat), reference.serving_gate(batch)[0], rtol=1e-6
            )
            assert cache.get_behavior(user) is states[user]

    def test_user_tables_survive_a_model_swap_but_not_a_history_change(
        self, unit_world, test_set, monkeypatch
    ):
        engine = _engine(unit_world, test_set)
        built = []
        original = engine.user_state
        monkeypatch.setattr(
            engine, "user_state", lambda user: built.append(user) or original(user)
        )
        cache = SessionCache(64)
        batcher = MicroBatcher(engine, max_batch_size=1, cache=cache, ctx=FleetContext(clock=ManualClock()))
        batcher.submit(3, 2)
        state = cache.get_behavior(3)
        assert isinstance(state, UserState) and state.behavior is not None
        cache.invalidate_all()  # model swap: gates go, data features stay
        batcher.submit(3, 2)
        assert built == [3] and cache.get_behavior(3) is state
        cache.behaviors.clear()  # history changed: tables and encoding go
        assert cache.get_behavior(3) is None
        batcher.submit(3, 2)
        assert built == [3, 3] and cache.get_behavior(3) is not state
