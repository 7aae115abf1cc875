"""The session-factored score plan: session-side kernels run once per session.

A :class:`~repro.data.schema.SessionBatch` stores the behaviour sequence and
query once per session; the compiled plan must score it exactly like the
flat rows it stands for — bitwise in float64 parity mode (which expands and
replays the eager order), within the fused tolerance in float32 (which
reassociates the attention unit's first layer and the pooling).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ModelConfig, build_model
from repro.core.extensions.sparse_gate import SparseGatedAWMoE
from repro.data import SessionBatch, WorldConfig, assemble_session
from repro.data.amazon import make_amazon_datasets
from repro.infer import compile_model, float64_twin
from repro.infer.plan import BufferArena

RTOL_F32 = 1e-4


def _rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-8))


def _empty_user(world):
    return next(u for u in range(world.num_users) if len(world.histories[u]) == 0)


def _session(world, user, category, count, seed=0):
    members = np.flatnonzero(world.item_category == category)
    rng = np.random.default_rng([seed, user, category])
    return assemble_session(
        world, user, category, rng.choice(members, size=min(count, members.size), replace=False)
    )


@pytest.fixture(scope="module")
def factored(unit_world):
    """Four sessions of unequal size: one candidate, an empty history."""
    return SessionBatch.concat(
        [
            _session(unit_world, 3, 1, 7),
            _session(unit_world, 11, 4, 1),
            _session(unit_world, _empty_user(unit_world), 2, 12),
            _session(unit_world, 40, 1, 5),
        ]
    )


def _models(meta):
    models = {
        "aw_moe": build_model("aw_moe", ModelConfig.unit(), meta, np.random.default_rng(0)),
        "ablation_gu0_au1": build_model(
            "aw_moe", ModelConfig.unit().with_gate_ablation(False, True), meta,
            np.random.default_rng(1),
        ),
        "sparse_top2": SparseGatedAWMoE(
            ModelConfig.unit(), meta, np.random.default_rng(2), top_k=2
        ),
    }
    for model in models.values():
        model.eval()
    return models


@pytest.fixture(scope="module")
def model(test_set):
    return _models(test_set.meta)["aw_moe"]


class TestFloat64Bitwise:
    @pytest.mark.parametrize("name", ["aw_moe", "ablation_gu0_au1", "sparse_top2"])
    def test_factored_equals_eager_twin_on_flat_rows(self, test_set, factored, name):
        model = _models(test_set.meta)[name]
        compiled = compile_model(model, dtype=np.float64)
        twin = float64_twin(model)
        twin.eval()
        flat = factored.flat()
        assert np.array_equal(compiled.predict_proba(factored), twin.predict_proba(flat))
        assert np.array_equal(compiled.predict_logits(factored), twin.predict_logits(flat))
        # ... and equals the same plan fed the flat rows directly.
        assert np.array_equal(compiled.predict_proba(factored), compiled.predict_proba(flat))
        # The plan stopped short of its mix is the eager expert pool, and
        # mixing by hand lands on the plan's own logits.
        experts = compiled.expert_scores(factored)
        assert np.array_equal(experts, twin.expert_scores(flat))
        assert np.array_equal(compiled.expert_scores(flat), experts)
        mixed = (compiled.serving_gate(flat) * experts).sum(axis=1)
        assert np.array_equal(mixed, compiled.predict_logits(factored))

    def test_per_session_gate_override_bitwise(self, model, factored):
        """Cached gates travel one row per session; both surfaces broadcast
        them to the session's candidates identically."""
        gates = model.serving_gate(factored)  # float32, as the cache stores it
        assert gates.shape[0] == factored.num_sessions
        compiled = compile_model(model, dtype=np.float64)
        twin = float64_twin(model)
        twin.eval()
        want = twin.predict_proba(factored.flat(), gate_override=factored.expand(gates))
        assert np.array_equal(compiled.predict_proba(factored, gate_override=gates), want)
        assert np.array_equal(twin.predict_proba(factored, gate_override=gates), want)

    def test_reco_mode_gate_runs_per_candidate(self):
        """The reco gate keys on the target item: on a session batch the
        gate plan expands and emits one row per candidate."""
        _, train, test = make_amazon_datasets(WorldConfig.unit(), seed=3)
        rows = test.batch_at(np.arange(24))
        starts = np.array([0, 10, 11])
        session_keys = [key for key in rows if key.startswith("behavior_")]
        batch = SessionBatch(
            {key: rows[key][starts] for key in session_keys},
            {key: value for key, value in rows.items() if key not in session_keys},
            np.array([10, 1, 13]),
        )
        model = build_model(
            "aw_moe", ModelConfig.unit(task="reco"), train.meta, np.random.default_rng(5)
        )
        model.eval()
        twin = float64_twin(model)
        twin.eval()
        compiled = compile_model(model, dtype=np.float64)
        assert compiled.serving_gate(batch).shape[0] == 24
        assert np.array_equal(compiled.predict_proba(batch), twin.predict_proba(batch.flat()))
        fused = compile_model(model)
        assert _rel_err(fused.predict_proba(batch), model.predict_proba(batch.flat())) < RTOL_F32


class TestFloat32Factored:
    @pytest.mark.parametrize("name", ["aw_moe", "ablation_gu0_au1", "sparse_top2"])
    def test_factored_close_to_identity_with_same_top10(self, test_set, factored, name):
        model = _models(test_set.meta)[name]
        compiled = compile_model(model)
        scores = compiled.predict_proba(factored)
        identity = compiled.predict_proba(factored.flat())
        assert scores.shape == (factored.num_rows,)
        assert _rel_err(scores, identity) < RTOL_F32
        assert _rel_err(scores, model.predict_proba(factored.flat())) < RTOL_F32
        experts = compiled.expert_scores(factored)
        want = model.expert_scores(factored.flat())
        assert experts.shape == want.shape
        for got in (experts, compiled.expert_scores(factored.flat())):
            np.testing.assert_allclose(got, want, rtol=RTOL_F32, atol=1e-6)
        mixed = (factored.expand(compiled.serving_gate(factored)) * experts).sum(axis=1)
        np.testing.assert_allclose(
            mixed, compiled.predict_logits(factored), rtol=RTOL_F32, atol=1e-6
        )
        for start, stop in zip(factored.bounds, factored.bounds[1:]):
            np.testing.assert_array_equal(
                np.argsort(-scores[start:stop], kind="stable")[:10],
                np.argsort(-identity[start:stop], kind="stable")[:10],
            )

    def test_gate_plan_emits_one_row_per_session(self, model, factored):
        compiled = compile_model(model)
        gates = compiled.serving_gate(factored)
        assert gates.shape == (factored.num_sessions, 4)
        per_row = compiled.serving_gate(factored.flat())
        assert _rel_err(factored.expand(gates), per_row) < RTOL_F32
        assert _rel_err(
            compiled.predict_proba(factored, gate_override=gates),
            compiled.predict_proba(factored),
        ) < RTOL_F32

    def test_session_side_kernels_run_on_session_rows(
        self, monkeypatch, unit_world, model, factored
    ):
        """The saving, observed: behaviour steps output one row per valid
        history position and query steps one per session, and are charged
        FLOPs for those rows only; nothing 3H wide is leased — while the
        flat twin, which takes the pairwise path, does lease it."""
        compiled = compile_model(model)
        score_arena = compiled.score_plan.arena
        leased = []
        lease = BufferArena.lease

        def recording(arena, step, slot, shape, dtype=None):
            if arena is score_arena:
                leased.append(shape)
            return lease(arena, step, slot, shape, dtype)

        monkeypatch.setattr(BufferArena, "lease", recording)
        rows, flops = {}, {}

        def step_hook(step, seconds, ctx):
            # Rows a step processed: all but the feature axis of its output.
            shape = ctx[step.writes[0]].shape
            rows[step.name] = int(np.prod(shape[:-1]))
            flops[step.name] = rows[step.name] * step.flops

        compiled.score_plan.step_hook = step_hook
        compiled.predict_proba(factored)
        compiled.score_plan.step_hook = None
        sessions, positions = factored.num_sessions, int(factored["behavior_mask"].sum())
        assert positions < sessions * unit_world.config.max_seq_len
        steps = {step.name: step for step in compiled.score_plan.steps}
        for name, want in [
            ("input.behavior_repr", positions),
            ("input.h_behavior", positions),
            ("input.query_repr", sessions),
            ("input.h_query", sessions),
            ("input.h_target", factored.num_rows),
            ("experts", factored.num_rows),
        ]:
            assert rows[name] == want, name
            assert flops[name] == want * steps[name].flops, name
        assert "input.att_pairwise" not in rows
        hidden = model.input_network.hidden_dim

        def pairwise_leased():
            return any(len(shape) == 3 and shape[-1] == 3 * hidden for shape in leased)

        assert leased and not pairwise_leased()
        compiled.predict_proba(factored.flat())
        assert pairwise_leased()

    def test_zero_allocations_after_warmup(self, model, factored):
        compiled = compile_model(model)
        gates = compiled.serving_gate(factored)
        compiled.predict_proba(factored)
        compiled.predict_proba(factored, gate_override=gates)
        arenas = (compiled.score_plan.arena, compiled.gate_plan.arena)
        before = [(arena.num_buffers, arena.misses) for arena in arenas]
        for _ in range(5):
            compiled.predict_proba(factored)
            compiled.predict_proba(factored, gate_override=gates)
        assert [(arena.num_buffers, arena.misses) for arena in arenas] == before
        assert all(arena.hits > 0 for arena in arenas)


def _scattered(batch, order):
    """``batch`` with its behaviour positions permuted by ``order``: the
    same history, padding no longer at the end."""
    session = {
        key: rows[:, order] if key.startswith("behavior_") else rows
        for key, rows in batch.session.items()
    }
    return SessionBatch(session, batch.candidate, batch.counts)


def _full_user(world):
    return next(
        u for u in range(world.num_users) if len(world.histories[u]) >= world.config.max_seq_len
    )


def _short_user(world):
    return next(
        u for u in range(world.num_users)
        if 1 < len(world.histories[u]) < world.config.max_seq_len - 1
    )


class TestPackedPositions:
    """The fused float32 plans run the behaviour side on the valid history
    positions only (P = Σ L_s rows); eager runs all M and masks."""

    def _cases(self, world):
        seq_len = world.config.max_seq_len
        empty, full, short = _empty_user(world), _full_user(world), _short_user(world)
        # Valid positions interleaved with padding, the first one last.
        order = np.r_[seq_len - 1, np.arange(seq_len - 1)][np.argsort(np.arange(seq_len) % 2)]
        return {
            "empty_history": SessionBatch.concat(
                [_session(world, empty, 2, 6), _session(world, 3, 1, 4)]
            ),
            "all_empty": _session(world, empty, 5, 3),
            "full_history": SessionBatch.concat(
                [_session(world, full, 1, 5), _session(world, short, 3, 7)]
            ),
            "not_left_aligned": _scattered(
                SessionBatch.concat([_session(world, short, 4, 6), _session(world, full, 0, 3)]),
                order,
            ),
            "one_candidate": SessionBatch.concat(
                [_session(world, short, 2, 1), _session(world, full, 6, 1)]
            ),
            "one_session": _session(world, full, 7, 9),
        }

    @pytest.mark.parametrize(
        "case",
        ["empty_history", "all_empty", "full_history", "not_left_aligned", "one_candidate",
         "one_session"],
    )
    @pytest.mark.parametrize("name", ["aw_moe", "ablation_gu0_au1", "sparse_top2"])
    def test_matches_eager(self, test_set, unit_world, name, case):
        batch = self._cases(unit_world)[case]
        model = _models(test_set.meta)[name]
        compiled = compile_model(model)
        flat = batch.flat()
        assert _rel_err(compiled.predict_proba(batch), model.predict_proba(flat)) < RTOL_F32
        np.testing.assert_allclose(
            batch.expand(compiled.serving_gate(batch)),
            model.serving_gate(flat),
            rtol=RTOL_F32,
            atol=1e-6,
        )

    def test_behaviour_side_runs_on_valid_positions(self, unit_world, model):
        batch = self._cases(unit_world)["not_left_aligned"]
        positions = int(batch["behavior_mask"].sum())
        compiled = compile_model(model)
        rows = {}

        def step_hook(step, seconds, ctx):
            rows[step.name] = ctx[step.writes[0]].shape[0]

        compiled.gate_plan.step_hook = compiled.score_plan.step_hook = step_hook
        compiled.predict_proba(batch)
        for name in ("gate.behavior_repr", "gate.h_behavior", "gate.pairwise",
                     "gate.item_scores", "gate.att_weights",
                     "input.behavior_repr", "input.h_behavior"):
            assert rows[name] == positions, name
        pairs = int((batch["behavior_mask"].sum(axis=1) * batch.counts).sum())
        assert rows["input.att_weights"] == pairs

    def test_same_or_fewer_positions_are_all_hits(self, unit_world, model):
        cases = self._cases(unit_world)
        big = SessionBatch.concat([cases["full_history"], cases["not_left_aligned"]])
        compiled = compile_model(model)
        compiled.predict_proba(big)
        arenas = (compiled.score_plan.arena, compiled.gate_plan.arena)
        before = [(arena.num_buffers, arena.misses) for arena in arenas]
        for batch in (big, *cases.values(), big):
            compiled.predict_proba(batch)
        assert [(arena.num_buffers, arena.misses) for arena in arenas] == before

    def test_view_cache_stays_bounded(self, unit_world, model):
        """Position counts vary run to run; the packed slots lease them at
        row capacity, so P above 128 reuses a handful of views per slot."""
        compiled = compile_model(model)
        rng = np.random.default_rng(4)
        seen = set()
        for _ in range(12):
            users = rng.integers(0, unit_world.num_users, size=int(rng.integers(24, 40)))
            batch = SessionBatch.concat([_session(unit_world, int(u), 1, 2) for u in users])
            seen.add(int(batch["behavior_mask"].sum()))
            compiled.predict_proba(batch)
        assert min(seen) > 128 and len(seen) > 4
        for arena in (compiled.score_plan.arena, compiled.gate_plan.arena):
            views = {}
            for step, slot, shape, _ in arena._views:
                views.setdefault((step, slot), set()).add(shape)
            packed = ("gate.h_behavior", "fc0")
            if arena is compiled.score_plan.arena:
                packed = ("input.h_behavior", "fc0")
            assert len(views[packed]) <= 2, views[packed]


settings.register_profile("factored", deadline=None, max_examples=25)


class TestRaggedCounts:
    """Batched scores equal per-session scores whatever the session sizes."""

    @settings(settings.get_profile("factored"))
    @given(
        sessions=st.lists(
            st.tuples(
                st.sampled_from([3, 7, 11, 40, 77, -1]),  # -1: an empty-history user
                st.integers(0, 7),
                st.integers(1, 9),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_batched_equals_per_session(self, unit_world, model, sessions):
        compiled = compile_model(model)
        batches = [
            _session(unit_world, _empty_user(unit_world) if user < 0 else user, category, count)
            for user, category, count in sessions
        ]
        combined = SessionBatch.concat(batches)
        batched = compiled.predict_proba(combined)
        alone = np.concatenate([compiled.predict_proba(batch) for batch in batches])
        assert batched.shape == (combined.num_rows,)
        np.testing.assert_allclose(batched, alone, rtol=1e-5, atol=1e-6)
        gates = compiled.serving_gate(combined)
        np.testing.assert_allclose(
            compiled.predict_proba(combined, gate_override=gates), alone, rtol=1e-5, atol=1e-6
        )
        # Parity mode agrees with the eager twin on the same ragged batch.
        exact = compile_model(model, dtype=np.float64)
        twin = float64_twin(model)
        twin.eval()
        assert np.array_equal(exact.predict_proba(combined), twin.predict_proba(combined.flat()))
