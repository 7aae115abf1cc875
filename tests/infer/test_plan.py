"""Plan mechanics: arena reuse, lease-once runs, blocked runs, gate-subgraph
split, fallback, API contracts."""

import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.core.extensions.sparse_gate import SparseGatedAWMoE
from repro.data import SessionBatch, assemble_session
from repro.data.dataset import iterate_batches
from repro.infer import CompileError, compile_model, compile_train_step
from repro.infer import plan as plan_module
from repro.infer.kernels import PackedExperts
from repro.infer.plan import BLOCK_ROWS, BufferArena, InferencePlan
from repro.nn import AdamW, Tensor, no_grad
from repro.serving import SearchEngine


@pytest.fixture(scope="module")
def model(test_set):
    m = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
    m.eval()
    return m


@pytest.fixture(scope="module")
def batch(test_set):
    return next(iterate_batches(test_set, 32))


def _sessions(world, count):
    """``count`` sessions of unequal size (1 to 7 candidates) as one batch."""
    rng = np.random.default_rng(count)
    parts = []
    for s in range(count):
        category = s % world.config.num_categories
        members = np.flatnonzero(world.item_category == category)
        chosen = rng.choice(members, size=min(1 + (3 * s) % 7, members.size), replace=False)
        parts.append(assemble_session(world, 3 + 5 * s, category, chosen))
    return SessionBatch.concat(parts)


class TestBufferArena:
    def test_zero_allocations_after_warmup(self, model, batch):
        """One warmup call populates the arena; every later same-shape call
        leases existing buffers only (the zero-per-call-allocation claim)."""
        compiled = compile_model(model)
        compiled.predict_proba(batch)
        score_arena = compiled.score_plan.arena
        gate_arena = compiled.gate_plan.arena
        buffers_before = (score_arena.num_buffers, gate_arena.num_buffers)
        misses_before = (score_arena.misses, gate_arena.misses)
        for _ in range(5):
            compiled.predict_proba(batch)
        assert (score_arena.num_buffers, gate_arena.num_buffers) == buffers_before
        assert (score_arena.misses, gate_arena.misses) == misses_before
        assert score_arena.hits > 0 and gate_arena.hits > 0

    def test_buffers_are_reused_identically(self, model, batch):
        """copy=False hands back the very same output buffer every call."""
        compiled = compile_model(model)
        first = compiled.predict_logits(batch, copy=False)
        second = compiled.predict_logits(batch, copy=False)
        assert first is second

    def test_new_shape_extends_arena_once(self, model, test_set):
        """A larger batch grows the existing slot buffers — no new slots —
        and every smaller batch then runs in their prefix: after small and
        large, the arena holds exactly what a large-only plan holds."""
        compiled = compile_model(model)
        small = next(iterate_batches(test_set, 8))
        large = next(iterate_batches(test_set, 16))
        arena = compiled.score_plan.arena
        compiled.predict_proba(small)
        counts_small = (arena.num_buffers, arena.misses)
        compiled.predict_proba(large)
        assert arena.misses > counts_small[1]
        assert arena.num_buffers == counts_small[0]
        counts_both = (arena.num_buffers, arena.misses)
        compiled.predict_proba(small)
        compiled.predict_proba(large)
        assert (arena.num_buffers, arena.misses) == counts_both
        large_only = compile_model(model)
        large_only.predict_proba(large)
        assert arena.nbytes == large_only.score_plan.arena.nbytes
        assert compiled.gate_plan.arena.nbytes == large_only.gate_plan.arena.nbytes

    def test_growth_frees_the_outgrown_buffer(self):
        """A growth replaces the slot buffer and drops the cached views that
        would keep the old one alive; smaller shapes then view the new one."""
        arena = BufferArena()
        arena.lease("step", "out", (2, 3))
        outgrown = weakref.ref(arena._slots[("step", "out", np.dtype(np.float32))])
        big = arena.lease("step", "out", (4, 3))
        assert outgrown() is None
        small = arena.lease("step", "out", (2, 3))
        assert small.base is big.base and small.flags.c_contiguous
        assert (arena.num_buffers, arena.misses, arena.nbytes) == (1, 2, big.nbytes)

    def test_smaller_batches_see_no_stale_rows(self, model, unit_world):
        """One plan fed 8, 3, 8, 1 and 5 sessions answers bitwise like a
        fresh plan per batch: nothing a larger batch left in a slot buffer
        leaks into a smaller one."""
        shared = compile_model(model)
        for sessions in (8, 3, 8, 1, 5):
            batch = _sessions(unit_world, sessions)
            fresh = compile_model(model)
            for name in ("predict_logits", "serving_gate", "expert_scores"):
                got = getattr(shared, name)(batch)
                want = getattr(fresh, name)(batch)
                assert got.shape == want.shape, (sessions, name)
                assert np.array_equal(got, want), (sessions, name)

    def test_arena_reports_working_set(self, model, batch):
        compiled = compile_model(model)
        compiled.predict_proba(batch)
        stats = compiled.stats()
        assert stats["score"]["arena_bytes"] > 0
        assert stats["gate"]["arena_buffers"] > 0
        assert stats["score"]["calls"] >= 1


def _guard_leases(monkeypatch):
    """Fail any plan ``run`` that leases one ``(step, slot, dtype)`` twice —
    all shapes of a slot alias one buffer, so the second lease would
    overwrite the first.  Returns the per-run lease counts."""
    lease, run = BufferArena.lease, InferencePlan.run
    live, runs = {}, []

    def guarded_lease(arena, step, slot, shape, dtype=None):
        buf = lease(arena, step, slot, shape, dtype)
        seen = live[id(arena)]
        key = (step, slot, buf.dtype)
        assert key not in seen, f"{key} leased twice in one run"
        seen.add(key)
        return buf

    def guarded_run(plan, batch, output=None, **bound):
        live[id(plan.arena)] = set()
        try:
            return run(plan, batch, output, **bound)
        finally:
            runs.append((plan.name, len(live.pop(id(plan.arena)))))

    monkeypatch.setattr(BufferArena, "lease", guarded_lease)
    monkeypatch.setattr(InferencePlan, "run", guarded_run)
    return runs


#: Table VI switches (gate unit, activation unit): the full gate and both
#: ablations, which take the pooled-MLP path.
_GATE_ABLATIONS = {"aw_moe": (True, True), "base": (False, False), "base_au": (False, True)}


def _guard_model(name, meta):
    rng = np.random.default_rng(0)
    if name == "sparse_top2":
        model = SparseGatedAWMoE(ModelConfig.unit(), meta, rng, top_k=2)
    else:
        config = ModelConfig.unit().with_gate_ablation(*_GATE_ABLATIONS[name])
        model = build_model("aw_moe", config, meta, rng)
    model.eval()
    return model


class TestLeaseOncePerRun:
    """Gate and score plans lease each slot at most once per ``run`` — on
    flat and session batches, in float32 and float64 parity, for every gate
    shape and the sparse top-K gate."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["aw_moe", "base", "base_au", "sparse_top2"])
    def test_gate_and_score_plans(self, monkeypatch, test_set, unit_world, batch, name, dtype):
        compiled = compile_model(_guard_model(name, test_set.meta), dtype=dtype)
        runs = _guard_leases(monkeypatch)
        factored = _sessions(unit_world, 4)
        for rows in (batch, factored):
            compiled.predict_proba(rows)
            compiled.expert_scores(rows)
            gates = compiled.serving_gate(rows)
        compiled.predict_proba(factored, gate_override=gates)
        assert {plan for plan, _ in runs} == {"gate", "score"}
        assert all(count > 0 for _, count in runs)


def _block_batch(world, blocks, counts=(256, 256, 256, 256)):
    """``blocks`` runs of sessions with ``counts`` candidates each, every run
    the same users (so the same history lengths, an empty one among them)
    under other queries: one shape per run, other values."""
    empty = next(u for u in range(world.num_users) if len(world.histories[u]) == 0)
    users = [3, empty, 11, 40]
    rng = np.random.default_rng(blocks)
    parts = []
    for b in range(blocks):
        for s, count in enumerate(counts):
            category = (b + s) % world.config.num_categories
            members = np.flatnonzero(world.item_category == category)
            parts.append(
                assemble_session(world, users[s % 4], category, rng.choice(members, size=count))
            )
    return SessionBatch.concat(parts)


def _by_block(batch, run, *bound):
    """``run(block, *bound cut to it)`` for each block, concatenated: the
    reference a blocked run must equal bit for bit."""
    parts, s0, r0 = [], 0, 0
    for block in batch.blocks(BLOCK_ROWS):
        s1, r1 = s0 + block.num_sessions, r0 + block.num_rows
        cut = [rows[s0:s1] if len(rows) == batch.num_sessions else rows[r0:r1] for rows in bound]
        parts.append(run(block, *cut))
        s0, r0 = s1, r1
    return np.concatenate(parts)


def _slot_bytes(arena):
    return {key: buf.nbytes for key, buf in arena._slots.items()}


class TestBlocks:
    """A session batch of more than ``BLOCK_ROWS`` rows runs block by block;
    every assertion is a count or a value, none reads a clock."""

    @pytest.fixture(scope="class")
    def big(self, unit_world):
        return _block_batch(unit_world, 10)

    def test_ten_blocks_equal_each_block_alone(self, model, big):
        assert big.num_rows == 10 * BLOCK_ROWS
        assert [b.num_rows for b in big.blocks(BLOCK_ROWS)] == [BLOCK_ROWS] * 10
        blocked, alone = compile_model(model), compile_model(model)
        for name in ("predict_proba", "expert_scores", "serving_gate"):
            got = getattr(blocked, name)(big)
            assert np.array_equal(got, _by_block(big, getattr(alone, name))), name
        rng, k = np.random.default_rng(0), model.config.num_experts
        per_session = rng.random((big.num_sessions, k), dtype=np.float32)
        per_row = rng.random((big.num_rows, k), dtype=np.float32)
        for gates in (per_session, per_row):
            got = blocked.predict_proba(big, gate_override=gates)
            want = _by_block(big, lambda b, g: alone.predict_proba(b, gate_override=g), gates)
            assert np.array_equal(got, want)
        eager = model.predict_proba(big.flat())
        scores = blocked.predict_proba(big)
        assert np.max(np.abs(scores - eager) / np.maximum(np.abs(eager), 1e-8)) <= 1e-4

    def test_arenas_hold_one_block(self, model, big):
        """Score and gate arenas after the 10-block batch hold what one
        block leaves, plus the run's output buffer."""
        blocked, one = compile_model(model), compile_model(model)
        blocked.predict_proba(big)
        one.predict_proba(next(big.blocks(BLOCK_ROWS)))
        f32, k = np.dtype(np.float32), model.config.num_experts
        outputs = {
            "score": {("run", "logits", f32): big.num_rows * f32.itemsize},
            "gate": {("run", "gate", f32): big.num_sessions * k * f32.itemsize},
        }
        for name in ("score", "gate"):
            got = _slot_bytes(getattr(blocked, f"{name}_plan").arena)
            want = _slot_bytes(getattr(one, f"{name}_plan").arena)
            assert got == {**want, **outputs[name]}, name

    def test_an_oversized_session_runs_alone(self, model, unit_world):
        batch = _block_batch(unit_world, 1, counts=(300, 1300, 300))
        assert [b.num_rows for b in batch.blocks(BLOCK_ROWS)] == [300, 1300, 300]
        blocked, alone = compile_model(model), compile_model(model)
        assert np.array_equal(blocked.predict_proba(batch), _by_block(batch, alone.predict_proba))
        rows = blocked.score_plan.arena._slots[("mix", "logits", np.dtype(np.float32))]
        assert rows.size == 1300

    def test_calls_once_and_hook_once_per_step_per_block(self, model, big):
        plan = compile_model(model).score_plan
        fired = Counter()
        plan.step_hook = lambda step, seconds, ctx: fired.update([id(step)])
        gate = np.ones((big.num_sessions, model.config.num_experts), dtype=np.float32)
        for calls in (1, 2):
            plan.run(big, gate=gate)
            assert plan.calls == calls
            assert fired == {id(step): 10 * calls for step in plan.steps}

    def test_an_output_of_packed_rows_cannot_run_in_blocks(self, model, big):
        plan = compile_model(model).score_plan
        gate = np.ones((big.num_sessions, model.config.num_experts), dtype=np.float32)
        assert plan.run(big, output="v_imp", gate=gate).shape[0] == big.num_rows
        with pytest.raises(ValueError, match="cannot run in blocks"):
            plan.run(big, output="h_behavior", gate=gate)

    def test_runs_within_a_block_are_one_pass(self, model, big, monkeypatch):
        """At most ``BLOCK_ROWS`` rows, a flat batch and float64 parity run
        one pass over the whole batch, with no output buffer of its own:
        bitwise what the plan gives with blocks switched off."""
        cases = {
            "block": (np.float32, next(big.blocks(BLOCK_ROWS))),
            "flat": (np.float32, big.sessions(0, 8).flat()),
            "parity": (np.float64, big.sessions(0, 8)),
        }
        for name, (dtype, batch) in cases.items():
            compiled = compile_model(model, dtype=dtype)
            fired = Counter()
            compiled.score_plan.step_hook = lambda step, seconds, ctx: fired.update([id(step)])
            got = compiled.predict_proba(batch)
            assert set(fired.values()) == {1}, name
            assert not any(key[0] == "run" for key in compiled.score_plan.arena._slots), name
            with monkeypatch.context() as patch:
                patch.setattr(plan_module, "BLOCK_ROWS", 10 * BLOCK_ROWS)
                single = compile_model(model, dtype=dtype).predict_proba(batch)
            assert np.array_equal(got, single), name


class TestExpertsReadH1InPlace:
    """The experts' deep layers read the first layer's ``(B, K*H)`` output
    through a ``(K, B, H)`` view: bitwise what a contiguous copy gives, in
    serving and in the compiled train step's gradients."""

    @staticmethod
    def _run(model, batches, train_batch):
        compiled = compile_model(model)
        served = [compiled.predict_proba(b) for b in batches]
        served += [compiled.expert_scores(b) for b in batches]
        step = compile_train_step(model, AdamW(model.parameters()))
        rng = np.random.default_rng(0)
        mask = train_batch["behavior_mask"]
        positive = mask * (rng.random(mask.shape) > 0.3).astype(np.float32)
        logits, anchor, view = step.forward(train_batch, positive)
        step.backward(*(rng.normal(size=x.shape).astype(np.float32) for x in (logits, anchor, view)))
        grads = {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}
        return served, grads, compiled

    def test_view_equals_a_copy(self, test_set, train_set, unit_world, monkeypatch):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(4))
        batches = [_sessions(unit_world, 8), next(iterate_batches(test_set, 32))]
        train_batch = train_set.batch_at(np.arange(32))
        served, grads, compiled = self._run(model, batches, train_batch)
        assert not any("kbh0" in key for key in compiled.score_plan.arena._slots)
        view = PackedExperts.by_expert
        monkeypatch.setattr(
            PackedExperts, "by_expert", lambda self, h1: np.ascontiguousarray(view(self, h1))
        )
        copied, copied_grads, _ = self._run(model, batches, train_batch)
        assert all(np.array_equal(a, b) for a, b in zip(served, copied))
        assert grads.keys() == copied_grads.keys() and len(grads) > 0
        for name, grad in grads.items():
            assert np.array_equal(grad, copied_grads[name]), name


class TestPlanStructure:
    def test_flat_fused_program(self, model):
        """The plan is a flat topologically ordered kernel list — embeds
        before MLPs before pooling before experts before the mix."""
        compiled = compile_model(model)
        kinds = [step.kind for step in compiled.score_plan.steps]
        assert kinds.index("embed") < kinds.index("mlp")
        assert kinds.index("experts") < kinds.index("mix")
        assert compiled.score_plan.steps[-1].kind == "mix"
        names = [step.name for step in compiled.score_plan.steps]
        assert "input.v_imp" in names and "experts" in names

    def test_gate_subgraph_is_candidate_independent(self, model):
        """Search mode: the split-out gate plan never reads the candidate,
        which is what makes per-session caching sound (§III-F1)."""
        compiled = compile_model(model)
        assert model.gate_is_candidate_independent
        for key in compiled.gate_plan.inputs:
            assert not key.startswith("target_")
        assert "query" in compiled.gate_plan.inputs

    def test_missing_input_raises(self, model, batch):
        compiled = compile_model(model)
        broken = {k: v for k, v in batch.items() if k != "query"}
        with pytest.raises(KeyError, match="query"):
            compiled.gate_plan.run(broken)

    def test_unsupported_dtype_rejected(self, model):
        with pytest.raises(CompileError):
            compile_model(model, dtype=np.float16)


class TestFallback:
    def test_unregistered_model_raises(self, test_set):
        dnn = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        with pytest.raises(CompileError):
            compile_model(dnn)

    def test_engine_falls_back_to_eager(self, unit_world, test_set):
        """Baselines with no compiler still serve — eagerly."""
        dnn = build_model("dnn", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        engine = SearchEngine(unit_world, dnn, np.random.default_rng(1))
        assert engine.compiled_model is None
        result = engine.search(user=3, query_category=2)
        assert np.all(np.diff(result.scores) <= 0)

    def test_engine_compiles_awmoe_by_default(self, unit_world, model):
        engine = SearchEngine(unit_world, model, np.random.default_rng(1))
        assert engine.compiled_model is not None
        result = engine.search(user=3, query_category=2)
        assert result.items.size == result.scores.size

    def test_compile_false_forces_eager(self, unit_world, model):
        engine = SearchEngine(unit_world, model, np.random.default_rng(1), compile=False)
        assert engine.compiled_model is None


class TestApiContracts:
    def test_default_copy_survives_next_call(self, model, batch):
        compiled = compile_model(model)
        first = compiled.predict_proba(batch)
        snapshot = first.copy()
        compiled.predict_proba(batch)  # would overwrite a borrowed buffer
        assert np.array_equal(first, snapshot)

    def test_serving_gate_returns_owned_copy(self, model, batch):
        """Cached gate vectors must survive arbitrarily many later calls."""
        compiled = compile_model(model)
        gate = compiled.serving_gate(batch)
        snapshot = gate.copy()
        compiled.serving_gate(batch)
        compiled.predict_proba(batch)
        assert np.array_equal(gate, snapshot)

    def test_engine_serving_gate_matches_model(self, unit_world, model, batch):
        engine = SearchEngine(unit_world, model, np.random.default_rng(1))
        compiled_gate = engine.serving_gate(batch)
        eager_gate = model.serving_gate(batch)
        assert np.allclose(compiled_gate, eager_gate, rtol=1e-4, atol=1e-6)

    def test_packed_weights_are_snapshots(self, model, batch):
        """Mutating the source model after compile must not leak into the
        plan — hot swap relies on the old plan serving unchanged weights."""
        compiled = compile_model(model)
        before = compiled.predict_proba(batch)
        param = model.parameters()[0]
        original = param.data.copy()
        try:
            param.data[...] += 1.0
            after = compiled.predict_proba(batch)
        finally:
            param.data[...] = original
        assert np.array_equal(before, after)


class TestTensorFastPath:
    """The eager-side satellite: no graph bookkeeping under no_grad."""

    def test_detach_numpy_is_zero_copy_and_graphless(self):
        t = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = (t * 2.0).relu()
        raw = out.detach_numpy()
        assert raw is out.data  # documented: no copy
        assert isinstance(raw, np.ndarray)

    def test_no_grad_ops_build_no_graph(self):
        t = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        with no_grad():
            out = (t.matmul(w) + 1.0).relu().sum()
        assert out._backward is None
        assert out._parents == ()
        assert not out.requires_grad

    def test_grad_path_unchanged(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        (t * 3.0).sum().backward()
        assert np.allclose(t.grad, 3.0)
