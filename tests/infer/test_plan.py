"""Plan mechanics: arena reuse, lease-once runs, gate-subgraph split, fallback, API contracts."""

import weakref

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.core.extensions.sparse_gate import SparseGatedAWMoE
from repro.data import SessionBatch, assemble_session
from repro.data.dataset import iterate_batches
from repro.infer import CompileError, compile_model
from repro.infer.plan import BufferArena, InferencePlan
from repro.nn import Tensor, no_grad
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
