"""Compiled-vs-eager parity: the compiler's correctness contract.

* **float64 mode** replays the exact eager op order, so compiled scores are
  **bitwise equal** to a float64 eager twin of the model;
* **float32 fused mode** may reassociate float arithmetic (packed expert
  GEMM; the session-factored attention, see ``test_factored.py``) and must
  stay within 1e-4 relative of the eager float32 forward.

Both bars hold for every model the registry can promote: AW-MoE (search and
reco mode, all Table VI gate ablations), with and without ``gate_override``,
the sparse-gate extension — and across hot-swap boundaries.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, build_model
from repro.core.extensions.sparse_gate import SparseGatedAWMoE
from repro.data import WorldConfig
from repro.data.amazon import make_amazon_datasets
from repro.data.dataset import iterate_batches
from repro.infer import CompiledModel, compile_model, float64_twin
from repro.serving import FleetConfig, FleetContext, ManualClock, build_fleet

RTOL_F32 = 1e-4


def _rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-8))


@pytest.fixture(scope="module")
def batch(test_set):
    return next(iterate_batches(test_set, 64))


ALL_VARIANTS = [
    "aw_moe", "ablation_gu0_au0", "ablation_gu1_au0", "ablation_gu0_au1", "sparse_top2",
]
GATE_VARIANTS = ["aw_moe", "sparse_top2"]


def _model_variants(meta):
    """Every promotable architecture: full AW-MoE, the Table VI gate
    ablations and the sparse top-K extension."""
    variants = {}
    variants["aw_moe"] = build_model(
        "aw_moe", ModelConfig.unit(), meta, np.random.default_rng(0)
    )
    for gu, au in [(False, False), (True, False), (False, True)]:
        config = ModelConfig.unit().with_gate_ablation(gu, au)
        variants[f"ablation_gu{int(gu)}_au{int(au)}"] = build_model(
            "aw_moe", config, meta, np.random.default_rng(1)
        )
    variants["sparse_top2"] = SparseGatedAWMoE(
        ModelConfig.unit(), meta, np.random.default_rng(2), top_k=2
    )
    return variants


class TestFloat64Bitwise:
    """Parity mode must reproduce a float64 eager forward bit for bit."""

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_scores_bitwise(self, test_set, batch, name):
        model = _model_variants(test_set.meta)[name]
        model.eval()
        compiled = compile_model(model, dtype=np.float64)
        twin = float64_twin(model)
        twin.eval()
        assert np.array_equal(compiled.predict_proba(batch), twin.predict_proba(batch))
        assert np.array_equal(compiled.predict_logits(batch), twin.predict_logits(batch))

    @pytest.mark.parametrize("name", GATE_VARIANTS)
    def test_serving_gate_bitwise(self, test_set, batch, name):
        model = _model_variants(test_set.meta)[name]
        model.eval()
        compiled = compile_model(model, dtype=np.float64)
        twin = float64_twin(model)
        twin.eval()
        assert np.array_equal(compiled.serving_gate(batch), twin.serving_gate(batch))

    @pytest.mark.parametrize("name", GATE_VARIANTS)
    def test_gate_override_bitwise(self, test_set, batch, name):
        """Cached float32 session gates flow through both paths identically."""
        model = _model_variants(test_set.meta)[name]
        model.eval()
        override = model.serving_gate(batch)  # float32, as the cache stores it
        compiled = compile_model(model, dtype=np.float64)
        twin = float64_twin(model)
        twin.eval()
        assert np.array_equal(
            compiled.predict_proba(batch, gate_override=override),
            twin.predict_proba(batch, gate_override=override),
        )

    def test_reco_mode_bitwise(self):
        """Recommendation mode: the gate keys on the target item, the plan
        still compiles (candidate-dependent gate, no session caching)."""
        _, train, test = make_amazon_datasets(WorldConfig.unit(), seed=3)
        rbatch = test.batch_at(np.arange(min(32, len(test))))
        model = build_model(
            "aw_moe", ModelConfig.unit(task="reco"), train.meta, np.random.default_rng(5)
        )
        model.eval()
        compiled = compile_model(model, dtype=np.float64)
        assert not model.gate_is_candidate_independent
        twin = float64_twin(model)
        twin.eval()
        assert np.array_equal(compiled.predict_proba(rbatch), twin.predict_proba(rbatch))


class TestFloat32Tolerance:
    """Fused float32 mode: within 1e-4 relative of the eager float32 path."""

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_scores_close(self, test_set, batch, name):
        model = _model_variants(test_set.meta)[name]
        model.eval()
        compiled = compile_model(model)
        assert isinstance(compiled, CompiledModel)
        assert _rel_err(compiled.predict_proba(batch), model.predict_proba(batch)) < RTOL_F32

    @pytest.mark.parametrize("name", GATE_VARIANTS)
    def test_gate_and_override_close(self, test_set, batch, name):
        model = _model_variants(test_set.meta)[name]
        model.eval()
        compiled = compile_model(model)
        assert _rel_err(compiled.serving_gate(batch), model.serving_gate(batch)) < RTOL_F32
        override = model.serving_gate(batch)
        assert (
            _rel_err(
                compiled.predict_proba(batch, gate_override=override),
                model.predict_proba(batch, gate_override=override),
            )
            < RTOL_F32
        )


class TestHotSwapBoundary:
    """Parity must survive recompilation: after a fleet hot swap every shard
    scores with the new model's plan, never a stale one."""

    def test_cluster_scores_track_swapped_model(self, unit_world, make_model):
        model_a = make_model(trained=True)
        model_b = make_model(trained=False, init_seed=99)
        clock = ManualClock()
        cluster = build_fleet(
            unit_world,
            model_a,
            FleetConfig(
                num_workers=2, seed=0, max_batch_size=4, flush_deadline_ms=5.0,
                cache_capacity=64,
            ),
            backend="inprocess",
            ctx=FleetContext(clock=clock),
        )
        for worker in cluster.workers:
            worker.engine.set_model(model_a, "v1")
            assert worker.engine.compiled_model is not None

        rng = np.random.default_rng(7)
        events = [(int(rng.integers(0, 150)), int(rng.integers(0, 8))) for _ in range(24)]
        pre = []
        for user, category in events[:12]:
            pre.extend(cluster.submit(user, category))
        pre.extend(cluster.swap_model(model_b, "v2"))
        assert pre and all(r.model_version == "v1" for r in pre)
        post = []
        for user, category in events[12:]:
            post.extend(cluster.submit(user, category))
        post.extend(cluster.flush())
        assert post and all(r.model_version == "v2" for r in post)

        # Every shard's plan now reproduces model_b, not model_a.
        worker = cluster.workers[0]
        candidates = worker.engine.retrieve(2)
        batch = worker.engine.build_batch(5, 2, candidates)
        compiled_scores = worker.engine.score_candidates(batch)
        model_b.eval()
        model_a.eval()
        assert _rel_err(compiled_scores, model_b.predict_proba(batch)) < RTOL_F32
        eager_a = model_a.predict_proba(batch)
        assert not np.allclose(compiled_scores, eager_a, rtol=1e-3)

    def test_swap_recompiles_plan_object(self, unit_world, make_model):
        cluster = build_fleet(
            unit_world, make_model(trained=True), FleetConfig(num_workers=1, seed=0),
            backend="inprocess", ctx=FleetContext(clock=ManualClock()),
        )
        worker = cluster.workers[0]
        old_plan = worker.engine.compiled_model
        cluster.swap_model(make_model(trained=False, init_seed=41), "v2")
        assert worker.engine.compiled_model is not old_plan
        assert worker.engine.model_version == "v2"
