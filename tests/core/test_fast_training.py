"""Parity of the fast training path against the eager reference.

The fast path (``TrainConfig.fast_path``) must optimize *exactly* the same
objective as the eager reference: packed-expert GEMMs, fused linear kernels,
the shared-trunk contrastive pair and the behaviour trunk packed to its valid
positions are all float-level reorderings of the reference computation, never
different math.  These tests pin that contract at every level — expert pool,
gate views, packed vs padded trunk, and full training steps.  None reads a
clock.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, TrainConfig, build_model
from repro.core.expert import ExpertPool
from repro.core.trainer import build_optimizers, build_strategy, train_step
from repro.data.dataset import iterate_batches
from repro.nn import GradArena, Tensor, fast_math
from repro.utils import SeedBank


def _pool(seed=0):
    return ExpertPool(12, (16, 8), 4, np.random.default_rng(seed))


class TestPackedExpertPool:
    def test_forward_matches_eager(self):
        pool = _pool()
        v_imp = Tensor(np.random.default_rng(1).normal(size=(6, 12)).astype(np.float32))
        eager = pool.forward_eager(v_imp)
        packed = pool.forward_packed(v_imp)
        assert packed.shape == (6, 4)
        assert np.allclose(eager.numpy(), packed.numpy(), atol=1e-6)

    def test_gradients_match_eager(self):
        pool = _pool()
        data = np.random.default_rng(2).normal(size=(6, 12)).astype(np.float32)
        upstream = np.random.default_rng(3).normal(size=(6, 4)).astype(np.float32)

        pool.forward_eager(Tensor(data)).backward(upstream)
        eager_grads = {name: p.grad.copy() for name, p in pool.named_parameters()}
        for param in pool.parameters():
            param.grad = None
        pool.forward_packed(Tensor(data)).backward(upstream)
        for name, param in pool.named_parameters():
            assert np.allclose(eager_grads[name], param.grad, atol=1e-5), name

    def test_forward_dispatches_packed_under_fast_math(self):
        pool = _pool()
        v_imp = Tensor(np.random.default_rng(4).normal(size=(3, 12)).astype(np.float32))
        eager = pool(v_imp)
        with fast_math():
            fast = pool(v_imp)
        assert np.allclose(eager.numpy(), fast.numpy(), atol=1e-6)


class TestGateViews:
    def _model(self, train_set, config=None):
        config = config or ModelConfig.unit()
        return build_model("aw_moe", config, train_set.meta, np.random.default_rng(7))

    def test_views_match_separate_forwards(self, train_set):
        model = self._model(train_set)
        batch = train_set.batch_at(np.arange(8))
        positive = batch["behavior_mask"] * (np.random.default_rng(8).random(batch["behavior_mask"].shape) > 0.3)
        anchor_ref = model.gate.forward(batch)
        positive_ref = model.gate.forward(batch, mask_override=positive)
        anchor, positive_view = model.gate.forward_views(batch, [None, positive])
        assert np.allclose(anchor.numpy(), anchor_ref.numpy(), atol=1e-6)
        assert np.allclose(positive_view.numpy(), positive_ref.numpy(), atol=1e-6)

    @pytest.mark.parametrize("gate_unit,activation_unit", [(True, False), (False, True), (False, False)])
    def test_views_match_for_ablation_variants(self, train_set, gate_unit, activation_unit):
        config = ModelConfig.unit().with_gate_ablation(gate_unit, activation_unit)
        model = self._model(train_set, config)
        batch = train_set.batch_at(np.arange(8))
        positive = batch["behavior_mask"] * (np.random.default_rng(9).random(batch["behavior_mask"].shape) > 0.3)
        anchor, view = model.gate.forward_views(batch, [None, positive])
        assert np.allclose(anchor.numpy(), model.gate.forward(batch).numpy(), atol=1e-6)
        assert np.allclose(
            view.numpy(), model.gate.forward(batch, mask_override=positive).numpy(), atol=1e-6
        )

    def test_forward_with_gate_views_logits_match(self, train_set):
        model = self._model(train_set)
        batch = train_set.batch_at(np.arange(8))
        positive = batch["behavior_mask"].copy()
        logits_ref, gate_ref = model.forward_with_gate(batch)
        logits, gates = model.forward_with_gate_views(batch, [positive])
        assert len(gates) == 2
        assert np.allclose(logits.numpy(), logits_ref.numpy(), atol=1e-6)
        assert np.allclose(gates[0].numpy(), gate_ref.numpy(), atol=1e-6)


def _run_steps(train_set, fast, steps=6, augmentation="mask", seed=11):
    bank = SeedBank(seed)
    config = TrainConfig(
        epochs=1,
        batch_size=16,
        learning_rate=1e-3,
        contrastive=True,
        augmentation=augmentation,
        fast_path=fast,
    )
    model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, bank.child("model"))
    optimizer = build_optimizers(model, config)
    strategy = build_strategy(config)
    cl_rng = bank.child("cl")
    arena = GradArena() if fast else None
    model.train()
    losses = []
    batches = iterate_batches(train_set, 16, rng=bank.child("shuffle"), drop_last=True)
    for i, batch in enumerate(batches):
        if i == steps:
            break
        metrics = train_step(model, batch, config, optimizer, strategy, cl_rng, arena)
        losses.append(metrics["loss"])
    return model, losses


class TestTrainStepParity:
    @pytest.mark.parametrize("augmentation", ["mask", "crop", "reorder"])
    def test_fast_matches_eager_losses_and_params(self, train_set, augmentation):
        eager_model, eager_losses = _run_steps(train_set, fast=False, augmentation=augmentation)
        fast_model, fast_losses = _run_steps(train_set, fast=True, augmentation=augmentation)
        assert np.allclose(eager_losses, fast_losses, rtol=1e-4, atol=1e-5)
        eager_params = dict(eager_model.named_parameters())
        for name, param in fast_model.named_parameters():
            assert np.allclose(
                eager_params[name].data, param.data, rtol=1e-3, atol=1e-5
            ), name

    def test_reference_mode_is_deterministic(self, train_set):
        """fast_path=False is the bitwise-reproducible reference trajectory."""
        _, first = _run_steps(train_set, fast=False)
        _, second = _run_steps(train_set, fast=False)
        assert first == second

    def test_fast_mode_is_deterministic(self, train_set):
        _, first = _run_steps(train_set, fast=True)
        _, second = _run_steps(train_set, fast=True)
        assert first == second

    def test_non_contrastive_parity(self, train_set):
        results = {}
        for fast in (False, True):
            bank = SeedBank(13)
            config = TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3, fast_path=fast)
            model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, bank.child("m"))
            optimizer = build_optimizers(model, config)
            strategy = build_strategy(config)
            arena = GradArena() if fast else None
            model.train()
            batch = train_set.batch_at(np.arange(16))
            losses = [
                train_step(model, batch, config, optimizer, strategy, None, arena)["loss"]
                for _ in range(4)
            ]
            results[fast] = losses
        assert np.allclose(results[False], results[True], rtol=1e-4, atol=1e-5)

    def test_sparse_gate_fast_path_keeps_top_k(self, train_set):
        """The sparse extension's anchor gate must stay top-K sparsified on
        the shared-trunk fast path (it both weights the experts and anchors
        the contrastive loss, exactly as in eager training)."""
        from repro.core.extensions import SparseGatedAWMoE

        model = SparseGatedAWMoE(
            ModelConfig.unit(), train_set.meta, np.random.default_rng(19), top_k=1
        )
        batch = train_set.batch_at(np.arange(8))
        positive = batch["behavior_mask"].copy()
        logits_ref, gate_ref = model.forward_with_gate(batch)
        logits, gates = model.forward_with_gate_views(batch, [positive])
        k = ModelConfig.unit().num_experts
        assert np.all((gates[0].numpy() == 0.0).sum(axis=1) == k - 1)
        assert np.allclose(gates[0].numpy(), gate_ref.numpy(), atol=1e-6)
        assert np.allclose(logits.numpy(), logits_ref.numpy(), atol=1e-6)
        # The positive view stays dense, matching eager gate_vector().
        assert np.allclose(
            gates[1].numpy(), model.gate_vector(batch, mask_override=positive).numpy(),
            atol=1e-6,
        )

    def test_baseline_without_gate_views_still_trains_fast(self, train_set):
        """Models lacking forward_with_gate_views run fast_path without the
        shared-trunk contrastive branch (packed experts + fused kernels only)."""
        bank = SeedBank(17)
        config = TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3, fast_path=True)
        model = build_model("dnn", ModelConfig.unit(), train_set.meta, bank.child("m"))
        optimizer = build_optimizers(model, config)
        strategy = build_strategy(config)
        batch = train_set.batch_at(np.arange(16))
        metrics = train_step(model, batch, config, optimizer, strategy, None, GradArena())
        assert np.isfinite(metrics["loss"])


# ----------------------------------------------------------------------
# the packed behaviour trunk: valid positions only, gathered once per step
# ----------------------------------------------------------------------
def _awkward_batch(train_set, rows=12):
    """A batch whose masks hit every layout corner: an empty row, a
    full-length row, non-prefix masks, and a positive view that masking
    emptied / that has support outside the anchor's."""
    batch = {k: np.array(v, copy=True) for k, v in train_set.batch_at(np.arange(rows)).items()}
    mask = batch["behavior_mask"]
    seq_len = mask.shape[1]
    mask[0] = 0.0  # empty row (new user)
    mask[1] = 1.0  # full-length row
    mask[2] = np.arange(seq_len) % 2  # non-prefix
    mask[3] = 0.0
    mask[3, seq_len - 1] = 1.0  # a single trailing position
    mask[4, :2] = 1.0
    mask[5, 0] = 1.0
    positive = mask * (np.random.default_rng(21).random(mask.shape) > 0.4)
    positive[4] = 0.0  # masking emptied this view
    positive[5] = 0.0
    positive[5, 1:3] = 1.0  # support outside the anchor's
    return batch, positive.astype(np.float32)


def _objective(model, batch, positive, weights, packed):
    """A scalar reading logits, anchor gate and positive gate; ``packed``
    selects the fast path, otherwise the padded reference computes it."""
    if packed:
        with fast_math():
            logits, (anchor, view) = model.forward_with_gate_views(batch, [positive])
    else:
        logits, anchor = model.forward_with_gate(batch)
        view = model.gate_vector(batch, mask_override=positive)
    loss = (logits * weights[0]).sum() + (anchor * weights[1]).sum() + (view * weights[2]).sum()
    return loss, logits, anchor, view


def _weights(batch, num_experts, seed=5):
    rng = np.random.default_rng(seed)
    rows = batch["label"].shape[0]
    return [rng.normal(size=(rows,)), rng.normal(size=(rows, num_experts)), rng.normal(size=(rows, num_experts))]


def _grads(model, loss):
    for param in model.parameters():
        param.grad = None
    loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}


def _to_float64(model):
    for param in model.parameters():
        param.data = param.data.astype(np.float64)
    return model


def _assert_packed_matches_padded(model, batch, positive):
    """Logits, anchor and positive gates <= 1e-6, every gradient <= 1e-5;
    returns the packed (logits, anchor, view)."""
    weights = _weights(batch, model.config.num_experts)
    ref_loss, *ref_outputs = _objective(model, batch, positive, weights, packed=False)
    ref_grads = _grads(model, ref_loss)
    fast_loss, *fast_outputs = _objective(model, batch, positive, weights, packed=True)
    fast_grads = _grads(model, fast_loss)
    for ref, fast in zip(ref_outputs, fast_outputs):
        assert np.allclose(ref.numpy(), fast.numpy(), atol=1e-6)
    assert ref_grads.keys() == fast_grads.keys()
    for name, grad in ref_grads.items():
        assert np.allclose(grad, fast_grads[name], atol=1e-5), name
    return fast_outputs


_GATE_VARIANTS = [(True, True), (True, False), (False, True), (False, False)]


class TestPackedTrunkParity:
    def _model(self, train_set, gate_unit=True, activation_unit=True, name="aw_moe"):
        config = ModelConfig.unit().with_gate_ablation(gate_unit, activation_unit)
        return build_model(name, config, train_set.meta, np.random.default_rng(31))

    @pytest.mark.parametrize("gate_unit,activation_unit", _GATE_VARIANTS)
    def test_forward_and_gradients_match_padded(self, train_set, gate_unit, activation_unit):
        model = self._model(train_set, gate_unit, activation_unit)
        batch, positive = _awkward_batch(train_set)
        _assert_packed_matches_padded(model, batch, positive)

    @pytest.mark.parametrize("gate_unit,activation_unit", _GATE_VARIANTS)
    def test_random_direction_float64(self, train_set, gate_unit, activation_unit):
        """SNIPPETS.md #3: project the gradient on one random direction.
        In float64 the packed and padded projections agree to 1e-10 and both
        match the central difference of the packed objective."""
        model = _to_float64(self._model(train_set, gate_unit, activation_unit))
        batch, positive = _awkward_batch(train_set)
        weights = _weights(batch, model.config.num_experts)
        params = dict(model.named_parameters())
        rng = np.random.default_rng(41)
        direction = {name: rng.normal(size=p.data.shape) for name, p in params.items()}
        norm = np.sqrt(sum((d * d).sum() for d in direction.values()))
        direction = {name: d / norm for name, d in direction.items()}

        def projected(packed):
            grads = _grads(model, _objective(model, batch, positive, weights, packed)[0])
            return sum((grads[name] * direction[name]).sum() for name in grads)

        def shifted(eps):
            for name, param in params.items():
                param.data += eps * direction[name]
            try:
                return float(_objective(model, batch, positive, weights, True)[0].numpy())
            finally:
                for name, param in params.items():
                    param.data -= eps * direction[name]

        analytic = projected(packed=True)
        assert abs(analytic - projected(packed=False)) <= 1e-10
        eps = 1e-6
        numeric = (shifted(eps) - shifted(-eps)) / (2 * eps)
        assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(analytic))

    def test_all_empty_batch(self, train_set):
        """P = 0: every row is a new user; the gate is its bias."""
        model = self._model(train_set)
        batch, _ = _awkward_batch(train_set)
        batch["behavior_mask"][:] = 0.0
        _assert_packed_matches_padded(model, batch, batch["behavior_mask"].copy())

    def test_sparse_top_k_gate(self, train_set):
        from repro.core.extensions import SparseGatedAWMoE

        model = SparseGatedAWMoE(
            ModelConfig.unit(), train_set.meta, np.random.default_rng(19), top_k=2
        )
        batch, positive = _awkward_batch(train_set)
        logits, anchor, _ = _assert_packed_matches_padded(model, batch, positive)
        # (row 0 is empty: its gate is the uniform bias, a four-way tie.)
        zeros = (anchor.numpy()[1:] == 0.0).sum(axis=1)
        assert np.all(zeros == model.config.num_experts - 2)
        # The plain forward takes the packed path under fast_math too.
        with fast_math():
            assert np.allclose(model.forward(batch).numpy(), logits.numpy(), atol=1e-6)

    @pytest.mark.parametrize("name", ["din", "dnn"])
    def test_input_network_baselines(self, train_set, name):
        model = self._model(train_set, name=name)
        batch, _ = _awkward_batch(train_set)
        upstream = np.random.default_rng(6).normal(size=batch["label"].shape).astype(np.float32)
        reference = model.forward(batch)
        ref_grads = _grads(model, (reference * upstream).sum())
        with fast_math():
            fast = model.forward(batch)
        fast_grads = _grads(model, (fast * upstream).sum())
        assert np.allclose(reference.numpy(), fast.numpy(), atol=1e-6)
        assert ref_grads.keys() == fast_grads.keys()
        for key, grad in ref_grads.items():
            assert np.allclose(grad, fast_grads[key], atol=1e-5), key

    def test_trunk_runs_on_valid_positions_only(self, train_set, monkeypatch):
        """The 13 position-wise linears (both behaviour MLPs, the attention,
        gate and activation units) see exactly nnz(mask) rows, and each
        behaviour table is gathered once for the whole step."""
        import repro.nn.layers as layers

        model = self._model(train_set)
        batch, _ = _awkward_batch(train_set)
        positive = batch["behavior_mask"] * (np.random.default_rng(2).random(batch["behavior_mask"].shape) > 0.3)
        rows, valid = batch["label"].shape[0], int(np.count_nonzero(batch["behavior_mask"]))
        assert valid not in (rows, batch["behavior_mask"].size)
        trunk = {
            id(p)
            for module in (
                model.input_network.behavior_mlp, model.input_network.attention,
                model.gate.behavior_mlp, model.gate.gate_unit, model.gate.activation_unit,
            )
            for p in module.parameters()
        }
        linear_rows, gathers = [], []
        original_linear, original_embedding = layers.linear_op, layers.embedding_op

        def recording_linear(x, weight, bias, relu=False):
            if id(weight) in trunk:
                linear_rows.append(x.shape[0] if x.ndim == 2 else -1)
            return original_linear(x, weight, bias, relu=relu)

        def recording_embedding(weight, indices):
            gathers.append((id(weight), np.shape(indices)))
            return original_embedding(weight, indices)

        monkeypatch.setattr(layers, "linear_op", recording_linear)
        monkeypatch.setattr(layers, "embedding_op", recording_embedding)
        with fast_math():
            logits, gates = model.forward_with_gate_views(batch, [positive])
            (logits.sum() + gates[1].sum()).backward()
        # MLP^I also encodes the target item: its two layers see B rows.
        assert sorted(linear_rows) == sorted([rows] * 2 + [valid] * 13)
        for table in (model.embedder.item, model.embedder.category):
            shapes = [shape for weight, shape in gathers if weight == id(table.weight)]
            assert sorted(shapes) == sorted([(rows,), (valid,)])

    @pytest.mark.parametrize("augmentation,trunk_passes", [("mask", 1), ("crop", 1), ("reorder", 2)])
    def test_trunk_passes_per_step(self, train_set, augmentation, trunk_passes):
        config = TrainConfig(
            epochs=1, batch_size=16, contrastive=True, augmentation=augmentation, fast_path=True
        )
        model = self._model(train_set)
        calls = []
        original = model.gate.forward_views
        model.gate.forward_views = lambda *a, **k: calls.append(1) or original(*a, **k)
        model.train()
        train_step(
            model, train_set.batch_at(np.arange(16)), config, build_optimizers(model, config),
            build_strategy(config), np.random.default_rng(0), GradArena(),
        )
        assert len(calls) == trunk_passes
