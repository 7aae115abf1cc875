"""Parity of the fast training path against the eager reference.

The fast path (``TrainConfig.fast_path``) must optimize *exactly* the same
objective as the eager reference.  AW-MoE trains through its compiled step
(:mod:`repro.infer.training`: flat fused kernels, the behaviour trunk on its
valid positions, one trunk pass for both contrastive views, under every
augmentation); every other model runs the eager tape either way.  The
compiled step is float-level reordering of the reference computation, never
different math: logits and gates ≤ 1e-6, gradients ≤ 1e-5, the float64
random-direction projection ≤ 1e-10.  These tests pin that contract at
every level — gate views, packed vs padded trunk, full training steps, and
which path each model takes.  None reads a clock.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, TrainConfig, build_model
from repro.core.trainer import build_optimizers, build_strategy, train_step
from repro.data.dataset import iterate_batches
from repro.infer import CompiledTrainStep, compile_train_step
from repro.nn import AdamW, Tensor
from repro.utils import SeedBank


def _compiled(model):
    """The model's compiled train step (over a fresh AdamW's slots)."""
    return compile_train_step(model, AdamW(model.parameters()))


class TestGateViews:
    """The compiled step's one trunk pass yields the gate under both views."""

    def _model(self, train_set, config=None):
        config = config or ModelConfig.unit()
        return build_model("aw_moe", config, train_set.meta, np.random.default_rng(7))

    def test_views_match_separate_forwards(self, train_set):
        model = self._model(train_set)
        batch = train_set.batch_at(np.arange(8))
        positive = batch["behavior_mask"] * (np.random.default_rng(8).random(batch["behavior_mask"].shape) > 0.3)
        anchor_ref = model.gate.forward(batch)
        positive_ref = model.gate.forward(batch, mask_override=positive)
        _, anchor, positive_view = _compiled(model).forward(batch, positive)
        assert np.allclose(anchor, anchor_ref.numpy(), atol=1e-6)
        assert np.allclose(positive_view, positive_ref.numpy(), atol=1e-6)

    @pytest.mark.parametrize("gate_unit,activation_unit", [(True, False), (False, True), (False, False)])
    def test_views_match_for_ablation_variants(self, train_set, gate_unit, activation_unit):
        config = ModelConfig.unit().with_gate_ablation(gate_unit, activation_unit)
        model = self._model(train_set, config)
        batch = train_set.batch_at(np.arange(8))
        positive = batch["behavior_mask"] * (np.random.default_rng(9).random(batch["behavior_mask"].shape) > 0.3)
        _, anchor, view = _compiled(model).forward(batch, positive)
        assert np.allclose(anchor, model.gate.forward(batch).numpy(), atol=1e-6)
        assert np.allclose(
            view, model.gate.forward(batch, mask_override=positive).numpy(), atol=1e-6
        )

    def test_forward_with_gate_views_logits_match(self, train_set):
        """The compiled forward's logits and anchor are the eager
        ``forward_with_gate``'s."""
        model = self._model(train_set)
        batch = train_set.batch_at(np.arange(8))
        positive = batch["behavior_mask"].copy()
        logits_ref, gate_ref = model.forward_with_gate(batch)
        logits, anchor, view = _compiled(model).forward(batch, positive)
        assert view is not None
        assert np.allclose(logits, logits_ref.numpy(), atol=1e-6)
        assert np.allclose(anchor, gate_ref.numpy(), atol=1e-6)


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
    model.train()
    losses = []
    batches = iterate_batches(train_set, 16, rng=bank.child("shuffle"), drop_last=True)
    for i, batch in enumerate(batches):
        if i == steps:
            break
        metrics = train_step(model, batch, config, optimizer, strategy, cl_rng)
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
            model.train()
            batch = train_set.batch_at(np.arange(16))
            losses = [
                train_step(model, batch, config, optimizer, strategy)["loss"]
                for _ in range(4)
            ]
            results[fast] = losses
        assert np.allclose(results[False], results[True], rtol=1e-4, atol=1e-5)

    def test_sparse_gate_fast_path_keeps_top_k(self, train_set):
        """The sparse extension's anchor gate must stay top-K sparsified in
        the compiled step (it both weights the experts and anchors the
        contrastive loss, exactly as in eager training)."""
        from repro.core.extensions import SparseGatedAWMoE

        model = SparseGatedAWMoE(
            ModelConfig.unit(), train_set.meta, np.random.default_rng(19), top_k=1
        )
        batch = train_set.batch_at(np.arange(8))
        positive = batch["behavior_mask"].copy()
        logits_ref, gate_ref = model.forward_with_gate(batch)
        logits, anchor, view = _compiled(model).forward(batch, positive)
        k = ModelConfig.unit().num_experts
        assert np.all((anchor == 0.0).sum(axis=1) == k - 1)
        assert np.allclose(anchor, gate_ref.numpy(), atol=1e-6)
        assert np.allclose(logits, logits_ref.numpy(), atol=1e-6)
        # The positive view stays dense, matching eager gate_vector().
        assert np.allclose(
            view, model.gate_vector(batch, mask_override=positive).numpy(), atol=1e-6
        )

    def test_baseline_without_gate_views_still_trains_fast(self, train_set):
        """Models the step compiler does not take run fast_path on the
        eager tape."""
        bank = SeedBank(17)
        config = TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3, fast_path=True)
        model = build_model("dnn", ModelConfig.unit(), train_set.meta, bank.child("m"))
        optimizer = build_optimizers(model, config)
        strategy = build_strategy(config)
        batch = train_set.batch_at(np.arange(16))
        metrics = train_step(model, batch, config, optimizer, strategy)
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


def _objective(model, batch, positive, weights, packed, step=None):
    """A scalar reading logits, anchor gate and positive gate; ``packed``
    selects the compiled step (``step``, or one compiled here), otherwise
    the padded reference computes it.  The compiled objective returns
    ``(value, logits, anchor, view, step)``."""
    if packed:
        step = step or _compiled(model)
        logits, anchor, view = step.forward(batch, positive)
        value = (logits * weights[0]).sum() + (anchor * weights[1]).sum() + (view * weights[2]).sum()
        return value, Tensor(logits), Tensor(anchor), Tensor(view), step
    logits, anchor = model.forward_with_gate(batch)
    view = model.gate_vector(batch, mask_override=positive)
    loss = (logits * weights[0]).sum() + (anchor * weights[1]).sum() + (view * weights[2]).sum()
    return loss, logits, anchor, view


def _weights(batch, num_experts, seed=5):
    rng = np.random.default_rng(seed)
    rows = batch["label"].shape[0]
    return [rng.normal(size=(rows,)), rng.normal(size=(rows, num_experts)), rng.normal(size=(rows, num_experts))]


def _grads(model, loss, weights=None):
    """Every touched parameter's gradient of ``loss``: a tape loss, or a
    compiled objective (the compiled step and ``weights`` as its upstream
    gradients)."""
    for param in model.parameters():
        param.grad = None
    if isinstance(loss, CompiledTrainStep):
        dtype = loss.dtype
        loss.backward(*(np.asarray(w, dtype=dtype) for w in weights))
    else:
        loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}


def _to_float64(model):
    for param in model.parameters():
        param.data = param.data.astype(np.float64)
    return model


def _assert_packed_matches_padded(model, batch, positive):
    """Logits, anchor and positive gates <= 1e-6, every gradient <= 1e-5;
    returns the compiled (logits, anchor, view)."""
    weights = _weights(batch, model.config.num_experts)
    ref_loss, *ref_outputs = _objective(model, batch, positive, weights, packed=False)
    ref_grads = _grads(model, ref_loss)
    _, *fast_outputs, step = _objective(model, batch, positive, weights, packed=True)
    fast_grads = _grads(model, step, weights)
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

        step = _compiled(model)

        def projected(packed):
            if packed:
                _objective(model, batch, positive, weights, True, step)
                grads = _grads(model, step, weights)
            else:
                grads = _grads(model, _objective(model, batch, positive, weights, False)[0])
            return sum((grads[name] * direction[name]).sum() for name in grads)

        def shifted(eps):
            for name, param in params.items():
                param.data += eps * direction[name]
            try:
                return float(_objective(model, batch, positive, weights, True, step)[0])
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
        _, anchor, _ = _assert_packed_matches_padded(model, batch, positive)
        # (row 0 is empty: its gate is the uniform bias, a four-way tie.)
        zeros = (anchor.numpy()[1:] == 0.0).sum(axis=1)
        assert np.all(zeros == model.config.num_experts - 2)

    def test_trunk_runs_on_valid_positions_only(self, train_set, monkeypatch):
        """The position-wise trunk — both behaviour MLPs, the attention,
        gate and activation units — runs on exactly nnz(mask) rows (MLP^I
        encodes the B target rows in the same pass), and each behaviour
        table is gathered once for the whole step."""
        import repro.infer.kernels as kernels
        import repro.infer.training as training

        model = self._model(train_set)
        batch, _ = _awkward_batch(train_set)
        positive = batch["behavior_mask"] * (np.random.default_rng(2).random(batch["behavior_mask"].shape) > 0.3)
        rows, valid = batch["label"].shape[0], int(np.count_nonzero(batch["behavior_mask"]))
        assert valid not in (rows, batch["behavior_mask"].size)
        runs, gathers = {}, []
        original_run, original_gather = kernels.PackedMLP.run, training.gather_rows

        def recording_run(pack, x2d, lease):
            runs[id(pack.layers[0][0])] = x2d.shape[0]
            return original_run(pack, x2d, lease)

        def recording_gather(table, indices, out):
            gathers.append((id(table), len(indices)))
            return original_gather(table, indices, out)

        monkeypatch.setattr(kernels.PackedMLP, "run", recording_run)
        monkeypatch.setattr(training, "gather_rows", recording_gather)
        step = _compiled(model)
        step.forward(batch, positive)
        k = model.config.num_experts
        step.backward(np.ones(rows, np.float32), None, np.ones((rows, k), np.float32))

        def layer(mlp, index):
            return id(mlp._linears[index].weight.data)

        gate = model.gate
        assert runs[layer(model.input_network.behavior_mlp, 0)] == valid + rows
        assert runs[layer(gate.behavior_mlp, 0)] == valid
        for unit in (model.input_network.attention, gate.gate_unit, gate.activation_unit):
            assert runs[layer(unit.mlp, 1)] == valid  # their first layers: one GEMM each
        assert step.attention.z.shape[0] == step.units.z.shape[0] == valid
        for table in (model.embedder.item, model.embedder.category):
            assert [n for t, n in gathers if t == id(table.weight.data)] == [valid + rows]

    @pytest.mark.parametrize("augmentation,trunk_passes", [("mask", 1), ("crop", 1), ("reorder", 1)])
    def test_trunk_passes_per_step(self, train_set, monkeypatch, augmentation, trunk_passes):
        """Under every augmentation one compiled trunk pass serves the
        logits and both views: reorder moves whole positions, and the pools
        are sums over positions."""
        config = TrainConfig(
            epochs=1, batch_size=16, contrastive=True, augmentation=augmentation, fast_path=True
        )
        model = self._model(train_set)
        calls = []
        tape_gate = model.gate.forward
        model.gate.forward = lambda *a, **k: calls.append("tape") or tape_gate(*a, **k)
        compiled_gate = CompiledTrainStep._gate_behavior
        monkeypatch.setattr(
            CompiledTrainStep, "_gate_behavior",
            lambda step, ctx, lease: calls.append("compiled") or compiled_gate(step, ctx, lease),
        )
        model.train()
        train_step(
            model, train_set.batch_at(np.arange(16)), config, build_optimizers(model, config),
            build_strategy(config), np.random.default_rng(0),
        )
        assert calls == ["compiled"] * trunk_passes


def _contrastive_config(augmentation="mask", fast=True):
    return TrainConfig(
        epochs=1, batch_size=16, learning_rate=1e-3, contrastive=True,
        augmentation=augmentation, fast_path=fast,
    )


class TestCompiledStep:
    def test_second_step_allocates_nothing(self, train_set):
        """After a step, a step at the same or a smaller P (and B) leases
        every buffer from the arena: no miss, no growth."""
        model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(3))
        config = _contrastive_config()
        optimizer, strategy = build_optimizers(model, config), build_strategy(config)
        step = compile_train_step(model, optimizer)
        rng = np.random.default_rng(4)
        large, small = train_set.batch_at(np.arange(32)), train_set.batch_at(np.arange(16))
        assert np.count_nonzero(small["behavior_mask"]) < np.count_nonzero(large["behavior_mask"])
        step(large, optimizer, strategy, rng)
        misses, nbytes = step.arena.misses, step.nbytes
        for batch in (large, small, large):
            step(batch, optimizer, strategy, rng)
        assert (step.arena.misses, step.nbytes) == (misses, nbytes)

    @pytest.mark.parametrize("augmentation", ["mask", "crop", "reorder"])
    def test_draws_match_eager(self, train_set, monkeypatch, augmentation):
        """The compiled step draws the same positive views and in-batch
        negatives from ``cl_rng``, in the same order, as the eager step."""
        import repro.core.contrastive as contrastive
        import repro.infer.training as training

        draws = {False: [], True: []}
        side = []

        def recording(name, fn):
            def draw(*args, **kwargs):
                out = fn(*args, **kwargs)
                draws[side[-1]].append((name, np.array(out, copy=True)))
                return out

            return draw

        monkeypatch.setattr(contrastive, "augment_mask", recording("view", contrastive.augment_mask))
        for module in (contrastive, training):
            negatives = recording("negatives", module.sample_in_batch_negatives)
            monkeypatch.setattr(module, "sample_in_batch_negatives", negatives)
        states = {}
        for fast in (False, True):
            side.append(fast)
            config = _contrastive_config(augmentation, fast)
            model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(3))
            optimizer, strategy = build_optimizers(model, config), build_strategy(config)
            rng = np.random.default_rng(5)
            for start in (0, 16):
                batch = train_set.batch_at(np.arange(start, start + 16))
                train_step(model, batch, config, optimizer, strategy, rng)
            states[fast] = rng.bit_generator.state
        assert [name for name, _ in draws[True]] == ["view", "negatives"] * 2
        assert [name for name, _ in draws[False]] == ["view", "negatives"] * 2
        for (_, eager), (_, fast) in zip(draws[False], draws[True]):
            assert np.array_equal(eager, fast)
        assert states[False] == states[True]


_PATHS = [
    ("aw_moe", ModelConfig.unit(), "mask", True),
    ("aw_moe", ModelConfig.unit(), "crop", True),
    ("aw_moe", ModelConfig.unit(), None, True),
    ("aw_moe", ModelConfig.unit(), "reorder", True),
    ("sparse", ModelConfig.unit(), "mask", True),
    *[("aw_moe", ModelConfig.unit().with_gate_ablation(gu, au), "mask", True)
      for gu, au in [(True, False), (False, True), (False, False)]],
    *[(name, ModelConfig.unit(), None, False) for name in ("din", "dnn", "mmoe", "category_moe")],
]


class TestPathGuard:
    """Which path each model and augmentation trains on under fast_path.
    AW-MoE must run compiled under every augmentation, so a silent
    fall-back to the tape cannot hide a lost speed-up; the baselines run
    the eager tape."""

    @pytest.mark.parametrize("name,config,augmentation,compiled", _PATHS)
    def test_path(self, train_set, monkeypatch, name, config, augmentation, compiled):
        from repro.core.extensions import SparseGatedAWMoE

        taken = []
        compiled_call, tape_backward = CompiledTrainStep.__call__, Tensor.backward
        monkeypatch.setattr(
            CompiledTrainStep, "__call__",
            lambda step, *a, **k: taken.append("compiled") or compiled_call(step, *a, **k),
        )
        monkeypatch.setattr(
            Tensor, "backward", lambda t, *a, **k: taken.append("tape") or tape_backward(t, *a, **k)
        )
        rng = np.random.default_rng(6)
        if name == "sparse":
            model = SparseGatedAWMoE(config, train_set.meta, rng, top_k=2)
        else:
            model = build_model(name, config, train_set.meta, rng)
        train = _contrastive_config(augmentation or "mask")
        if augmentation is None:
            train = TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3)
        metrics = train_step(
            model, train_set.batch_at(np.arange(16)), train, build_optimizers(model, train),
            build_strategy(train), np.random.default_rng(7),
        )
        assert np.isfinite(metrics["loss"])
        assert taken == ["compiled" if compiled else "tape"]
