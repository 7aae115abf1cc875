"""Trainer and contrastive strategy."""

import numpy as np
import pytest

from repro.core import ContrastiveStrategy, ModelConfig, TrainConfig, build_model, train_model
from repro.core.trainer import build_optimizers
from repro.nn import AdamW

class TestTrainConfig:
    def test_invalid_mask_prob(self):
        with pytest.raises(ValueError):
            TrainConfig(mask_prob=1.5)

    def test_invalid_negatives(self):
        with pytest.raises(ValueError):
            TrainConfig(num_negatives=0)

    def test_invalid_augmentation(self):
        with pytest.raises(ValueError):
            TrainConfig(augmentation="rotate")

    def test_with_contrastive(self):
        base = TrainConfig()
        cl = base.with_contrastive(cl_weight=0.2)
        assert not base.contrastive
        assert cl.contrastive
        assert cl.cl_weight == 0.2


class TestTrainer:
    def test_returns_populated_log(self, train_set, fast_train_config):
        model = build_model("dnn", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        log = train_model(model, train_set, fast_train_config, seed=1)
        assert len(log) > 0
        assert log.last("loss") is not None

    def test_model_left_in_eval_mode(self, train_set, fast_train_config):
        model = build_model("dnn", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        train_model(model, train_set, fast_train_config, seed=1)
        assert not model.training

    def test_contrastive_on_baseline_rejected(self, train_set):
        model = build_model("din", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        with pytest.raises(TypeError):
            train_model(model, train_set, TrainConfig(contrastive=True), seed=1)

    def test_dataset_smaller_than_one_batch_rejected(self, train_set):
        """drop_last would discard the only batch: zero steps, an empty log."""
        model = build_model("dnn", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        tiny = train_set.subset(np.arange(10))
        before = model.state_dict()
        with pytest.raises(ValueError, match=r"10 rows.*batch_size 64"):
            train_model(model, tiny, TrainConfig(batch_size=64), seed=1)
        after = model.state_dict()
        assert all(np.array_equal(before[name], after[name]) for name in before)
        assert len(train_model(model, tiny, TrainConfig(epochs=1, batch_size=10), seed=1)) == 1

    def test_contrastive_logs_cl_loss(self, train_set, fast_train_config):
        model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        log = train_model(model, train_set, fast_train_config.with_contrastive(), seed=1)
        assert log.last("cl_loss") is not None
        assert log.last("cl_loss") >= 0.0

    def test_training_is_deterministic(self, train_set, fast_train_config):
        def run():
            model = build_model("dnn", ModelConfig.unit(), train_set.meta, np.random.default_rng(3))
            log = train_model(model, train_set, fast_train_config, seed=4)
            return log.last("loss")

        assert run() == pytest.approx(run())

    def test_different_seed_changes_run(self, train_set, fast_train_config):
        def run(seed):
            model = build_model("dnn", ModelConfig.unit(), train_set.meta, np.random.default_rng(3))
            return train_model(model, train_set, fast_train_config, seed=seed).last("loss")

        assert run(1) != pytest.approx(run(2))


class TestOptimizerGroups:
    def test_single_optimizer_by_default(self, train_set):
        model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        assert isinstance(build_optimizers(model, TrainConfig()), AdamW)

    def test_gateless_model_single_group(self, train_set):
        model = build_model("dnn", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        assert build_optimizers(model, TrainConfig()).params == model.parameters()


class TestContrastiveStrategy:
    def test_loss_is_scalar_and_finite(self, train_set):
        model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        batch = train_set.batch_at(np.arange(16))
        _, gate = model.forward_with_gate(batch)
        strategy = ContrastiveStrategy()
        loss = strategy.loss(model, batch, gate, np.random.default_rng(1))
        assert loss.shape == ()
        assert np.isfinite(loss.item())

    def test_weight_scales_loss(self, train_set):
        model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        batch = train_set.batch_at(np.arange(16))
        _, gate = model.forward_with_gate(batch)
        light = ContrastiveStrategy(weight=0.05).loss(model, batch, gate, np.random.default_rng(1))
        _, gate2 = model.forward_with_gate(batch)
        heavy = ContrastiveStrategy(weight=0.5).loss(model, batch, gate2, np.random.default_rng(1))
        assert heavy.item() == pytest.approx(10 * light.item(), rel=1e-4)

    def test_rejects_gateless_model(self, train_set):
        from repro.nn import Tensor

        model = build_model("dnn", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        batch = train_set.batch_at(np.arange(8))
        strategy = ContrastiveStrategy()
        with pytest.raises(TypeError):
            strategy.loss(model, batch, Tensor(np.zeros((8, 4))), np.random.default_rng(1))

    def test_rejects_batch_of_one(self, train_set):
        model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        batch = train_set.batch_at(np.arange(1))
        _, gate = model.forward_with_gate(batch)
        with pytest.raises(ValueError):
            ContrastiveStrategy().loss(model, batch, gate, np.random.default_rng(1))

    def test_gradient_reaches_gate_parameters(self, train_set):
        model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
        batch = train_set.batch_at(np.arange(16))
        _, gate = model.forward_with_gate(batch)
        loss = ContrastiveStrategy().loss(model, batch, gate, np.random.default_rng(1))
        loss.backward()
        gate_params = list(model.gate.parameters())
        assert any(p.grad is not None and np.abs(p.grad).sum() > 0 for p in gate_params)

    def test_all_augmentations_work(self, train_set):
        for augmentation in ("mask", "crop", "reorder"):
            model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(0))
            batch = train_set.batch_at(np.arange(8))
            _, gate = model.forward_with_gate(batch)
            strategy = ContrastiveStrategy(augmentation=augmentation)
            loss = strategy.loss(model, batch, gate, np.random.default_rng(1))
            assert np.isfinite(loss.item())
