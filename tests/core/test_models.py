"""All registered ranking models: shapes, modes, determinism, learning."""

import numpy as np
import pytest

from repro.core import (
    DIN,
    DNN,
    AWMoE,
    CategoryMoE,
    MMoE,
    ModelConfig,
    TrainConfig,
    build_model,
    train_model,
)
from repro.nn import bce_with_logits, no_grad, softmax
MODEL_NAMES = ["dnn", "din", "category_moe", "aw_moe", "mmoe"]


@pytest.fixture()
def batch(test_set):
    return test_set.batch_at(np.arange(32))


class TestRegistry:
    def test_all_expected_models_registered(self, test_set):
        classes = [DNN, DIN, CategoryMoE, AWMoE, MMoE]
        for name, cls in zip(MODEL_NAMES, classes):
            model = build_model(name, ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
            assert type(model) is cls

    def test_unknown_model_rejected(self, test_set):
        with pytest.raises(KeyError, match="aw_moe"):
            build_model("transformer4rec", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))


class TestForward:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_logits_shape(self, name, test_set, batch):
        model = build_model(name, ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        assert model(batch).shape == (32,)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_predict_proba_in_unit_interval(self, name, test_set, batch):
        model = build_model(name, ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        probs = model.predict_proba(batch)
        assert np.all((probs > 0) & (probs < 1))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_deterministic_inference(self, name, test_set, batch):
        model = build_model(name, ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        assert np.allclose(model.predict_logits(batch), model.predict_logits(batch))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_same_seed_same_init(self, name, test_set, batch):
        a = build_model(name, ModelConfig.unit(), test_set.meta, np.random.default_rng(5))
        b = build_model(name, ModelConfig.unit(), test_set.meta, np.random.default_rng(5))
        assert np.allclose(a.predict_logits(batch), b.predict_logits(batch))

    def test_predict_restores_training_mode(self, test_set, batch):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        model.train()
        model.predict_proba(batch)
        assert model.training

    def test_task_mismatch_rejected(self, test_set):
        with pytest.raises(ValueError):
            AWMoE(ModelConfig.unit(task="reco"), test_set.meta, np.random.default_rng(0))


class TestGateHooks:
    def test_aw_moe_supports_contrastive(self, test_set):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        assert model.supports_contrastive

    def test_baselines_do_not(self, test_set):
        for name in ["dnn", "din", "category_moe"]:
            model = build_model(name, ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
            assert not model.supports_contrastive
            with pytest.raises(NotImplementedError):
                model.gate_vector(test_set.batch_at(np.arange(4)))

    def test_forward_with_gate_returns_gate(self, test_set, batch):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        logits, gate = model.forward_with_gate(batch)
        assert logits.shape == (32,)
        assert gate.shape == (32, model.config.num_experts)

    def test_forward_with_gate_none_for_baselines(self, test_set, batch):
        model = build_model("din", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        logits, gate = model.forward_with_gate(batch)
        assert gate is None

    def test_gate_outputs_array(self, test_set, batch):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        gate = model.gate_outputs(batch)
        assert isinstance(gate, np.ndarray)
        assert gate.shape == (32, model.config.num_experts)

    def test_expert_scores_shape(self, test_set, batch):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        assert model.expert_scores(batch).shape == (32, model.config.num_experts)

    def test_logits_are_gate_weighted_expert_sum(self, test_set, batch):
        model = build_model("aw_moe", ModelConfig.unit(), test_set.meta, np.random.default_rng(0))
        logits = model.predict_logits(batch)
        manual = (model.gate_outputs(batch) * model.expert_scores(batch)).sum(axis=1)
        assert np.allclose(logits, manual, atol=1e-5)


class TestLearning:
    @pytest.mark.parametrize("name", ["dnn", "aw_moe"])
    def test_loss_decreases_with_training(self, name, test_set, train_set, name_seed=0):
        model = build_model(name, ModelConfig.unit(), train_set.meta, np.random.default_rng(1))
        batch = train_set.batch_at(np.arange(min(256, len(train_set))))
        before = bce_with_logits(model(batch), batch["label"]).item()
        train_model(model, train_set, TrainConfig(epochs=2, batch_size=64, learning_rate=3e-3), seed=2)
        model.eval()
        after = bce_with_logits(model(batch), batch["label"]).item()
        assert after < before

    def test_category_moe_gate_varies_by_category(self, test_set, train_set):
        model = build_model("category_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(1))
        train_model(model, train_set, TrainConfig(epochs=1, batch_size=64, learning_rate=3e-3), seed=2)
        batch = test_set.batch_at(np.arange(64))
        with no_grad():
            gates = softmax(model.gate_mlp(model.embedder.category(batch["query_category"])), axis=-1).numpy()
        categories = batch["query_category"]
        if np.unique(categories).size >= 2:
            # gates must coincide within a category and differ somewhere across
            first = categories == categories[0]
            assert np.allclose(gates[first], gates[first][0], atol=1e-5)
            assert gates.std(axis=0).sum() > 0

    def test_mmoe_multi_task_heads(self, test_set, batch):
        from repro.core.baselines import MMoE

        model = MMoE(ModelConfig.unit(), test_set.meta, np.random.default_rng(0), num_tasks=3)
        outputs = model.forward_tasks(batch)
        assert len(outputs) == 3
        assert all(o.shape == (32,) for o in outputs)

    def test_reco_mode_all_models(self, unit_world):
        from repro.data import WorldConfig
        from repro.data.amazon import make_amazon_datasets

        _, train, test = make_amazon_datasets(WorldConfig.unit(), seed=3)
        batch = test.batch_at(np.arange(min(16, len(test))))
        for name in ["dnn", "din", "category_moe", "aw_moe"]:
            model = build_model(name, ModelConfig.unit(task="reco"), train.meta, np.random.default_rng(0))
            assert model(batch).shape == (len(batch["label"]),)
