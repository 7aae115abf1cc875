"""Input network (Eq. 2-4) and gate network (Eq. 6-8) behaviour."""

import numpy as np
import pytest

from repro.core import FeatureEmbedder, GateNetwork, InputNetwork, ModelConfig
from repro.nn import no_grad
from repro.utils import SeedBank


@pytest.fixture()
def batch(test_set):
    return test_set.batch_at(np.arange(16))


def _nets(meta, task="search", pooling="attention", **config_overrides):
    from dataclasses import replace

    config = replace(ModelConfig.unit(task=task), **config_overrides)
    bank = SeedBank(3)
    embedder = FeatureEmbedder(config, meta, bank.child("embed"))
    input_net = InputNetwork(config, meta, embedder, bank.child("input"), pooling=pooling)
    gate = GateNetwork(config, meta, embedder, bank.child("gate"))
    return config, embedder, input_net, gate


class TestFeatureEmbedder:
    def test_behavior_repr_dim(self, test_set, batch):
        config, embedder, _, _ = _nets(test_set.meta)
        out = embedder.behavior(batch)
        assert out.shape == (16, test_set.meta.max_seq_len, embedder.item_repr_dim)

    def test_target_repr_dim(self, test_set, batch):
        _, embedder, _, _ = _nets(test_set.meta)
        assert embedder.target(batch).shape == (16, embedder.item_repr_dim)

    def test_dense_features_included(self, test_set, batch):
        _, embedder, _, _ = _nets(test_set.meta)
        out = embedder.target(batch).numpy()
        # The last dense column is the style coordinate, copied verbatim.
        assert np.allclose(out[:, -1], batch["target_dense"][:, -1], atol=1e-6)


class TestInputNetwork:
    def test_output_dim_search(self, test_set, batch):
        config, _, input_net, _ = _nets(test_set.meta)
        out = input_net(batch)
        assert out.shape == (16, 4 * config.input_hidden[-1])

    def test_output_dim_reco(self, test_set, batch):
        config, _, input_net, _ = _nets(test_set.meta, task="reco")
        out = input_net(batch)
        assert out.shape == (16, 3 * config.input_hidden[-1])

    def test_sum_pooling_variant(self, test_set, batch):
        _, _, input_net, _ = _nets(test_set.meta, pooling="sum")
        assert input_net.attention is None
        assert input_net(batch).shape[0] == 16

    def test_invalid_pooling_rejected(self, test_set):
        with pytest.raises(ValueError):
            _nets(test_set.meta, pooling="meanish")

    def test_empty_history_gives_zero_user_vector(self, test_set, batch):
        _, _, input_net, _ = _nets(test_set.meta)
        empty = {k: v.copy() for k, v in batch.items()}
        empty["behavior_mask"] = np.zeros_like(empty["behavior_mask"])
        with no_grad():
            h_target = input_net.behavior_mlp(input_net.embedder.target(empty))
            v_user = input_net.user_vector(empty, h_target)
        assert np.allclose(v_user.numpy(), 0.0, atol=1e-6)

    def test_attention_depends_on_target(self, test_set, batch):
        _, _, input_net, _ = _nets(test_set.meta)
        with no_grad():
            h_t = input_net.behavior_mlp(input_net.embedder.target(batch))
            v_a = input_net.user_vector(batch, h_t).numpy()
            rolled = {k: v.copy() for k, v in batch.items()}
            rolled["target_item"] = np.roll(rolled["target_item"], 1)
            rolled["target_category"] = np.roll(rolled["target_category"], 1)
            rolled["target_dense"] = np.roll(rolled["target_dense"], 1, axis=0)
            h_t2 = input_net.behavior_mlp(input_net.embedder.target(rolled))
            v_b = input_net.user_vector(rolled, h_t2).numpy()
        assert not np.allclose(v_a, v_b)


class TestGateNetwork:
    def test_output_shape(self, test_set, batch):
        config, _, _, gate = _nets(test_set.meta)
        assert gate(batch).shape == (16, config.num_experts)

    def test_empty_sequence_returns_bias(self, test_set, batch):
        config, _, _, gate = _nets(test_set.meta)
        empty_mask = np.zeros_like(batch["behavior_mask"])
        with no_grad():
            out = gate(batch, mask_override=empty_mask).numpy()
        assert np.allclose(out, gate.bias.numpy()[None, :], atol=1e-6)

    def test_mask_override_changes_output(self, test_set, batch):
        _, _, _, gate = _nets(test_set.meta)
        with no_grad():
            full = gate(batch).numpy()
            masked = gate(batch, mask_override=np.zeros_like(batch["behavior_mask"])).numpy()
        assert not np.allclose(full, masked)

    def test_reco_mode_uses_target_key(self, test_set, batch):
        _, _, _, gate = _nets(test_set.meta, task="reco")
        with no_grad():
            base = gate(batch).numpy()
            rolled = {k: v.copy() for k, v in batch.items()}
            rolled["target_item"] = np.roll(rolled["target_item"], 1)
            rolled["target_category"] = np.roll(rolled["target_category"], 1)
            rolled["target_dense"] = np.roll(rolled["target_dense"], 1, axis=0)
            changed = gate(rolled).numpy()
        assert not np.allclose(base, changed)

    def test_search_mode_ignores_target(self, test_set, batch):
        """§III-F1: the deployed gate uses only user/query features, so the
        gate can be computed once per session regardless of the target."""
        _, _, _, gate = _nets(test_set.meta, task="search")
        with no_grad():
            base = gate(batch).numpy()
            rolled = {k: v.copy() for k, v in batch.items()}
            rolled["target_item"] = np.roll(rolled["target_item"], 1)
            rolled["target_category"] = np.roll(rolled["target_category"], 1)
            rolled["target_dense"] = np.roll(rolled["target_dense"], 1, axis=0)
            same = gate(rolled).numpy()
        assert np.allclose(base, same, atol=1e-6)


class TestGateAblations:
    """The four Table VI variants produce (B, K) gates through different paths."""

    @pytest.mark.parametrize(
        "use_gu,use_au",
        [(False, False), (True, False), (False, True), (True, True)],
    )
    def test_all_variants_run(self, test_set, batch, use_gu, use_au):
        config, _, _, gate = _nets(
            test_set.meta, gate_use_gate_unit=use_gu, gate_use_activation_unit=use_au
        )
        assert gate(batch).shape == (16, config.num_experts)

    def test_base_variant_has_pooled_mlp(self, test_set):
        _, _, _, gate = _nets(
            test_set.meta, gate_use_gate_unit=False, gate_use_activation_unit=False
        )
        assert gate.pooled_mlp is not None
        assert gate.gate_unit is None
        assert gate.activation_unit is None

    def test_full_variant_has_units(self, test_set):
        _, _, _, gate = _nets(test_set.meta)
        assert gate.gate_unit is not None
        assert gate.activation_unit is not None
        assert gate.pooled_mlp is None

    def test_variants_have_different_parameter_counts(self, test_set):
        import repro.nn as nn

        def count(gu, au):
            _, _, _, gate = _nets(
                test_set.meta, gate_use_gate_unit=gu, gate_use_activation_unit=au
            )
            return sum(p.size for p in gate.parameters())

        counts = {count(False, False), count(True, False), count(True, True)}
        assert len(counts) == 3
