"""Activation unit Φ and gate unit Θ."""

import numpy as np
import pytest

from repro.core.activation_unit import ActivationUnit
from repro.core.gate_unit import GateUnit
from repro.nn import Tensor

RNG = np.random.default_rng(17)
H = 8


def _inputs(batch=3, seq=5, valid=4):
    h_seq = Tensor(RNG.random((batch, seq, H)).astype(np.float32), requires_grad=True)
    h_key = Tensor(RNG.random((batch, H)).astype(np.float32))
    mask = np.zeros((batch, seq), dtype=np.float32)
    mask[:, :valid] = 1.0
    return h_seq, h_key, mask


class TestActivationUnit:
    def test_output_shape(self):
        unit = ActivationUnit(H, (8, 4), RNG)
        h_seq, h_key, mask = _inputs()
        assert unit(h_seq, h_key, mask).shape == (3, 5)

    def test_masked_positions_zero(self):
        unit = ActivationUnit(H, (8, 4), RNG)
        h_seq, h_key, mask = _inputs(valid=2)
        weights = unit(h_seq, h_key, mask).numpy()
        assert np.all(weights[:, 2:] == 0.0)

    def test_key_shape_mismatch_rejected(self):
        unit = ActivationUnit(H, (8, 4), RNG)
        h_seq, _, mask = _inputs()
        bad_key = Tensor(np.ones((3, H + 1), dtype=np.float32))
        with pytest.raises(ValueError):
            unit(h_seq, bad_key, mask)

    def test_gradient_flows_to_sequence(self):
        unit = ActivationUnit(H, (8, 4), RNG)
        h_seq, h_key, mask = _inputs()
        unit(h_seq, h_key, mask).sum().backward()
        assert h_seq.grad is not None

    def test_depends_on_key(self):
        unit = ActivationUnit(H, (8, 4), RNG)
        h_seq, h_key, mask = _inputs()
        other_key = Tensor(RNG.random((3, H)).astype(np.float32))
        a = unit(h_seq, h_key, mask).numpy()
        b = unit(h_seq, other_key, mask).numpy()
        assert not np.allclose(a, b)


class TestGateUnit:
    def test_output_shape(self):
        unit = GateUnit(H, 4, (8, 4), RNG)
        h_seq, h_key, mask = _inputs()
        assert unit(h_seq, h_key, mask).shape == (3, 5, 4)

    def test_masked_positions_zero(self):
        unit = GateUnit(H, 4, (8, 4), RNG)
        h_seq, h_key, mask = _inputs(valid=1)
        scores = unit(h_seq, h_key, mask).numpy()
        assert np.all(scores[:, 1:, :] == 0.0)

    def test_per_item_scores_differ(self):
        unit = GateUnit(H, 4, (8, 4), RNG)
        h_seq, h_key, mask = _inputs()
        scores = unit(h_seq, h_key, mask).numpy()
        assert not np.allclose(scores[:, 0, :], scores[:, 1, :])

    def test_key_shape_mismatch_rejected(self):
        unit = GateUnit(H, 4, (8, 4), RNG)
        h_seq, _, mask = _inputs()
        with pytest.raises(ValueError):
            unit(h_seq, Tensor(np.ones((3, H + 2), dtype=np.float32)), mask)

    def test_gradient_flows(self):
        unit = GateUnit(H, 2, (8, 4), RNG)
        h_seq, h_key, mask = _inputs()
        unit(h_seq, h_key, mask).sum().backward()
        assert h_seq.grad is not None
        assert any(p.grad is not None for p in unit.parameters())
