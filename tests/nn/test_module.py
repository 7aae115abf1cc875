"""Module/Parameter infrastructure: registration, traversal, state dicts."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter

RNG = np.random.default_rng(9)


class _Child(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 2)))

    def forward(self, x):
        return x.matmul(self.weight)


class _Parent(Module):
    def __init__(self):
        super().__init__()
        self.alpha = Parameter(np.zeros(3))
        self.child = _Child()
        self.tail = Linear(2, 1, RNG)

    def forward(self, x):
        return self.tail(self.child(x))


class TestRegistration:
    def test_parameters_collected_recursively(self):
        model = _Parent()
        names = [name for name, _ in model.named_parameters()]
        assert names == ["alpha", "child.weight", "tail.weight", "tail.bias"]

    def test_num_parameters(self):
        model = _Parent()
        assert model.num_parameters() == 3 + 4 + 2 + 1

    def test_modules_iteration(self):
        model = _Parent()
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds == ["_Parent", "_Child", "Linear"]

    def test_reassignment_replaces_parameter(self):
        model = _Child()
        model.weight = Parameter(np.zeros((2, 2)))
        assert len(model.parameters()) == 1
        assert np.allclose(model.parameters()[0].numpy(), 0.0)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestModes:
    def test_train_eval_propagates(self):
        model = _Parent()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())


class TestStateDict:
    def test_round_trip(self):
        a, b = _Parent(), _Parent()
        for param in a.parameters():
            param.data[:] = RNG.random(param.shape).astype(np.float32)
        b.load_state_dict(a.state_dict())
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.allclose(pa.numpy(), pb.numpy())

    def test_state_dict_is_a_copy(self):
        model = _Child()
        state = model.state_dict()
        state["weight"][0, 0] = 99.0
        assert model.weight.numpy()[0, 0] == 1.0

    def test_missing_key_rejected(self):
        model = _Parent()
        state = model.state_dict()
        del state["alpha"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_rejected(self):
        model = _Child()
        state = model.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        model = _Child()
        state = {"weight": np.zeros((3, 3))}
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_loading_does_not_alias_source(self):
        model = _Child()
        source = {"weight": np.full((2, 2), 5.0)}
        model.load_state_dict(source)
        source["weight"][0, 0] = -1.0
        assert model.weight.numpy()[0, 0] == 5.0
