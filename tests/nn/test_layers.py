"""Layer behaviour: shapes, the one MLP shape, parameter registration, edge cases."""

import numpy as np
import pytest

from repro.nn import Embedding, Linear, MLP, Tensor

RNG = np.random.default_rng(5)


class TestLinear:
    def test_output_shape_2d(self):
        layer = Linear(4, 3, RNG)
        assert layer(Tensor(np.ones((7, 4)))).shape == (7, 3)

    def test_output_shape_3d(self):
        layer = Linear(4, 3, RNG)
        assert layer(Tensor(np.ones((2, 5, 4)))).shape == (2, 5, 3)

    def test_bias_adds_constant(self):
        layer = Linear(2, 2, RNG)
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = np.array([1.0, -1.0])
        out = layer(Tensor(np.ones((1, 2))))
        assert list(out.numpy()[0]) == [1.0, -1.0]

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ValueError):
            Linear(4, 3, RNG)(Tensor(np.ones((2, 5))))

    def test_matches_manual_matmul(self):
        layer = Linear(3, 2, RNG)
        x = RNG.random((4, 3)).astype(np.float32)
        expected = x @ layer.weight.numpy() + layer.bias.numpy()
        assert np.allclose(layer(Tensor(x)).numpy(), expected, atol=1e-6)


class TestEmbedding:
    def test_lookup_shape(self):
        table = Embedding(10, 4, RNG)
        assert table(np.array([[1, 2, 3]])).shape == (1, 3, 4)

    def test_out_of_range_rejected(self):
        table = Embedding(10, 4, RNG)
        with pytest.raises(IndexError):
            table(np.array([10]))
        with pytest.raises(IndexError):
            table(np.array([-1]))

    def test_empty_indices_ok(self):
        table = Embedding(10, 4, RNG)
        assert table(np.empty((0,), dtype=np.int64)).shape == (0, 4)

    def test_gradient_reaches_table(self):
        table = Embedding(5, 3, RNG)
        out = table(np.array([1, 1]))
        out.sum().backward()
        assert table.weight.grad is not None
        assert np.allclose(table.weight.grad[1], 2.0)


class TestMLP:
    def test_paper_expert_shape(self):
        mlp = MLP(128, [512, 256, 1], RNG)
        assert mlp(Tensor(np.ones((2, 128)))).shape == (2, 1)
        assert mlp.out_features == 1

    def test_hidden_activation_applied(self):
        mlp = MLP(2, [3, 1], RNG)
        for layer in mlp._linears:
            layer.weight.data[:] = -1.0
            layer.bias.data[:] = 0.0
        out = mlp(Tensor(np.ones((1, 2))))
        # Hidden output is relu(-2) = 0, final linear layer gives 0.
        assert out.numpy()[0, 0] == 0.0

    def test_output_activation(self):
        """The output layer is linear: negative scores pass through."""
        mlp = MLP(2, [3, 1], RNG)
        for layer in mlp._linears:
            layer.weight.data[:] = 1.0
            layer.bias.data[:] = 0.0
        mlp.fc1.bias.data[:] = -10.0
        out = mlp(Tensor(np.ones((1, 2))))
        # Hidden output is relu(2) = 2 per unit, 3 units sum to 6, bias -10.
        assert out.numpy()[0, 0] == -4.0

    def test_empty_hidden_sizes_rejected(self):
        with pytest.raises(ValueError):
            MLP(4, [], RNG)

    def test_3d_input(self):
        mlp = MLP(4, [8, 2], RNG)
        assert mlp(Tensor(np.ones((2, 5, 4)))).shape == (2, 5, 2)
