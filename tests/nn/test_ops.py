"""Forward values and gradients of free-function ops."""

import numpy as np
import pytest

from repro.nn import Tensor, concat, embedding, logsumexp, masked_fill, softmax, take
from repro.nn.gradcheck import check_gradients

RNG = np.random.default_rng(7)


def assert_grad_ok(func, inputs, **kwargs):
    ok, message = check_gradients(func, inputs, **kwargs)
    assert ok, message


class TestConcat:
    def test_forward_last_axis(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2)))
        out = concat([a, b], axis=-1)
        assert out.shape == (2, 5)
        assert np.allclose(out.numpy()[:, :3], 1.0)

    def test_forward_axis0(self):
        out = concat([Tensor(np.ones((2, 3))), Tensor(np.zeros((1, 3)))], axis=0)
        assert out.shape == (3, 3)

    def test_grad(self):
        assert_grad_ok(
            lambda ts: concat(list(ts), axis=1), [RNG.random((2, 3)), RNG.random((2, 4))]
        )

    def test_grad_middle_axis(self):
        assert_grad_ok(
            lambda ts: concat(list(ts), axis=1),
            [RNG.random((2, 2, 3)), RNG.random((2, 4, 3))],
        )

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat([])


class TestEmbedding:
    def test_forward_shape(self):
        table = Tensor(RNG.random((10, 4)))
        out = embedding(table, np.array([[1, 2], [3, 0]]))
        assert out.shape == (2, 2, 4)

    def test_forward_values(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = embedding(table, np.array([2]))
        assert list(out.numpy()[0]) == [6.0, 7.0, 8.0]

    def test_grad_scatter_add(self):
        table = Tensor(RNG.random((5, 3)), requires_grad=True, dtype=np.float64)
        idx = np.array([1, 1, 2])
        out = embedding(table, idx)
        out.backward(np.ones((3, 3)))
        assert np.allclose(table.grad[1], 2.0)  # id 1 used twice
        assert np.allclose(table.grad[2], 1.0)
        assert np.allclose(table.grad[0], 0.0)

    def test_gradcheck(self):
        idx = np.array([[0, 3], [2, 2]])
        assert_grad_ok(lambda ts: embedding(ts[0], idx), [RNG.random((4, 3))])

    def test_rejects_float_indices(self):
        with pytest.raises(TypeError):
            embedding(Tensor(np.ones((3, 2))), np.array([0.5]))


class TestTake:
    def test_forward(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = take(t, np.array([0, 2]), axis=0)
        assert out.shape == (2, 3)
        assert out.numpy()[1, 0] == 6.0

    def test_grad_axis0(self):
        idx = np.array([0, 2, 2])
        assert_grad_ok(lambda ts: take(ts[0], idx, axis=0), [RNG.random((4, 3))])

    def test_grad_2d_indices(self):
        idx = np.array([[0, 1], [2, 0]])
        assert_grad_ok(lambda ts: take(ts[0], idx, axis=0), [RNG.random((3, 2))])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(Tensor(RNG.random((4, 5))), axis=-1)
        assert np.allclose(out.numpy().sum(axis=-1), 1.0, atol=1e-6)

    def test_invariant_to_shift(self):
        x = RNG.random((3, 4))
        a = softmax(Tensor(x), axis=-1).numpy()
        b = softmax(Tensor(x + 100.0), axis=-1).numpy()
        assert np.allclose(a, b, atol=1e-5)

    def test_grad(self):
        assert_grad_ok(lambda ts: softmax(ts[0], axis=-1), [RNG.random((3, 4))])

    def test_grad_axis0(self):
        assert_grad_ok(lambda ts: softmax(ts[0], axis=0), [RNG.random((3, 4))])

    def test_stable_for_large_inputs(self):
        out = softmax(Tensor(np.array([[1000.0, 1000.0]])), axis=-1)
        assert np.allclose(out.numpy(), 0.5)


class TestLogsumexp:
    def test_matches_naive(self):
        x = RNG.random((3, 4))
        expected = np.log(np.exp(x).sum(axis=1))
        assert np.allclose(logsumexp(Tensor(x), axis=1).numpy(), expected, atol=1e-6)

    def test_keepdims(self):
        out = logsumexp(Tensor(RNG.random((3, 4))), axis=1, keepdims=True)
        assert out.shape == (3, 1)

    def test_stable_for_large_inputs(self):
        out = logsumexp(Tensor(np.array([[1000.0, 999.0]])), axis=1)
        assert np.isfinite(out.numpy()).all()

    def test_grad(self):
        assert_grad_ok(lambda ts: logsumexp(ts[0], axis=1), [RNG.random((3, 4))])

    def test_grad_keepdims(self):
        assert_grad_ok(lambda ts: logsumexp(ts[0], axis=0, keepdims=True), [RNG.random((3, 4))])


class TestMaskedFill:
    def test_forward(self):
        mask = np.array([True, False, True])
        out = masked_fill(Tensor(np.ones(3)), mask, -5.0)
        assert list(out.numpy()) == [-5.0, 1.0, -5.0]

    def test_grad_blocked_at_masked_positions(self):
        t = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        mask = np.array([True, False, False])
        masked_fill(t, mask, 0.0).sum().backward()
        assert list(t.grad) == [0.0, 1.0, 1.0]

    def test_gradcheck(self):
        mask = RNG.random((3, 4)) > 0.5
        assert_grad_ok(lambda ts: masked_fill(ts[0], mask, 2.0), [RNG.random((3, 4))])
