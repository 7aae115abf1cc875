"""Finite-difference gradient checks for every Tensor method op."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_gradients

RNG = np.random.default_rng(42)


def assert_grad_ok(func, inputs, **kwargs):
    ok, message = check_gradients(func, inputs, **kwargs)
    assert ok, message


class TestArithmeticGrads:
    def test_add(self):
        assert_grad_ok(lambda ts: ts[0] + ts[1], [RNG.random((3, 4)), RNG.random((3, 4))])

    def test_add_broadcast_row(self):
        assert_grad_ok(lambda ts: ts[0] + ts[1], [RNG.random((3, 4)), RNG.random((4,))])

    def test_add_broadcast_column(self):
        assert_grad_ok(lambda ts: ts[0] + ts[1], [RNG.random((3, 4)), RNG.random((3, 1))])

    def test_add_scalar_constant(self):
        assert_grad_ok(lambda ts: ts[0] + 2.5, [RNG.random((2, 3))])

    def test_sub(self):
        assert_grad_ok(lambda ts: ts[0] - ts[1], [RNG.random((3, 4)), RNG.random((3, 4))])

    def test_sub_broadcast(self):
        assert_grad_ok(lambda ts: ts[0] - ts[1], [RNG.random((2, 3, 4)), RNG.random((4,))])

    def test_mul(self):
        assert_grad_ok(lambda ts: ts[0] * ts[1], [RNG.random((3, 4)), RNG.random((3, 4))])

    def test_mul_broadcast(self):
        assert_grad_ok(lambda ts: ts[0] * ts[1], [RNG.random((2, 3, 4)), RNG.random((3, 1))])

    def test_div(self):
        assert_grad_ok(
            lambda ts: ts[0] / ts[1], [RNG.random((3, 4)), RNG.random((3, 4)) + 0.5]
        )


class TestNonlinearityGrads:
    def test_sqrt(self):
        assert_grad_ok(lambda ts: ts[0].sqrt(), [RNG.random(6) + 0.5])

    def test_relu(self):
        # Offset from zero so finite differences never straddle the kink.
        assert_grad_ok(lambda ts: ts[0].relu(), [RNG.random((4, 4)) - 0.5 + 1e-2])


class TestReductionGrads:
    def test_sum_all(self):
        assert_grad_ok(lambda ts: ts[0].sum(), [RNG.random((3, 4))])

    def test_sum_axis0(self):
        assert_grad_ok(lambda ts: ts[0].sum(axis=0), [RNG.random((3, 4))])

    def test_sum_axis1_keepdims(self):
        assert_grad_ok(lambda ts: ts[0].sum(axis=1, keepdims=True), [RNG.random((3, 4))])

    def test_sum_negative_axis(self):
        assert_grad_ok(lambda ts: ts[0].sum(axis=-1), [RNG.random((2, 3, 4))])

    def test_mean_all(self):
        assert_grad_ok(lambda ts: ts[0].mean(), [RNG.random((3, 4))])

    def test_mean_axis(self):
        assert_grad_ok(lambda ts: ts[0].mean(axis=1), [RNG.random((3, 4))])


class TestMatmulGrads:
    def test_matmul_2d(self):
        assert_grad_ok(
            lambda ts: ts[0].matmul(ts[1]), [RNG.random((3, 4)), RNG.random((4, 5))]
        )

    def test_matmul_batched(self):
        assert_grad_ok(
            lambda ts: ts[0].matmul(ts[1]),
            [RNG.random((2, 3, 4)), RNG.random((2, 4, 5))],
        )

    def test_matmul_broadcast_batch(self):
        assert_grad_ok(
            lambda ts: ts[0].matmul(ts[1]), [RNG.random((2, 3, 4)), RNG.random((4, 5))]
        )

    def test_matmul_rejects_1d(self):
        from repro.nn import Tensor

        with pytest.raises(ValueError):
            Tensor(np.ones(3)).matmul(Tensor(np.ones((3, 2))))


class TestShapeGrads:
    def test_reshape(self):
        assert_grad_ok(lambda ts: ts[0].reshape(4, 3), [RNG.random((3, 4))])

    def test_reshape_tuple_argument(self):
        assert_grad_ok(lambda ts: ts[0].reshape((2, 6)), [RNG.random((3, 4))])

    def test_reshape_flatten(self):
        assert_grad_ok(lambda ts: ts[0].reshape(-1, 2), [RNG.random((3, 4))])

    def test_transpose_default(self):
        assert_grad_ok(lambda ts: ts[0].transpose(), [RNG.random((3, 4))])

    def test_transpose_axes(self):
        assert_grad_ok(lambda ts: ts[0].transpose(1, 2, 0), [RNG.random((2, 3, 4))])

    def test_expand_dims(self):
        assert_grad_ok(lambda ts: ts[0].expand_dims(1), [RNG.random((3, 4))])

    def test_squeeze(self):
        assert_grad_ok(lambda ts: ts[0].squeeze(1), [RNG.random((3, 1, 4))])

    def test_broadcast_to(self):
        assert_grad_ok(lambda ts: ts[0].broadcast_to((5, 3)), [RNG.random((1, 3))])

    def test_broadcast_to_new_axis(self):
        assert_grad_ok(lambda ts: ts[0].expand_dims(0).broadcast_to((4, 3)), [RNG.random(3)])


class TestCompositeGrads:
    def test_two_layer_network(self):
        def network(ts):
            hidden = ts[0].matmul(ts[1]).relu()
            return hidden.matmul(ts[2]).sum()

        assert_grad_ok(
            network,
            [RNG.random((4, 3)) - 0.4, RNG.random((3, 5)) - 0.5, RNG.random((5, 1)) - 0.5],
        )

    def test_attention_like_pattern(self):
        def attention(ts):
            seq, key = ts
            weights = (seq * key.expand_dims(0).broadcast_to(seq.shape)).sum(axis=1)
            return (seq * weights.expand_dims(1)).sum(axis=0).mean()

        assert_grad_ok(attention, [RNG.random((5, 3)), RNG.random(3)])

    def test_diamond_graph_accumulation(self):
        def diamond(ts):
            x = ts[0]
            a = x * 2.0
            b = x * x
            return (a * b).sum()

        assert_grad_ok(diamond, [RNG.random((3, 3)) * 0.5])
