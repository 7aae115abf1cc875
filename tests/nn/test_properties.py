"""Property-based tests (hypothesis) for the autograd core."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, concat, softmax
from repro.nn.tensor import _unbroadcast

settings.register_profile("ci", deadline=None, max_examples=40)
settings.load_profile("ci")


def small_arrays(min_dims=1, max_dims=3):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=5),
        elements=st.floats(-10, 10, allow_nan=False),
    )


class TestAlgebraicProperties:
    @given(small_arrays(), small_arrays())
    def test_addition_commutes_when_shapes_match(self, a, b):
        if a.shape != b.shape:
            return
        left = (Tensor(a, dtype=np.float64) + Tensor(b, dtype=np.float64)).numpy()
        right = (Tensor(b, dtype=np.float64) + Tensor(a, dtype=np.float64)).numpy()
        assert np.allclose(left, right)

    @given(small_arrays())
    def test_subtraction_undoes_addition(self, a):
        t = Tensor(a, dtype=np.float64)
        u = Tensor(np.full_like(a, 3.25), dtype=np.float64)
        assert np.allclose(((t + u) - u).numpy(), a)

    @given(small_arrays())
    def test_sqrt_inverts_square(self, a):
        t = Tensor(np.abs(a) + 0.5, dtype=np.float64)
        assert np.allclose((t * t).sqrt().numpy(), t.numpy(), rtol=1e-8)

    @given(small_arrays())
    def test_relu_idempotent(self, a):
        t = Tensor(a, dtype=np.float64)
        once = t.relu().numpy()
        twice = t.relu().relu().numpy()
        assert np.allclose(once, twice)

    @given(small_arrays())
    def test_sum_equals_numpy(self, a):
        assert np.allclose(Tensor(a, dtype=np.float64).sum().numpy(), a.sum())

    @given(small_arrays(min_dims=2, max_dims=2))
    def test_transpose_involution(self, a):
        t = Tensor(a, dtype=np.float64)
        assert np.allclose(t.transpose().transpose().numpy(), a)


class TestGradientProperties:
    @given(small_arrays())
    def test_sum_gradient_is_ones(self, a):
        t = Tensor(a, requires_grad=True, dtype=np.float64)
        t.sum().backward()
        assert np.allclose(t.grad, np.ones_like(a))

    @given(small_arrays())
    def test_linear_gradient_is_coefficient(self, a):
        t = Tensor(a, requires_grad=True, dtype=np.float64)
        (t * 3.0).sum().backward()
        assert np.allclose(t.grad, 3.0)

    @given(small_arrays())
    def test_gradient_accumulates_linearly(self, a):
        t = Tensor(a, requires_grad=True, dtype=np.float64)
        (t + t).sum().backward()
        assert np.allclose(t.grad, 2.0)


class TestUnbroadcast:
    @given(
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    )
    def test_unbroadcast_restores_shape(self, shape):
        rng = np.random.default_rng(0)
        broadcast_shape = (3,) + shape
        grad = rng.random(broadcast_shape)
        reduced = _unbroadcast(grad, shape)
        assert reduced.shape == shape

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_unbroadcast_sums_stretched_axes(self, rows, cols):
        grad = np.ones((rows, cols))
        reduced = _unbroadcast(grad, (1, cols))
        assert reduced.shape == (1, cols)
        assert np.allclose(reduced, rows)


class TestSoftmaxProperties:
    @given(small_arrays(min_dims=2, max_dims=2))
    def test_softmax_simplex(self, a):
        out = softmax(Tensor(a, dtype=np.float64), axis=-1).numpy()
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0)

    @given(small_arrays(min_dims=2, max_dims=2), st.floats(-50, 50))
    def test_softmax_shift_invariance(self, a, shift):
        base = softmax(Tensor(a, dtype=np.float64), axis=-1).numpy()
        shifted = softmax(Tensor(a + shift, dtype=np.float64), axis=-1).numpy()
        assert np.allclose(base, shifted, atol=1e-8)


class TestConcatProperties:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    def test_concat_split_round_trip(self, a_cols, b_cols, rows):
        rng = np.random.default_rng(1)
        a = rng.random((rows, a_cols))
        b = rng.random((rows, b_cols))
        joined = concat([Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)], axis=1)
        assert np.allclose(joined.numpy()[:, :a_cols], a)
        assert np.allclose(joined.numpy()[:, a_cols:], b)

    @given(st.integers(2, 5))
    def test_concat_gradient_splits(self, n):
        rng = np.random.default_rng(2)
        parts = [Tensor(rng.random(3), requires_grad=True, dtype=np.float64) for _ in range(n)]
        out = concat(parts, axis=0)
        out.backward(np.arange(3 * n, dtype=np.float64))
        for i, part in enumerate(parts):
            assert np.allclose(part.grad, np.arange(3 * i, 3 * (i + 1)))
