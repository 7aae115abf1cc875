"""Tensor construction, introspection and non-autograd behaviour."""

import numpy as np
import pytest

from repro.nn import Tensor, is_grad_enabled, no_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.numpy().dtype == np.float32

    def test_from_array_keeps_values(self):
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        t = Tensor(data)
        assert np.allclose(t.numpy(), data)

    def test_dtype_override(self):
        t = Tensor([1.0], dtype=np.float64)
        assert t.numpy().dtype == np.float64

    def test_from_tensor_copies_reference(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.allclose(b.numpy(), a.numpy())

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_scalar(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == pytest.approx(3.5)


class TestIntrospection:
    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_item_requires_single_element(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestNoGrad:
    def test_context_disables_recording(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_context_restores_flag(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested_contexts(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_requires_grad_suppressed_inside(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestBackwardErrors:
    def test_backward_on_non_grad_tensor(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_shape_mismatch(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2.0
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_grad_accumulates_across_uses(self):
        t = Tensor([2.0], requires_grad=True)
        out = t * 3.0 + t * 4.0
        out.backward()
        assert t.grad[0] == pytest.approx(7.0)
