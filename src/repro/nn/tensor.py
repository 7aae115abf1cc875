"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the computational substrate for the whole reproduction: the
paper trained AW-MoE with TensorFlow/PyTorch on GPUs, neither of which is
available here, so we implement the same mathematics — tensors, broadcasting
elementwise ops, matrix multiplication, reductions, shape ops, and reverse-mode
backpropagation — directly on NumPy.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` and records, for each produced
  tensor, its parent tensors and a closure that propagates the output gradient
  to the parents.  ``Tensor.backward`` runs a topological sort and applies the
  closures in reverse order.
* Only floating point data lives in tensors.  Integer data (embedding ids,
  gather indices, masks used for selection) is passed around as plain NumPy
  arrays; this keeps the autograd core small and makes non-differentiability
  explicit.
* Broadcasting follows NumPy semantics; gradients of broadcast operands are
  reduced back to the operand shape by :func:`_unbroadcast`.
* **Inference fast path**: when gradients are globally disabled
  (:func:`no_grad`), every op returns a bare graph-free tensor *before* its
  backward closure is even constructed — eager inference pays for the NumPy
  math only, never for graph bookkeeping.  The compiled serving path
  (:mod:`repro.infer`) goes further and drops the :class:`Tensor` wrapper
  entirely; :meth:`Tensor.detach_numpy` is the documented bridge between the
  two worlds.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

Arrayish = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Used for evaluation / inference passes so no graph is built::

        with no_grad():
            scores = model(batch)

    Inside the context every op takes the allocation-light fast path: no
    backward closures are constructed and no parent edges are wired.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting.

    Sums over dimensions that were added in front and over dimensions that
    were stretched from size one.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: Arrayish,
        requires_grad: bool = False,
        dtype: np.dtype = np.float32,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach_numpy(self) -> np.ndarray:
        """The raw forward values, cut from the graph — **the** fast path.

        Contract (relied upon by :mod:`repro.infer` and the serving stack):

        * returns the underlying ``np.ndarray`` *without copying*;
        * the result carries no autograd state, so callers may hold it across
          training steps without retaining graph memory;
        * callers must treat the array as **read-only** — it is the same
          storage the forward pass produced, so writes would corrupt any
          other consumer of this tensor (and, for :class:`~repro.nn.module.
          Parameter`, the model weights themselves).

        Use this instead of reaching into ``.data`` from code outside
        :mod:`repro.nn`; ``.data`` is an implementation detail of the
        autograd core, ``detach_numpy()`` is the public contract.
        """
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    # ------------------------------------------------------------------
    # graph construction / backprop
    # ------------------------------------------------------------------
    @staticmethod
    def _from_data(data: np.ndarray) -> "Tensor":
        """Bare graph-free tensor around ``data`` (inference fast path)."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        return out

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output tensor, wiring the graph only when needed."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            ones (i.e. this tensor is the objective; it is usually a scalar
            loss).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free intermediate graph state so repeated training steps do
                # not hold on to whole graphs.
                if node is not self:
                    node._backward = None
                    node._parents = ()

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor._from_data(self.data + _raw_as(other, self.data.dtype))
        other = _wrap(other, self.data.dtype)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __sub__(self, other: Arrayish) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor._from_data(self.data - _raw_as(other, self.data.dtype))
        other = _wrap(other, self.data.dtype)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __mul__(self, other: Arrayish) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor._from_data(self.data * _raw_as(other, self.data.dtype))
        other = _wrap(other, self.data.dtype)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __truediv__(self, other: Arrayish) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor._from_data(self.data / _raw_as(other, self.data.dtype))
        other = _wrap(other, self.data.dtype)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data * other.data), other.shape)
                )

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        if not _GRAD_ENABLED:
            return Tensor._from_data(data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / data)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor._from_data(np.maximum(self.data, 0))
        data = np.maximum(self.data, 0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor._from_data(self.data.sum(axis=axis, keepdims=keepdims))
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_size(self.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        if self.ndim < 2 or (other.ndim if isinstance(other, Tensor) else np.ndim(other)) < 2:
            raise ValueError("matmul requires both operands to have ndim >= 2")
        if not _GRAD_ENABLED:
            return Tensor._from_data(self.data @ _raw_as(other, self.data.dtype))
        other = _wrap(other, self.data.dtype)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ other.data.swapaxes(-1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = self.data.swapaxes(-1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if not _GRAD_ENABLED:
            return Tensor._from_data(self.data.reshape(shape))
        original = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not _GRAD_ENABLED:
            return Tensor._from_data(self.data.transpose(axes))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor._from_data(np.expand_dims(self.data, axis=axis))
        data = np.expand_dims(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(data, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor._from_data(np.squeeze(self.data, axis=axis))
        data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.expand_dims(grad, axis=axis))

        return Tensor._make(data, (self,), backward)

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        """Broadcast to ``shape``; the gradient sums over broadcast axes."""
        if not _GRAD_ENABLED:
            return Tensor._from_data(np.ascontiguousarray(np.broadcast_to(self.data, shape)))
        original = self.shape
        data = np.ascontiguousarray(np.broadcast_to(self.data, shape))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, original))

        return Tensor._make(data, (self,), backward)

def _wrap(value: Arrayish, dtype: np.dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype), dtype=dtype)


def _raw_as(value: Arrayish, dtype: np.dtype) -> np.ndarray:
    """Operand data exactly as :func:`_wrap` would expose it, minus the
    Tensor shell — the inference fast path's way to read the other operand."""
    return value.data if isinstance(value, Tensor) else np.asarray(value, dtype=dtype)


def _axis_size(shape: Tuple[int, ...], axis: Union[int, Tuple[int, ...]]) -> int:
    if isinstance(axis, int):
        return shape[axis]
    count = 1
    for a in axis:
        count *= shape[a]
    return count


def _raise_item(tensor: Tensor) -> float:
    raise ValueError(f"item() requires a single-element tensor, got shape {tensor.shape}")
