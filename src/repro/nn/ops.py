"""Free-function tensor operations built on :class:`repro.nn.tensor.Tensor`.

These complement the methods on ``Tensor`` with operations that either take
multiple tensors (``concat``), take integer index arrays (``embedding``,
``take``), or fuse several primitive steps (``softmax``, ``logsumexp``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast, is_grad_enabled

__all__ = [
    "concat",
    "embedding",
    "take",
    "softmax",
    "logsumexp",
    "masked_fill",
]


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``; gradients split back by segment."""
    if not tensors:
        raise ValueError("concat() requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not is_grad_enabled():
        return Tensor._from_data(data)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                piece = np.moveaxis(moved[start:stop], 0, axis)
                tensor._accumulate(np.ascontiguousarray(piece))

    return Tensor._make(data, tuple(tensors), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` (V, D) by an integer array of any shape.

    Output shape is ``indices.shape + (D,)``.  The backward pass scatter-adds
    into the embedding table, matching dense-gradient embedding layers.
    """
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
    data = weight.data[indices]
    if not is_grad_enabled():
        return Tensor._from_data(data)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            full = np.zeros_like(weight.data)
            np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.data.shape[-1]))
            weight._accumulate(full)

    return Tensor._make(data, (weight,), backward)


def take(tensor: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Differentiable ``np.take`` along ``axis`` with integer ``indices``."""
    indices = np.asarray(indices)
    data = np.take(tensor.data, indices, axis=axis)
    if not is_grad_enabled():
        return Tensor._from_data(data)

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            full = np.zeros_like(tensor.data)
            moved_full = np.moveaxis(full, axis, 0)
            moved_grad = np.moveaxis(
                grad, tuple(range(axis, axis + indices.ndim)), tuple(range(indices.ndim))
            )
            np.add.at(moved_full, indices, moved_grad)
            tensor._accumulate(full)

    return Tensor._make(data, (tensor,), backward)


def logsumexp(tensor: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    x = tensor.data
    m = x.max(axis=axis, keepdims=True)
    shifted = np.exp(x - m)
    total = shifted.sum(axis=axis, keepdims=True)
    data = (np.log(total) + m)
    if not keepdims:
        data = np.squeeze(data, axis=axis)
    if not is_grad_enabled():
        return Tensor._from_data(data)
    softmax_vals = shifted / total

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            tensor._accumulate(g * softmax_vals)

    return Tensor._make(data, (tensor,), backward)


def softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with a fused, stable backward pass."""
    x = tensor.data
    shifted = np.exp(x - x.max(axis=axis, keepdims=True))
    data = shifted / shifted.sum(axis=axis, keepdims=True)
    if not is_grad_enabled():
        return Tensor._from_data(data)

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            dot = (grad * data).sum(axis=axis, keepdims=True)
            tensor._accumulate(data * (grad - dot))

    return Tensor._make(data, (tensor,), backward)


def masked_fill(tensor: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is true with ``value`` (no grad there)."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, np.asarray(value, dtype=tensor.data.dtype), tensor.data)
    if not is_grad_enabled():
        return Tensor._from_data(data)

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(_unbroadcast(grad * ~mask, tensor.shape))

    return Tensor._make(data, (tensor,), backward)
