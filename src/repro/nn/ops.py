"""Free-function tensor operations built on :class:`repro.nn.tensor.Tensor`.

These complement the methods on ``Tensor`` with operations that either take
multiple tensors (``concat``, ``stack``), take integer index arrays
(``embedding``, ``take``, ``repeat_rows``, ``segment_sum``), or fuse several
primitive steps (``linear``, ``softmax``, ``logsumexp``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.arena import active_arena
from repro.nn.tensor import Tensor, _unbroadcast, is_grad_enabled

__all__ = [
    "concat",
    "stack",
    "embedding",
    "take",
    "repeat_rows",
    "segment_sum",
    "linear",
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


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shaped tensors along a new axis."""
    if not tensors:
        raise ValueError("stack() requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)
    if not is_grad_enabled():
        return Tensor._from_data(data)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(np.ascontiguousarray(moved[i]))

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
            arena = active_arena()
            if arena is not None:
                # Scatter-add straight into the (possibly recycled) weight
                # gradient — the reference path below materialises a full
                # zeroed table per lookup and then adds it into the grad,
                # two table-sized passes the hot path cannot afford.
                if weight.grad is None:
                    weight.grad = arena.lease_grad(weight)
                    weight.grad.fill(0.0)
                np.add.at(
                    weight.grad, indices.reshape(-1), grad.reshape(-1, weight.data.shape[-1])
                )
                return
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


def _segment_sum(x: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Sum rows of ``x`` (P, ...) into ``size`` segments; ``rows`` is sorted.
    ``np.add.reduceat`` returns the *element* at an empty segment's start, so
    it is only shown the non-empty segments; empty ones stay exactly 0."""
    out = np.zeros((size, *x.shape[1:]), dtype=x.dtype)
    counts = np.bincount(rows, minlength=size)
    filled = counts > 0
    if x.shape[0]:
        out[filled] = np.add.reduceat(x, (np.cumsum(counts) - counts)[filled], axis=0)
    return out


def repeat_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Row ``rows[p]`` of ``x`` (B, ...) at packed position ``p``: ``(P, ...)``.

    ``rows`` is the sorted row index of every valid position of a padded
    ``(B, M)`` layout; the backward pass is :func:`segment_sum`.
    """
    data = x.data[rows]
    if not is_grad_enabled():
        return Tensor._from_data(data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(_segment_sum(grad, rows, x.data.shape[0]))

    return Tensor._make(data, (x,), backward)


def segment_sum(x: Tensor, rows: np.ndarray, size: int) -> Tensor:
    """Sum packed positions ``(P, ...)`` back into their rows: ``(size, ...)``.

    The packed twin of ``.sum(axis=1)`` over a padded layout; rows without a
    position are exactly 0.  The backward pass is :func:`repeat_rows`.
    """
    data = _segment_sum(x.data, rows, size)
    if not is_grad_enabled():
        return Tensor._from_data(data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[rows])

    return Tensor._make(data, (x,), backward)


def _accumulate_matmul(tensor: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """Accumulate ``a @ b`` into ``tensor.grad`` without a temporary.

    When the tensor has no gradient yet (the common case — each weight and
    each activation receives exactly one contribution per training step) the
    product is written straight into a fresh buffer (a parameter's slot,
    under an arena) with ``np.matmul(..., out=...)``; only genuine second
    contributions pay for a temporary plus an add.
    """
    if tensor.grad is None:
        arena = active_arena()
        out = arena.lease_grad(tensor) if arena is not None else np.empty_like(tensor.data)
        np.matmul(a, b, out=out)
        tensor.grad = out
    else:
        tensor.grad += a @ b


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """Fused affine op: ``x @ weight + bias`` (then ReLU) as ONE graph node.

    The eager reference path builds this from three ops (matmul, broadcast
    add, ReLU), each with its own output allocation, backward closure,
    and gradient buffer.  The training fast path (:func:`repro.nn.fast_math`)
    fuses them: the bias add and the ReLU run in place on the matmul
    output, and one backward closure writes the three gradients with single
    GEMMs (``out=`` into arena buffers when one is active).

    Two weight layouts are supported:

    * ``(in, out)`` — a plain layer; ``x`` may carry any leading dims, which
      are flattened into one GEMM exactly like :class:`repro.nn.layers.Linear`;
    * ``(K, in, out)`` — a **packed** stack of K layers sharing one input
      ``(B, in)`` (broadcast over K) or carrying per-layer inputs
      ``(K, B, in)``; forward and backward each run as one batched GEMM.
      Bias, when given, has shape ``(K, out)``.

    ``relu`` marks a hidden layer of an :class:`repro.nn.layers.MLP`.
    """
    wd = weight.data
    xd = x.data
    if xd.shape[-1] != wd.shape[-2]:
        raise ValueError(
            f"linear expected input features {wd.shape[-2]}, got input shape {xd.shape}"
        )

    packed = wd.ndim == 3
    if not packed:
        if wd.ndim != 2:
            raise ValueError(f"weight must be (in, out) or (K, in, out), got {wd.shape}")
        leading = xd.shape[:-1]
        flat = xd.reshape(-1, wd.shape[0])
        data = flat @ wd
        if bias is not None:
            data += bias.data
        if relu:
            np.maximum(data, 0.0, out=data)
        out_shape = (*leading, wd.shape[1])
        data = data.reshape(out_shape)
    else:
        if xd.ndim not in (2, 3):
            raise ValueError(f"packed linear input must be (B, in) or (K, B, in), got {xd.shape}")
        if bias is not None and bias.data.shape != (wd.shape[0], wd.shape[2]):
            raise ValueError(
                f"packed bias must be (K, out) = {(wd.shape[0], wd.shape[2])}, "
                f"got {bias.data.shape}"
            )
        data = xd @ wd  # (B, in) @ (K, in, out) -> (K, B, out), batched over K
        if bias is not None:
            data += bias.data[:, None, :]
        if relu:
            np.maximum(data, 0.0, out=data)

    if not is_grad_enabled():
        return Tensor._from_data(data)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        g = grad * (data > 0) if relu else grad
        if not packed:
            gf = g.reshape(-1, wd.shape[1])
            if weight.requires_grad:
                _accumulate_matmul(weight, flat.T, gf)
            if bias is not None and bias.requires_grad:
                bias._accumulate(gf.sum(axis=0))
            if x.requires_grad:
                if x.grad is None:
                    arena = active_arena()
                    # np.empty (not empty_like): the buffer must be
                    # C-contiguous so the 2-D reshape below is a view.
                    out = (
                        arena.lease(xd.shape, xd.dtype)
                        if arena is not None
                        else np.empty(xd.shape, dtype=xd.dtype)
                    )
                    np.matmul(gf, wd.T, out=out.reshape(-1, wd.shape[0]))
                    x.grad = out
                else:
                    x.grad += (gf @ wd.T).reshape(xd.shape)
        else:
            if weight.requires_grad:
                # (K, in, B) @ (K, B, out) — or broadcast (in, B) for a
                # shared input — one batched GEMM per step.
                _accumulate_matmul(weight, xd.swapaxes(-1, -2), g)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=1))
            if x.requires_grad:
                xg = g @ wd.swapaxes(-1, -2)  # (K, B, in)
                x._accumulate(_unbroadcast(xg, xd.shape))

    return Tensor._make(data, parents, backward)


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
