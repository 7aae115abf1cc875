"""Gradient buffer arena and the fast-math training mode.

The compiled serving path (:mod:`repro.infer`) executes in a shape-keyed
``BufferArena`` with zero steady-state allocations.  This module applies the
same idea to **autograd**: in steady-state training every step re-allocates
the same gradient arrays — one per op output plus one per parameter — only
to free them all again before the next step.  :class:`GradArena` recycles
the op outputs' buffers across steps, a parameter packed by
:class:`repro.nn.AdamW` receives its gradient in its own slot of the
optimizer's flat gradient buffer, and :func:`fast_math` switches the layers
onto fused kernels (matmul + bias + ReLU as one op, packed-expert GEMMs)
that cut the op count of the hot training step.

Two coupled switches, one context manager::

    arena = GradArena()              # persistent, owned by the trainer
    optimizer.zero_grad()
    with fast_math(arena):
        loss = model(batch)          # fused forward kernels
        loss.backward()              # intermediates recycle, parameter
    optimizer.step()                 # gradients land in their slots

``fast_math()`` without an arena still enables the fused kernels; gradient
buffers are then allocated normally.  Outside the context every op takes the
original reference path, bit for bit — the eager path is the specification
the fast path is tested against.

Correctness invariants (relied on by :mod:`repro.nn.tensor`):

* every array handed out by :meth:`GradArena.lease_grad` is exclusively
  owned by the tensor whose ``.grad`` it becomes; backward closures never
  retain references to other tensors' gradient buffers;
* intermediate gradients are released back to the pool as soon as their
  backward closure has propagated them (``Tensor.backward`` does this);
  parameters are leaves and never release theirs.
"""

from __future__ import annotations

import bisect
import contextlib
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["GradArena", "fast_math", "is_fast_math", "active_arena"]


class GradArena:
    """A pool of reusable gradient buffers leased by row *capacity*.

    The packed training step has a different leading dimension (its valid
    behaviour positions) every step, so pools are keyed by trailing dims and
    dtype only and kept sorted by rows: a lease takes the smallest buffer
    with enough rows (most recently released first among equals) and hands
    out its leading ``[:rows]`` view; :meth:`release` files it back by
    ``.base``.  A miss drops one too-small buffer for the new one (more than
    128 rows round up to a multiple of 128), so a pool holds as many buffers
    as were ever live at once, each at most the largest size seen — not one
    set per distinct shape.  The arena never zeroes on lease — a
    scatter-add caller fills its buffer first.
    """

    __slots__ = ("_free", "allocations", "reuses")

    def __init__(self) -> None:
        self._free: Dict[Tuple[Tuple[int, ...], np.dtype], List[np.ndarray]] = {}
        self.allocations = 0
        self.reuses = 0

    def lease(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Return an uninitialised C-contiguous buffer of ``shape``/``dtype``."""
        shape = tuple(shape)
        if not shape:
            return self.lease((1,), dtype).reshape(())
        rows = shape[0]
        pool = self._free.setdefault((shape[1:], np.dtype(dtype)), [])
        fit = bisect.bisect_left(pool, rows, key=len)
        if fit < len(pool):
            self.reuses += 1
            buffer = pool.pop(fit)
        else:
            if pool:
                pool.pop()
            self.allocations += 1
            capacity = rows if rows <= 128 else -(-rows // 128) * 128
            buffer = np.empty((capacity, *shape[1:]), dtype=dtype)
        return buffer if len(buffer) == rows else buffer[:rows]

    def lease_grad(self, tensor) -> np.ndarray:
        """An uninitialised buffer for ``tensor``'s gradient: a packed
        parameter's own slot in its optimizer's gradient buffer, else a
        pooled :meth:`lease`."""
        slot = tensor._grad_slot
        return self.lease(tensor.data.shape, tensor.data.dtype) if slot is None else slot

    def release(self, buffer: Optional[np.ndarray]) -> None:
        """Return ``buffer`` (or the buffer it is a view of) to the pool."""
        if buffer is None:
            return
        if buffer.base is not None:
            buffer = buffer.base
        pool = self._free.setdefault((buffer.shape[1:], buffer.dtype), [])
        pool.insert(bisect.bisect_left(pool, len(buffer), key=len), buffer)

    def stats(self) -> Dict[str, int]:
        """Allocation counters plus the pooled buffers' count and bytes."""
        pooled = [buffer for pool in self._free.values() for buffer in pool]
        counts = {"allocations": self.allocations, "reuses": self.reuses, "pooled": len(pooled)}
        return {**counts, "pooled_bytes": sum(buffer.nbytes for buffer in pooled)}


_FAST_MATH = False
_ARENA: Optional[GradArena] = None


@contextlib.contextmanager
def fast_math(arena: Optional[GradArena] = None):
    """Enable fused training kernels (and, with ``arena``, buffer reuse).

    Nesting restores the previous mode and arena on exit, so an eager
    reference computation can be embedded inside a fast-path step (and vice
    versa) for parity checks.
    """
    global _FAST_MATH, _ARENA
    previous = (_FAST_MATH, _ARENA)
    _FAST_MATH = True
    _ARENA = arena
    try:
        yield
    finally:
        _FAST_MATH, _ARENA = previous


def is_fast_math() -> bool:
    """Whether fused training kernels are currently enabled."""
    return _FAST_MATH


def active_arena() -> Optional[GradArena]:
    """The gradient arena of the innermost :func:`fast_math`, if any."""
    return _ARENA
