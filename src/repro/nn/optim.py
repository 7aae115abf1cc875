"""The paper's optimizer (§IV-D: AdamW, initial learning rate 1e-4) and
global-norm gradient clipping, as a few whole-buffer array ops.

:class:`AdamW` packs its parameters, in order, into one buffer per dtype:
each ``Parameter.data`` becomes a view of it, and each parameter gets a
gradient *slot* in a parallel buffer: the compiled train step
(:mod:`repro.infer.training`) writes its gradients there, and a tape
gradient is copied in before the clip or the update.  The float order is the
per-array update's, so results are bitwise equal to it
(``tests/nn/test_optim.py`` keeps that loop as the oracle).
"""

from __future__ import annotations

from itertools import compress, groupby
from operator import itemgetter
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.nn.module import Parameter

__all__ = ["AdamW", "clip_grad_norm"]

#: Adam's moment decay rates and denominator guard — one value each in use.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class _Flat:
    """Parameters ``indices`` (one dtype) end to end: weights, gradient
    slots, moments ``m`` / ``v`` and two scratch rows of one ``(6, size)``
    array, plus the float64 squares the clip norm sums."""

    def __init__(self, params: Sequence[Parameter], indices: List[int]) -> None:
        bounds = np.cumsum([0] + [params[i].data.size for i in indices]).tolist()
        self.indices, self.spans = indices, list(zip(bounds[:-1], bounds[1:]))
        self.rows = np.zeros((6, bounds[-1]), dtype=params[indices[0]].data.dtype)
        self.grad, self.m, self.v = self.rows[1:4]
        self.squares = np.empty(bounds[-1], dtype=np.float64)


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    ``weight_decay=0`` is classic Adam.  :func:`repro.nn.serialization.
    optimizer_state` checkpoints ``_step_count`` (bias correction), the
    ``_m`` / ``_v`` views indexed like ``params`` and ``_seen``, the indices
    that ever had a gradient.  A parameter whose ``.data`` stops viewing the
    buffer (rebound, or packed by another AdamW) makes the next clip or step
    raise instead of silently training nothing.
    """

    def __init__(
        self, params: Sequence[Parameter], lr: float = 1e-4, weight_decay: float = 0.01
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay
        self._step_count = 0
        self._seen: Set[int] = set()
        by_dtype: Dict[np.dtype, List[int]] = {}
        for index, param in enumerate(self.params):
            by_dtype.setdefault(param.data.dtype, []).append(index)
        self._flats = [_Flat(self.params, indices) for indices in by_dtype.values()]
        views: List[tuple] = [()] * len(self.params)
        for flat in self._flats:
            for index, (start, stop) in zip(flat.indices, flat.spans):
                shape = self.params[index].data.shape
                rows = [row[start:stop].reshape(shape) for row in flat.rows[:4]]
                views[index] = (*rows, flat.squares[start:stop])
        self._data, self._slots, self._m, self._v, self._squares = map(list, zip(*views))
        for param, data in zip(self.params, self._data):
            data[...] = param.data
            param.data = data

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.params:
            param.grad = None

    def _gather(self) -> List[bool]:
        """Which parameters have a gradient; moves one not already in its
        slot (the tape's) there."""
        touched = []
        for index, (param, data, slot) in enumerate(zip(self.params, self._data, self._slots)):
            if param.data is not data:
                raise RuntimeError(
                    f"AdamW parameter {index} {data.shape} no longer views the optimizer's "
                    "buffer: its .data was rebound or another AdamW packed it"
                )
            if param.grad is not None and param.grad is not slot:
                np.copyto(slot, param.grad)
                param.grad = slot
            touched.append(param.grad is not None)
        return touched

    def step(self) -> None:
        """Apply one update using the gradients currently stored.

        A parameter without a gradient is skipped entirely, weight decay
        included: the update runs over each maximal range of touched
        parameters — one range, the whole buffer, when all are touched.
        """
        touched = self._gather()
        self._step_count += 1
        self._seen.update(compress(range(len(touched)), touched))
        for flat in self._flats:
            hits = [touched[index] for index in flat.indices]
            for hit, run in groupby(zip(hits, flat.spans), key=itemgetter(0)):
                if hit:
                    spans = [span for _, span in run]
                    self._update(flat.rows[:, spans[0][0] : spans[-1][1]])

    def _update(self, rows: np.ndarray) -> None:
        # The per-array float order: (lr·wd)·p, β1·m + (1−β1)·g,
        # β2·v + ((1−β2)·g)·g, (lr·m̂) / (√v̂ + ε).
        p, g, m, v, s1, s2 = rows
        lr, t = self.lr, self._step_count
        if self.weight_decay:
            p -= np.multiply(p, lr * self.weight_decay, out=s1)
        m *= BETA1
        m += np.multiply(g, 1 - BETA1, out=s1)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1 - BETA2, out=s1), g, out=s1)
        np.multiply(np.divide(m, 1 - BETA1**t, out=s1), lr, out=s1)
        np.sqrt(np.divide(v, 1 - BETA2**t, out=s2), out=s2)
        p -= np.divide(s1, np.add(s2, EPS, out=s2), out=s1)


def clip_grad_norm(optimizer: AdamW, max_norm: float) -> float:
    """Clip ``optimizer``'s gradients in place to a global L2 norm; returns
    the pre-clip norm — one float64 square per buffer, then one sum per
    touched parameter in parameter order: bitwise the per-array norm."""
    touched = optimizer._gather()
    for flat in optimizer._flats:
        np.square(flat.grad, out=flat.squares, dtype=np.float64)
    total = 0.0
    for square in compress(optimizer._squares, touched):
        total += float(square.sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        for flat in optimizer._flats:
            flat.grad *= max_norm / norm
    return norm
