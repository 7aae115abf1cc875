"""The paper's optimizer (§IV-D: AdamW, initial learning rate 1e-4) and
global-norm gradient clipping."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.nn.module import Parameter

__all__ = ["AdamW", "clip_grad_norm"]

#: Adam's moment decay rates and denominator guard — one value each in use.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    ``weight_decay=0`` is classic Adam.  The mutable state — ``_step_count``
    (bias correction) and the ``_m`` / ``_v`` moments keyed by the
    parameter's index in ``params`` — is what
    :func:`repro.nn.serialization.optimizer_state` checkpoints.
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
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        """Apply one update using the gradients currently stored."""
        self._step_count += 1
        for index, param in enumerate(self.params):
            if param.grad is not None:
                self._update(index, param)

    def _update(self, index: int, param: Parameter) -> None:
        if self.weight_decay:
            param.data -= self.lr * self.weight_decay * param.data
        grad = param.grad
        m = self._m.get(index)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
        else:
            v = self._v[index]
        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * grad * grad
        self._m[index], self._v[index] = m, v
        m_hat = m / (1 - BETA1 ** self._step_count)
        v_hat = v / (1 - BETA2 ** self._step_count)
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Clip gradients in place to a global L2 norm; returns the pre-clip norm."""
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float((param.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm
