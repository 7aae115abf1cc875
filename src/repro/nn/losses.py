"""Loss functions: ranking loss (Eq. 1) and contrastive InfoNCE loss (Eq. 10).

``bce_with_logits`` is a fused op with a numerically stable forward pass
and a hand-written backward pass; the InfoNCE loss is composed from primitive ops so its gradient flows into the
gate network exactly as in the paper.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.nn.ops import concat, logsumexp
from repro.nn.tensor import Tensor

__all__ = ["bce_with_logits", "info_nce"]


def _targets_array(targets: Union[Tensor, np.ndarray], dtype: np.dtype) -> np.ndarray:
    data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    return data.astype(dtype)


def bce_with_logits(logits: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean binary cross-entropy on raw logits (Eq. 1 with ŷ = σ(z)).

    Uses the stable form ``max(z,0) - z*y + log(1 + exp(-|z|))`` so large
    logits never overflow.
    """
    y = _targets_array(targets, logits.data.dtype)
    z = logits.data
    if y.shape != z.shape:
        raise ValueError(f"targets shape {y.shape} != logits shape {z.shape}")
    per_example = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    data = np.asarray(per_example.mean(), dtype=z.dtype)
    count = z.size

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
            logits._accumulate(grad * (sig - y) / count)

    return Tensor._make(data, (logits,), backward)


def info_nce(
    anchor: Tensor,
    positive: Tensor,
    negatives: Tensor,
    temperature: float = 1.0,
) -> Tensor:
    """InfoNCE contrastive loss over gate-network outputs (Eq. 10).

    Parameters
    ----------
    anchor:
        Gate outputs ``g(u_i)`` for the original behaviour sequences, shape
        ``(B, K)``.
    positive:
        Gate outputs ``g(u'_i)`` for the randomly masked sequences, shape
        ``(B, K)``.
    negatives:
        Gate outputs ``g(u_j)`` for ``l`` in-batch negative users per anchor,
        shape ``(B, l, K)``.
    temperature:
        Similarity scale; the paper uses a plain dot product (temperature 1).

    Returns
    -------
    Scalar mean loss
        ``-log( exp(s+) / (exp(s+) + Σ_j exp(s-_j)) )`` averaged over the
        batch, with ``s`` the (scaled) dot-product similarity.
    """
    if anchor.shape != positive.shape:
        raise ValueError(f"anchor {anchor.shape} and positive {positive.shape} must match")
    if negatives.ndim != 3 or negatives.shape[0] != anchor.shape[0]:
        raise ValueError(
            f"negatives must be (batch, l, dim); got {negatives.shape} for batch {anchor.shape[0]}"
        )
    scale = 1.0 / temperature
    pos_sim = (anchor * positive).sum(axis=-1, keepdims=True) * scale
    neg_sim = (anchor.expand_dims(1) * negatives).sum(axis=-1) * scale
    logits = concat([pos_sim, neg_sim], axis=1)
    loss = logsumexp(logits, axis=1) - pos_sim.squeeze(1)
    return loss.mean()
