"""Common interface for all compared ranking models.

Every model consumes the batch contract of ``repro.data.schema`` and produces
a logit per impression; ``sigmoid(logit)`` is the predicted CTR/CVR ``ŷ``
fed into the log-loss of Eq. 1.  Models that expose a gate vector (AW-MoE)
additionally support the contrastive objective.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.data.schema import Batch, SessionBatch
from repro.nn import Module, Tensor, no_grad

__all__ = ["RankingModel"]


class RankingModel(Module):
    """Base class: ``forward(batch) -> logits`` plus prediction helpers."""

    #: Whether the model exposes ``gate_vector`` for the contrastive loss.
    supports_contrastive: bool = False

    def forward(self, batch: Batch) -> Tensor:
        raise NotImplementedError

    def predict_logits(self, batch: Batch, **forward_kwargs) -> np.ndarray:
        """Raw logits without building an autograd graph.

        ``forward_kwargs`` are passed through to :meth:`forward`; models with
        extra inference knobs (e.g. AW-MoE's ``gate_override`` used by the
        serving session cache) accept them there.

        A :class:`~repro.data.schema.SessionBatch` is scored as its flat
        rows — the same contract as the compiled plan: its ``gate_override``
        has one row per session.
        """
        if isinstance(batch, SessionBatch):
            if forward_kwargs.get("gate_override") is not None:
                forward_kwargs["gate_override"] = batch.expand(forward_kwargs["gate_override"])
            batch = batch.flat()
        with no_grad():
            return self.forward(batch, **forward_kwargs).numpy()

    def predict_proba(self, batch: Batch, **forward_kwargs) -> np.ndarray:
        """Predicted interaction probabilities ``ŷ = σ(logit)``."""
        logits = self.predict_logits(batch, **forward_kwargs)
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))

    # ------------------------------------------------------------------
    # contrastive hooks (overridden by AW-MoE)
    # ------------------------------------------------------------------
    def gate_vector(self, batch: Batch, mask_override: Optional[np.ndarray] = None) -> Tensor:
        """Gate-network output ``g`` (models without a gate raise)."""
        raise NotImplementedError(f"{type(self).__name__} has no gate network")

    def forward_with_gate(self, batch: Batch) -> Tuple[Tensor, Optional[Tensor]]:
        """Return ``(logits, gate)``; gate is ``None`` for gateless models.

        The default implementation discards the gate; AW-MoE overrides this
        to reuse a single gate forward pass for both ranking and the
        contrastive loss.
        """
        return self.forward(batch), None
