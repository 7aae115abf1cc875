"""The contrastive learning strategy (paper §III-D, Fig. 5).

For each training batch:

* the anchor ``g(u_i)`` is the gate output of the original behaviour
  sequence (reused from the ranking forward pass — no extra cost);
* the positive ``g(u'_i)`` is the gate output of the *randomly masked*
  sequence, simulating a long-tail user;
* ``l`` negatives ``g(u_j)`` are other users sampled in-batch.

The InfoNCE loss (Eq. 10) pulls anchor and positive together, pushing the
in-batch negatives apart; the total objective is
``L = L_rank + λ · L_cl`` (Eq. 11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ranking_model import RankingModel
from repro.data.masking import augment_mask, sample_in_batch_negatives
from repro.data.schema import Batch
from repro.nn import Tensor, info_nce, take

__all__ = ["ContrastiveStrategy"]


@dataclass
class ContrastiveStrategy:
    """Configuration + computation of the auxiliary contrastive loss.

    Parameters mirror §III-D / §IV-H: ``mask_prob`` is p, ``num_negatives``
    is l, ``weight`` is λ, and ``augmentation`` selects the positive-view
    transform ("mask" is the paper's choice).
    """

    mask_prob: float = 0.1
    num_negatives: int = 3
    weight: float = 0.05
    augmentation: str = "mask"

    def loss(
        self,
        model: RankingModel,
        batch: Batch,
        anchor_gate: Tensor,
        rng: np.random.Generator,
    ) -> Tensor:
        """Weighted InfoNCE term ``λ · L_cl`` for one batch.

        ``anchor_gate`` must be the gate output already computed during the
        ranking forward pass, so the gradient flows through a shared graph —
        exactly the paper's "auxiliary loss imposed to the output of the
        gate network".  ``rng`` draws the positive view, then the in-batch
        negatives; the compiled train step (:mod:`repro.infer.training`)
        draws in the same order, so both see the same augmentations.
        """
        if not model.supports_contrastive:
            raise TypeError(f"{type(model).__name__} does not expose a gate network")
        batch_size = anchor_gate.shape[0]
        if batch_size < 2:
            raise ValueError("contrastive loss needs at least 2 examples in the batch")
        positive_gate = model.gate_vector(batch, mask_override=self.positive_view(batch, rng))
        negative_rows = sample_in_batch_negatives(batch_size, self.num_negatives, rng)
        negatives = take(anchor_gate, negative_rows, axis=0)  # (B, l, K)
        return info_nce(anchor_gate, positive_gate, negatives) * self.weight

    def positive_view(self, batch: Batch, rng: np.random.Generator) -> np.ndarray:
        """Draw the positive-view behaviour mask (the paper's masked u')."""
        return augment_mask(batch, rng, self.augmentation, self.mask_prob)
