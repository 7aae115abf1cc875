"""Expert-disagreement (adversarial) regularization (paper §V future work).

The paper points to the adversarial regularization of Category-MoE [34] as a
"promising technique to encourage the disagreement among different experts,
thus improving the diversity of perspectives in the final ensemble".  This
module implements the regularizer: a penalty on the pairwise correlation of
expert scores within a batch, whose *negative* weight rewards disagreement.

Use via :func:`train_adversarial_aw_moe`, which mirrors the standard trainer
but adds ``λ_adv · L_disagree`` to the objective.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aw_moe import AWMoE
from repro.core.config import TrainConfig
from repro.core.trainer import GRAD_CLIP
from repro.data.dataset import RankingDataset, iterate_batches
from repro.nn import AdamW, Tensor, bce_with_logits, clip_grad_norm
from repro.utils.logging import RunLog
from repro.utils.rng import SeedBank

__all__ = ["expert_correlation_loss", "train_adversarial_aw_moe"]


def expert_correlation_loss(scores: Tensor) -> Tensor:
    """Mean squared pairwise correlation of expert scores over the batch.

    ``scores`` is the ``(B, K)`` expert-score matrix.  Minimizing this drives
    experts toward decorrelated (disagreeing) predictions; 0 means fully
    decorrelated experts, 1 means all experts produce identical rankings.
    """
    batch, k = scores.shape
    if batch < 2:
        raise ValueError("correlation needs at least 2 examples in the batch")
    centered = scores - scores.mean(axis=0, keepdims=True)
    std = ((centered * centered).mean(axis=0, keepdims=True) + 1e-6).sqrt()
    normalized = centered / std
    corr = normalized.transpose(1, 0).matmul(normalized) * (1.0 / batch)  # (K, K)
    off_diag_mask = 1.0 - np.eye(k, dtype=np.float32)
    off = corr * Tensor(off_diag_mask)
    return (off * off).sum() * (1.0 / (k * (k - 1)))


def train_adversarial_aw_moe(
    model: AWMoE,
    train_set: RankingDataset,
    config: TrainConfig,
    adversarial_weight: float = 0.1,
    seed: int = 0,
    log: Optional[RunLog] = None,
) -> RunLog:
    """Train AW-MoE with the expert-disagreement regularizer added.

    The objective is ``L_rank + λ_adv · L_corr`` (contrastive learning can be
    layered on top through ``config.contrastive`` exactly as in the standard
    trainer, but is kept separate here for a clean ablation).
    """
    if adversarial_weight < 0:
        raise ValueError("adversarial_weight must be non-negative")
    bank = SeedBank(seed)
    shuffle_rng = bank.child("shuffle")
    optimizer = AdamW(
        model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    if log is None:
        log = RunLog(name="adversarial-aw-moe")

    model.train()
    step = 0
    for _ in range(config.epochs):
        for batch in iterate_batches(
            train_set, config.batch_size, rng=shuffle_rng, drop_last=True
        ):
            step += 1
            v_imp = model.input_network(batch)
            scores = model.experts(v_imp)
            gate = model.gate(batch)
            logits = (gate * scores).sum(axis=1)
            rank_loss = bce_with_logits(logits, batch["label"])
            corr_loss = expert_correlation_loss(scores)
            loss = rank_loss + corr_loss * adversarial_weight
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer, GRAD_CLIP)
            optimizer.step()
            log.log(step, loss=loss.item(), rank_loss=rank_loss.item(), corr=corr_loss.item())
    model.eval()
    return log
