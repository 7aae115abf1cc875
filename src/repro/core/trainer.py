"""End-to-end training loop for every compared ranking model.

Implements the paper's objective ``L = L_rank + λ·L_cl`` (Eq. 11) with AdamW,
mini-batch shuffling, gradient clipping, and deterministic seeding.
The same trainer handles gateless baselines (λ term skipped) and AW-MoE with
or without contrastive learning, so Tables II–V differ only in the model and
the ``contrastive`` flag — as in the paper.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional

import numpy as np

from repro.core.config import TrainConfig
from repro.core.contrastive import ContrastiveStrategy
from repro.core.ranking_model import RankingModel
from repro.data.dataset import RankingDataset, iterate_batches
from repro.data.schema import Batch
from repro.nn import AdamW, GradArena, bce_with_logits, clip_grad_norm, fast_math
from repro.utils.logging import RunLog
from repro.utils.rng import SeedBank

__all__ = ["train_model", "train_step", "build_optimizers", "build_strategy"]

#: Global gradient-norm ceiling applied before every optimizer step.
GRAD_CLIP = 5.0


def train_model(
    model: RankingModel,
    train_set: RankingDataset,
    config: TrainConfig,
    seed: int = 0,
    log: Optional[RunLog] = None,
) -> RunLog:
    """Train ``model`` in place; returns the per-step metric log.

    Contrastive learning is applied only when ``config.contrastive`` is set
    *and* the model exposes a gate network (AW-MoE); requesting it on a
    gateless baseline raises, making accidental mis-benchmarks loud.
    """
    if config.contrastive and not model.supports_contrastive:
        raise TypeError(
            f"contrastive training requested but {type(model).__name__} has no gate network"
        )
    if len(train_set) < config.batch_size:
        raise ValueError(
            f"train set has {len(train_set)} rows, fewer than batch_size {config.batch_size}: "
            "every batch would be dropped and no step would run"
        )
    bank = SeedBank(seed)
    shuffle_rng = bank.child("shuffle")
    cl_rng = bank.child("contrastive")
    optimizer = build_optimizers(model, config)
    strategy = build_strategy(config)
    arena = GradArena() if config.fast_path else None
    if log is None:
        log = RunLog(name=type(model).__name__)

    model.train()
    step = 0
    for epoch in range(config.epochs):
        for batch in iterate_batches(
            train_set, config.batch_size, rng=shuffle_rng, drop_last=True
        ):
            step += 1
            metrics = train_step(model, batch, config, optimizer, strategy, cl_rng, arena)
            log.log(step, epoch=epoch, **metrics)
    model.eval()
    return log


def train_step(
    model: RankingModel,
    batch: Batch,
    config: TrainConfig,
    optimizer: AdamW,
    strategy: ContrastiveStrategy,
    cl_rng: Optional[np.random.Generator] = None,
    arena: Optional[GradArena] = None,
) -> Dict[str, float]:
    """One gradient update on one mini-batch; returns its loss metrics.

    This is the unit both :func:`train_model` and the streaming incremental
    trainer (:mod:`repro.online.incremental`) are built from — sharing it
    guarantees the online refresh path optimizes exactly the offline
    objective.

    With ``config.fast_path`` the step runs under :func:`repro.nn.fast_math`
    — packed-expert GEMMs, fused linear kernels, the behaviour trunk on the
    step's valid positions only (gathered once per step), and (for AW-MoE
    with a mask-type augmentation) the shared-trunk contrastive pair — while
    ``arena``, when supplied by a surrounding training loop, recycles
    gradient buffers across steps.  Both paths draw from ``cl_rng`` in the
    same order, so fast and eager runs see identical augmentations and
    in-batch negatives.
    """
    mode = fast_math(arena) if config.fast_path else contextlib.nullcontext()
    with mode:
        if config.contrastive:
            if config.fast_path and _can_share_gate_trunk(model, strategy):
                positive_mask = strategy.positive_view(batch, cl_rng)
                logits, gates = model.forward_with_gate_views(batch, [positive_mask])
                rank_loss = bce_with_logits(logits, batch["label"])
                cl_loss = strategy.loss_from_gates(gates[0], gates[1], cl_rng)
            else:
                logits, gate = model.forward_with_gate(batch)
                rank_loss = bce_with_logits(logits, batch["label"])
                cl_loss = strategy.loss(model, batch, gate, cl_rng)
            loss = rank_loss + cl_loss
            extra = {"cl_loss": cl_loss.item()}
        else:
            logits = model.forward(batch)
            rank_loss = bce_with_logits(logits, batch["label"])
            loss = rank_loss
            extra = {}
        optimizer.zero_grad()
        loss.backward()
        # clip_grad_norm returns the pre-clip global norm — the training
        # health signal the refresh-cycle telemetry streams (a norm spike
        # on a fresh click window is the earliest divergence symptom).
        extra["grad_norm"] = clip_grad_norm(optimizer, GRAD_CLIP)
        optimizer.step()
    return {"loss": loss.item(), "rank_loss": rank_loss.item(), **extra}


def _can_share_gate_trunk(model: RankingModel, strategy: ContrastiveStrategy) -> bool:
    """Whether the contrastive pair can reuse one gate-trunk forward.

    Mask-type augmentations ("mask", "crop") leave the behaviour ids
    untouched, so anchor and positive share every mask-independent
    activation; "reorder" rewrites the id arrays and must run two full
    passes.
    """
    return strategy.augmentation != "reorder" and hasattr(model, "forward_with_gate_views")


def build_strategy(config: TrainConfig) -> ContrastiveStrategy:
    """The contrastive-loss computation configured by ``config`` (§III-D)."""
    return ContrastiveStrategy(
        mask_prob=config.mask_prob,
        num_negatives=config.num_negatives,
        weight=config.cl_weight,
        augmentation=config.augmentation,
    )


def build_optimizers(model: RankingModel, config: TrainConfig) -> AdamW:
    """The one AdamW over all of ``model``'s parameters that
    :func:`train_step` takes: one flat parameter buffer, so the clip norm
    sums in model order."""
    return AdamW(model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
