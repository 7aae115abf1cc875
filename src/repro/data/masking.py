"""Behaviour-sequence augmentations for contrastive learning (§III-D, §V).

The paper's strategy randomly *masks* items in the behaviour sequence with
probability ``p`` to simulate long-tail users.  The future-work section (§V)
mentions *reordering*; *cropping* is the third standard augmentation from the
contrastive sequential-recommendation literature the paper cites [43], [44].

All augmentations operate on the ``(B, M)`` validity mask (and, for reorder,
the per-position arrays) without touching the underlying dataset; models
consume the augmented view through the ``mask_override`` hook of the gate
network.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.data.schema import Batch

__all__ = [
    "random_mask",
    "random_crop",
    "random_reorder",
    "augment_mask",
    "sample_in_batch_negatives",
]


def random_mask(mask: np.ndarray, rng: np.random.Generator, p: float) -> np.ndarray:
    """Zero each valid position independently with probability ``p``.

    This is the paper's augmentation: the masked sequence simulates a
    long-tail user with fewer historical behaviours.  Masking may empty a
    sequence entirely, which simulates a brand-new user — a valid and useful
    extreme (Fig. 7's "new user" group).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mask probability must be in [0, 1], got {p}")
    mask = np.asarray(mask, dtype=np.float32)
    keep = rng.random(mask.shape) >= p
    return mask * keep


def random_crop(mask: np.ndarray, rng: np.random.Generator, ratio: float = 0.8) -> np.ndarray:
    """Keep a random contiguous window covering ``ratio`` of valid items.

    Unlike masking, cropping preserves local order/recency structure.

    The window is chosen per row but computed for the whole batch at once:
    every position gets a rank among its row's valid entries, one vectorised
    draw picks each row's window start, and the crop is two broadcast
    comparisons — no per-sample Python loop on the contrastive hot path.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"crop ratio must be in (0, 1], got {ratio}")
    mask = np.asarray(mask, dtype=np.float32)
    valid = mask > 0
    # Rank of each valid position within its row (0-based, in order).
    rank = np.cumsum(valid, axis=1) - 1
    counts = valid.sum(axis=1)  # valid items per row
    window = np.maximum(1, np.rint(counts * ratio).astype(np.int64))
    # Uniform start in [0, counts - window]; empty rows draw a dummy 0.
    span = np.maximum(counts - window + 1, 1)
    start = rng.integers(0, span)
    keep = valid & (rank >= start[:, None]) & (rank < (start + window)[:, None])
    return np.where(keep, mask, 0.0).astype(np.float32)


def random_reorder(
    columns: Sequence[np.ndarray],
    mask: np.ndarray,
    rng: np.random.Generator,
    p: float = 0.2,
) -> List[np.ndarray]:
    """Shuffle a random fraction ``p`` of valid positions (future work §V).

    ``columns`` are per-position arrays ``(B, M, ...)`` — a behaviour item's
    id, category and dense profile.  Returns reordered copies in which each
    position moves whole: every column is permuted by the same draw.  The
    AW-MoE pools (Eq. 3, Eq. 8) are sums over positions, so reordering only
    perturbs models/features sensitive to order; it is provided for the
    augmentation-ablation benchmark.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"reorder probability must be in [0, 1], got {p}")
    columns = [np.array(column, copy=True) for column in columns]
    for row in range(mask.shape[0]):
        valid = np.flatnonzero(mask[row] > 0)
        chosen = valid[rng.random(valid.size) < p]
        if chosen.size > 1:
            permuted = rng.permutation(chosen)
            for column in columns:
                column[row, chosen] = column[row, permuted]
    return columns


def augment_mask(
    batch: Batch,
    rng: np.random.Generator,
    strategy: str,
    p: float,
) -> np.ndarray:
    """Return the positive-view mask for the requested strategy.

    ``"mask"`` follows the paper; ``"crop"`` keeps a contiguous window of
    size ``1 - p``; ``"reorder"`` permutes whole positions and returns the
    original mask (the batch's behaviour id, category and dense arrays are
    replaced by reordered copies).
    """
    mask = batch["behavior_mask"]
    if strategy == "mask":
        return random_mask(mask, rng, p)
    if strategy == "crop":
        return random_crop(mask, rng, ratio=max(1.0 - p, 0.05))
    if strategy == "reorder":
        keys = ("behavior_items", "behavior_categories", "behavior_dense")
        reordered = random_reorder([batch[key] for key in keys], mask, rng, p=max(p, 0.2))
        batch.update(zip(keys, reordered))
        return np.asarray(mask, dtype=np.float32)
    raise ValueError(f"unknown augmentation strategy {strategy!r}")


def sample_in_batch_negatives(
    batch_size: int, num_negatives: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``l`` in-batch negative row indices per anchor, excluding self.

    Returns an ``(batch_size, l)`` integer array.  Requires at least two rows
    (otherwise no valid negative exists).
    """
    if batch_size < 2:
        raise ValueError("in-batch negatives require batch_size >= 2")
    draws = rng.integers(0, batch_size - 1, size=(batch_size, num_negatives))
    anchors = np.arange(batch_size)[:, None]
    # Shift draws >= anchor by one: uniform over {0..B-1} \ {anchor}.
    return draws + (draws >= anchors)
