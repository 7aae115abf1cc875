"""Synthetic Amazon-review-like recommendation dataset (paper §IV-A2).

The public Amazon review corpus cannot be downloaded in this offline
environment, so this module generates a review log and applies the *exact
evaluation protocol* the paper uses (following [34]):

* review events are grouped per user and ordered chronologically;
* the task is to predict each user's **last** reviewed item;
* one negative item is sampled uniformly from all other items (1:1);
* users are split 90% / 10% into train / test;
* there is **no query** — AW-MoE's gate reads the *target item* instead
  (§IV-A2), which is the ``task="reco"`` code path of the models.

The underlying world reuses :mod:`repro.data.synthetic`: the same archetype /
style / interest structure drives which items a user reviews, so the
recommendation experiment exercises the same personalization machinery as the
search experiment, matching the paper's argument that its conclusions carry
over.  Every row comes from :func:`repro.data.features.assemble_sessions`
run on the world cut before each user's held-out review; with no query, the
query-dependent columns are zero.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from repro.data.dataset import RankingDataset
from repro.data.features import UserState, assemble_sessions
from repro.data.schema import DatasetMeta
from repro.data.synthetic import World, WorldConfig, generate_world
from repro.utils.rng import SeedBank

__all__ = ["make_amazon_datasets", "amazon_meta"]


def amazon_meta(world: World) -> DatasetMeta:
    """Dataset metadata for the reco task (query vocabulary collapses to 1)."""
    base = world.meta()
    return replace(base, task="reco", num_queries=1)


def _build_rows(
    world: World, users: np.ndarray, rng: np.random.Generator, meta: DatasetMeta
) -> RankingDataset:
    """Leave-one-out rows: per user, last review positive + 1 random negative,
    featurized against the world as it stood before the held-out review."""
    n_items = world.num_items
    kept: List[int] = []
    pairs: List[np.ndarray] = []
    for user in users:
        history = world.histories[user]
        if len(history) < 2:
            continue  # need at least one behaviour plus the held-out review
        target_pos = int(history[-1])
        negative = int(rng.integers(0, n_items))
        while negative == target_pos:
            negative = int(rng.integers(0, n_items))
        kept.append(int(user))
        pairs.append(np.array([target_pos, negative]))
    if not kept:
        raise ValueError("no users with enough history; increase world size")

    before = replace(world, histories=[history[:-1] for history in world.histories])
    # No query: category -1 encodes to the padding id and matches no item.
    batch = assemble_sessions(
        before, [UserState(before, user) for user in kept], [-1] * len(kept), pairs, spec=0
    ).flat()
    batch["query"] = np.zeros_like(batch["query"])
    batch["label"] = np.tile(np.array([1.0, 0.0], dtype=np.float32), len(kept))
    # Each user is one "session": the paper computes only the overall AUC
    # here, which with 1 pos + 1 neg per user coincides with the
    # session-averaged pairwise metric.
    batch["session_id"] = batch["user_id"].copy()
    return RankingDataset(meta=meta, **batch)


def make_amazon_datasets(
    config: WorldConfig, seed: int = 0, train_fraction: float = 0.9
) -> Tuple[World, RankingDataset, RankingDataset]:
    """Generate the reco-mode world and its 90/10 user-split datasets.

    The label model is implicit: the *actually reviewed* last item is the
    positive, exactly as in the paper's protocol — no separate label
    function is involved.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    bank = SeedBank(seed)
    world = generate_world(config, bank.child("amazon-world"))
    meta = amazon_meta(world)
    users = bank.child("user-split").permutation(world.num_users)
    cut = int(round(train_fraction * world.num_users))
    train = _build_rows(world, users[:cut], bank.child("train-negatives"), meta)
    test = _build_rows(world, users[cut:], bank.child("test-negatives"), meta)
    return world, train, test
