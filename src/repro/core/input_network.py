"""The input network (paper §III-B, Fig. 3b).

Embeds every raw feature group, projects each through an MLP, pools the
behaviour sequence into a target-aware user vector ``v_u`` (Eq. 3, DIN-style
attention), and concatenates everything into the impression representation
``v_imp`` (Eq. 4).

The same module also serves the DNN baseline (``pooling="sum"``), which
replaces the attention with plain sum pooling as in YouTube-DNN.
"""

from __future__ import annotations

import numpy as np

from repro.core.activation_unit import ActivationUnit
from repro.core.config import ModelConfig
from repro.data.schema import Batch, DatasetMeta
from repro.nn import MLP, Embedding, Module, Tensor, concat

__all__ = ["InputNetwork", "FeatureEmbedder"]


class FeatureEmbedder(Module):
    """Shared embedding tables for items, categories and queries.

    The paper shares one embedding layer between the input network and the
    gate network (§III-C2: "using the embedding layer same as that in the
    input network"); instantiate this once per model and pass it to both.
    """

    def __init__(self, config: ModelConfig, meta: DatasetMeta, rng: np.random.Generator) -> None:
        super().__init__()
        self.item = Embedding(meta.num_items, config.item_embed_dim, rng)
        self.category = Embedding(meta.num_categories, config.category_embed_dim, rng)
        self.query = Embedding(meta.num_queries, config.query_embed_dim, rng)
        self.item_repr_dim = (
            config.item_embed_dim + config.category_embed_dim + meta.num_item_dense
        )
        self.query_repr_dim = config.query_embed_dim

    def behavior(self, batch: Batch) -> Tensor:
        """Behaviour item representations ``(B, M, item_repr_dim)``.

        Each behaviour item is represented by its id embedding, its category
        embedding, and its dense profile features (price / popularity /
        quality) — the side information production systems attach to
        sequence items.
        """
        items = self.item(batch["behavior_items"])
        categories = self.category(batch["behavior_categories"])
        dense = Tensor(batch["behavior_dense"])
        return concat([items, categories, dense], axis=-1)

    def target(self, batch: Batch) -> Tensor:
        """Target item representations ``(B, item_repr_dim)``."""
        items = self.item(batch["target_item"])
        categories = self.category(batch["target_category"])
        dense = Tensor(batch["target_dense"])
        return concat([items, categories, dense], axis=-1)

    def query_repr(self, batch: Batch) -> Tensor:
        """Query representations ``(B, query_repr_dim)``."""
        return self.query(batch["query"])


class InputNetwork(Module):
    """Produce the impression representation ``v_imp`` (Eq. 2–4)."""

    def __init__(
        self,
        config: ModelConfig,
        meta: DatasetMeta,
        embedder: FeatureEmbedder,
        rng: np.random.Generator,
        pooling: str = "attention",
    ) -> None:
        super().__init__()
        if pooling not in ("attention", "sum"):
            raise ValueError(f"pooling must be 'attention' or 'sum', got {pooling!r}")
        self.config = config
        self.pooling = pooling
        self.embedder = embedder
        hidden = config.input_hidden
        self.hidden_dim = hidden[-1]
        # MLP^I shared by behaviour items and the target item (they live in
        # the same representation space so the attention can compare them).
        self.behavior_mlp = MLP(embedder.item_repr_dim, hidden, rng)
        self.other_mlp = MLP(meta.num_features, hidden, rng)
        if config.task == "search":
            self.query_mlp = MLP(embedder.query_repr_dim, hidden, rng)
        else:
            self.query_mlp = None
        if pooling == "attention":
            self.attention = ActivationUnit(self.hidden_dim, config.unit_hidden, rng)
        else:
            self.attention = None
        components = 3 if config.task == "search" else 2
        self.output_dim = (components + 1) * self.hidden_dim

    def user_vector(self, batch: Batch, h_target: Tensor) -> Tensor:
        """Target-aware user representation ``v_u`` (Eq. 3), shape (B, H)."""
        mask = batch["behavior_mask"]
        h_behavior = self.behavior_mlp(self.embedder.behavior(batch))
        if self.pooling == "attention":
            weights = self.attention(h_behavior, h_target, mask)  # (B, M)
            weighted = h_behavior * weights.expand_dims(2)
        else:
            weighted = h_behavior * np.asarray(mask, dtype=np.float32)[:, :, None]
        return weighted.sum(axis=1)

    def forward(self, batch: Batch) -> Tensor:
        """Impression representation ``v_imp`` (Eq. 4), shape (B, output_dim)."""
        h_target = self.behavior_mlp(self.embedder.target(batch))
        v_user = self.user_vector(batch, h_target)
        h_other = self.other_mlp(Tensor(batch["other_features"]))
        parts = [v_user, h_target]
        if self.query_mlp is not None:
            parts.append(self.query_mlp(self.embedder.query_repr(batch)))
        parts.append(h_other)
        return concat(parts, axis=-1)
