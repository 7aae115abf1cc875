"""Category-MoE baseline (Xiao et al., ICDE 2021 [34]; paper §IV-C).

The paper's previous production model: a mixture of experts whose gate is a
vanilla FFN fed with the *query category id* (target item category in reco
mode).  Experts and input network are identical to AW-MoE's; only the gate
differs — it is category-oriented rather than user-oriented, which is the
comparison the paper draws in Tables II–V.

Following [34], the gate output is softmax-normalized over experts.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelConfig
from repro.core.expert import ExpertPool
from repro.core.input_network import FeatureEmbedder, InputNetwork
from repro.core.ranking_model import RankingModel
from repro.data.schema import Batch, DatasetMeta
from repro.nn import MLP, Tensor, softmax

__all__ = ["CategoryMoE"]


class CategoryMoE(RankingModel):
    """MoE with a query-category softmax gate."""

    def __init__(self, config: ModelConfig, meta: DatasetMeta, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.embedder = FeatureEmbedder(config, meta, rng)
        self.input_network = InputNetwork(config, meta, self.embedder, rng, pooling="attention")
        self.experts = ExpertPool(
            self.input_network.output_dim, config.expert_hidden, config.num_experts, rng
        )
        self.gate_mlp = MLP(
            config.category_embed_dim, list(config.unit_hidden) + [config.num_experts], rng
        )

    def _gate_key(self, batch: Batch) -> np.ndarray:
        """Category id driving the gate: query category, or the target's."""
        if self.config.task == "search":
            return batch["query_category"]
        return batch["target_category"]

    def forward(self, batch: Batch) -> Tensor:
        v_imp = self.input_network(batch)
        scores = self.experts(v_imp)  # (B, K)
        category_embed = self.embedder.category(self._gate_key(batch))
        gate = softmax(self.gate_mlp(category_embed), axis=-1)  # (B, K)
        return (gate * scores).sum(axis=1)
