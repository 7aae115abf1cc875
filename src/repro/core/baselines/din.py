"""DIN baseline (Zhou et al., KDD 2018; paper §IV-C).

Identical to the DNN baseline except the behaviour sequence is pooled with
the target-aware attention of Eq. 3 (the activation unit Φ).  The paper calls
DIN "the state-of-the-art model applied in many industrial companies"; every
MoE model in the comparison uses this same input network.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelConfig
from repro.core.expert import Expert
from repro.core.input_network import FeatureEmbedder, InputNetwork
from repro.core.ranking_model import RankingModel
from repro.data.schema import Batch, DatasetMeta
from repro.nn import Tensor

__all__ = ["DIN"]


class DIN(RankingModel):
    """Attention-pooled user vector + single FFN scorer."""

    def __init__(self, config: ModelConfig, meta: DatasetMeta, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.embedder = FeatureEmbedder(config, meta, rng)
        self.input_network = InputNetwork(config, meta, self.embedder, rng, pooling="attention")
        self.ffn = Expert(self.input_network.output_dim, config.expert_hidden, rng)

    def forward(self, batch: Batch) -> Tensor:
        return self.ffn(self.input_network(batch))
