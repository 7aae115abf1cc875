"""DNN baseline (YouTube-DNN style, paper §IV-C).

The user representation is the *sum pooling* of behaviour-item hidden
vectors; the impression vector feeds a single FFN with the same architecture
as one AW-MoE expert.  This is Fig. 1a with the simplest possible sequence
aggregation.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelConfig
from repro.core.expert import Expert
from repro.core.input_network import FeatureEmbedder, InputNetwork
from repro.core.ranking_model import RankingModel
from repro.data.schema import Batch, DatasetMeta
from repro.nn import Tensor

__all__ = ["DNN"]


class DNN(RankingModel):
    """Sum-pooled user vector + single FFN scorer."""

    def __init__(self, config: ModelConfig, meta: DatasetMeta, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.embedder = FeatureEmbedder(config, meta, rng)
        self.input_network = InputNetwork(config, meta, self.embedder, rng, pooling="sum")
        self.ffn = Expert(self.input_network.output_dim, config.expert_hidden, rng)

    def forward(self, batch: Batch) -> Tensor:
        return self.ffn(self.input_network(batch))
