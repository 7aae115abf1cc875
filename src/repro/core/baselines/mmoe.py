"""Task-oriented MMoE (Ma et al., KDD 2018; paper Fig. 1b) — reference model.

The paper contrasts its *user-oriented* gate with the prevailing
*task-oriented* use of MoE, where one softmax gate per task mixes shared
experts.  MMoE does not appear in the paper's result tables (it targets
multi-task learning), but it is implemented here so Fig. 1's taxonomy is
fully represented and testable: the gates condition on the impression vector
only, not on the behaviour sequence.

``forward`` returns the primary task's logits so MMoE can run through the
standard single-task trainer; ``forward_tasks`` exposes every head.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.config import ModelConfig
from repro.core.expert import ExpertPool
from repro.core.input_network import FeatureEmbedder, InputNetwork
from repro.core.ranking_model import RankingModel
from repro.data.schema import Batch, DatasetMeta
from repro.nn import MLP, Tensor, softmax

__all__ = ["MMoE"]


class MMoE(RankingModel):
    """Multi-gate mixture of experts with task-specific softmax gates."""

    def __init__(
        self,
        config: ModelConfig,
        meta: DatasetMeta,
        rng: np.random.Generator,
        num_tasks: int = 2,
    ) -> None:
        super().__init__()
        if num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
        self.config = config
        self.num_tasks = num_tasks
        self.embedder = FeatureEmbedder(config, meta, rng)
        self.input_network = InputNetwork(config, meta, self.embedder, rng, pooling="attention")
        self.experts = ExpertPool(
            self.input_network.output_dim, config.expert_hidden, config.num_experts, rng
        )
        self._gates: List[MLP] = []
        for t in range(num_tasks):
            gate = MLP(
                self.input_network.output_dim, list(config.unit_hidden) + [config.num_experts], rng
            )
            setattr(self, f"gate{t}", gate)
            self._gates.append(gate)

    def forward_tasks(self, batch: Batch) -> List[Tensor]:
        """Logits for every task head, each shaped ``(B,)``."""
        v_imp = self.input_network(batch)
        scores = self.experts(v_imp)  # (B, K)
        outputs = []
        for gate_mlp in self._gates:
            gate = softmax(gate_mlp(v_imp), axis=-1)
            outputs.append((gate * scores).sum(axis=1))
        return outputs

    def forward(self, batch: Batch) -> Tensor:
        return self.forward_tasks(batch)[0]
