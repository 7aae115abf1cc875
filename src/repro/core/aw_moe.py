"""AW-MoE: Attention Weighted Mixture of Experts (paper §III-C, Fig. 3).

The model composes three parts:

1. the **input network** turns the raw impression into ``v_imp`` (Eq. 2–4);
2. **K expert networks** each score ``v_imp`` (Eq. 5);
3. the **attention-weighted gate network** reads the behaviour sequence and
   the query (or target item in reco mode) and emits the per-user expert
   activation vector ``g`` (Eq. 6–8).

The final prediction is the gate-weighted sum of expert scores passed through
a sigmoid so that ``ŷ ∈ (0, 1)`` as required by the log-loss of Eq. 1:

    ŷ = σ( Σ_k g_k · s_k )                                (Eq. 9)

The user behaviour sequence is deliberately consumed **twice** — once by the
input network (feature interactions) and once by the gate network (expert
activation) — which the paper identifies as its key architectural idea.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ModelConfig
from repro.core.expert import ExpertPool
from repro.core.gate_network import GateNetwork
from repro.core.input_network import FeatureEmbedder, InputNetwork
from repro.core.ranking_model import RankingModel
from repro.data.schema import Batch, DatasetMeta
from repro.nn import Tensor, is_fast_math, no_grad

__all__ = ["AWMoE"]


class AWMoE(RankingModel):
    """The paper's proposed model (Algorithm 1)."""

    supports_contrastive = True

    def __init__(self, config: ModelConfig, meta: DatasetMeta, rng: np.random.Generator) -> None:
        super().__init__()
        if config.task != meta.task:
            raise ValueError(
                f"model task {config.task!r} does not match dataset task {meta.task!r}"
            )
        self.config = config
        self.embedder = FeatureEmbedder(config, meta, rng)
        self.input_network = InputNetwork(config, meta, self.embedder, rng, pooling="attention")
        self.experts = ExpertPool(
            self.input_network.output_dim,
            config.expert_hidden,
            config.num_experts,
            rng,
            dropout=config.dropout,
        )
        self.gate = GateNetwork(config, meta, self.embedder, rng)

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def forward(self, batch: Batch, gate_override: Optional[np.ndarray] = None) -> Tensor:
        """Ranking logits ``Σ_k g_k s_k`` with shape ``(B,)``.

        ``gate_override`` substitutes a precomputed gate matrix ``(B, K)``
        for the gate-network forward pass.  The deployed system (§III-F1)
        evaluates the gate once per user/query session and reuses it for
        every candidate; the serving cache passes the stored vector here so
        only the input network and the experts run per item.
        """
        logits, _ = self.forward_with_gate(batch, gate_override=gate_override)
        return logits

    def forward_with_gate(
        self, batch: Batch, gate_override: Optional[np.ndarray] = None
    ) -> Tuple[Tensor, Tensor]:
        """Return ``(logits, g)`` reusing one gate forward pass.

        The trainer uses the returned gate tensor as the anchor
        representation for the contrastive loss, exactly as the paper
        imposes the InfoNCE loss on the gate-network output (§III-D).
        """
        if gate_override is None and is_fast_math():
            logits, gates = self.forward_with_gate_views(batch, ())
            return logits, gates[0]
        v_imp = self.input_network(batch)
        scores = self.experts(v_imp)  # (B, K)
        if gate_override is None:
            gate = self.applied_gate(self.gate(batch))  # (B, K)
        else:
            gate = Tensor(np.asarray(gate_override, dtype=np.float32))
        logits = (gate * scores).sum(axis=1)
        return logits, gate

    def forward_with_gate_views(
        self, batch: Batch, extra_masks: Sequence[np.ndarray]
    ) -> Tuple[Tensor, List[Tensor]]:
        """Ranking logits plus the gate under several behaviour-mask views.

        Returns ``(logits, gates)`` where ``gates[0]`` is the anchor gate
        (the one the logits use, under the batch's own mask) and
        ``gates[1:]`` correspond to ``extra_masks``.  This is the training
        fast path: the behaviour sequence is gathered **once**, at the
        positions valid under any view, for both the input network and the
        shared gate trunk (:meth:`GateNetwork.forward_views`) — one trunk pass
        for the logits, the contrastive anchor *and* positive, none on padding.
        """
        masks = [batch["behavior_mask"], *extra_masks]
        packed = self.embedder.packed(batch, masks)
        scores = self.experts(self.input_network(batch, packed))  # (B, K)
        gates = self.gate.forward_views(batch, masks, packed)
        gates[0] = self.applied_gate(gates[0])
        logits = (gates[0] * scores).sum(axis=1)
        return logits, gates

    def applied_gate(self, gate: Tensor) -> Tensor:
        """The anchor gate as the forward pass applies it (hook: the sparse
        top-K extension sparsifies here; augmented views stay raw)."""
        return gate

    @property
    def gate_is_candidate_independent(self) -> bool:
        """Whether ``g`` depends only on the user/query, not the candidate.

        True in search mode, where the gate key is the query (§III-F1: the
        deployed design computes the gate once per session).  In
        recommendation mode the target item is the gate key, so the gate
        must run per candidate and session-level caching is unsound.
        """
        return self.config.task == "search"

    def gate_vector(self, batch: Batch, mask_override: Optional[np.ndarray] = None) -> Tensor:
        """Gate output ``g``; with ``mask_override`` this is ``g(u')``."""
        return self.gate(batch, mask_override=mask_override)

    def serving_gate(self, batch: Batch) -> np.ndarray:
        """The gate the forward pass *applies*, as plain arrays.

        This is what the serving cache stores and later feeds back through
        ``gate_override``; subclasses that post-process the gate (e.g. the
        sparse top-K extension) override this so cached vectors match their
        forward semantics exactly.
        """
        return self.gate_outputs(batch)

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def gate_outputs(self, batch: Batch) -> np.ndarray:
        """Gate vectors as plain arrays (used by the Fig. 7 t-SNE study)."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                return self.gate(batch).numpy()
        finally:
            if was_training:
                self.train()

    def expert_scores(self, batch: Batch) -> np.ndarray:
        """Per-expert scores ``s`` as plain arrays (expert-utilization study)."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                return self.experts(self.input_network(batch)).numpy()
        finally:
            if was_training:
                self.train()
