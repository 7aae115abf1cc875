"""The attention-weighted gate network (paper §III-C2, Fig. 3c, Eq. 6–8).

The gate network is AW-MoE's contribution: it reads the *user behaviour
sequence* (plus the query — or the target item in recommendation mode) and
emits the per-user expert activation vector ``g ∈ R^K``:

    h_G      = MLP_G(e)                                  (Eq. 6)
    a_j      = Θ(h_bj, h_q)          — gate unit         (Eq. 7)
    w_j      = Φ_G(h_bj, h_q)        — activation unit
    g_k      = Σ_j w_j · a_jk                            (Eq. 8)

A learned bias ``g0`` is added to the sum so empty behaviour sequences (new
users) still yield a meaningful expert prior; this is an implementation
necessity documented in DESIGN.md.

Table VI's ablations are expressed with two switches:

==================  ===========================  =============================
variant             ``use_gate_unit``            ``use_activation_unit``
==================  ===========================  =============================
Base (sum pooling)  False                        False
Base+GU             True                         False
Base+AU             False                        True
AW-MoE (full)       True                         True
==================  ===========================  =============================

Without the gate unit, the per-item expert scores are replaced by a vanilla
FFN applied to the pooled behaviour vector; without the activation unit,
pooling weights are uniform (plain sums over valid positions).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.activation_unit import ActivationUnit
from repro.core.config import ModelConfig
from repro.core.gate_unit import GateUnit
from repro.core.input_network import FeatureEmbedder
from repro.data.schema import Batch, DatasetMeta
from repro.nn import MLP, Module, Parameter, Tensor, concat

__all__ = ["GateNetwork"]


class GateNetwork(Module):
    """Produce the expert activation vector ``g`` for each impression."""

    def __init__(
        self,
        config: ModelConfig,
        meta: DatasetMeta,
        embedder: FeatureEmbedder,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.config = config
        self.embedder = embedder
        hidden = config.input_hidden
        self.hidden_dim = hidden[-1]
        k = config.num_experts

        # MLP^G: same shapes as MLP^I but independent parameters (§III-C2).
        self.behavior_mlp = MLP(embedder.item_repr_dim, hidden, rng)
        if config.task == "search":
            key_dim = embedder.query_repr_dim
        else:
            # Recommendation mode: no query; the target item is the key
            # (§IV-A2, "the query was replaced by the target item").
            key_dim = embedder.item_repr_dim
        self.key_mlp = MLP(key_dim, hidden, rng)

        self.gate_unit = (
            GateUnit(self.hidden_dim, k, config.unit_hidden, rng)
            if config.gate_use_gate_unit
            else None
        )
        self.activation_unit = (
            ActivationUnit(self.hidden_dim, config.unit_hidden, rng)
            if config.gate_use_activation_unit
            else None
        )
        # Fallback FFN used by the ablation variants without the gate unit:
        # pooled behaviour ‖ key -> K scores.
        if self.gate_unit is None:
            self.pooled_mlp = MLP(2 * self.hidden_dim, list(config.unit_hidden) + [k], rng)
        else:
            self.pooled_mlp = None
        # The learned expert prior ``g0``, initialized at 1/K so training
        # starts from a uniform mixture: experts receive gradient immediately
        # instead of waiting for the gate to move away from zero.
        self.bias = Parameter(np.full((k,), 1.0 / k, dtype=np.float32))

    def _key_hidden(self, batch: Batch) -> Tensor:
        if self.config.task == "search":
            return self.key_mlp(self.embedder.query_repr(batch))
        return self.key_mlp(self.embedder.target(batch))

    def forward(self, batch: Batch, mask_override: Optional[np.ndarray] = None) -> Tensor:
        """Expert activation vectors ``g`` with shape ``(B, K)``.

        ``mask_override`` substitutes the behaviour validity mask — the
        contrastive learning strategy (§III-D) passes the randomly masked
        mask here to obtain the positive view ``g(u')`` without rebuilding
        the batch.  Training's compiled step (:mod:`repro.infer.training`)
        runs the same gate on the valid positions only.
        """
        mask = batch["behavior_mask"] if mask_override is None else mask_override
        mask = np.asarray(mask, dtype=np.float32)
        h_behavior = self.behavior_mlp(self.embedder.behavior(batch))  # (B, M, H)
        h_key = self._key_hidden(batch)  # (B, H)

        # Eq. 8 is a plain sum over sequence positions; we divide by the
        # valid length so the gate scale is independent of history length
        # (a billion-scale model absorbs the scale, a CPU-scale one cannot —
        # see DESIGN.md fidelity notes).  Empty sequences keep gate = bias.
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        if self.gate_unit is not None:
            item_scores = self.gate_unit(h_behavior, h_key, mask)  # (B, M, K)
            if self.activation_unit is not None:
                weights = self.activation_unit(h_behavior, h_key, mask)  # (B, M)
                gate = (item_scores * weights.expand_dims(2)).sum(axis=1) * (1.0 / counts)
            else:
                gate = item_scores.sum(axis=1) * (1.0 / counts)
        else:
            if self.activation_unit is not None:
                weights = self.activation_unit(h_behavior, h_key, mask)
                pooled = (h_behavior * weights.expand_dims(2)).sum(axis=1) * (1.0 / counts)
            else:
                pooled = (h_behavior * mask[:, :, None]).sum(axis=1) * (1.0 / counts)
            gate = self.pooled_mlp(concat([pooled, h_key], axis=-1))
        return gate + self.bias
