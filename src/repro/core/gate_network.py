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

from typing import List, Optional, Sequence

import numpy as np

from repro.core.activation_unit import ActivationUnit, pairwise
from repro.core.config import ModelConfig
from repro.core.gate_unit import GateUnit
from repro.core.input_network import FeatureEmbedder, PackedBehavior
from repro.data.schema import Batch, DatasetMeta
from repro.nn import MLP, Module, Parameter, Tensor, concat, softmax
from repro.nn import is_fast_math, repeat_rows, segment_sum

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
        # Initialized at 1/K so training starts from a uniform mixture:
        # experts receive gradient immediately instead of waiting for the
        # gate to move away from zero.
        self.bias = (
            Parameter(np.full((k,), 1.0 / k, dtype=np.float32)) if config.gate_bias else None
        )

    def _key_hidden(self, batch: Batch) -> Tensor:
        if self.config.task == "search":
            return self.key_mlp(self.embedder.query_repr(batch))
        return self.key_mlp(self.embedder.target(batch))

    def forward(self, batch: Batch, mask_override: Optional[np.ndarray] = None) -> Tensor:
        """Expert activation vectors ``g`` with shape ``(B, K)``.

        ``mask_override`` substitutes the behaviour validity mask — the
        contrastive learning strategy (§III-D) passes the randomly masked
        mask here to obtain the positive view ``g(u')`` without rebuilding
        the batch.  This is the padded reference; under
        :func:`repro.nn.fast_math` the packed :meth:`forward_views` answers.
        """
        if is_fast_math():
            return self.forward_views(batch, [mask_override])[0]
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
        return self._finish(gate)

    def _finish(self, gate: Tensor) -> Tensor:
        if self.bias is not None:
            gate = gate + self.bias
        if self.config.normalize_gate:
            gate = softmax(gate, axis=-1)
        return gate

    def forward_views(
        self,
        batch: Batch,
        masks: Sequence[Optional[np.ndarray]],
        packed: Optional[PackedBehavior] = None,
    ) -> List[Tensor]:
        """Gate vectors for several mask views of ONE behaviour sequence.

        The contrastive objective (§III-D) needs the gate under the original
        mask (anchor) and under a randomly masked view (positive).  None of
        the trunk — embeddings, ``MLP^G``, the key MLP, both unit MLPs —
        depends on the mask, which only gates the final pooling (Eq. 8), and
        a padded position never reaches a sum.  So the trunk runs once, on
        the ``P`` positions valid under *any* view (``packed``, gathered here
        unless the caller shares one), both units read one pairwise tensor,
        and every view is a per-position weight ``mask_v[rows, cols]``
        applied before one segment-sum back to ``(B, V, ·)``.

        ``None`` entries resolve to the batch's own ``behavior_mask``.
        Views only share the trunk when the id arrays are identical — the
        "reorder" augmentation rewrites ids and must keep using two full
        forward passes.
        """
        stacked = np.stack([
            np.asarray(batch["behavior_mask"] if mask is None else mask, dtype=np.float32)
            for mask in masks
        ])  # (V, B, M)
        rows, cols, embedded = packed or self.embedder.packed(batch, stacked)
        h_behavior = self.behavior_mlp(embedded)  # (P, H)
        h_key = self._key_hidden(batch)  # (B, H)
        view_weights = stacked[:, rows, cols].T  # (P, V)

        # What every view pools per position: the gate unit's expert scores
        # (else the behaviour hiddens), attention-weighted when configured.
        per_position = h_behavior
        if self.gate_unit is not None or self.activation_unit is not None:
            pair = pairwise(h_behavior, repeat_rows(h_key, rows))
            if self.gate_unit is not None:
                per_position = self.gate_unit.mlp(pair)  # (P, K)
            if self.activation_unit is not None:
                per_position = per_position * self.activation_unit.mlp(pair)  # (P, 1)
                if self.gate_unit is not None:
                    # The reference masks scores and weights separately.
                    view_weights = view_weights * view_weights
        scale = 1.0 / np.maximum(stacked.sum(axis=2), 1.0).T  # (B, V)
        pooled = segment_sum(
            per_position.expand_dims(1) * view_weights[:, :, None], rows, stacked.shape[1]
        ) * scale[:, :, None]  # (B, V, K or H)
        views = [pooled[:, v] for v in range(len(masks))]
        if self.gate_unit is None:
            # Ablation variants run the fallback FFN on each view's pooled
            # behaviour hiddens.
            views = [self.pooled_mlp(concat([view, h_key], axis=-1)) for view in views]
        return [self._finish(gate) for gate in views]
