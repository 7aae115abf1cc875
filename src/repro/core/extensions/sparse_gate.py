"""Sparsely-gated top-K AW-MoE (paper §V future work).

The paper plans to "update the vanilla MoE to the sparsely-gated MoE [9] by
increasing the number of experts and introducing a Top-K gate network".  This
extension implements exactly that on top of AW-MoE: the attention-weighted
gate runs as usual, then only the ``top_k`` largest activations are kept (the
rest contribute nothing, so at inference those experts can be skipped).
"""

from __future__ import annotations

import numpy as np

from repro.core.aw_moe import AWMoE
from repro.core.config import ModelConfig
from repro.data.schema import Batch, DatasetMeta
from repro.nn import Tensor, masked_fill

__all__ = ["sparse_top_k", "SparseGatedAWMoE"]


def sparse_top_k(gate: Tensor, top_k: int) -> Tensor:
    """Keep the ``top_k`` largest entries per row; zero out the rest.

    The selection itself is non-differentiable (a straight-through style
    hard mask); gradients flow through the surviving entries, as in the
    sparsely-gated MoE of Shazeer et al. [9].
    """
    k_total = gate.shape[-1]
    if not 1 <= top_k <= k_total:
        raise ValueError(f"top_k must be in [1, {k_total}], got {top_k}")
    if top_k == k_total:
        return gate
    # Threshold at the top_k-th value per row (selection reads raw values
    # through the documented fast path; gradients are unaffected).
    raw = gate.detach_numpy()
    sorted_vals = np.sort(raw, axis=-1)
    threshold = sorted_vals[:, -top_k][:, None]
    drop = raw < threshold
    return masked_fill(gate, drop, 0.0)


class SparseGatedAWMoE(AWMoE):
    """AW-MoE whose gate output is sparsified to ``top_k`` active experts."""

    def __init__(
        self,
        config: ModelConfig,
        meta: DatasetMeta,
        rng: np.random.Generator,
        top_k: int = 2,
    ) -> None:
        super().__init__(config, meta, rng)
        if not 1 <= top_k <= config.num_experts:
            raise ValueError(
                f"top_k must be in [1, {config.num_experts}], got {top_k}"
            )
        self.top_k = top_k

    def applied_gate(self, gate: Tensor) -> Tensor:
        """Top-K sparsify the anchor gate — it both weights the experts and
        anchors the contrastive loss; cached session gates are stored
        post-sparsification (:meth:`serving_gate`), so overrides skip this."""
        return sparse_top_k(gate, self.top_k)

    def serving_gate(self, batch: Batch) -> np.ndarray:
        """Cacheable gate = raw gate sparsified, matching the forward pass."""
        raw = self.gate_outputs(batch)
        # Preserve the gate dtype: the default Tensor ctor would silently
        # downcast a float64 gate to float32, diverging from forward_with_gate.
        return sparse_top_k(Tensor(raw, dtype=raw.dtype), self.top_k).numpy()

    def active_expert_fraction(self, batch: Batch) -> float:
        """Measured sparsity: mean fraction of experts with non-zero gate."""
        gate = self.gate_outputs(batch)
        sparse = np.sort(gate, axis=-1)
        threshold = sparse[:, -self.top_k][:, None]
        active = (gate >= threshold).mean()
        return float(active)
