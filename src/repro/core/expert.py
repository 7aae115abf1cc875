"""Expert networks Ψ_k (paper Fig. 4b, Eq. 5).

Every expert is an FFN mapping the impression representation to a scalar
ranking score.  All experts share the same architecture and differ only
through random initialization, exactly as the paper states.

Because the K experts are architecturally identical, the pool has two
equivalent execution strategies:

* the **eager reference path** runs each expert's MLP in sequence and
  concatenates the K scalar columns — K separate ``Linear`` graphs per
  layer;
* the **packed path** (active under :func:`repro.nn.fast_math`, mirroring
  the fused serving kernel :class:`repro.infer.kernels.PackedExperts`)
  stacks the per-expert weights into ``(K, in, out)`` tensors each step and
  runs every layer as ONE batched GEMM in both forward and backward.  The
  per-expert :class:`~repro.nn.module.Parameter` objects stay the single
  source of truth — checkpoints, the optimizer, and the serving compiler
  see an identical model either way; gradients flow back through the stack
  op into the individual weights.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nn import MLP, Module, Tensor, concat, is_fast_math, stack
from repro.nn.ops import linear as linear_op

__all__ = ["Expert", "ExpertPool"]


class Expert(Module):
    """One expert FFN: ``s = Ψ(v_imp) ∈ R`` (hidden ReLU, linear output)."""

    def __init__(
        self,
        input_dim: int,
        hidden: Tuple[int, ...],
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.mlp = MLP(input_dim, list(hidden) + [1], rng)

    def forward(self, v_imp: Tensor) -> Tensor:
        """Score a batch of impression vectors: ``(B, D) -> (B,)``."""
        return self.mlp(v_imp).squeeze(1)


class ExpertPool(Module):
    """K independent experts evaluated side by side.

    ``forward`` returns the stacked score matrix ``(B, K)`` used by both the
    AW-MoE weighted sum (Eq. 9) and Category-MoE's softmax mixture.
    """

    def __init__(
        self,
        input_dim: int,
        hidden: Tuple[int, ...],
        num_experts: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if num_experts < 1:
            raise ValueError(f"need at least one expert, got {num_experts}")
        self.num_experts = num_experts
        self._experts: List[Expert] = []
        for k in range(num_experts):
            expert = Expert(input_dim, hidden, rng)
            setattr(self, f"expert{k}", expert)
            self._experts.append(expert)

    def forward(self, v_imp: Tensor) -> Tensor:
        """Expert scores ``s`` with shape ``(B, K)``."""
        if is_fast_math():
            return self.forward_packed(v_imp)
        return self.forward_eager(v_imp)

    def forward_eager(self, v_imp: Tensor) -> Tensor:
        """Reference path: K sequential expert MLPs, concatenated."""
        scores = [expert(v_imp).expand_dims(1) for expert in self._experts]
        return concat(scores, axis=1)

    def forward_packed(self, v_imp: Tensor) -> Tensor:
        """Fast path: all K experts as one batched GEMM per layer.

        Per layer, the K weight matrices are stacked into a ``(K, in, out)``
        tensor and the K biases into ``(K, out)``; the fused
        :func:`repro.nn.linear` op then evaluates (and differentiates) every
        expert in a single batched matmul.  Stacking K weight-sized arrays
        is negligible next to the batch-sized GEMMs it fuses, and its
        backward splits the packed gradient back onto the per-expert
        parameters, so the model remains checkpoint- and optimizer-
        compatible with the eager path.
        """
        mlps = [expert.mlp for expert in self._experts]
        depth = len(mlps[0]._linears)
        h: Tensor = v_imp
        for layer in range(depth):
            weights = stack([mlp._linears[layer].weight for mlp in mlps])  # (K, in, out)
            biases = stack([mlp._linears[layer].bias for mlp in mlps])  # (K, out)
            h = linear_op(h, weights, biases, relu=layer < depth - 1)
        # (K, B, 1) -> (B, K)
        return h.squeeze(2).transpose(1, 0)
