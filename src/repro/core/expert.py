"""Expert networks Ψ_k (paper Fig. 4b, Eq. 5).

Every expert is an FFN mapping the impression representation to a scalar
ranking score.  All experts share the same architecture and differ only
through random initialization, exactly as the paper states.  The serving
plan (:class:`repro.infer.kernels.PackedExperts`) and the compiled train
step run the K experts as one packed GEMM per layer; the per-expert
:class:`~repro.nn.module.Parameter` objects stay the single source of truth.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nn import MLP, Module, Tensor, concat

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
        """Expert scores ``s`` with shape ``(B, K)``: K expert MLPs,
        concatenated."""
        scores = [expert(v_imp).expand_dims(1) for expert in self._experts]
        return concat(scores, axis=1)
