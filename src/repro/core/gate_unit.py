"""The gate unit Θ (paper Fig. 4c).

Structurally the same as the activation unit, except the output is a
K-dimensional vector: for each behaviour item it produces one activation
score per expert (Eq. 7), capturing that item's fine-grained evidence about
which experts suit the current user.  As with the activation unit, the ReLU
in Fig. 4c is the hidden activation; outputs are linear by default.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.activation_unit import ActivationUnit, padded_key, pairwise
from repro.nn import Tensor

__all__ = ["GateUnit"]


class GateUnit(ActivationUnit):
    """Per-item expert-activation scorer: ``a_j = Θ(h_bj, h_q) ∈ R^K``."""

    def __init__(
        self,
        hidden_dim: int,
        num_experts: int,
        unit_hidden: Tuple[int, ...],
        rng: np.random.Generator,
        output_activation: str = "linear",
    ) -> None:
        super().__init__(hidden_dim, unit_hidden, rng, output_activation, outputs=num_experts)
        self.num_experts = num_experts

    def forward(self, h_seq: Tensor, h_key: Tensor, mask: np.ndarray) -> Tensor:
        """Per-item, per-expert activation scores.

        Parameters
        ----------
        h_seq:
            Gate-network behaviour hiddens ``(B, M, H)``.
        h_key:
            Gate-network key hidden (query, or target item in reco mode),
            shape ``(B, H)``.
        mask:
            Float validity mask ``(B, M)``.

        Returns
        -------
        Activation scores ``(B, M, K)``, zero at padded positions.
        """
        mask3 = np.asarray(mask, dtype=np.float32)[:, :, None]
        return self.mlp(pairwise(h_seq, padded_key(h_seq, h_key))) * mask3
