"""The activation unit Φ (paper Fig. 4a).

Given the hidden vector of one behaviour item and the hidden vector of a
"key" (the target item in the input network, the query in the gate network),
the activation unit scores how strongly the item should be attended to:

    Φ(h_b, h_key) = MLP([h_b ‖ h_b ⊙ h_key ‖ h_key])  →  scalar weight

The element-wise product is the "product" box in Fig. 4a.  The output weight
is linear and unnormalized, as in DIN (no softmax over the sequence), and
that is a decision, not an option: Fig. 4a also draws a ReLU at the unit's
output, but here a ReLU output collapses to all-zero gates (a unit that
starts or drifts negative everywhere passes no gradient and never recovers),
so the ReLU of Fig. 4a is kept on the hidden layers only — the one MLP shape
of :class:`repro.nn.MLP`.  The gate unit Θ inherits the same choice.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn import MLP, Module, Tensor, concat

__all__ = ["ActivationUnit", "pairwise", "padded_key"]


def pairwise(h: Tensor, key: Tensor) -> Tensor:
    """``[h ‖ h ⊙ key ‖ key]`` — the input of both units (Fig. 4a/4c);
    ``key`` is already expanded to ``h``'s shape (:func:`padded_key`)."""
    return concat([h, h * key, key], axis=-1)


def padded_key(h_seq: Tensor, h_key: Tensor) -> Tensor:
    """Broadcast the key ``(B, H)`` over a padded sequence ``(B, M, H)``."""
    batch, seq_len, hidden = h_seq.shape
    if h_key.shape != (batch, hidden):
        raise ValueError(f"key shape {h_key.shape} incompatible with sequence {h_seq.shape}")
    return h_key.expand_dims(1).broadcast_to((batch, seq_len, hidden))


class ActivationUnit(Module):
    """Attention scorer producing one weight per behaviour item.

    ``self.mlp`` maps a :func:`pairwise` tensor to ``outputs`` scores per
    item; the validity mask enters only as the final multiply, so callers
    that score one sequence under several masks (or on packed valid
    positions only, as the compiled train step does) call the MLP once and
    mask downstream.
    """

    def __init__(
        self,
        hidden_dim: int,
        unit_hidden: Tuple[int, ...],
        rng: np.random.Generator,
        outputs: int = 1,
    ) -> None:
        super().__init__()
        self.hidden_dim = hidden_dim
        self.mlp = MLP(3 * hidden_dim, list(unit_hidden) + [outputs], rng)

    def forward(self, h_seq: Tensor, h_key: Tensor, mask: np.ndarray) -> Tensor:
        """Score every sequence position against the key.

        Parameters
        ----------
        h_seq:
            Hidden behaviour vectors, shape ``(B, M, H)``.
        h_key:
            Hidden key vector (target item or query), shape ``(B, H)``.
        mask:
            Float validity mask ``(B, M)``; padded positions score 0.

        Returns
        -------
        Attention weights ``(B, M)``, zero at padded positions.
        """
        raw = self.mlp(pairwise(h_seq, padded_key(h_seq, h_key))).squeeze(2)
        return raw * np.asarray(mask, dtype=np.float32)
