"""``repro.nn`` — the paper's autograd, on NumPy.

The paper trained AW-MoE on GPUs with a deep-learning framework; this package
re-implements exactly what its models reach: reverse-mode autodiff tensors,
``Linear`` / ``Embedding`` and the one MLP shape every network uses (ReLU
hidden layers, linear output), the paper's optimizer AdamW, and the two
losses the paper combines — binary cross-entropy ranking loss (Eq. 1) and
InfoNCE contrastive loss (Eq. 10).

The tape here has one execution mode: every op its own graph node, the
bitwise-reproducible reference.  Every model but AW-MoE trains on it; AW-MoE
trains through its compiled step (:func:`repro.infer.compile_train_step`),
whose gradients land in :class:`AdamW`'s slots and which is tested against
this tape.
"""

from repro.nn.arena import GradArena
from repro.nn.tensor import Tensor, no_grad, is_grad_enabled
from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, Linear, MLP
from repro.nn.ops import concat, embedding, logsumexp, masked_fill, softmax, take
from repro.nn.losses import bce_with_logits, info_nce
from repro.nn.optim import AdamW, clip_grad_norm
from repro.nn.serialization import (
    load_module,
    load_optimizer_state,
    load_state,
    load_training_state,
    optimizer_state,
    save_module,
    save_state,
    save_training_state,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "GradArena",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "MLP",
    "concat",
    "embedding",
    "take",
    "softmax",
    "logsumexp",
    "masked_fill",
    "bce_with_logits",
    "info_nce",
    "AdamW",
    "clip_grad_norm",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
    "optimizer_state",
    "load_optimizer_state",
    "save_training_state",
    "load_training_state",
]
