"""``repro.nn`` — the paper's autograd, on NumPy.

The paper trained AW-MoE on GPUs with a deep-learning framework; this package
re-implements exactly what its models reach: reverse-mode autodiff tensors,
``Linear`` / ``Embedding`` and the one MLP shape every network uses (ReLU
hidden layers, linear output), the paper's optimizer AdamW, and the two
losses the paper combines — binary cross-entropy ranking loss (Eq. 1) and
InfoNCE contrastive loss (Eq. 10).

Training has two execution modes: the eager reference path (every op its
own graph node — the bitwise-reproducible specification) and the fused fast
path under :func:`fast_math` — the :func:`linear` kernel collapses
matmul+bias+ReLU into one node, and a :class:`GradArena` recycles
gradient buffers across steps (see :mod:`repro.nn.arena`).
"""

from repro.nn.arena import GradArena, active_arena, fast_math, is_fast_math
from repro.nn.tensor import Tensor, no_grad, is_grad_enabled
from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, Linear, MLP
from repro.nn.ops import (
    concat,
    embedding,
    linear,
    logsumexp,
    masked_fill,
    repeat_rows,
    segment_sum,
    softmax,
    stack,
    take,
)
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
    "fast_math",
    "is_fast_math",
    "active_arena",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "MLP",
    "concat",
    "stack",
    "embedding",
    "take",
    "repeat_rows",
    "segment_sum",
    "linear",
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
