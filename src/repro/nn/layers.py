"""Neural network layers used throughout the AW-MoE reproduction.

Every network of the paper (Fig. 4 — input network, experts, gate and
activation units) and of every baseline is an MLP with ReLU hidden layers and
a linear output over embedding tables, so the layer set is exactly
``Linear``, ``Embedding`` and that one ``MLP`` shape.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.ops import embedding as embedding_op
from repro.nn.tensor import Tensor

__all__ = ["Linear", "Embedding", "MLP"]


class Linear(Module):
    """Affine layer ``y = x W + b`` applied over the last dimension.

    Accepts inputs with any number of leading dimensions, e.g. per-item
    hidden vectors of shape ``(batch, seq_len, in_features)``.  Weights are
    He-normal (the layers feed ReLUs), biases zero.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.he_normal((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got input shape {x.shape}"
            )
        leading = x.shape[:-1]
        flat = x.reshape(-1, self.in_features) if x.ndim != 2 else x
        out = flat.matmul(self.weight) + self.bias
        if x.ndim != 2:
            out = out.reshape(*leading, self.out_features)
        return out


class Embedding(Module):
    """Embedding table mapping integer ids to dense vectors.

    Index 0 is conventionally the padding id in this codebase; callers mask
    padded positions explicitly, so no special handling is done here.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return embedding_op(self.weight, indices)


class MLP(Module):
    """Multi-layer perceptron: ReLU on every hidden layer, linear output.

    ``sizes`` lists every layer width after the input, matching the paper's
    notation: the expert network "MLP (512x256x1)" is
    ``MLP(in_dim, [512, 256, 1], rng)``.  The paper's figures draw a ReLU at
    the output of the activation/gate units too; here every output is linear
    (see :mod:`repro.core.activation_unit` for why).
    """

    def __init__(self, in_features: int, sizes: Sequence[int], rng: np.random.Generator) -> None:
        super().__init__()
        if not sizes:
            raise ValueError("MLP requires at least one layer size")
        self._linears: List[Linear] = []
        previous = in_features
        for i, width in enumerate(sizes):
            layer = Linear(previous, width, rng)
            setattr(self, f"fc{i}", layer)
            self._linears.append(layer)
            previous = width
        self.out_features = previous

    def forward(self, x: Tensor) -> Tensor:
        last = len(self._linears) - 1
        for i, layer in enumerate(self._linears):
            x = layer(x)
            if i < last:
                x = x.relu()
        return x
