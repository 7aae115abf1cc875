"""Fused NumPy kernels for the compiled inference path.

Every kernel here writes into caller-provided buffers (leased from a
:class:`~repro.infer.plan.BufferArena`) via NumPy's ``out=`` / in-place
machinery, so a steady-state plan execution performs **zero array
allocations** — the training autodiff's per-op allocation and graph
bookkeeping are gone entirely.

Two execution styles share these kernels:

* **fused float32** (production): ReLUs applied in place, the K expert
  heads evaluated as one packed GEMM per layer (see :class:`PackedExperts`),
  and — on a session-factored batch — the attention unit's first layer split
  so its behaviour and key thirds run once per session / per candidate
  instead of once per pair (see :class:`FactoredUnit`);
* **float64 parity** (testing): the compiler keeps the exact op order of the
  eager :class:`~repro.nn.tensor.Tensor` forward so results are bitwise
  reproducible against a float64 eager model (``tests/infer/test_parity.py``).

The kernels are deliberately *not* differentiable — this module never builds
tensors; training keeps using :mod:`repro.nn`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "CompileError",
    "PackedMLP",
    "PackedExperts",
    "FactoredUnit",
    "gather_rows",
    "expand_rows",
    "pairwise_concat",
    "masked_pool",
    "segment_pool",
    "sigmoid_",
    "sparsify_top_k_",
]


class CompileError(RuntimeError):
    """Raised when a model cannot be compiled into an inference plan."""


def sigmoid_(buf: np.ndarray) -> None:
    """In-place logistic function via the same ops as ``predict_proba``:
    ``clip(-60, 60)`` then ``1 / (1 + exp(-x))``."""
    buf.clip(-60, 60, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    buf += 1.0
    np.divide(1.0, buf, out=buf)


def sparsify_top_k_(
    gate: np.ndarray, top_k: int, scratch_sorted: np.ndarray, scratch_drop: np.ndarray
) -> None:
    """In-place top-K sparsification replicating :func:`repro.core.extensions.
    sparse_gate.sparse_top_k` (ties at the threshold survive)."""
    if top_k >= gate.shape[-1]:
        return
    scratch_sorted[...] = gate
    scratch_sorted.sort(axis=-1)
    np.less(gate, scratch_sorted[:, -top_k][:, None], out=scratch_drop)
    np.copyto(gate, 0.0, where=scratch_drop)


def gather_rows(table: np.ndarray, indices: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = table[indices]`` without temporary allocation.

    ``out`` may be a strided slice of a wider concat buffer (``ndarray.take``
    buffers through it directly).  Out-of-range ids raise ``IndexError``
    exactly like :class:`repro.nn.layers.Embedding`.
    """
    table.take(indices, axis=0, out=out)


def expand_rows(rows: np.ndarray, bounds: Sequence[int], out: np.ndarray) -> np.ndarray:
    """One row per session → one row per candidate: ``out[b_s:b_{s+1}] =
    rows[s]`` for the row offsets ``bounds`` of a
    :class:`~repro.data.schema.SessionBatch`.  ``out`` may be a strided
    slice of a wider buffer."""
    for s in range(len(bounds) - 1):
        out[bounds[s] : bounds[s + 1]] = rows[s]
    return out


class PackedMLP:
    """An :class:`repro.nn.layers.MLP` frozen into contiguous weight arrays.

    ``layers`` holds ``(W, b)`` pairs in execution order, ReLU after every
    layer but the last (the one MLP shape); weights are packed once at
    compile time in the plan dtype.
    """

    __slots__ = ("layers", "in_features", "out_features", "_program")

    def __init__(self, layers: List[Tuple[np.ndarray, np.ndarray]]):
        if not layers:
            raise ValueError("PackedMLP needs at least one layer")
        self.layers = layers
        self.in_features = int(layers[0][0].shape[0])
        self.out_features = int(layers[-1][0].shape[1])
        # Per-layer (slot, W, b, relu) resolved once at pack time so the
        # hot loop does no string formatting.
        last = len(layers) - 1
        self._program = [
            (f"fc{i}", weight, bias, i < last) for i, (weight, bias) in enumerate(layers)
        ]

    @staticmethod
    def from_module(mlp, dtype: np.dtype) -> "PackedMLP":
        """Pack a :class:`repro.nn.layers.MLP` (weights copied, contiguous)."""
        layers = []
        for linear in mlp._linears:
            # Always a copy: a plan must be a snapshot, never an alias of
            # live training weights (hot-swap compiles the new model while
            # the old plan keeps serving).
            weight = np.array(linear.weight.detach_numpy(), dtype=dtype, order="C")
            bias = np.array(linear.bias.detach_numpy(), dtype=dtype, order="C")
            layers.append((weight, bias))
        return PackedMLP(layers)

    def run(self, x2d: np.ndarray, lease: Callable[[str, Tuple[int, ...]], np.ndarray]) -> np.ndarray:
        """Forward ``x2d`` (N, in) through every layer.

        ``lease(slot, shape)`` returns a reusable buffer (the plan binds it
        to the arena with a step-unique key prefix).  The returned array is
        the last leased buffer.
        """
        h = x2d
        rows = x2d.shape[0]
        for slot, weight, bias, relu in self._program:
            out = lease(slot, (rows, weight.shape[1]))
            np.matmul(h, weight, out=out)
            out += bias
            if relu:
                np.maximum(out, 0, out=out)
            h = out
        return h


class PackedExperts:
    """K expert MLPs fused for one-shot evaluation (fused mode).

    Layer 0 of every expert is packed **horizontally** into a single
    ``(D, K*H)`` matrix — one GEMM scores all experts' first layers at once.
    Deeper layers are stacked into ``(K, H_in, H_out)`` tensors and run as a
    single batched matmul.  In parity mode the compiler bypasses this class
    and evaluates experts one by one in the eager op order instead.
    """

    __slots__ = ("first_weight", "first_bias", "deep", "num_experts", "widths", "_deep_program")

    def __init__(self, experts: Sequence, dtype: np.dtype):
        packs = [PackedMLP.from_module(e.mlp, dtype) for e in experts]
        self.num_experts = len(packs)
        depth = len(packs[0].layers)
        self.widths = [w for (w, _) in packs[0].layers]
        self.first_weight = np.ascontiguousarray(
            np.concatenate([p.layers[0][0] for p in packs], axis=1)
        )
        self.first_bias = np.concatenate([p.layers[0][1] for p in packs])
        # Deeper layers: (K, H_in, H_out) weight stacks + (K, 1, H_out) biases.
        self.deep: List[Tuple[np.ndarray, np.ndarray]] = []
        for layer in range(1, depth):
            w = np.ascontiguousarray(np.stack([p.layers[layer][0] for p in packs]))
            b = np.ascontiguousarray(np.stack([p.layers[layer][1] for p in packs])[:, None, :])
            self.deep.append((w, b))
        self._deep_program = [
            (f"kbh{i + 1}", w, b, i < len(self.deep) - 1) for i, (w, b) in enumerate(self.deep)
        ]

    def run(
        self, v_imp: np.ndarray, lease: Callable[[str, Tuple[int, ...]], np.ndarray]
    ) -> np.ndarray:
        """Expert score matrix ``(B, K)`` for impressions ``v_imp`` (B, D)."""
        batch = v_imp.shape[0]
        k = self.num_experts
        h1_width = self.first_weight.shape[1] // k
        h1 = lease("h1", (batch, k * h1_width))
        np.matmul(v_imp, self.first_weight, out=h1)
        h1 += self.first_bias
        if not self.deep:
            return h1  # single-layer experts: h1 already is (B, K)
        np.maximum(h1, 0, out=h1)
        # (B, K*H) -> (K, B, H) for batched per-expert GEMMs.
        h = lease("kbh0", (k, batch, h1_width))
        h[...] = h1.reshape(batch, k, h1_width).transpose(1, 0, 2)
        for slot, weight, bias, relu in self._deep_program:
            out = lease(slot, (k, batch, weight.shape[2]))
            np.matmul(h, weight, out=out)
            out += bias
            if relu:
                np.maximum(out, 0, out=out)
            h = out
        scores = lease("scores", (batch, k))
        scores[...] = h.reshape(k, batch).T
        return scores


class FactoredUnit:
    """An activation unit evaluated on a session-factored batch.

    The unit's first layer reads ``[h ‖ h⊙key ‖ key]``; split row-wise into
    ``W_a``, ``W_b``, ``W_c`` it is ``h·W_a + (h⊙key)·W_b + key·W_c``.  Only
    the key varies within a session, so for session ``s`` the layer is one
    GEMM over its candidates' keys,

        z[n, (m, u)] = Σ_h key[n, h] · (h_s[m, h]·W_b[h, u] + W_c[h, u])
                       + (h_s·W_a + b)[m, u]

    with a per-session weight ``(H, M·U)`` and a per-session bias built from
    S·M rows: neither the 3H-wide pairwise input nor the (N, M, H) product
    is ever materialized.  Sums are reassociated relative to the unsplit
    layer — fused float32 only, never parity mode.
    """

    __slots__ = ("w_seq", "w_pair", "w_key", "bias", "rest")

    def __init__(self, pack: PackedMLP, hidden: int):
        weight, self.bias = pack.layers[0]
        self.w_seq = np.ascontiguousarray(weight[:hidden])
        self.w_pair = weight[hidden : 2 * hidden][:, None, :]  # (H, 1, U)
        self.w_key = weight[2 * hidden :][:, None, :]
        self.rest = PackedMLP(pack.layers[1:]) if len(pack.layers) > 1 else None

    def run(
        self,
        h_seq: np.ndarray,
        h_key: np.ndarray,
        bounds: Sequence[int],
        lease: Callable[[str, Tuple[int, ...]], np.ndarray],
    ) -> np.ndarray:
        """Unit outputs ``(N·M, out)`` for sessions ``h_seq`` (S, M, H) and
        candidates ``h_key`` (N, H), candidate rows ``bounds[s]:bounds[s+1]``
        belonging to session ``s``."""
        sessions, seq_len, hidden = h_seq.shape
        rows = h_key.shape[0]
        width = self.w_seq.shape[1]
        seq_bias = lease("seq", (sessions * seq_len, width))
        np.matmul(h_seq.reshape(sessions * seq_len, hidden), self.w_seq, out=seq_bias)
        seq_bias += self.bias
        seq_bias = seq_bias.reshape(sessions, seq_len * width)
        weights = lease("weights", (sessions, hidden, seq_len, width))
        np.multiply(h_seq.transpose(0, 2, 1)[:, :, :, None], self.w_pair, out=weights)
        weights += self.w_key
        weights = weights.reshape(sessions, hidden, seq_len * width)
        # Not "fc0": the remaining layers lease fc0.. under the same binder.
        out = lease("split", (rows, seq_len * width))
        for s in range(sessions):
            segment = out[bounds[s] : bounds[s + 1]]
            np.matmul(h_key[bounds[s] : bounds[s + 1]], weights[s], out=segment)
            segment += seq_bias[s]
        out = out.reshape(rows * seq_len, width)
        if self.rest is None:
            return out
        np.maximum(out, 0, out=out)
        return self.rest.run(out, lease)


def pairwise_concat(
    h_seq: np.ndarray,
    h_key: np.ndarray,
    out: np.ndarray,
) -> None:
    """The activation/gate units' input ``[h_seq ‖ h_seq⊙key ‖ key]``.

    Fuses the eager path's ``expand_dims + broadcast_to + concat`` (two full
    materialized copies) into three strided writes on ``out`` (B, M, 3H).
    """
    hidden = h_seq.shape[-1]
    out[..., :hidden] = h_seq
    np.multiply(h_seq, h_key[:, None, :], out=out[..., hidden : 2 * hidden])
    out[..., 2 * hidden :] = h_key[:, None, :]


def masked_pool(
    h_seq: np.ndarray,
    weights: np.ndarray,
    scratch: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out = (h_seq * weights[:, :, None]).sum(axis=1)`` — the attention
    pooling of Eq. 3 — with ``scratch`` (B, M, H) absorbing the product."""
    np.multiply(h_seq, weights[:, :, None], out=scratch)
    scratch.sum(axis=1, out=out)


def segment_pool(
    h_seq: np.ndarray, weights: np.ndarray, bounds: Sequence[int], out: np.ndarray
) -> None:
    """:func:`masked_pool` on a session-factored batch: the candidates of
    session ``s`` all pool the same ``h_seq[s]`` (M, H), so Eq. 3 is one
    ``(n_s, M) @ (M, H)`` GEMM per session and the (N, M, H) product is
    never materialized."""
    for s in range(len(bounds) - 1):
        start, stop = bounds[s], bounds[s + 1]
        np.matmul(weights[start:stop], h_seq[s], out=out[start:stop])
