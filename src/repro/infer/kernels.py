"""Fused NumPy kernels for the compiled inference path.

Every kernel here writes into caller-provided buffers (leased from a
:class:`~repro.infer.plan.BufferArena`) via NumPy's ``out=`` / in-place
machinery, so a steady-state plan execution performs **zero array
allocations** — the training autodiff's per-op allocation and graph
bookkeeping are gone entirely.

Two execution styles share these kernels:

* **fused float32** (production): ReLUs applied in place, the K expert
  heads evaluated as one packed GEMM per layer (see :class:`PackedExperts`),
  and — on a session-factored batch — the behaviour side on its packed
  valid history positions only, with the attention unit's first layer split
  so its behaviour and key thirds run once per position / per candidate
  instead of once per pair (see :class:`FactoredUnit`);
* **float64 parity** (testing): the compiler keeps the exact op order of the
  eager :class:`~repro.nn.tensor.Tensor` forward — all M positions, padding
  masked to 0 — so results are bitwise reproducible against a float64 eager
  model (``tests/infer/test_parity.py``).

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
    """``out[...] = table[indices]``, written into ``out`` (no result array).

    ``out`` may be a strided slice of a wider concat buffer.  Out-of-range
    ids raise ``IndexError`` exactly like :class:`repro.nn.layers.Embedding`;
    for that, ``take`` in ``raise`` mode gathers into a temporary of
    ``out``'s size and then copies it (≈ 240 KB for 10,240 × 6 float32
    rows, strided or contiguous).  Only ``mode="clip"`` into a contiguous
    ``out`` writes in place, and clipping would need its own bounds check,
    slower at serving's 96-row flushes and no help into strided slices.
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

    def by_expert(self, h1: np.ndarray) -> np.ndarray:
        """The first layer's ``(B, K*H)`` output as a ``(K, B, H)`` view, no
        copy: each expert's ``(B, H)`` slice is a BLAS operand with row
        stride ``K*H``, so the batched GEMMs read ``h1`` in place."""
        return h1.reshape(h1.shape[0], self.num_experts, -1).transpose(1, 0, 2)

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
        h = self.by_expert(h1)
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
    """An activation unit over a session-factored batch's packed valid
    behaviour positions.

    The unit's first layer reads ``[h ‖ h⊙key ‖ key]``; split row-wise into
    ``W_a``, ``W_b``, ``W_c`` it is ``h·W_a + (h⊙key)·W_b + key·W_c``.  Only
    the key varies within a session, so for session ``s`` with valid
    positions ``p`` the layer is one GEMM over its candidates' keys,

        z[n, (p, u)] = Σ_h key[n, h] · T[h, p, u] + (h_p·W_a + b)[p, u],
        T[h, p, u]   = h_p[h]·W_b[h, u] + W_c[h, u],

    and ``T`` is one batched GEMM, ``(H, P, 2) @ (H, 2, U)`` of ``[h_p, 1]``
    against ``[W_b; W_c]`` (stacked at compile time), over at most
    :data:`SLAB` positions at a time — a serving flush is one slab.  Padding
    is never evaluated, and neither the 3H-wide pairwise input nor the
    (N, M, H) product is materialized.  Sums are reassociated relative to
    the unsplit layer — fused float32 only, never parity mode.
    """

    #: Positions per ``T`` slab: bounds its (H, ·, U) buffer on a replay chunk.
    SLAB = 128

    __slots__ = ("w_seq", "w_stack", "bias", "rest")

    def __init__(self, pack: PackedMLP, hidden: int):
        weight, self.bias = pack.layers[0]
        self.w_seq = np.ascontiguousarray(weight[:hidden])
        self.w_stack = np.ascontiguousarray(
            np.stack([weight[hidden : 2 * hidden], weight[2 * hidden :]], axis=1)
        )
        self.rest = PackedMLP(pack.layers[1:]) if len(pack.layers) > 1 else None

    def run(
        self,
        h_pos: np.ndarray,
        h_key: np.ndarray,
        blocks: Sequence[Tuple[int, int, int, int, int]],
        lease: Callable[[str, Tuple[int, ...]], np.ndarray],
    ) -> np.ndarray:
        """Unit outputs ``(Σ n_s·L_s, out)`` for packed positions ``h_pos``
        (P, H) and candidates ``h_key`` (N, H).  ``blocks`` holds ``(s,
        start, stop, lo, hi)`` per session ``s`` with a history — candidates
        ``start:stop``, positions ``lo:hi`` — and each session's (candidate,
        position) pairs follow the previous one's, candidate-major."""
        positions, hidden = h_pos.shape
        width = self.w_seq.shape[1]
        seq_bias = lease("seq", (positions, width))
        np.matmul(h_pos, self.w_seq, out=seq_bias)
        seq_bias += self.bias
        span = max([self.SLAB] + [hi - lo for *_, lo, hi in blocks])
        lhs = lease("lhs", (hidden, span, 2))
        t = lease("t", (hidden, span, width))
        # Not "fc0": the remaining layers lease fc0.. under the same binder.
        out = lease("split", (sum((b - a) * (hi - lo) for _, a, b, lo, hi in blocks), width))
        cursor = base = 0
        for index, (_, start, stop, lo, hi) in enumerate(blocks):
            if index == 0 or hi - base > span:  # the block starts the next slab
                base, size = lo, min(positions - lo, span)
                lhs[:, :size, 0] = h_pos[lo : lo + size].T
                lhs[:, :size, 1] = 1.0
                np.matmul(lhs[:, :size], self.w_stack, out=t[:, :size])
            n, length = stop - start, hi - lo
            block = out[cursor : cursor + n * length].reshape(n, length * width)
            weight = t[:, lo - base : hi - base].reshape(hidden, length * width)
            np.matmul(h_key[start:stop], weight, out=block)
            block += seq_bias[lo:hi].reshape(length * width)
            cursor += n * length
        if self.rest is None:
            return out
        np.maximum(out, 0, out=out)
        return self.rest.run(out, lease)
