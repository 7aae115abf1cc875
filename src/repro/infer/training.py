"""The training compiler: one AW-MoE train step as flat fused kernels.

:func:`compile_train_step` does for the paper's objective
``L = L_rank + λ·L_cl`` (Eq. 11) what :func:`~repro.infer.compiler.
compile_model` does for serving: it reads the model's structure once and
emits a flat list of forward kernels over the step's packed behaviour view
(the P positions valid under the anchor or the positive mask), plus their
hand-written backward kernels, run in reverse.  No autograd tape is built.

* **Forward.** MLP chains are :class:`~repro.infer.kernels.PackedMLP` over
  *live* parameter views (the optimizer updates them in place); the K
  experts are one :class:`~repro.infer.kernels.PackedExperts` whose packed
  copies are refreshed from the parameters each step.  The behaviour trunk
  — ``MLP^I`` (on the behaviour and target rows in one pass), ``MLP^G``,
  the attention, gate and activation units — runs once, on P rows, for the
  logits, the contrastive anchor *and* the positive: a mask only enters at
  the final pooling (Eq. 3, Eq. 8).  The gate and activation units read
  one ``[h ‖ h⊙key ‖ key]`` input and run their first layers as one GEMM.
* **Backward.** Every MLP here is ReLU hidden / linear output, so each
  layer's backward has one form (the (Linear, ReLU) reverse walk): mask the
  upstream gradient by the recorded activation, one GEMM for ``dW``, one
  GEMV for ``db``, one GEMM for ``dX`` — a broadcast multiply when the layer
  is one unit wide.  Parameter gradients land straight in the
  :class:`~repro.nn.AdamW` gradient slots; clipping and the update are the
  optimizer's own.
* **Buffers.** Activations and intermediate gradients live in a
  :class:`~repro.infer.plan.BufferArena`, one buffer per
  ``(kernel, slot, dtype)`` grown to its high-water mark (row counts round
  up to a multiple of 128 above 128, which bounds the arena's view cache),
  so a step at an already-seen or smaller P allocates no buffer.

The step runs in the parameters' dtype (float32, or float64 for the
gradient checks).  The contrastive masks and negatives are drawn from
``cl_rng`` in the eager step's order (positive view, then negatives), so the
two paths see the same augmentations.  ``reorder`` permutes whole
behaviour positions of the batch before the forward, and Eq. 3 and Eq. 8
are sums over positions, so its positive view is the anchor's mask and
shares the one trunk pass too.  The eager ``fast_path=False`` step is the
oracle (``tests/core/test_fast_training.py``).  A model that is not an
:class:`~repro.core.aw_moe.AWMoE` raises
:class:`~repro.infer.kernels.CompileError`, and
:func:`repro.core.trainer.train_step` runs the eager tape for it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aw_moe import AWMoE
from repro.core.trainer import GRAD_CLIP
from repro.data.masking import sample_in_batch_negatives
from repro.infer.kernels import CompileError, PackedExperts, PackedMLP, gather_rows
from repro.infer.plan import BufferArena, rows_capacity
from repro.nn import clip_grad_norm

__all__ = ["CompiledTrainStep", "compile_train_step"]

Lease = Callable[..., np.ndarray]
Slots = Dict[int, np.ndarray]


def segment_sum(x: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Sum rows of ``x`` (P, ...) into ``size`` segments; ``rows`` is sorted.
    ``np.add.reduceat`` returns the *element* at an empty segment's start, so
    it is only shown the non-empty segments; empty ones stay exactly 0."""
    out = np.zeros((size, *x.shape[1:]), dtype=x.dtype)
    counts = np.bincount(rows, minlength=size)
    filled = counts > 0
    if x.shape[0]:
        out[filled] = np.add.reduceat(x, (np.cumsum(counts) - counts)[filled], axis=0)
    return out


def _scatter_add(table_grad: np.ndarray, ids: np.ndarray, grad: np.ndarray) -> None:
    """``table_grad[ids[p]] += grad[p]`` as one 1-D ``np.add.at`` over
    element offsets (the 2-D form takes ≈ 2.5x longer)."""
    width = table_grad.shape[1]
    offsets = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    np.add.at(table_grad.reshape(-1), offsets, grad.reshape(-1))


class _Mlp:
    """One pass of a :class:`PackedMLP` over live weights: the forward
    records each layer's output, the backward walks the layers in reverse
    and writes ``dW`` / ``db`` into the parameters' gradient slots."""

    __slots__ = ("name", "pack", "slots", "x", "outs", "_lease")

    def __init__(self, name: str, linears: Sequence, slots: Slots) -> None:
        self.name = name
        self.pack = PackedMLP([(lin.weight.data, lin.bias.data) for lin in linears])
        self.slots = [(slots[id(lin.weight)], slots[id(lin.bias)]) for lin in linears]
        self.outs: List[np.ndarray] = []

    def forward(self, x: np.ndarray, lease: Lease) -> np.ndarray:
        self.x = x
        self.outs.clear()
        self._lease = lease
        return self.pack.run(x, self._record)

    def _record(self, slot: str, shape) -> np.ndarray:
        out = self._lease(f"{self.name}.{slot}", shape)
        self.outs.append(out)
        return out

    def backward(
        self,
        grad: np.ndarray,
        lease: Lease,
        ones: np.ndarray,
        need_dx: bool = True,
        dx_out: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """Backpropagate ``grad`` (N, out); returns ``dX`` (N, in) — into
        ``dx_out`` when given — unless ``need_dx`` is false.  ``ones``
        (≥ N ones) makes each bias column sum one GEMV.  Hidden-layer
        gradients are overwritten in place."""
        ones = ones[: grad.shape[0]]
        last = len(self.outs) - 1
        for i in range(last, -1, -1):
            weight = self.pack.layers[i][0]
            if i < last:
                active = lease(f"{self.name}.m{i}", grad.shape, np.bool_)
                np.greater(self.outs[i], 0, out=active)
                np.multiply(grad, active, out=grad)
            w_slot, b_slot = self.slots[i]
            np.matmul((self.outs[i - 1] if i else self.x).T, grad, out=w_slot)
            np.matmul(ones, grad, out=b_slot)
            if i == 0 and not need_dx:
                return None
            if i == 0 and dx_out is not None:
                dx = dx_out
            else:
                dx = lease(f"{self.name}.d{i}", (grad.shape[0], weight.shape[0]))
            if weight.shape[1] == 1:
                np.multiply(grad, weight.T, out=dx)  # one unit wide: no GEMM
            else:
                np.matmul(grad, weight.T, out=dx)
            grad = dx
        return grad


class _PairUnits:
    """Units reading ``[h ‖ h⊙key ‖ key]`` at the P positions, with the
    key ``(B, H)`` one row per batch row: the input network's attention, or
    the gate's gate and activation units, which share the input and so run
    their first layers as one GEMM (weights copied side by side each step);
    the remaining layers are :class:`_Mlp` passes over column slices of the
    shared first hidden."""

    def __init__(self, name: str, mlps: Sequence, slots: Slots, dtype: np.dtype) -> None:
        firsts = [mlp._linears[0] for mlp in mlps]
        self.hidden = firsts[0].in_features // 3
        self.firsts = [(lin.weight.data, lin.bias.data) for lin in firsts]
        self.first_slots = [(slots[id(lin.weight)], slots[id(lin.bias)]) for lin in firsts]
        bounds = np.cumsum([0] + [lin.out_features for lin in firsts]).tolist()
        self.columns = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        if len(firsts) == 1:
            self.weight, self.bias = self.firsts[0]
        else:
            self.weight = np.empty((3 * self.hidden, bounds[-1]), dtype=dtype)
            self.bias = np.empty(bounds[-1], dtype=dtype)
        self.relu = len(mlps[0]._linears) > 1
        self.rest = [
            _Mlp(f"{name}{i}", mlp._linears[1:], slots) if self.relu else None
            for i, mlp in enumerate(mlps)
        ]

    def forward(self, h, key, rows, lease) -> List[np.ndarray]:
        """Each unit's output ``(P, out)``."""
        if len(self.firsts) > 1:
            for (weight, bias), cols in zip(self.firsts, self.columns):
                self.weight[:, cols] = weight
                self.bias[cols] = bias
        hidden = self.hidden
        pair = self.pair = lease("pair", (h.shape[0], 3 * hidden))
        pair[:, :hidden] = h
        gather_rows(key, rows, pair[:, 2 * hidden :])
        np.multiply(h, pair[:, 2 * hidden :], out=pair[:, hidden : 2 * hidden])
        self.h, self.key = h, key
        z = self.z = lease("z", (h.shape[0], self.bias.size))
        np.matmul(pair, self.weight, out=z)
        z += self.bias
        if not self.relu:
            return [z[:, cols] for cols in self.columns]
        np.maximum(z, 0, out=z)
        return [mlp.forward(z[:, cols], lease) for mlp, cols in zip(self.rest, self.columns)]

    def backward(self, d_outs, d_h, lease, ones, rows):
        """Parameter gradients from each unit's ``d out``; adds ``d h`` into
        ``d_h`` (or returns a fresh one when it is ``None``) and returns
        ``(d_h, d_key)``."""
        hidden, z, pair = self.hidden, self.z, self.pair
        if self.relu:
            dz = lease("dz", z.shape)
            for mlp, cols, d_out in zip(self.rest, self.columns, d_outs):
                mlp.backward(d_out, lease, ones, dx_out=dz[:, cols])
            active = lease("active", z.shape, np.bool_)
            np.greater(z, 0, out=active)
            np.multiply(dz, active, out=dz)
        else:
            dz = d_outs[0] if len(d_outs) == 1 else np.concatenate(d_outs, axis=1)
        ones = ones[: len(dz)]
        for (w_slot, b_slot), cols in zip(self.first_slots, self.columns):
            np.matmul(pair.T, dz[:, cols], out=w_slot)
            np.matmul(ones, dz[:, cols], out=b_slot)
        d_pair = lease("d_pair", pair.shape)
        np.matmul(dz, self.weight.T, out=d_pair)
        d_product, d_key_rows = d_pair[:, hidden : 2 * hidden], d_pair[:, 2 * hidden :]
        from_product = lease("from_product", self.h.shape)
        np.multiply(d_product, self.h, out=from_product)
        d_key_rows += from_product
        d_key = segment_sum(d_key_rows, rows, len(self.key))
        d_product *= pair[:, 2 * hidden :]
        if d_h is None:
            d_h = d_pair[:, :hidden]
        else:
            d_h += d_pair[:, :hidden]
        d_h += d_product
        return d_h, d_key


class _Experts:
    """The K experts as one :class:`PackedExperts` per step (its packed
    weights re-copied from the live parameters), and its backward."""

    def __init__(self, pool, dtype: np.dtype, slots: Slots) -> None:
        experts = pool._experts
        self.packed = PackedExperts(experts, dtype)
        self.layers = [[(lin.weight, lin.bias) for lin in e.mlp._linears] for e in experts]
        self.num_experts = len(experts)
        self.slots = [
            [(slots[id(ls[depth][0])], slots[id(ls[depth][1])]) for ls in self.layers]
            for depth in range(len(self.layers[0]))
        ]

    def forward(self, v_imp: np.ndarray, lease: Lease) -> np.ndarray:
        packed, layers = self.packed, self.layers
        np.concatenate([ls[0][0].data for ls in layers], axis=1, out=packed.first_weight)
        np.concatenate([ls[0][1].data for ls in layers], out=packed.first_bias)
        for depth, (weight, bias) in enumerate(packed.deep, start=1):
            np.stack([ls[depth][0].data for ls in layers], out=weight)
            np.stack([ls[depth][1].data for ls in layers], out=bias[:, 0, :])
        self.v_imp = v_imp
        self.outs = {}
        self._lease = lease
        return packed.run(v_imp, self._record)

    def _record(self, slot: str, shape) -> np.ndarray:
        out = self.outs[slot] = self._lease(slot, shape)
        return out

    def backward(self, d_scores: np.ndarray, lease: Lease, ones: np.ndarray) -> np.ndarray:
        """``d v_imp`` (B, D) from ``d scores`` (B, K)."""
        packed, outs, k = self.packed, self.outs, self.num_experts
        batch = d_scores.shape[0]
        ones = ones[:batch]
        if packed.deep:
            grad = lease("g_out", (k, batch, 1))
            grad[:, :, 0] = d_scores.T
            for j in range(len(packed.deep) - 1, -1, -1):
                weight = packed.deep[j][0]
                if j < len(packed.deep) - 1:
                    active = lease(f"m{j + 1}", grad.shape, np.bool_)
                    np.greater(outs[f"kbh{j + 1}"], 0, out=active)
                    np.multiply(grad, active, out=grad)
                h_in = outs[f"kbh{j}"]
                for e, (w_slot, b_slot) in enumerate(self.slots[j + 1]):
                    np.matmul(h_in[e].T, grad[e], out=w_slot)
                    np.matmul(ones, grad[e], out=b_slot)
                dx = lease(f"d{j + 1}", h_in.shape)
                if weight.shape[2] == 1:
                    np.multiply(grad, weight.transpose(0, 2, 1), out=dx)
                else:
                    np.matmul(grad, weight.transpose(0, 2, 1), out=dx)
                grad = dx
            active = lease("m0", grad.shape, np.bool_)
            np.greater(outs["kbh0"], 0, out=active)
            np.multiply(grad, active, out=grad)
            first = lease("g_first", (batch, packed.first_weight.shape[1]))
            first.reshape(batch, k, -1)[...] = grad.transpose(1, 0, 2)
        else:
            first = d_scores
        d_weight = lease("dw0", packed.first_weight.shape)
        np.matmul(self.v_imp.T, first, out=d_weight)
        d_bias = ones @ first
        width = first.shape[1] // k
        for e, (w_slot, b_slot) in enumerate(self.slots[0]):
            w_slot[...] = d_weight[:, e * width : (e + 1) * width]
            b_slot[...] = d_bias[e * width : (e + 1) * width]
        dv = lease("dv", self.v_imp.shape)
        np.matmul(first, packed.first_weight.T, out=dv)
        return dv


class CompiledTrainStep:
    """One AW-MoE train step as flat forward and backward kernels.

    ``forward`` / ``backward`` expose the two halves (the parity tests
    drive them with arbitrary upstream gradients); calling the step runs
    forward, BCE (+ λ·InfoNCE), backward, clipping and the AdamW update —
    what :func:`repro.core.trainer.train_step` does on the tape.
    """

    def __init__(self, model: AWMoE, optimizer) -> None:
        params = list(model.parameters())
        dtypes = {param.data.dtype for param in params}
        if len(dtypes) != 1 or next(iter(dtypes)) not in (np.float32, np.float64):
            raise CompileError(f"a compiled step needs one float dtype, got {sorted(map(str, dtypes))}")
        self.dtype = np.dtype(next(iter(dtypes)))
        slots = {id(p): slot for p, slot in zip(optimizer.params, optimizer._slots)}
        if any(id(param) not in slots for param in params):
            raise CompileError("the optimizer does not hold every model parameter")
        self.arena = BufferArena(self.dtype)
        self.ones = np.ones(0, dtype=self.dtype)
        self.search = model.config.task == "search"
        self.top_k = getattr(model, "top_k", None)
        embedder, net, gate = model.embedder, model.input_network, model.gate
        self.hidden = net.hidden_dim
        self.tables = [embedder.item.weight, embedder.category.weight, embedder.query.weight]
        self.table_slots = [slots[id(table)] for table in self.tables]
        # In reco mode no query is read: the query table gets no gradient
        # (AdamW then skips it, weight decay included, as on the tape).
        used = [p for p in params if self.search or p is not embedder.query.weight]
        self.touched = [(p, slots[id(p)]) for p in used]

        self.input_mlp = _Mlp("mlp", net.behavior_mlp._linears, slots)
        self.attention = _PairUnits("attention", [net.attention.mlp], slots, self.dtype)
        self.other = _Mlp("mlp", net.other_mlp._linears, slots)
        self.query = _Mlp("mlp", net.query_mlp._linears, slots) if self.search else None
        self.experts = _Experts(model.experts, self.dtype, slots)
        self.gate_behavior = _Mlp("mlp", gate.behavior_mlp._linears, slots)
        self.gate_key = _Mlp("mlp", gate.key_mlp._linears, slots)
        self.has_gate_unit = gate.gate_unit is not None
        self.has_activation = gate.activation_unit is not None
        units = [unit.mlp for unit in (gate.gate_unit, gate.activation_unit) if unit is not None]
        self.units = _PairUnits("units", units, slots, self.dtype) if units else None
        self.pooled = _Mlp("mlp", gate.pooled_mlp._linears, slots) if gate.pooled_mlp else None
        self.gate_bias, self.gate_bias_slot = gate.bias.data, slots[id(gate.bias)]

        kernels = [
            ("embed", self._embed, self._embed_back),
            ("input.mlp", self._input_mlp, self._input_mlp_back),
            ("input.attention", self._input_attention, self._input_attention_back),
            ("input.h_other", self._h_other, self._h_other_back),
        ]
        if self.search:
            kernels.append(("input.h_query", self._h_query, self._h_query_back))
        kernels += [
            ("input.v_imp", self._v_imp, self._v_imp_back),
            ("experts", self._experts, self._experts_back),
            ("gate.h_behavior", self._gate_behavior, self._gate_behavior_back),
            ("gate.h_key", self._gate_key, self._gate_key_back),
        ]
        if self.units:
            kernels.append(("gate.units", self._gate_units, self._gate_units_back))
        kernels.append(("gate.pool", self._gate_pool, self._gate_pool_back))
        if self.pooled:
            kernels.append(("gate.pooled_mlp", self._pooled_mlp, self._pooled_mlp_back))
        kernels += [
            ("gate.bias", self._gate_out, self._gate_out_back),
            ("mix", self._mix, self._mix_back),
        ]
        self.forward_kernels = [(fn, self._binder(name)) for name, fn, _ in kernels]
        self.backward_kernels = [
            (fn, self._binder(f"{name}.grad")) for name, _, fn in reversed(kernels)
        ]
        self.ctx: dict = {}

    def _binder(self, step: str) -> Lease:
        arena = self.arena

        def lease(slot: str, shape, dtype=None) -> np.ndarray:
            return arena.lease_rows(step, slot, shape, dtype)

        return lease

    @property
    def nbytes(self) -> int:
        """Bytes the step keeps between calls: its arena."""
        return self.arena.nbytes

    # ------------------------------------------------------------------
    # the two halves, and one whole step
    # ------------------------------------------------------------------
    def forward(self, batch, positive: Optional[np.ndarray] = None):
        """``(logits, anchor gate, positive gate or None)``, arena-owned
        until the next step; ``positive`` is the contrastive view's mask."""
        ctx = self.ctx
        ctx.clear()
        mask = np.asarray(batch["behavior_mask"], dtype=np.float32)
        stacked = mask[None] if positive is None else np.stack(
            [mask, np.asarray(positive, dtype=np.float32)]
        )  # (V, B, M)
        rows, cols = np.nonzero((stacked != 0).any(axis=0))
        views = stacked[:, rows, cols].T  # (P, V)
        longest = len(rows) + stacked.shape[0] * stacked.shape[1] + 4 * self.hidden
        if len(self.ones) < longest:
            self.ones = np.ones(rows_capacity(longest), dtype=self.dtype)
        ctx.update(
            batch=batch,
            ones=self.ones,
            at=rows * mask.shape[1] + cols,
            rows=rows,
            anchor_weight=views[:, :1],
            # The reference masks the gate unit's scores and the activation
            # weights separately: with both, each view weight enters twice.
            views=views * views if self.has_gate_unit and self.has_activation else views,
            scale=1.0 / np.maximum(stacked.sum(axis=2), 1.0).T,  # (B, V)
        )
        for fn, lease in self.forward_kernels:
            fn(ctx, lease)
        gates = ctx["gates"]
        return ctx["logits"], ctx["anchor"], gates[1] if len(gates) > 1 else None

    def backward(
        self,
        d_logits: np.ndarray,
        d_anchor: Optional[np.ndarray] = None,
        d_positive: Optional[np.ndarray] = None,
    ) -> None:
        """Gradients of the last :meth:`forward` into the optimizer's slots
        (each touched parameter's ``.grad`` is then its slot)."""
        ctx = self.ctx
        ctx.update(d_logits=d_logits, d_anchor=d_anchor, d_positive=d_positive)
        for fn, lease in self.backward_kernels:
            fn(ctx, lease)
        for param, slot in self.touched:
            param.grad = slot

    def __call__(self, batch, optimizer, strategy=None, cl_rng=None) -> Dict[str, float]:
        """One update on ``batch``; ``strategy`` (a
        :class:`~repro.core.contrastive.ContrastiveStrategy`) adds λ·InfoNCE."""
        positive = negatives = None
        if strategy is not None:
            rows = len(batch["label"])
            if rows < 2:
                raise ValueError("contrastive loss needs at least 2 examples in the batch")
            positive = strategy.positive_view(batch, cl_rng)
            negatives = sample_in_batch_negatives(rows, strategy.num_negatives, cl_rng)
        logits, anchor, view = self.forward(batch, positive)
        rank_loss, d_logits = self._bce(logits, batch["label"])
        metrics = {"loss": rank_loss, "rank_loss": rank_loss}
        d_anchor = d_view = None
        if strategy is not None:
            cl_loss, d_anchor, d_view = self._info_nce(anchor, view, negatives, strategy.weight)
            metrics["loss"] = float(self.dtype.type(rank_loss) + self.dtype.type(cl_loss))
            metrics["cl_loss"] = cl_loss
        optimizer.zero_grad()
        self.backward(d_logits, d_anchor, d_view)
        metrics["grad_norm"] = clip_grad_norm(optimizer, GRAD_CLIP)
        optimizer.step()
        return metrics

    def _bce(self, logits: np.ndarray, labels) -> Tuple[float, np.ndarray]:
        """Mean BCE on logits (Eq. 1) and its gradient, as
        :func:`repro.nn.bce_with_logits`."""
        y = np.asarray(labels).astype(self.dtype)
        z = logits
        loss = (np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean()
        sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
        return float(self.dtype.type(loss)), (sig - y) / z.size

    def _info_nce(self, anchor, positive, negatives, weight):
        """``λ·`` InfoNCE (Eq. 10, temperature 1) over in-batch negatives,
        as :func:`repro.nn.info_nce`, and its gradients w.r.t. the anchor
        and the positive gates."""
        rows = anchor.shape[0]
        others = anchor[negatives]  # (B, l, K)
        sims = np.empty((rows, 1 + negatives.shape[1]), dtype=anchor.dtype)
        sims[:, 0] = (anchor * positive).sum(axis=1)
        sims[:, 1:] = (anchor[:, None, :] * others).sum(axis=2)
        top = sims.max(axis=1, keepdims=True)
        shifted = np.exp(sims - top)
        total = shifted.sum(axis=1, keepdims=True)
        loss = (np.log(total)[:, 0] + top[:, 0] - sims[:, 0]).mean()
        d_sims = shifted / total * (weight / rows)
        d_sims[:, 0] -= weight / rows
        d_anchor = d_sims[:, :1] * positive + (d_sims[:, 1:, None] * others).sum(axis=1)
        np.add.at(d_anchor, negatives, d_sims[:, 1:, None] * anchor[:, None, :])
        cl_loss = float(self.dtype.type(loss) * self.dtype.type(weight))
        return cl_loss, d_anchor, d_sims[:, :1] * anchor

    # ------------------------------------------------------------------
    # forward kernels (ctx in, ctx out) and their backward twins
    # ------------------------------------------------------------------
    def _embed(self, ctx, lease) -> None:
        """Item representations, P behaviour rows then B target rows
        (``MLP^I`` encodes both in one pass), and the query embeddings."""
        batch, at = ctx["batch"], ctx["at"]
        item, category, query = (table.data for table in self.tables)
        di, dc = item.shape[1], category.shape[1]
        dense = batch["behavior_dense"]
        positions, batch_rows = len(at), len(batch["target_item"])
        items = ctx["items"] = np.concatenate(
            [batch["behavior_items"].reshape(-1)[at], batch["target_item"]]
        )
        categories = ctx["categories"] = np.concatenate(
            [batch["behavior_categories"].reshape(-1)[at], batch["target_category"]]
        )
        represented = lease("repr", (positions + batch_rows, di + dc + dense.shape[2]))
        gather_rows(item, items, represented[:, :di])
        gather_rows(category, categories, represented[:, di : di + dc])
        represented[:positions, di + dc :] = dense.reshape(-1, dense.shape[2])[at]
        represented[positions:, di + dc :] = batch["target_dense"]
        ctx["repr"] = represented
        ctx["behavior"], ctx["target"] = represented[:positions], represented[positions:]
        if self.search:
            ctx["query"] = lease("query", (batch_rows, query.shape[1]))
            gather_rows(query, batch["query"], ctx["query"])

    def _embed_back(self, ctx, lease) -> None:
        d_repr = ctx["d_repr"]
        item_slot, category_slot, query_slot = self.table_slots
        di, dc = item_slot.shape[1], category_slot.shape[1]
        for slot, ids, columns in (
            (item_slot, ctx["items"], slice(0, di)),
            (category_slot, ctx["categories"], slice(di, di + dc)),
        ):
            slot[...] = 0.0
            _scatter_add(slot, ids, d_repr[:, columns])
        if self.search:
            query_slot[...] = 0.0
            _scatter_add(query_slot, ctx["batch"]["query"], ctx["d_query"])

    def _input_mlp(self, ctx, lease) -> None:
        hidden = self.input_mlp.forward(ctx["repr"], lease)
        positions = len(ctx["behavior"])
        ctx["h_input"], ctx["h_target"] = hidden[:positions], hidden[positions:]

    def _input_mlp_back(self, ctx, lease) -> None:
        d_repr = ctx["d_repr"] = self.input_mlp.backward(ctx["d_h_all"], lease, ctx["ones"])
        positions = len(ctx["behavior"])
        d_repr[:positions] += ctx["d_behavior"]
        if not self.search:
            d_repr[positions:] += ctx["d_key_repr"]

    def _input_attention(self, ctx, lease) -> None:
        """Eq. 3: ``v_u = Σ_j Φ(h_j, h_t)·h_j`` over the anchor's positions."""
        h = ctx["h_input"]
        (scores,) = self.attention.forward(h, ctx["h_target"], ctx["rows"], lease)
        weights = ctx["input_weights"] = lease("weights", (h.shape[0], 1))
        np.multiply(scores, ctx["anchor_weight"], out=weights)
        weighted = lease("weighted", h.shape)
        np.multiply(h, weights, out=weighted)
        ctx["v_user"] = segment_sum(weighted, ctx["rows"], len(ctx["h_target"]))

    def _input_attention_back(self, ctx, lease) -> None:
        h, d_h_all = ctx["h_input"], ctx["d_h_all"]
        positions = h.shape[0]
        d_weighted = lease("d_weighted", h.shape)
        gather_rows(ctx["d_v_user"], ctx["rows"], d_weighted)
        d_h = d_h_all[:positions]
        np.multiply(d_weighted, ctx["input_weights"], out=d_h)
        np.multiply(d_weighted, h, out=d_weighted)
        d_scores = lease("d_scores", (positions, 1))
        np.matmul(d_weighted, ctx["ones"][: self.hidden], out=d_scores[:, 0])
        d_scores *= ctx["anchor_weight"]
        _, d_key = self.attention.backward([d_scores], d_h, lease, ctx["ones"], ctx["rows"])
        d_h_all[positions:] += d_key

    def _h_other(self, ctx, lease) -> None:
        ctx["h_other"] = self.other.forward(ctx["batch"]["other_features"], lease)

    def _h_other_back(self, ctx, lease) -> None:
        self.other.backward(ctx["d_h_other"], lease, ctx["ones"], need_dx=False)

    def _h_query(self, ctx, lease) -> None:
        ctx["h_query"] = self.query.forward(ctx["query"], lease)

    def _h_query_back(self, ctx, lease) -> None:
        _accumulate(ctx, "d_query", self.query.backward(ctx["d_h_query"], lease, ctx["ones"]))

    def _parts(self) -> List[str]:
        return ["v_user", "h_target"] + (["h_query"] if self.search else []) + ["h_other"]

    def _v_imp(self, ctx, lease) -> None:
        """Eq. 4: ``v_imp = [v_u ‖ h_t ‖ h_q ‖ h_o]``."""
        parts, hidden = self._parts(), self.hidden
        v_imp = lease("v_imp", (len(ctx["h_target"]), hidden * len(parts)))
        for i, key in enumerate(parts):
            v_imp[:, i * hidden : (i + 1) * hidden] = ctx[key]
        ctx["v_imp"] = v_imp

    def _v_imp_back(self, ctx, lease) -> None:
        d_v_imp, hidden = ctx["d_v_imp"], self.hidden
        for i, key in enumerate(self._parts()):
            ctx[f"d_{key}"] = d_v_imp[:, i * hidden : (i + 1) * hidden]
        # MLP^I's upstream gradient: its behaviour rows are written by the
        # attention's backward, its target rows start here.
        d_h_all = ctx["d_h_all"] = lease("d_h_all", (len(ctx["repr"]), hidden))
        d_h_all[len(ctx["behavior"]) :] = ctx["d_h_target"]

    def _experts(self, ctx, lease) -> None:
        ctx["scores"] = self.experts.forward(ctx["v_imp"], lease)

    def _experts_back(self, ctx, lease) -> None:
        ctx["d_v_imp"] = self.experts.backward(ctx["d_scores"], lease, ctx["ones"])

    def _gate_behavior(self, ctx, lease) -> None:
        # Without either unit the gate pools the hiddens themselves.
        ctx["h_gate"] = ctx["per_position"] = self.gate_behavior.forward(ctx["behavior"], lease)

    def _gate_behavior_back(self, ctx, lease) -> None:
        d_h = ctx["d_h_gate"] if "d_h_gate" in ctx else ctx["d_per_position"]
        ctx["d_behavior"] = self.gate_behavior.backward(d_h, lease, ctx["ones"])

    def _gate_key(self, ctx, lease) -> None:
        ctx["h_key"] = self.gate_key.forward(ctx["query" if self.search else "target"], lease)

    def _gate_key_back(self, ctx, lease) -> None:
        d_key = self.gate_key.backward(ctx["d_h_key"], lease, ctx["ones"])
        _accumulate(ctx, "d_query" if self.search else "d_key_repr", d_key)

    def _gate_units(self, ctx, lease) -> None:
        """Eq. 7's per-item expert scores (gate unit) and the gate's
        attention weights (activation unit); ``per_position`` is what every
        view pools (Eq. 8)."""
        h = ctx["h_gate"]
        outs = ctx["unit_outs"] = self.units.forward(h, ctx["h_key"], ctx["rows"], lease)
        if not self.has_activation:
            ctx["per_position"] = outs[0]
            return
        scores = outs[0] if self.has_gate_unit else h
        per_position = ctx["per_position"] = lease("per_position", scores.shape)
        np.multiply(scores, outs[-1], out=per_position)

    def _gate_units_back(self, ctx, lease) -> None:
        d_per_position, h, outs = ctx["d_per_position"], ctx["h_gate"], ctx["unit_outs"]
        d_outs, d_h = [d_per_position], None
        if self.has_activation:
            scores = outs[0] if self.has_gate_unit else h
            d_weights = lease("d_weights", (h.shape[0], 1))
            product = lease("product", scores.shape)
            np.multiply(d_per_position, scores, out=product)
            np.matmul(product, ctx["ones"][: scores.shape[1]], out=d_weights[:, 0])
            np.multiply(d_per_position, outs[-1], out=d_per_position)
            if self.has_gate_unit:
                d_outs = [d_per_position, d_weights]
            else:
                d_outs, d_h = [d_weights], d_per_position  # the unit weighted h
        d_h, d_key = self.units.backward(d_outs, d_h, lease, ctx["ones"], ctx["rows"])
        ctx["d_h_gate"] = d_h
        _accumulate(ctx, "d_h_key", d_key)

    def _gate_pool(self, ctx, lease) -> None:
        """Eq. 8 per view: ``Σ_j w_j a_j / |valid_v|`` → ``(B, V, ·)``."""
        per_position, views = ctx["per_position"], ctx["views"]
        positions, count = views.shape
        width = per_position.shape[1]
        weighted = lease("weighted", (positions, count, width))
        np.multiply(per_position[:, None, :], views[:, :, None], out=weighted)
        pooled = segment_sum(weighted, ctx["rows"], len(ctx["h_key"]))
        pooled *= ctx["scale"][:, :, None]
        ctx["pooled"] = pooled

    def _gate_pool_back(self, ctx, lease) -> None:
        d_pooled, views = ctx["d_pooled"], ctx["views"]  # (B, V, W), (P, V)
        d_pooled *= ctx["scale"][:, :, None]
        gathered = lease("gathered", (len(views), *d_pooled.shape[1:]))
        gather_rows(d_pooled, ctx["rows"], gathered)
        gathered *= views[:, :, None]
        d_per_position = lease("d_per_position", (len(views), d_pooled.shape[2]))
        gathered.sum(axis=1, out=d_per_position)
        ctx["d_per_position"] = d_per_position

    def _pooled_mlp(self, ctx, lease) -> None:
        """The ablation gates without a gate unit: ``FFN([pooled_v ‖ h_key])``,
        every view's rows in one pass."""
        pooled, h_key, hidden = ctx["pooled"], ctx["h_key"], self.hidden
        batch, count, _ = pooled.shape
        inputs = lease("inputs", (count, batch, 2 * hidden))
        inputs[:, :, :hidden] = pooled.transpose(1, 0, 2)
        inputs[:, :, hidden:] = h_key
        out = self.pooled.forward(inputs.reshape(count * batch, 2 * hidden), lease)
        ctx["raw_gates"] = out.reshape(count, batch, -1)

    def _pooled_mlp_back(self, ctx, lease) -> None:
        d_raw, hidden = ctx["d_raw_gates"], self.hidden
        count, batch, k = d_raw.shape
        d_inputs = self.pooled.backward(d_raw.reshape(count * batch, k), lease, ctx["ones"])
        d_inputs = d_inputs.reshape(count, batch, 2 * hidden)
        d_pooled = ctx["d_pooled"] = lease("d_pooled", (batch, count, hidden))
        d_pooled[...] = d_inputs[:, :, :hidden].transpose(1, 0, 2)
        d_key = lease("d_key", (batch, hidden))
        d_inputs[:, :, hidden:].sum(axis=0, out=d_key)
        _accumulate(ctx, "d_h_key", d_key)

    def _gate_out(self, ctx, lease) -> None:
        """``g = pooled + g0`` per view; the anchor is the applied gate
        (top-K sparsified for the sparse extension, as ``sparse_top_k``)."""
        raw = ctx["raw_gates"] if self.pooled else ctx["pooled"].transpose(1, 0, 2)
        gates = ctx["gates"] = lease("gates", raw.shape)
        np.add(raw, self.gate_bias, out=gates)
        anchor = gates[0]
        if self.top_k is not None and self.top_k < anchor.shape[1]:
            threshold = np.sort(anchor, axis=1)[:, -self.top_k][:, None]
            drop = ctx["drop"] = anchor < threshold
            anchor = lease("anchor", anchor.shape)
            np.copyto(anchor, gates[0])
            anchor[drop] = 0.0
        ctx["anchor"] = anchor

    def _gate_out_back(self, ctx, lease) -> None:
        gates = ctx["gates"]
        d_gates = lease("d_gates", gates.shape)
        d_gates[0] = ctx["d_anchor_total"]
        if "drop" in ctx:
            d_gates[0][ctx["drop"]] = 0.0
        if len(gates) > 1:
            d_gates[1] = 0.0 if ctx["d_positive"] is None else ctx["d_positive"]
        d_gates.sum(axis=(0, 1), out=self.gate_bias_slot)
        if self.pooled:
            ctx["d_raw_gates"] = d_gates
        else:
            d_pooled = ctx["d_pooled"] = lease("d_pooled", (gates.shape[1], len(gates), gates.shape[2]))
            d_pooled[...] = d_gates.transpose(1, 0, 2)

    def _mix(self, ctx, lease) -> None:
        """Eq. 9 logits ``Σ_k g_k s_k``."""
        anchor, scores = ctx["anchor"], ctx["scores"]
        weighted = lease("weighted", scores.shape)
        np.multiply(anchor, scores, out=weighted)
        ctx["logits"] = weighted.sum(axis=1, out=lease("logits", (len(scores),)))

    def _mix_back(self, ctx, lease) -> None:
        d_logits = ctx["d_logits"][:, None]
        d_scores = ctx["d_scores"] = lease("d_scores", ctx["scores"].shape)
        np.multiply(d_logits, ctx["anchor"], out=d_scores)
        d_anchor = ctx["d_anchor_total"] = lease("d_anchor", d_scores.shape)
        np.multiply(d_logits, ctx["scores"], out=d_anchor)
        if ctx["d_anchor"] is not None:
            d_anchor += ctx["d_anchor"]


def _accumulate(ctx: dict, key: str, grad: np.ndarray) -> None:
    """Sum a gradient contribution into ``ctx[key]`` (the first one is
    kept by reference: every contribution is its kernel's own buffer)."""
    if key in ctx:
        ctx[key] += grad
    else:
        ctx[key] = grad


def compile_train_step(model, optimizer) -> CompiledTrainStep:
    """Compile ``model``'s train step against ``optimizer``'s gradient slots,
    with or without the contrastive term and under every augmentation.
    Raises :class:`CompileError` for a model that is not an AW-MoE."""
    if not isinstance(model, AWMoE):
        raise CompileError(f"no train-step compiler for {type(model).__name__}")
    return CompiledTrainStep(model, optimizer)
