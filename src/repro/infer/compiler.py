"""The inference compiler: eager model → flat fused :class:`InferencePlan`.

``compile_model`` traces a model's forward structure once, packs every weight
into contiguous arrays of the plan dtype, and emits two plans:

* a **gate plan** — the candidate-independent subgraph (§III-F1).  In search
  mode the gate reads only the behaviour sequence and the query, so the
  serving session cache can run this plan once per session and feed the
  result straight back through ``gate_override``;
* a **score plan** — input network + experts + the gate-weighted mixture,
  taking the gate as an input (either the gate plan's output or a cached
  override).

Differences from the eager ``Tensor`` forward, and why they are safe:

* weights are packed **once** (contiguous, float32 by default) instead of
  being re-read through ``Parameter`` wrappers;
* the gate plan's two units share one ``[h ‖ h⊙key ‖ key]`` input instead
  of building it twice (bitwise-identical values);
* the K expert heads run as one packed GEMM per layer
  (:class:`~repro.infer.kernels.PackedExperts`) instead of K small matmuls;
* on a :class:`~repro.data.schema.SessionBatch` the query side runs
  **once per session** and the behaviour side on the **valid history
  positions only**, packed session-major by one nonzero scan of
  ``behavior_mask`` per plan run (P = Σ L_s rows, not S·M): the eager
  units multiply padded positions by a zero mask, so no term of Eq. 3 or
  Eq. 6–8 is dropped.  The attention unit's first layer is split so the
  pairwise buffer is never built (:class:`~repro.infer.kernels.
  FactoredUnit`), its pooling is one ``(n_s, L_s) @ (L_s, H)`` GEMM per
  session, and the gate plan pools its packed rows with a segment sum.  A
  flat :data:`~repro.data.schema.Batch` runs row for row over all M
  positions, masked as the eager forward masks them;
* every intermediate lives in a :class:`~repro.infer.plan.BufferArena`
  buffer (packed row counts at :func:`~repro.infer.plan.rows_capacity`),
  so steady-state execution allocates nothing.

``dtype=np.float64`` selects **parity mode**: fusions that could change
floating-point evaluation order (the packed expert GEMM, the packed and
factored session side) are disabled — a session batch is expanded to flat
rows first — and the plan replays the exact eager op order, making compiled
scores bitwise equal to a float64 eager forward — the compiler's
correctness oracle (``tests/infer/test_parity.py``).  Fused float32 never
evaluates padding and sums in another order; it stays within 1e-4 of eager.

Models that are not an :class:`~repro.core.aw_moe.AWMoE` raise
:class:`CompileError`, which the serving stack treats as "fall back to the
eager forward".
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.aw_moe import AWMoE
from repro.infer.kernels import (
    CompileError,
    FactoredUnit,
    PackedExperts,
    PackedMLP,
    expand_rows,
    gather_rows,
    sigmoid_,
    sparsify_top_k_,
)
from repro.infer.plan import BufferArena, InferencePlan, PlanStep

__all__ = [
    "CompileError",
    "CompiledModel",
    "compile_model",
    "float64_twin",
]


def _pack_flops(pack: PackedMLP) -> int:
    """Per-row MAC count of a packed MLP, via the §III-F cost model's
    arithmetic (``repro.serving.cost.mlp_flops`` over the packed shapes) —
    the number each kernel span carries.
    """
    # Lazy import: repro.serving imports repro.infer at package-init time,
    # so a module-level import here would be order-sensitive.
    from repro.serving.cost import mlp_flops

    return mlp_flops(pack.in_features, [weight.shape[1] for weight, _ in pack.layers])


def compile_model(model, dtype=np.float32) -> "CompiledModel":
    """Compile ``model``'s forward into an allocation-free inference plan.

    Any :class:`~repro.core.aw_moe.AWMoE` compiles; the sparse-gate
    extension is a subclass whose ``top_k`` the gate plan picks up from the
    instance (its cached gates are stored post-sparsification).
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise CompileError(f"unsupported plan dtype {dtype}")
    if not isinstance(model, AWMoE):
        raise CompileError(
            f"no inference compiler for {type(model).__name__}; "
            "serving falls back to the eager forward"
        )
    parity = dtype == np.dtype(np.float64)
    gate_plan = _build_gate_plan(model, dtype, parity, top_k=getattr(model, "top_k", None))
    score_plan = _build_score_plan(model, dtype, parity)
    return CompiledModel(model, gate_plan, score_plan, dtype)


def float64_twin(model):
    """A deep copy of ``model`` with every parameter upcast to float64.

    The parity harness runs this twin eagerly and demands bitwise equality
    with the float64 compiled plan — float32→float64 casts are exact, so the
    twin and the plan share identical weights.
    """
    twin = copy.deepcopy(model)
    for param in twin.parameters():
        param.data = param.data.astype(np.float64)
    return twin


# ----------------------------------------------------------------------
# shared step builders
# ----------------------------------------------------------------------
def _mask32(ctx: dict, arena: BufferArena, step: str) -> np.ndarray:
    """The behaviour mask as float32, mirroring the eager ``np.asarray``
    coercion (no copy when the batch already carries float32)."""
    mask = ctx["batch"]["behavior_mask"]
    if mask.dtype == np.float32:
        return mask
    buf = arena.lease(step, "mask32", mask.shape, dtype=np.float32)
    buf[...] = mask
    return buf


class _Packed(NamedTuple):
    """A factored batch's valid behaviour positions, session-major: ``at``
    their flat ``(session, position)`` indices, and ``blocks`` one
    ``(s, start, stop, lo, hi)`` per session ``s`` with a history —
    candidate rows ``start:stop``, packed rows ``lo:hi``."""

    at: np.ndarray
    blocks: List[Tuple[int, int, int, int, int]]


def _packed(ctx: dict) -> _Packed:
    """The run's packed positions: one nonzero scan of the flattened
    behaviour mask per plan run, shared by every step that reads it.  A
    position is valid where the mask is nonzero — the 0/1 mask the
    assembler writes."""
    packed = ctx.get("packed")
    if packed is None:
        mask = ctx["batch"]["behavior_mask"]
        sessions, seq_len = mask.shape
        at = mask.reshape(-1).nonzero()[0]
        offsets = at.searchsorted(np.arange(0, sessions * seq_len + 1, seq_len)).tolist()
        bounds = ctx["factored"]
        blocks = [
            (s, *block)
            for s, block in enumerate(zip(bounds, bounds[1:], offsets, offsets[1:]))
            if block[3] > block[2]
        ]
        packed = ctx["packed"] = _Packed(at, blocks)
    return packed


def _embed_concat_step(
    name: str,
    arena: BufferArena,
    tables: List[Tuple[np.ndarray, str]],
    dense_key: Optional[str],
    dense_dim: int,
    out_key: str,
    packed: bool = False,
) -> PlanStep:
    """Fused gather+concat: id embeddings and dense profile features written
    straight into one representation buffer (the eager path's ``Embedding``
    lookups plus ``concat``).  ``packed`` steps read the behaviour sequence
    and, on a factored batch, gather its valid positions only: (P, D)."""
    widths = [table.shape[1] for table, _ in tables]
    total = sum(widths) + dense_dim

    def fn(ctx: dict) -> None:
        batch = ctx["batch"]
        at = _packed(ctx).at if packed and ctx["factored"] is not None else None
        lead = batch[tables[0][1]].shape if at is None else at.shape  # (B,), (B, M) or (P,)
        out = (arena.lease if at is None else arena.lease_rows)(name, "out", lead + (total,))
        offset = 0
        for (table, key), width in zip(tables, widths):
            ids = batch[key] if at is None else batch[key].take(at)
            gather_rows(table, ids, out[..., offset : offset + width])
            offset += width
        if dense_key is not None and at is None:
            out[..., offset:] = batch[dense_key]
        elif dense_key is not None:
            gather_rows(batch[dense_key].reshape(-1, dense_dim), at, out[:, offset:])
        ctx[out_key] = out

    return PlanStep(name, "embed", fn, writes=(out_key,))


def _mlp_step(
    name: str,
    arena: BufferArena,
    pack: PackedMLP,
    in_key: str,
    out_key: str,
    packed: bool = False,
) -> PlanStep:
    """Fused matmul+bias+ReLU chain; 3-D inputs run as one flat GEMM.
    ``packed`` steps lease a factored batch's positions at row capacity."""

    binder = arena.binder(name)
    rows_binder = arena.row_binder(name) if packed else binder

    def fn(ctx: dict) -> None:
        x = ctx[in_key]
        shape = x.shape
        flat = x.reshape(-1, shape[-1]) if x.ndim != 2 else x
        out = pack.run(flat, binder if ctx["factored"] is None else rows_binder)
        if x.ndim != 2:
            out = out.reshape(shape[:-1] + (pack.out_features,))
        ctx[out_key] = out

    return PlanStep(name, "mlp", fn, writes=(out_key,), flops=_pack_flops(pack))


def _batch_mlp_step(name: str, arena: BufferArena, pack: PackedMLP, batch_key: str, out_key: str) -> PlanStep:
    """MLP whose input comes directly from a batch array (dense features)."""

    binder = arena.binder(name)

    def fn(ctx: dict) -> None:
        ctx[out_key] = pack.run(ctx["batch"][batch_key], binder)

    return PlanStep(name, "mlp", fn, writes=(out_key,), flops=_pack_flops(pack))


def _pairwise_step(name: str, arena: BufferArena, seq_key: str, key_key: str, out_key: str) -> PlanStep:
    """Attention-unit input ``[h ‖ h⊙key ‖ key]`` — built once and shared by
    the gate and activation units (the eager path materializes it twice).
    On a factored batch: one row per packed position, keyed by its session."""

    def fn(ctx: dict) -> None:
        h_seq, h_key = ctx[seq_key], ctx[key_key]
        hidden = h_seq.shape[-1]
        factored = ctx["factored"] is not None
        lease = arena.lease_rows if factored else arena.lease
        out = lease(name, "pw", h_seq.shape[:-1] + (3 * hidden,))
        out[..., :hidden] = h_seq
        key = out[..., 2 * hidden :]
        if factored:  # (P, 3H): each position keyed by its session
            for s, _, _, lo, hi in _packed(ctx).blocks:
                key[lo:hi] = h_key[s]
        else:  # (B, M, 3H): the key broadcast over M
            key[...] = h_key[:, None, :]
        np.multiply(h_seq, key, out=out[..., hidden : 2 * hidden])
        ctx[out_key] = out

    return PlanStep(name, "attention", fn, writes=(out_key,))


def _unit_scores_step(
    name: str,
    arena: BufferArena,
    pack: PackedMLP,
    pairwise_key: str,
    out_key: str,
    squeeze: bool,
) -> PlanStep:
    """Activation/gate-unit MLP over the pairwise input, masked at padding —
    or over the packed positions of a factored batch, which hold none."""

    binder = arena.binder(name)
    rows_binder = arena.row_binder(name)

    def fn(ctx: dict) -> None:
        pw = ctx[pairwise_key]
        if ctx["factored"] is not None:
            out = pack.run(pw, rows_binder)
            ctx[out_key] = out.reshape(-1) if squeeze else out
            return
        batch, seq_len, width = pw.shape
        out = pack.run(pw.reshape(batch * seq_len, width), binder)
        mask = _mask32(ctx, arena, name)
        if squeeze:
            scores = out.reshape(batch, seq_len)
            np.multiply(scores, mask, out=scores)
        else:
            scores = out.reshape(batch, seq_len, pack.out_features)
            np.multiply(scores, mask[:, :, None], out=scores)
        ctx[out_key] = scores

    return PlanStep(
        name,
        "attention",
        fn,
        writes=(out_key,),
        flops=_pack_flops(pack),
    )


def _concat_step(
    name: str,
    arena: BufferArena,
    part_keys: List[str],
    widths: List[int],
    out_key: str,
    session_keys: Tuple[str, ...] = (),
) -> PlanStep:
    """Column-wise concat; ``session_keys`` name the parts that hold one row
    per session on a factored batch and are broadcast to its candidates."""
    total = sum(widths)

    def fn(ctx: dict) -> None:
        first = ctx[part_keys[0]]
        bounds = ctx["factored"]
        out = arena.lease(name, "out", (first.shape[0], total))
        offset = 0
        for key, width in zip(part_keys, widths):
            if bounds is not None and key in session_keys:
                expand_rows(ctx[key], bounds, out[:, offset : offset + width])
            else:
                out[:, offset : offset + width] = ctx[key]
            offset += width
        ctx[out_key] = out

    return PlanStep(name, "concat", fn, writes=(out_key,))


def _pool_positions(
    ctx: dict, arena: BufferArena, step: str, x: np.ndarray, weights: Optional[np.ndarray]
) -> np.ndarray:
    """Eq. 3 / Eq. 8's (``weights``-weighted) sum of ``x`` over each row's
    positions: axis 1 of a padded (B, M, C) buffer, or a segment sum of
    packed (P, C) rows.  ``np.add.reduceat`` sees only sessions with a
    history (it returns the *element* at an empty segment's start)."""
    bounds = ctx["factored"]
    if weights is not None:
        weighted = (arena.lease if bounds is None else arena.lease_rows)(step, "weighted", x.shape)
        x = np.multiply(x, weights[..., None], out=weighted)
    if bounds is None:
        out = arena.lease(step, "sum", (x.shape[0], x.shape[-1]))
        return x.sum(axis=1, out=out)
    out = arena.lease(step, "sum", (len(bounds) - 1, x.shape[-1]))
    blocks = _packed(ctx).blocks
    starts = [lo for _, _, _, lo, _ in blocks]
    if len(starts) == len(out):
        return np.add.reduceat(x, starts, axis=0, out=out)
    out[...] = 0
    if starts:
        out[[s for s, *_ in blocks]] = np.add.reduceat(x, starts, axis=0)
    return out


# ----------------------------------------------------------------------
# AW-MoE compiler
# ----------------------------------------------------------------------
def _pack_embedder(embedder, dtype) -> Dict[str, np.ndarray]:
    # np.array (not asarray): plans are weight snapshots, never aliases.
    return {
        "item": np.array(embedder.item.weight.detach_numpy(), dtype=dtype, order="C"),
        "category": np.array(embedder.category.weight.detach_numpy(), dtype=dtype, order="C"),
        "query": np.array(embedder.query.weight.detach_numpy(), dtype=dtype, order="C"),
    }


def _build_score_plan(model, dtype: np.dtype, parity: bool) -> InferencePlan:
    """Input network + experts + gate-weighted mix (reads ctx['gate'])."""
    arena = BufferArena(dtype)
    net = model.input_network
    tables = _pack_embedder(model.embedder, dtype)
    dense_dim = int(model.embedder.item_repr_dim - tables["item"].shape[1] - tables["category"].shape[1])
    hidden = net.hidden_dim

    steps: List[PlanStep] = [
        _embed_concat_step(
            "input.behavior_repr",
            arena,
            [(tables["item"], "behavior_items"), (tables["category"], "behavior_categories")],
            "behavior_dense",
            dense_dim,
            "behavior_repr",
            packed=True,
        ),
        _embed_concat_step(
            "input.target_repr",
            arena,
            [(tables["item"], "target_item"), (tables["category"], "target_category")],
            "target_dense",
            dense_dim,
            "target_repr",
        ),
    ]
    behavior_pack = PackedMLP.from_module(net.behavior_mlp, dtype)
    steps.append(_mlp_step("input.h_target", arena, behavior_pack, "target_repr", "h_target"))
    steps.append(
        _mlp_step("input.h_behavior", arena, behavior_pack, "behavior_repr", "h_behavior", True)
    )

    if net.pooling != "attention":  # pragma: no cover - AW-MoE always pools by attention
        raise CompileError(f"unsupported input pooling {net.pooling!r}")
    att_pack = PackedMLP.from_module(net.attention.mlp, dtype)
    # Row for row: the eager unit — pairwise input, unit MLP, mask.
    att_pairwise = _pairwise_step("input.att_weights", arena, "h_behavior", "h_target", "att_pw")
    att_unit = _unit_scores_step(
        "input.att_weights", arena, att_pack, "att_pw", "att_weights", squeeze=True
    )
    att_factored = FactoredUnit(att_pack, hidden)
    att_binder = arena.row_binder("input.att_weights")

    def att_fn(ctx: dict) -> None:
        bounds = ctx["factored"]
        if bounds is None:
            att_pairwise.fn(ctx)
            att_unit.fn(ctx)
            return
        blocks = _packed(ctx).blocks
        scores = att_factored.run(ctx["h_behavior"], ctx["h_target"], blocks, att_binder)
        ctx["att_weights"] = scores.reshape(-1)  # (candidate, position) pairs

    steps.append(
        PlanStep(
            "input.att_weights",
            "attention",
            att_fn,
            writes=("att_weights",),
            flops=_pack_flops(att_pack),
        )
    )

    def pool_fn(ctx: dict) -> None:
        h_behavior, weights = ctx["h_behavior"], ctx["att_weights"]
        bounds = ctx["factored"]
        if bounds is None:
            ctx["v_user"] = _pool_positions(ctx, arena, "input.v_user", h_behavior, weights)
            return
        # Eq. 3 per session: its candidates' (n_s, L_s) weights pool its
        # L_s packed positions in one GEMM; an empty history pools to 0.
        out = arena.lease("input.v_user", "out", (bounds[-1], hidden))
        blocks = _packed(ctx).blocks
        if len(blocks) < len(bounds) - 1:
            out[...] = 0
        cursor = 0
        for _, start, stop, lo, hi in blocks:
            end = cursor + (stop - start) * (hi - lo)
            pairs = weights[cursor:end].reshape(stop - start, hi - lo)
            np.matmul(pairs, h_behavior[lo:hi], out=out[start:stop])
            cursor = end
        ctx["v_user"] = out

    steps.append(PlanStep("input.v_user", "pool", pool_fn, writes=("v_user",)))

    other_pack = PackedMLP.from_module(net.other_mlp, dtype)
    steps.append(_batch_mlp_step("input.h_other", arena, other_pack, "other_features", "h_other"))

    part_keys = ["v_user", "h_target"]
    if net.query_mlp is not None:
        query_pack = PackedMLP.from_module(net.query_mlp, dtype)
        steps.append(
            _embed_concat_step(
                "input.query_repr", arena, [(tables["query"], "query")], None, 0, "query_repr"
            )
        )
        steps.append(_mlp_step("input.h_query", arena, query_pack, "query_repr", "h_query"))
        part_keys.append("h_query")
    part_keys.append("h_other")
    steps.append(
        _concat_step(
            "input.v_imp", arena, part_keys, [hidden] * len(part_keys), "v_imp",
            session_keys=("h_query",),
        )
    )

    num_experts = model.experts.num_experts
    if parity:
        expert_packs = [
            (PackedMLP.from_module(e.mlp, dtype), arena.binder(f"experts.k{k}"))
            for k, e in enumerate(model.experts._experts)
        ]

        def experts_fn(ctx: dict) -> None:
            v_imp = ctx["v_imp"]
            scores = arena.lease("experts", "scores", (v_imp.shape[0], num_experts))
            for k, (pack, binder) in enumerate(expert_packs):
                out = pack.run(v_imp, binder)
                scores[:, k] = out[:, 0]
            ctx["expert_scores"] = scores

        experts_flops = sum(_pack_flops(pack) for pack, _ in expert_packs)
        steps.append(
            PlanStep(
                "experts",
                "experts",
                experts_fn,
                writes=("expert_scores",),
                flops=experts_flops,
            )
        )
    else:
        packed = PackedExperts(model.experts._experts, dtype)

        experts_binder = arena.binder("experts")

        def experts_fn(ctx: dict) -> None:
            ctx["expert_scores"] = packed.run(ctx["v_imp"], experts_binder)

        # All K experts share one architecture; the fused GEMMs perform the
        # same MACs as K independent forwards.
        experts_flops = num_experts * sum(
            2 * weight.shape[0] * weight.shape[1] for weight in packed.widths
        )
        steps.append(
            PlanStep(
                "experts",
                "experts",
                experts_fn,
                writes=("expert_scores",),
                flops=experts_flops,
            )
        )

    def mix_fn(ctx: dict) -> None:
        scores, gate, bounds = ctx["expert_scores"], ctx["gate"], ctx["bounds"]
        if bounds is not None and gate.shape[0] == len(bounds) - 1:
            # One gate row per session (§III-F1), applied to its candidates.
            per_row = arena.lease("mix", "gate", scores.shape, dtype=gate.dtype)
            gate = expand_rows(gate, bounds, per_row)
        weighted = arena.lease("mix", "weighted", scores.shape)
        np.multiply(gate, scores, out=weighted)
        logits = arena.lease("mix", "logits", (scores.shape[0],))
        weighted.sum(axis=1, out=logits)
        ctx["logits"] = logits

    steps.append(PlanStep("mix", "mix", mix_fn, writes=("logits",)))

    inputs = ["behavior_items", "behavior_categories", "behavior_dense", "behavior_mask",
              "target_item", "target_category", "target_dense", "other_features"]
    if net.query_mlp is not None:
        inputs.append("query")
    return InferencePlan("score", steps, "logits", arena, tuple(inputs), expand_sessions=parity)


def _build_gate_plan(
    model, dtype: np.dtype, parity: bool, top_k: Optional[int] = None
) -> InferencePlan:
    """The candidate-independent gate subgraph ``g`` (Eq. 6–8).

    In search mode this plan never touches the target item, which is what
    lets the session cache evaluate it once per (user, query) and reuse the
    vector for every candidate — the §III-F1 deployed optimization: on a
    session batch it emits one gate row per session.  Keyed on the target
    item (reco mode), or replaying the eager order (parity), it emits one
    row per candidate.
    """
    arena = BufferArena(dtype)
    gate = model.gate
    config = model.config
    tables = _pack_embedder(model.embedder, dtype)
    dense_dim = int(model.embedder.item_repr_dim - tables["item"].shape[1] - tables["category"].shape[1])
    hidden = gate.hidden_dim

    steps: List[PlanStep] = [
        _embed_concat_step(
            "gate.behavior_repr",
            arena,
            [(tables["item"], "behavior_items"), (tables["category"], "behavior_categories")],
            "behavior_dense",
            dense_dim,
            "behavior_repr",
            packed=True,
        ),
    ]
    behavior_pack = PackedMLP.from_module(gate.behavior_mlp, dtype)
    steps.append(
        _mlp_step("gate.h_behavior", arena, behavior_pack, "behavior_repr", "h_behavior", True)
    )

    if config.task == "search":
        steps.append(
            _embed_concat_step("gate.key_repr", arena, [(tables["query"], "query")], None, 0, "key_repr")
        )
        key_inputs = ["query"]
    else:
        steps.append(
            _embed_concat_step(
                "gate.key_repr",
                arena,
                [(tables["item"], "target_item"), (tables["category"], "target_category")],
                "target_dense",
                dense_dim,
                "key_repr",
            )
        )
        key_inputs = ["target_item", "target_category", "target_dense"]
    key_pack = PackedMLP.from_module(gate.key_mlp, dtype)
    steps.append(_mlp_step("gate.h_key", arena, key_pack, "key_repr", "h_key"))

    def counts_fn(ctx: dict) -> None:
        mask = _mask32(ctx, arena, "gate.counts")
        counts = arena.lease("gate.counts", "counts", (mask.shape[0], 1), dtype=np.float32)
        mask.sum(axis=1, keepdims=True, out=counts)
        np.maximum(counts, 1.0, out=counts)
        inv = arena.lease("gate.counts", "inv", (mask.shape[0], 1), dtype=np.float32)
        np.divide(1.0, counts, out=inv)
        ctx["inv_counts"] = inv

    steps.append(PlanStep("gate.counts", "pool", counts_fn, writes=("inv_counts",)))

    steps.append(_pairwise_step("gate.pairwise", arena, "h_behavior", "h_key", "gate_pw"))

    if gate.gate_unit is not None:
        gu_pack = PackedMLP.from_module(gate.gate_unit.mlp, dtype)
        steps.append(
            _unit_scores_step("gate.item_scores", arena, gu_pack, "gate_pw", "item_scores", squeeze=False)
        )
        if gate.activation_unit is not None:
            au_pack = PackedMLP.from_module(gate.activation_unit.mlp, dtype)
            steps.append(
                _unit_scores_step("gate.att_weights", arena, au_pack, "gate_pw", "att_weights", squeeze=True)
            )

        def pool_fn(ctx: dict) -> None:
            scores, weights = ctx["item_scores"], ctx.get("att_weights")
            out = _pool_positions(ctx, arena, "gate.pool", scores, weights)
            ctx["gate"] = np.multiply(out, ctx["inv_counts"], out=out)

        steps.append(PlanStep("gate.pool", "pool", pool_fn, writes=("gate",)))
    else:
        # Ablation variants (Table VI "Base"/"Base+AU"): pooled behaviour ‖ key -> FFN.
        pooled_pack = PackedMLP.from_module(gate.pooled_mlp, dtype)
        if gate.activation_unit is not None:
            au_pack = PackedMLP.from_module(gate.activation_unit.mlp, dtype)
            steps.append(
                _unit_scores_step("gate.att_weights", arena, au_pack, "gate_pw", "att_weights", squeeze=True)
            )

        def pooled_fn(ctx: dict) -> None:
            weights = ctx.get("att_weights")
            if weights is None and ctx["factored"] is None:  # padded: mask
                weights = _mask32(ctx, arena, "gate.pooled")
            out = _pool_positions(ctx, arena, "gate.pooled", ctx["h_behavior"], weights)
            ctx["pooled"] = np.multiply(out, ctx["inv_counts"], out=out)

        steps.append(PlanStep("gate.pooled", "pool", pooled_fn, writes=("pooled",)))
        steps.append(_concat_step("gate.pooled_cat", arena, ["pooled", "h_key"], [hidden, hidden], "pooled_cat"))
        steps.append(_mlp_step("gate.pooled_mlp", arena, pooled_pack, "pooled_cat", "gate"))

    bias = np.array(gate.bias.detach_numpy(), dtype=dtype, order="C")

    def bias_fn(ctx: dict) -> None:
        ctx["gate"] += bias

    steps.append(PlanStep("gate.bias", "bias", bias_fn, writes=("gate",)))

    if top_k is not None:

        def sparsify_fn(ctx: dict) -> None:
            out = ctx["gate"]
            scratch_sorted = arena.lease("gate.topk", "sorted", out.shape)
            scratch_drop = arena.lease("gate.topk", "drop", out.shape, dtype=np.bool_)
            sparsify_top_k_(out, top_k, scratch_sorted, scratch_drop)

        steps.append(PlanStep("gate.topk", "sparsify", sparsify_fn, writes=("gate",)))

    inputs = ["behavior_items", "behavior_categories", "behavior_dense", "behavior_mask"] + key_inputs
    return InferencePlan(
        "gate", steps, "gate", arena, tuple(inputs),
        expand_sessions=parity or config.task != "search",
    )


class CompiledModel:
    """A model frozen for serving: gate plan + score plan + packed weights.

    Mirrors the :class:`~repro.core.ranking_model.RankingModel` inference
    surface (``predict_logits`` / ``predict_proba`` / ``expert_scores`` /
    ``serving_gate``) so the serving stack and the canary gate can swap it
    in wherever an eager model scored before; ``source`` is the eager model
    it was compiled from.
    """

    def __init__(
        self,
        source,
        gate_plan: InferencePlan,
        score_plan: InferencePlan,
        dtype: np.dtype,
    ) -> None:
        self.source = source
        self.gate_plan = gate_plan
        self.score_plan = score_plan
        self.dtype = np.dtype(dtype)

    # -- scoring --------------------------------------------------------
    def _resolve_gate(self, batch, gate_override) -> np.ndarray:
        if gate_override is not None:
            # Cached session gates arrive as float32 exactly like the eager
            # ``AWMoE.forward_with_gate``; mixed-dtype multiply promotes identically.
            return np.asarray(gate_override, dtype=np.float32)
        return self.gate_plan.run(batch)

    def predict_logits(self, batch, gate_override=None, copy: bool = True) -> np.ndarray:
        """Raw logits ``Σ_k g_k s_k``, one per candidate row.

        ``batch`` is a flat :data:`~repro.data.schema.Batch` or a
        :class:`~repro.data.schema.SessionBatch`; a ``gate_override`` for
        the latter has one row per session (any other leading dim must
        broadcast against the candidate rows).

        ``copy=False`` returns the arena buffer itself, valid only until the
        next call on this plan — an opt-in zero-allocation path for callers
        that consume scores immediately.  The default copies, and every
        stock caller (the serving engine included) keeps it: results may
        outlive the next flush, so the copy is load-bearing.
        """
        gate = self._resolve_gate(batch, gate_override)
        logits = self.score_plan.run(batch, gate=gate)
        return logits.copy() if copy else logits

    def predict_proba(self, batch, gate_override=None, copy: bool = True) -> np.ndarray:
        """Predicted probabilities ``σ(logits)`` (same contract as eager)."""
        logits = self.predict_logits(batch, gate_override=gate_override, copy=False)
        sigmoid_(logits)
        return logits.copy() if copy else logits

    def expert_scores(self, batch) -> np.ndarray:
        """Per-expert scores ``s`` (rows, K) of a flat or a session batch, as
        the eager ``AWMoE.expert_scores``: the score plan short of its mix."""
        return self.score_plan.run(batch, output="expert_scores").copy()

    def serving_gate(self, batch) -> np.ndarray:
        """Cache-ready gate matrix — one row per session of a session batch
        (per row of a flat one); always a fresh copy, because the session
        cache retains it across future plan executions."""
        return self.gate_plan.run(batch).copy()

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Arena and call accounting for benchmarks and tests."""
        return {
            "dtype": str(self.dtype),
            "score": {
                "steps": self.score_plan.num_steps,
                "calls": self.score_plan.calls,
                "arena_buffers": self.score_plan.arena.num_buffers,
                "arena_bytes": self.score_plan.arena.nbytes,
                "arena_hits": self.score_plan.arena.hits,
                "arena_misses": self.score_plan.arena.misses,
            },
            "gate": {
                "steps": self.gate_plan.num_steps,
                "calls": self.gate_plan.calls,
                "arena_buffers": self.gate_plan.arena.num_buffers,
                "arena_bytes": self.gate_plan.arena.nbytes,
                "arena_hits": self.gate_plan.arena.hits,
                "arena_misses": self.gate_plan.arena.misses,
            },
        }

    def __repr__(self) -> str:
        return (
            f"CompiledModel({type(self.source).__name__}, dtype={self.dtype}, "
            f"score_steps={self.score_plan.num_steps}, gate_steps={self.gate_plan.num_steps})"
        )
