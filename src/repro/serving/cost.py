"""Serving-cost models for the deployed pipeline (paper §III-F).

Three cost comparisons live here, all counting multiply-accumulate FLOPs
from the actual layer shapes of a :class:`repro.core.config.ModelConfig`:

* the **gate optimization** (§III-F1): the paper's initial design fed the
  *target item* into the gate network, so the gate had to be recomputed for
  every candidate item in a session; the deployed design feeds only
  user/query-level features, so one gate computation serves all candidates
  — "> 10x saving in computational resource and latency";
* the **behaviour-side factoring**, the same economy one network over: the
  input network's behaviour encoder (MLP^I over the sequence) and query MLP
  never read the candidate either, so the session-factored score plan
  (:mod:`repro.infer`) runs them once per session too;
* the **retrieval cascade** (the stage in front of the ranker in Fig. 6):
  exhaustively scoring a category with the full model versus probing the
  ANN item index, prefiltering, and ranking only the survivors
  (:mod:`repro.retrieval`) — the factor that keeps serving cost sublinear
  in catalog size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.config import ModelConfig
from repro.data.schema import DatasetMeta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.retrieval import CascadeConfig

__all__ = [
    "GateCostReport",
    "CascadeCostReport",
    "mlp_flops",
    "gate_network_flops",
    "model_flops",
    "compare_gate_strategies",
    "compare_retrieval_strategies",
]


def mlp_flops(in_dim: int, layer_sizes: Sequence[int]) -> int:
    """Multiply-accumulate count of one MLP forward pass (2·in·out per layer)."""
    total = 0
    previous = in_dim
    for width in layer_sizes:
        total += 2 * previous * width
        previous = width
    return total


def _item_repr_dim(config: ModelConfig, meta: DatasetMeta) -> int:
    return config.item_embed_dim + config.category_embed_dim + meta.num_item_dense


def gate_network_flops(config: ModelConfig, meta: DatasetMeta, seq_len: int) -> int:
    """FLOPs of one gate-network evaluation over a length-``seq_len`` sequence."""
    hidden = list(config.input_hidden)
    h = hidden[-1]
    item_dim = _item_repr_dim(config, meta)
    key_dim = config.query_embed_dim if config.task == "search" else item_dim
    per_item = (
        mlp_flops(item_dim, hidden)  # behaviour MLP^G
        + mlp_flops(3 * h, list(config.unit_hidden) + [config.num_experts])  # gate unit
        + mlp_flops(3 * h, list(config.unit_hidden) + [1])  # activation unit
        + 2 * config.num_experts  # weighted accumulation
    )
    return seq_len * per_item + mlp_flops(key_dim, hidden)


def input_session_flops(config: ModelConfig, meta: DatasetMeta, seq_len: int) -> int:
    """Input-network FLOPs that never read the candidate: MLP^I over the
    behaviour sequence, plus the query MLP in search mode."""
    hidden = list(config.input_hidden)
    total = seq_len * mlp_flops(_item_repr_dim(config, meta), hidden)
    if config.task == "search":
        total += mlp_flops(config.query_embed_dim, hidden)
    return total


def input_candidate_flops(config: ModelConfig, meta: DatasetMeta, seq_len: int) -> int:
    """Input-network FLOPs every candidate pays: the attention unit over the
    sequence, MLP^I on the target, the other-feature MLP, and the concat."""
    hidden = list(config.input_hidden)
    h = hidden[-1]
    components = 3 if config.task == "search" else 2
    return (
        seq_len * mlp_flops(3 * h, list(config.unit_hidden) + [1])
        + mlp_flops(_item_repr_dim(config, meta), hidden)
        + mlp_flops(meta.num_features, hidden)
        + (components + 1) * h
    )


def expert_flops(config: ModelConfig, meta: DatasetMeta) -> int:
    """FLOPs of all K experts for one impression."""
    components = 3 if config.task == "search" else 2
    v_imp = (components + 1) * config.input_hidden[-1]
    return config.num_experts * mlp_flops(v_imp, list(config.expert_hidden) + [1])


def model_flops(
    config: ModelConfig,
    meta: DatasetMeta,
    seq_len: int,
    gate_per_item: bool,
    items: int,
    behavior_per_item: bool = True,
) -> int:
    """Total session FLOPs for ``items`` candidates: the gate once per item
    or per session, and likewise the session side of the input network."""
    per_item = input_candidate_flops(config, meta, seq_len) + expert_flops(config, meta)
    gate_count = items if gate_per_item else 1
    behavior_count = items if behavior_per_item else 1
    return (
        items * per_item
        + behavior_count * input_session_flops(config, meta, seq_len)
        + gate_count * gate_network_flops(config, meta, seq_len)
    )


@dataclass(frozen=True)
class GateCostReport:
    """Cost comparison between per-item and per-session gate evaluation."""

    items_per_session: int
    seq_len: int
    gate_flops: int
    per_item_total: int
    per_session_total: int
    #: Session side of the input network (one evaluation).
    behavior_flops: int
    #: Session total with gate *and* behaviour side once per session.
    factored_total: int

    @property
    def gate_saving_factor(self) -> float:
        """How many times fewer gate FLOPs the deployed design spends."""
        return float(self.items_per_session)

    @property
    def total_saving_factor(self) -> float:
        """End-to-end session FLOP ratio (per-item / per-session)."""
        return self.per_item_total / self.per_session_total

    @property
    def behavior_saving_factor(self) -> float:
        """Session FLOP ratio the factored score plan adds on top of the
        gate saving (gate per session / gate and behaviour per session)."""
        return self.per_session_total / self.factored_total


def compare_gate_strategies(
    config: ModelConfig, meta: DatasetMeta, items_per_session: int, seq_len: int
) -> GateCostReport:
    """Reproduce §III-F1: gate-once-per-session vs gate-per-item costs."""
    if items_per_session < 1:
        raise ValueError("items_per_session must be >= 1")
    return GateCostReport(
        items_per_session=items_per_session,
        seq_len=seq_len,
        gate_flops=gate_network_flops(config, meta, seq_len),
        per_item_total=model_flops(config, meta, seq_len, gate_per_item=True, items=items_per_session),
        per_session_total=model_flops(
            config, meta, seq_len, gate_per_item=False, items=items_per_session
        ),
        behavior_flops=input_session_flops(config, meta, seq_len),
        factored_total=model_flops(
            config, meta, seq_len, gate_per_item=False, items=items_per_session,
            behavior_per_item=False,
        ),
    )


@dataclass(frozen=True)
class CascadeCostReport:
    """Per-query cost comparison: exhaustive full-model scoring of one
    category versus the two-stage retrieval cascade in front of it."""

    category_size: int
    survivors: int
    stage1_flops: int  # ANN probe: coarse centroids + probed slab rows
    prefilter_flops: int  # linear re-score of the N retrieved candidates
    exhaustive_flops: int  # full model over every category member
    cascade_flops: int  # stage 1 + stage 2 + full model over survivors

    @property
    def ranker_saving_factor(self) -> float:
        """How many times fewer full-model candidates the cascade scores."""
        return self.category_size / max(self.survivors, 1)

    @property
    def total_saving_factor(self) -> float:
        """End-to-end per-query FLOP ratio (exhaustive / cascade)."""
        return self.exhaustive_flops / max(self.cascade_flops, 1)

    def as_dict(self) -> dict:
        return {
            "category_size": self.category_size,
            "survivors": self.survivors,
            "stage1_flops": self.stage1_flops,
            "prefilter_flops": self.prefilter_flops,
            "exhaustive_flops": self.exhaustive_flops,
            "cascade_flops": self.cascade_flops,
            "ranker_saving_factor": self.ranker_saving_factor,
            "total_saving_factor": self.total_saving_factor,
        }


def compare_retrieval_strategies(
    config: ModelConfig,
    meta: DatasetMeta,
    seq_len: int,
    category_size: int,
    cascade: "CascadeConfig",
    vector_dim: int,
    num_cells: int | None = None,
) -> CascadeCostReport:
    """Per-query FLOPs: exhaustive category scan vs the retrieval cascade.

    ``vector_dim`` is the cascade's augmented item-vector width and
    ``num_cells`` the category's IVF cell count (defaults to the index's
    ``ceil(sqrt(members))`` sizing).  Both pipelines pay one evaluation of
    the session gate (§III-F1) and of the input network's session side; the
    difference is how many candidates reach the per-item attention, MLPs
    and experts.
    """
    if category_size < 1:
        raise ValueError("category_size must be >= 1")
    cells = int(num_cells) if num_cells else int(-(-(category_size**0.5) // 1))
    if cascade.nprobe == "all":
        probed_rows = category_size
        coarse = 0
    else:
        probed_rows = min(category_size, -(-(category_size * int(cascade.nprobe)) // cells))
        coarse = cells
    # Mirrors RetrievalCascade.retrieve: exhaustive-parity mode ignores the
    # retrieval depth and passes the whole category through.
    retrieved = category_size if cascade.is_exhaustive else min(cascade.retrieve_n, category_size)
    survivors = retrieved if cascade.prune is None else min(cascade.prune, retrieved)
    per_item = input_candidate_flops(config, meta, seq_len) + expert_flops(config, meta)
    session = gate_network_flops(config, meta, seq_len) + input_session_flops(
        config, meta, seq_len
    )
    stage1 = 2 * vector_dim * (coarse + probed_rows)
    prefilter = 2 * vector_dim * retrieved + 2 * retrieved
    return CascadeCostReport(
        category_size=category_size,
        survivors=survivors,
        stage1_flops=stage1,
        prefilter_flops=prefilter,
        exhaustive_flops=category_size * per_item + session,
        cascade_flops=stage1 + prefilter + survivors * per_item + session,
    )
