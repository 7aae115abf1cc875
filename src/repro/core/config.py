"""Configuration dataclasses for models and training.

``ModelConfig.paper()`` reproduces the layer sizes of the paper's Fig. 3–4
(input MLP 64x32, activation/gate units 32x16, experts 512x256x1, K = 4);
``ModelConfig.small()`` shrinks the experts for CPU-scale runs while keeping
every architectural choice identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

__all__ = ["ModelConfig", "TrainConfig"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters shared by AW-MoE and all baselines."""

    # Embedding dimensions (shared tables: input network and gate network use
    # the same embedding layer, §III-C2).
    item_embed_dim: int = 12
    category_embed_dim: int = 8
    query_embed_dim: int = 12
    # Input network MLP^I hidden sizes (Fig. 3b: "MLP (64x32)").
    input_hidden: Tuple[int, ...] = (64, 32)
    # Activation unit Phi and gate unit Theta hidden sizes (Fig. 4a/4c:
    # "MLP (32x16x{1,K})"); the final width (1 or K) is implied.
    unit_hidden: Tuple[int, ...] = (32, 16)
    # Expert network Psi hidden sizes (Fig. 4b: "MLP (512x256x1)").
    expert_hidden: Tuple[int, ...] = (64, 32)
    # Number of experts K (§IV-D: K = 4).
    num_experts: int = 4
    # "search": the gate reads (behaviour, query); "reco": no query exists,
    # the gate reads (behaviour, target item) instead (§IV-A2).
    task: str = "search"
    # Table VI ablation switches: gate unit (GU) and activation unit (AU).
    gate_use_gate_unit: bool = True
    gate_use_activation_unit: bool = True

    @staticmethod
    def paper(task: str = "search") -> "ModelConfig":
        """Layer sizes exactly as printed in the paper's figures."""
        return ModelConfig(expert_hidden=(512, 256), task=task)

    @staticmethod
    def small(task: str = "search") -> "ModelConfig":
        """CPU-scale preset used by tests, examples, and benchmarks."""
        return ModelConfig(task=task)

    @staticmethod
    def unit(task: str = "search") -> "ModelConfig":
        """Tiny preset for unit tests."""
        return ModelConfig(
            item_embed_dim=6,
            category_embed_dim=4,
            query_embed_dim=6,
            input_hidden=(16, 8),
            unit_hidden=(8, 4),
            expert_hidden=(16, 8),
            task=task,
        )

    def with_gate_ablation(self, use_gate_unit: bool, use_activation_unit: bool) -> "ModelConfig":
        """Return a copy with Table VI's GU/AU switches set."""
        return replace(
            self,
            gate_use_gate_unit=use_gate_unit,
            gate_use_activation_unit=use_activation_unit,
        )

    def __post_init__(self) -> None:
        if self.task not in ("search", "reco"):
            raise ValueError(f"task must be 'search' or 'reco', got {self.task!r}")
        if self.num_experts < 1:
            raise ValueError(f"num_experts must be >= 1, got {self.num_experts}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and contrastive-learning hyper-parameters (§III-D, §IV-D)."""

    epochs: int = 3
    batch_size: int = 256
    # The paper uses AdamW at 1e-4 on a billion-scale dataset; our datasets
    # are 4-5 orders of magnitude smaller, so the default is higher.
    learning_rate: float = 2e-3
    weight_decay: float = 0.01
    # Contrastive learning (§III-D).  Paper-tuned values: p=0.1, l=3, λ=0.05.
    contrastive: bool = False
    mask_prob: float = 0.1
    num_negatives: int = 3
    cl_weight: float = 0.05
    # Behaviour-sequence augmentation: "mask" (paper), "reorder" or "crop"
    # (future-work extensions, §V).
    augmentation: str = "mask"
    # Train through the fused fast path: packed-expert GEMMs, fused
    # linear+bias+ReLU kernels, shared-trunk contrastive views, and a
    # recycled gradient-buffer arena.  ``False`` selects the eager reference
    # path — op for op the original implementation, with bitwise-reproducible
    # loss curves — which the fast path is parity-tested against.
    fast_path: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ValueError(f"mask_prob must be in [0, 1], got {self.mask_prob}")
        if self.num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {self.num_negatives}")
        if self.augmentation not in ("mask", "reorder", "crop"):
            raise ValueError(f"unknown augmentation {self.augmentation!r}")

    def with_contrastive(self, **overrides) -> "TrainConfig":
        """Copy with contrastive learning enabled (Fig. 8 sweeps use this)."""
        merged = {"contrastive": True}
        merged.update(overrides)
        return replace(self, **merged)
