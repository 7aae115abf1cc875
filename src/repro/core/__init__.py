"""``repro.core`` — the paper's contribution and the compared models.

``build_model(name, ...)`` constructs any model from the paper's comparison
(Tables II–V) by name: ``"dnn"``, ``"din"``, ``"category_moe"``, ``"aw_moe"``
(``"aw_moe_cl"`` is the same architecture; the contrastive loss is a training
flag, see :class:`repro.core.config.TrainConfig`).
"""

from __future__ import annotations

import numpy as np

from repro.core.activation_unit import ActivationUnit
from repro.core.aw_moe import AWMoE
from repro.core.baselines import DIN, DNN, CategoryMoE, MMoE
from repro.core.config import ModelConfig, TrainConfig
from repro.core.contrastive import ContrastiveStrategy
from repro.core.expert import Expert, ExpertPool
from repro.core.gate_network import GateNetwork
from repro.core.gate_unit import GateUnit
from repro.core.input_network import FeatureEmbedder, InputNetwork
from repro.core.ranking_model import RankingModel
from repro.core.trainer import build_optimizers, build_strategy, train_model, train_step
from repro.data.schema import DatasetMeta

__all__ = [
    "ActivationUnit",
    "AWMoE",
    "CategoryMoE",
    "ContrastiveStrategy",
    "DIN",
    "DNN",
    "DatasetMeta",
    "Expert",
    "ExpertPool",
    "FeatureEmbedder",
    "GateNetwork",
    "GateUnit",
    "InputNetwork",
    "MMoE",
    "ModelConfig",
    "RankingModel",
    "TrainConfig",
    "build_model",
    "build_optimizers",
    "build_strategy",
    "train_model",
    "train_step",
]

_MODELS = {
    "dnn": DNN,
    "din": DIN,
    "category_moe": CategoryMoE,
    "aw_moe": AWMoE,
    "mmoe": MMoE,
}


def build_model(
    name: str, config: ModelConfig, meta: DatasetMeta, rng: np.random.Generator
) -> RankingModel:
    """Instantiate a compared ranking model by name."""
    try:
        model_cls = _MODELS[name]
    except KeyError:
        known = ", ".join(sorted(_MODELS))
        raise KeyError(f"unknown ranking model {name!r}; known: {known}") from None
    return model_cls(config, meta, rng)
