"""Fixtures for the compiled-inference tests: trained/untrained model twins."""

import numpy as np
import pytest

from repro.core import ModelConfig, TrainConfig, build_model, train_model


@pytest.fixture(scope="session")
def infer_trained_state(unit_world_and_data):
    """State dict of one briefly-trained AW-MoE on the unit world."""
    _, train, _ = unit_world_and_data
    model = build_model("aw_moe", ModelConfig.unit(), train.meta, np.random.default_rng(0))
    train_model(
        model, train, TrainConfig(epochs=1, batch_size=64, learning_rate=3e-3), seed=8
    )
    return model.state_dict()


@pytest.fixture()
def make_model(unit_world_and_data, infer_trained_state):
    """Factory for architecture-identical models; ``trained=True`` warm-loads
    the session's trained weights (each call returns an independent copy)."""
    _, train, _ = unit_world_and_data

    def factory(trained: bool = False, init_seed: int = 1):
        model = build_model(
            "aw_moe", ModelConfig.unit(), train.meta, np.random.default_rng(init_seed)
        )
        if trained:
            model.load_state_dict(infer_trained_state)
        return model

    return factory
