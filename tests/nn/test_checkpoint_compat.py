"""Checkpoints written by the per-array AdamW still resume bitwise.

``tests/fixtures/{aw_moe,mmoe}_3steps.npz`` are ``save_training_state``
archives written by the per-array optimizer (one ``m`` / ``v`` array per
parameter, none for a parameter that never had a gradient) after three
train steps; ``{aw_moe,mmoe}_step4.npz`` hold each model's weights after a
fourth.  Loading the archive into the flat-buffer optimizer and taking that
fourth step must reproduce those weights bit for bit.  MMoE trains its first
task only, so its archive has no moments for ``gate1.*``: the missing-key
path.  Regenerate (only ever from a tree whose optimizer is the per-array
one) with ``PYTHONPATH=src python tests/nn/test_checkpoint_compat.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import ModelConfig, TrainConfig, build_model
from repro.core.trainer import build_optimizers, build_strategy, train_step
from repro.nn import GradArena, load_state, load_training_state, save_state, save_training_state

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
BATCH = 32
CONFIGS = {
    "aw_moe": TrainConfig(epochs=1, batch_size=BATCH, learning_rate=3e-3).with_contrastive(),
    "mmoe": TrainConfig(epochs=1, batch_size=BATCH, learning_rate=3e-3),
}


def _model(name, train_set):
    return build_model(name, ModelConfig.unit(), train_set.meta, np.random.default_rng(4))


def _step(name, model, optimizer, train_set, step, arena):
    config = CONFIGS[name]
    batch = train_set.batch_at(np.arange(BATCH * step, BATCH * (step + 1)))
    strategy = build_strategy(config)
    train_step(model, batch, config, optimizer, strategy, np.random.default_rng(100 + step), arena)


def write_fixtures(train_set) -> None:
    for name in CONFIGS:
        model = _model(name, train_set)
        optimizer = build_optimizers(model, CONFIGS[name])
        arena = GradArena()
        for step in range(3):
            _step(name, model, optimizer, train_set, step, arena)
        save_training_state(str(FIXTURES / f"{name}_3steps.npz"), model, optimizer)
        _step(name, model, optimizer, train_set, 3, arena)
        save_state(model.state_dict(), str(FIXTURES / f"{name}_step4.npz"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_per_array_checkpoint_resumes_bitwise(train_set, name):
    model = build_model(name, ModelConfig.unit(), train_set.meta, np.random.default_rng(99))
    optimizer = build_optimizers(model, CONFIGS[name])
    load_training_state(str(FIXTURES / f"{name}_3steps.npz"), model, optimizer)
    _step(name, model, optimizer, train_set, 3, GradArena())
    expected = load_state(str(FIXTURES / f"{name}_step4.npz"))
    assert expected.keys() == model.state_dict().keys()
    for key, value in model.state_dict().items():
        assert value.tobytes() == expected[key].tobytes(), key


def test_mmoe_archive_lacks_moments_of_the_untrained_gate(train_set):
    archive = load_state(str(FIXTURES / "mmoe_3steps.npz"))
    names = [name for name, _ in _model("mmoe", train_set).named_parameters()]
    missing = {i for i in range(len(names)) if f"optim0.m.{i}" not in archive}
    assert missing == {i for i, name in enumerate(names) if name.startswith("gate1.")}
    assert missing


if __name__ == "__main__":
    from repro.data import WorldConfig, make_search_datasets

    write_fixtures(make_search_datasets(WorldConfig.unit(), 400, 150, seed=2)[1])
