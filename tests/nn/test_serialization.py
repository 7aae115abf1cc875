"""Checkpoint save/load round trips (parameters, optimizer state, training state)."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    AdamW,
    Tensor,
    load_module,
    load_optimizer_state,
    load_state,
    load_training_state,
    optimizer_state,
    save_module,
    save_state,
    save_training_state,
)

RNG = np.random.default_rng(11)


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        state = {"a.weight": RNG.random((3, 2)), "b": np.zeros(4)}
        path = str(tmp_path / "ckpt.npz")
        save_state(state, path)
        loaded = load_state(path)
        assert set(loaded) == set(state)
        assert np.allclose(loaded["a.weight"], state["a.weight"])

    def test_extension_appended_on_load(self, tmp_path):
        path = str(tmp_path / "model")
        save_state({"x": np.ones(2)}, path)
        loaded = load_state(path)  # no .npz given
        assert np.allclose(loaded["x"], 1.0)

    def test_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "ckpt")
        save_state({"x": np.ones(1)}, path)
        assert np.allclose(load_state(path)["x"], 1.0)


def mse_loss(predictions, targets):
    diff = predictions - targets
    return (diff * diff).mean()


def _train_steps(model, optimizer, steps, seed):
    """Deterministic regression steps so optimizer state evolves."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x = Tensor(rng.random((8, 4)).astype(np.float32))
        y = Tensor(rng.random((8, 2)).astype(np.float32))
        loss = mse_loss(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()


class TestOptimizerState:
    def test_adamw_state_round_trip(self):
        model = MLP(4, [8, 2], np.random.default_rng(0))
        optimizer = AdamW(model.parameters(), lr=1e-3)
        _train_steps(model, optimizer, 5, seed=1)
        state = optimizer_state(optimizer)
        assert int(state["step_count"]) == 5

        clone_model = MLP(4, [8, 2], np.random.default_rng(0))
        clone_model.load_state_dict(model.state_dict())
        clone_optimizer = AdamW(clone_model.parameters(), lr=1e-3)
        load_optimizer_state(clone_optimizer, state)
        assert clone_optimizer._step_count == 5
        clone_state = optimizer_state(clone_optimizer)
        assert clone_state.keys() == state.keys()
        for name, value in state.items():
            np.testing.assert_array_equal(value, clone_state[name], err_msg=name)
        for index in range(len(optimizer.params)):
            np.testing.assert_array_equal(optimizer._m[index], clone_optimizer._m[index])
            np.testing.assert_array_equal(optimizer._v[index], clone_optimizer._v[index])

    def test_save_load_continue_training_equivalence(self, tmp_path):
        """The satellite requirement: save → load → continue training is
        identical to uninterrupted training (moments + step counts survive)."""
        reference = MLP(4, [8, 2], np.random.default_rng(0))
        ref_optimizer = AdamW(reference.parameters(), lr=1e-3)
        _train_steps(reference, ref_optimizer, 10, seed=1)

        interrupted = MLP(4, [8, 2], np.random.default_rng(0))
        int_optimizer = AdamW(interrupted.parameters(), lr=1e-3)
        rng = np.random.default_rng(1)
        for _ in range(6):  # same stream as _train_steps' first 6 draws
            x = Tensor(rng.random((8, 4)).astype(np.float32))
            y = Tensor(rng.random((8, 2)).astype(np.float32))
            loss = mse_loss(interrupted(x), y)
            int_optimizer.zero_grad()
            loss.backward()
            int_optimizer.step()
        path = str(tmp_path / "training")
        save_training_state(path, interrupted, [int_optimizer], extra={"epoch": 3})

        resumed = MLP(4, [8, 2], np.random.default_rng(99))
        res_optimizer = AdamW(resumed.parameters(), lr=1e-3)
        extra = load_training_state(path, resumed, [res_optimizer])
        assert extra == {"epoch": 3.0}
        for _ in range(4):  # finish the remaining steps on the same stream
            x = Tensor(rng.random((8, 4)).astype(np.float32))
            y = Tensor(rng.random((8, 2)).astype(np.float32))
            loss = mse_loss(resumed(x), y)
            res_optimizer.zero_grad()
            loss.backward()
            res_optimizer.step()

        for (name, want), (_, got) in zip(
            sorted(reference.state_dict().items()), sorted(resumed.state_dict().items())
        ):
            np.testing.assert_array_equal(want, got, err_msg=name)

    def test_cold_optimizer_diverges_without_state(self, tmp_path):
        """Control: restoring only the weights (fresh optimizer) does NOT
        reproduce uninterrupted training — the moment buffers matter."""
        reference = MLP(4, [8, 2], np.random.default_rng(0))
        ref_optimizer = AdamW(reference.parameters(), lr=1e-3)
        _train_steps(reference, ref_optimizer, 10, seed=1)

        cold = MLP(4, [8, 2], np.random.default_rng(0))
        warm_opt = AdamW(cold.parameters(), lr=1e-3)
        _train_steps(cold, warm_opt, 6, seed=1)
        path = str(tmp_path / "weights")
        save_module(cold, path)
        reloaded = MLP(4, [8, 2], np.random.default_rng(0))
        load_module(reloaded, path)
        cold_opt = AdamW(reloaded.parameters(), lr=1e-3)  # moments lost
        rng = np.random.default_rng(1)
        for _ in range(6):  # skip the consumed draws
            rng.random((8, 4)), rng.random((8, 2))
        for _ in range(4):
            x = Tensor(rng.random((8, 4)).astype(np.float32))
            y = Tensor(rng.random((8, 2)).astype(np.float32))
            loss = mse_loss(reloaded(x), y)
            cold_opt.zero_grad()
            loss.backward()
            cold_opt.step()
        diverged = any(
            not np.array_equal(a, b)
            for a, b in zip(
                reference.state_dict().values(), reloaded.state_dict().values()
            )
        )
        assert diverged

    def test_buffer_shape_mismatch_rejected(self):
        model = MLP(4, [8, 2], np.random.default_rng(0))
        optimizer = AdamW(model.parameters(), lr=1e-3)
        _train_steps(model, optimizer, 2, seed=0)
        state = optimizer_state(optimizer)
        other = MLP(4, [16, 2], np.random.default_rng(0))
        other_optimizer = AdamW(other.parameters(), lr=1e-3)
        with pytest.raises(ValueError):
            load_optimizer_state(other_optimizer, state)

    def test_optimizer_count_mismatch_rejected(self, tmp_path):
        model = MLP(4, [8, 2], np.random.default_rng(0))
        optimizer = AdamW(model.parameters(), lr=1e-3)
        path = str(tmp_path / "ckpt")
        save_training_state(path, model, [optimizer])
        with pytest.raises(ValueError):
            load_training_state(path, model, [optimizer, AdamW(model.parameters(), lr=1e-3)])

    def test_model_only_restore_from_training_state(self, tmp_path):
        """Serving restores weights from a training checkpoint without
        rebuilding optimizers."""
        model = MLP(4, [8, 2], np.random.default_rng(0))
        optimizer = AdamW(model.parameters(), lr=1e-3)
        _train_steps(model, optimizer, 3, seed=4)
        path = str(tmp_path / "ckpt")
        save_training_state(path, model, [optimizer])
        serving = MLP(4, [8, 2], np.random.default_rng(5))
        load_training_state(path, serving, ())
        x = Tensor(RNG.random((3, 4)).astype(np.float32))
        np.testing.assert_array_equal(model(x).numpy(), serving(x).numpy())


class TestModuleCheckpoint:
    def test_module_round_trip(self, tmp_path):
        source = MLP(4, [8, 2], RNG)
        clone = MLP(4, [8, 2], np.random.default_rng(99))
        path = str(tmp_path / "mlp")
        save_module(source, path)
        load_module(clone, path)
        x = Tensor(RNG.random((3, 4)).astype(np.float32))
        assert np.allclose(source(x).numpy(), clone(x).numpy(), atol=1e-7)

    def test_load_into_wrong_architecture_fails(self, tmp_path):
        source = MLP(4, [8, 2], RNG)
        other = MLP(4, [16, 2], RNG)
        path = str(tmp_path / "mlp")
        save_module(source, path)
        with pytest.raises((KeyError, ValueError)):
            load_module(other, path)
