"""Incremental trainer: warm starts, optimizer-state persistence, resume."""

import numpy as np
import pytest

from repro.online import IncrementalTrainer


@pytest.fixture()
def windows(train_set):
    """Three disjoint click-window stand-ins from the offline train split."""
    third = len(train_set) // 3
    return [
        train_set.subset(np.arange(i * third, (i + 1) * third)) for i in range(3)
    ]


class TestUpdate:
    def test_update_changes_weights_and_counts(self, make_model, online_train_config, windows):
        model = make_model(trained=True)
        trainer = IncrementalTrainer(model, online_train_config, seed=3)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        log = trainer.update(windows[0])
        assert trainer.updates == 1
        assert trainer.total_steps == len(log) > 0
        after = model.state_dict()
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_optimizer_moments_persist_across_updates(
        self, make_model, online_train_config, windows
    ):
        """The Adam step count keeps growing — the optimizer is never reset
        between refresh cycles (warm start, not cold restart)."""
        trainer = IncrementalTrainer(make_model(trained=True), online_train_config, seed=3)
        trainer.update(windows[0])
        steps_after_first = trainer.optimizer._step_count
        trainer.update(windows[1])
        assert trainer.optimizer._step_count > steps_after_first

    def test_small_window_still_trains(self, make_model, online_train_config, train_set):
        tiny = train_set.subset(np.arange(7))  # < batch_size
        trainer = IncrementalTrainer(make_model(trained=True), online_train_config, seed=3)
        log = trainer.update(tiny)
        assert len(log) == online_train_config.epochs

    def test_contrastive_requires_gate(self, make_model, online_train_config):
        config = online_train_config.with_contrastive()
        IncrementalTrainer(make_model(trained=True), config, seed=0)  # AW-MoE: fine

        class NoGate:
            supports_contrastive = False

        with pytest.raises(TypeError):
            IncrementalTrainer(NoGate(), config, seed=0)


class TestSaveLoadContinue:
    def test_resume_is_bitwise_identical_to_uninterrupted(
        self, tmp_path, make_model, online_train_config, windows
    ):
        """save → load → continue must equal never having stopped, down to
        the last bit: weights, Adam moments, and step counts all round-trip."""
        # Uninterrupted reference: three consecutive updates.
        reference = IncrementalTrainer(make_model(trained=True), online_train_config, seed=5)
        for window in windows:
            reference.update(window)

        # Interrupted run: two updates, checkpoint, restore into a *fresh*
        # model + trainer, then the third update.
        first = IncrementalTrainer(make_model(trained=True), online_train_config, seed=5)
        first.update(windows[0])
        first.update(windows[1])
        path = str(tmp_path / "trainer.npz")
        first.save(path)

        resumed = IncrementalTrainer(make_model(trained=False), online_train_config, seed=5)
        resumed.load(path)
        assert resumed.updates == 2
        resumed.update(windows[2])

        ref_state = reference.model.state_dict()
        res_state = resumed.model.state_dict()
        assert set(ref_state) == set(res_state)
        for name in ref_state:
            np.testing.assert_array_equal(ref_state[name], res_state[name], err_msg=name)
        assert resumed.total_steps == reference.total_steps
        assert resumed.optimizer._step_count == reference.optimizer._step_count

    def test_seed_mismatch_rejected(self, tmp_path, make_model, online_train_config, windows):
        trainer = IncrementalTrainer(make_model(trained=True), online_train_config, seed=5)
        trainer.update(windows[0])
        path = str(tmp_path / "trainer.npz")
        trainer.save(path)
        other = IncrementalTrainer(make_model(trained=False), online_train_config, seed=6)
        with pytest.raises(ValueError):
            other.load(path)
