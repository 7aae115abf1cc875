"""Loss functions: values against hand computations, stability, gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, bce_with_logits, info_nce
from repro.nn.gradcheck import check_gradients

RNG = np.random.default_rng(3)


def assert_grad_ok(func, inputs, **kwargs):
    ok, message = check_gradients(func, inputs, **kwargs)
    assert ok, message


class TestBCEWithLogits:
    def test_matches_manual_formula(self):
        logits = np.array([0.5, -1.0, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        probs = 1 / (1 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
        loss = bce_with_logits(Tensor(logits, dtype=np.float64), targets)
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_zero_logits_gives_log2(self):
        loss = bce_with_logits(Tensor(np.zeros(4)), np.array([0.0, 1.0, 0.0, 1.0]))
        assert loss.item() == pytest.approx(np.log(2), rel=1e-5)

    def test_stable_at_extreme_logits(self):
        loss = bce_with_logits(Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_stable_at_extreme_wrong_logits(self):
        loss = bce_with_logits(Tensor(np.array([1000.0])), np.array([0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(1000.0, rel=1e-3)

    def test_gradient(self):
        targets = np.array([1.0, 0.0, 1.0, 0.0])
        assert_grad_ok(lambda ts: bce_with_logits(ts[0], targets), [RNG.random(4) * 2 - 1])

    def test_gradient_is_sigmoid_minus_target_over_n(self):
        logits = Tensor(np.array([0.0, 2.0]), requires_grad=True, dtype=np.float64)
        targets = np.array([1.0, 0.0])
        bce_with_logits(logits, targets).backward()
        sig = 1 / (1 + np.exp(-logits.numpy()))
        assert np.allclose(logits.grad, (sig - targets) / 2, atol=1e-7)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_with_logits(Tensor(np.zeros(3)), np.zeros(4))

    def test_accepts_tensor_targets(self):
        loss = bce_with_logits(Tensor(np.zeros(2)), Tensor(np.array([0.0, 1.0])))
        assert np.isfinite(loss.item())


class TestInfoNCE:
    def test_identical_positive_beats_random_negative(self):
        anchor = RNG.random((4, 8))
        aligned = info_nce(Tensor(anchor), Tensor(anchor), Tensor(RNG.random((4, 2, 8)) * 0.01))
        shuffled = info_nce(
            Tensor(anchor), Tensor(RNG.random((4, 8))), Tensor(anchor[:, None, :] * np.ones((4, 2, 8)))
        )
        assert aligned.item() < shuffled.item()

    def test_matches_manual_single_example(self):
        anchor = np.array([[1.0, 0.0]])
        positive = np.array([[1.0, 0.0]])
        negatives = np.array([[[0.0, 1.0]]])
        pos_sim, neg_sim = 1.0, 0.0
        expected = -np.log(np.exp(pos_sim) / (np.exp(pos_sim) + np.exp(neg_sim)))
        loss = info_nce(Tensor(anchor), Tensor(positive), Tensor(negatives))
        assert loss.item() == pytest.approx(expected, rel=1e-5)

    def test_temperature_scales_similarities(self):
        anchor = RNG.random((3, 4))
        positive = RNG.random((3, 4))
        negatives = RNG.random((3, 2, 4))
        hot = info_nce(Tensor(anchor), Tensor(positive), Tensor(negatives), temperature=0.1)
        cold = info_nce(Tensor(anchor), Tensor(positive), Tensor(negatives), temperature=10.0)
        assert hot.item() != pytest.approx(cold.item())

    def test_gradients_flow_to_all_inputs(self):
        assert_grad_ok(
            lambda ts: info_nce(ts[0], ts[1], ts[2]),
            [RNG.random((3, 4)), RNG.random((3, 4)), RNG.random((3, 2, 4))],
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            info_nce(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), Tensor(np.zeros((2, 1, 3))))
        with pytest.raises(ValueError):
            info_nce(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
