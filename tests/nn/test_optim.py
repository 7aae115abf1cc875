"""The one optimizer (AdamW; classic Adam at weight_decay=0) and gradient clipping."""

import numpy as np
import pytest

from repro.nn import AdamW, Parameter, clip_grad_norm


def quadratic_step(optimizer, param, target=0.0):
    """One gradient step on f(w) = 0.5 (w - target)^2."""
    param.grad = param.data - target
    optimizer.step()


class TestAdam:
    """The Adam update rule: AdamW without weight decay."""

    def test_first_step_size_is_lr(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.array([0.5], dtype=np.float32)
        opt.step()
        # Bias correction makes the first step ≈ lr * sign(grad).
        assert p.numpy()[0] == pytest.approx(1.0 - 0.1, abs=1e-4)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([3.0], dtype=np.float32))
        opt = AdamW([p], lr=0.2, weight_decay=0.0)
        for _ in range(150):
            quadratic_step(opt, p)
        assert abs(p.numpy()[0]) < 5e-2

    def test_zero_grad(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.ones(1, dtype=np.float32)
        opt.zero_grad()
        assert p.grad is None


class TestAdamW:
    def test_decay_is_decoupled(self):
        # With zero gradient, AdamW still shrinks weights; classic Adam with
        # folded-in decay would move them through the adaptive scaling.
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.numpy()[0] == pytest.approx(1.0 - 0.1 * 0.5, abs=1e-6)

    def test_paper_default_lr(self):
        opt = AdamW([Parameter(np.zeros(1))])
        assert opt.lr == pytest.approx(1e-4)

    def test_converges(self):
        p = Parameter(np.array([2.0], dtype=np.float32))
        opt = AdamW([p], lr=0.2, weight_decay=0.0)
        for _ in range(100):
            quadratic_step(opt, p)
        assert abs(p.numpy()[0]) < 1e-2

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        AdamW([p], lr=0.1).step()
        assert p.numpy()[0] == 1.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            AdamW([], lr=0.1)

    def test_non_positive_lr_rejected(self):
        with pytest.raises(ValueError):
            AdamW([Parameter(np.zeros(1))], lr=0.0)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1, dtype=np.float32)
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(0.2)
        assert np.allclose(p.grad, 0.1)

    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0, dtype=np.float32)
        clip_grad_norm([p], max_norm=1.0)
        total = np.sqrt((p.grad.astype(np.float64) ** 2).sum())
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad = np.array([3.0], dtype=np.float32)
        b.grad = np.array([4.0], dtype=np.float32)
        norm = clip_grad_norm([a, b], max_norm=100.0)
        assert norm == pytest.approx(5.0)
