"""The one optimizer (AdamW; classic Adam at weight_decay=0) and gradient
clipping, over one flat buffer per dtype — and their per-array twin."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModelConfig, TrainConfig, build_model
from repro.core.trainer import GRAD_CLIP, build_optimizers, build_strategy, train_step
from repro.infer import float64_twin
from repro.nn import (
    AdamW,
    Parameter,
    bce_with_logits,
    clip_grad_norm,
    optimizer_state,
)
from repro.nn.optim import BETA1, BETA2, EPS


def quadratic_step(optimizer, param, target=0.0):
    """One gradient step on f(w) = 0.5 (w - target)^2."""
    param.grad = param.data - target
    optimizer.step()


# ----------------------------------------------------------------------
# the per-array oracle: AdamW and clip_grad_norm as a Python loop over the
# parameters, one fresh array per moment per step
# ----------------------------------------------------------------------
class ArrayAdamW:
    def __init__(self, params, lr, weight_decay):
        self.params, self.lr, self.weight_decay = list(params), lr, weight_decay
        self.step_count, self.m, self.v = 0, {}, {}

    def step(self):
        self.step_count += 1
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            if self.weight_decay:
                param.data -= self.lr * self.weight_decay * param.data
            grad = param.grad
            m = self.m.get(index, np.zeros_like(param.data))
            v = self.v.get(index, np.zeros_like(param.data))
            m = BETA1 * m + (1 - BETA1) * grad
            v = BETA2 * v + (1 - BETA2) * grad * grad
            self.m[index], self.v[index] = m, v
            m_hat = m / (1 - BETA1**self.step_count)
            v_hat = v / (1 - BETA2**self.step_count)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def array_clip_grad_norm(params, max_norm):
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float((param.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        for param in params:
            if param.grad is not None:
                param.grad *= max_norm / norm
    return norm


class _Weight:
    """A bare ``data`` / ``grad`` pair the oracle updates."""

    def __init__(self, data):
        self.data, self.grad = data.copy(), None


def _assert_twins(flat, oracle):
    """Weights, and the moments of every parameter the oracle ever
    updated, are bitwise equal; the rest stay exactly zero."""
    for index, (param, weight) in enumerate(zip(flat.params, oracle.params)):
        assert param.data.tobytes() == weight.data.tobytes(), index
        for views, moments in ((flat._m, oracle.m), (flat._v, oracle.v)):
            if index in moments:
                assert views[index].tobytes() == moments[index].tobytes(), index
            else:
                assert not views[index].any(), index
    assert flat._seen == set(oracle.m)


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
        opt = AdamW([p])
        p.grad = np.full(4, 0.1, dtype=np.float32)
        norm = clip_grad_norm(opt, max_norm=10.0)
        assert norm == pytest.approx(0.2)
        assert np.allclose(p.grad, 0.1)

    def test_clips_to_max_norm(self):
        p = Parameter(np.zeros(4))
        opt = AdamW([p])
        p.grad = np.full(4, 10.0, dtype=np.float32)
        clip_grad_norm(opt, max_norm=1.0)
        total = np.sqrt((p.grad.astype(np.float64) ** 2).sum())
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        opt = AdamW([a, b])
        a.grad = np.array([3.0], dtype=np.float32)
        b.grad = np.array([4.0], dtype=np.float32)
        norm = clip_grad_norm(opt, max_norm=100.0)
        assert norm == pytest.approx(5.0)


class TestFlatBuffer:
    def test_parameters_are_views_in_list_order(self):
        params = [Parameter(np.full((2, 3), 1.0)), Parameter(np.full(4, 2.0))]
        optimizer = AdamW(params)
        (flat,) = optimizer._flats
        np.testing.assert_array_equal(flat.rows[0], [1.0] * 6 + [2.0] * 4)
        flat.rows[0] += 1.0
        assert params[0].data[1, 2] == 2.0 and params[1].data[3] == 3.0

    def test_one_buffer_per_dtype(self):
        params = [Parameter(np.ones(2)), Parameter(np.ones(3), np.float64), Parameter(np.ones(1))]
        optimizer = AdamW(params)
        assert [(f.rows.dtype, f.indices) for f in optimizer._flats] == [
            (np.float32, [0, 2]),
            (np.float64, [1]),
        ]
        for param in params:
            assert any(np.shares_memory(param.data, f.rows) for f in optimizer._flats)

    @settings(max_examples=60, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.lists(st.integers(1, 5), min_size=0, max_size=3), st.booleans()),
            min_size=1,
            max_size=6,
        ),
        weight_decay=st.sampled_from([0.0, 0.01]),
        steps=st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=6, max_size=6),  # touched
                st.sampled_from([None, 0.05, 1e3]),  # clip
                st.booleans(),  # gradients written into their slots
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_twin_of_the_per_array_update(self, shapes, weight_decay, steps, seed):
        """Random shapes (float32 and float64 interleaved), touched subsets,
        clipped and unclipped steps: weights, moments and the norm are the
        per-array loop's, bit for bit."""
        rng = np.random.default_rng(seed)
        inits = [
            rng.normal(size=shape).astype(np.float64 if wide else np.float32)
            for shape, wide in shapes
        ]
        flat = AdamW([Parameter(x, x.dtype) for x in inits], lr=0.01, weight_decay=weight_decay)
        oracle = ArrayAdamW([_Weight(x) for x in inits], lr=0.01, weight_decay=weight_decay)
        for touched, clip, in_slot in steps:
            flat.zero_grad()
            for index, (param, weight) in enumerate(zip(flat.params, oracle.params)):
                weight.grad = None
                if touched[index]:
                    grad = (rng.normal(size=param.data.shape) * 3).astype(param.data.dtype)
                    weight.grad = grad.copy()
                    if in_slot:
                        flat._slots[index][...] = grad
                        param.grad = flat._slots[index]
                    else:
                        param.grad = grad
            if clip is not None:
                norm = clip_grad_norm(flat, clip)
                assert norm == array_clip_grad_norm(oracle.params, clip)
            flat.step()
            oracle.step()
            _assert_twins(flat, oracle)

    @pytest.mark.parametrize("fast", [False, True])
    def test_mmoe_second_gate_stays_untouched(self, train_set, fast):
        """MMoE trains its first task only, so ``gate1.*`` gets no gradient
        on any step: its weights, moments and weight decay must not move,
        exactly as under the per-array update.  MMoE does not compile, so
        ``fast_path`` runs the same eager tape: both settings match the
        oracle bit for bit."""
        config = TrainConfig(epochs=1, batch_size=32, learning_rate=3e-3, fast_path=fast)
        model, twin = (
            build_model("mmoe", ModelConfig.unit(), train_set.meta, np.random.default_rng(5))
            for _ in range(2)
        )
        optimizer = build_optimizers(model, config)
        strategy = build_strategy(config)
        oracle = ArrayAdamW(twin.parameters(), config.learning_rate, config.weight_decay)
        names = [name for name, _ in model.named_parameters()]
        untouched = [i for i, name in enumerate(names) if name.startswith("gate1.")]
        initial = {i: model.parameters()[i].data.copy() for i in untouched}
        assert untouched and len(untouched) < len(names)
        for step in range(3):
            batch = train_set.batch_at(np.arange(32 * step, 32 * (step + 1)))
            metrics = train_step(model, batch, config, optimizer, strategy)
            loss = bce_with_logits(twin.forward(batch), batch["label"])
            for weight in oracle.params:
                weight.grad = None
            loss.backward()
            norm = array_clip_grad_norm(oracle.params, GRAD_CLIP)
            oracle.step()
            assert (metrics["loss"], metrics["grad_norm"]) == (loss.item(), norm)
        _assert_twins(optimizer, oracle)
        for index in untouched:
            assert model.parameters()[index].data.tobytes() == initial[index].tobytes()
        state = optimizer_state(optimizer)
        assert not any(f"m.{index}" in state for index in untouched)
        assert f"m.{untouched[0] - 1}" in state

    def test_random_direction_through_flat_views(self, train_set):
        """SNIPPETS.md #3 through the buffer: a float64 unit AW-MoE whose
        parameters are views of one flat array; AdamW's gather copies the
        tape's gradients into the flat gradient buffer, so one dot with a
        random direction is the directional derivative, and moving the whole
        buffer moves every parameter (central difference agrees to 1e-6)."""
        model = build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(31))
        for param in model.parameters():
            param.data = param.data.astype(np.float64)
        optimizer = AdamW(model.parameters())
        (flat,) = optimizer._flats
        assert flat.rows.dtype == np.float64
        batch = train_set.batch_at(np.arange(12))
        weights = np.random.default_rng(5).normal(size=batch["label"].shape)

        direction = np.random.default_rng(41).normal(size=flat.rows.shape[1])
        direction /= np.linalg.norm(direction)
        eps = 1e-6
        values = []
        optimizer.zero_grad()
        (model.forward(batch) * weights).sum().backward()
        assert all(optimizer._gather())
        for sign in (1, -1):
            flat.rows[0] += sign * eps * direction
            values.append(float((model.forward(batch) * weights).sum().numpy()))
            flat.rows[0] -= sign * eps * direction
        for param, slot in zip(optimizer.params, optimizer._slots):
            assert param.grad is slot
        analytic = float(flat.grad @ direction)
        numeric = (values[0] - values[1]) / (2 * eps)
        assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(analytic))


class TestDetachedOptimizer:
    """A parameter that stops viewing its optimizer's buffer would silently
    stop training; the next clip or step raises instead."""

    def _model(self, train_set):
        return build_model("aw_moe", ModelConfig.unit(), train_set.meta, np.random.default_rng(3))

    def test_rebound_parameter_raises_naming_it(self, train_set):
        model = self._model(train_set)
        optimizer = AdamW(model.parameters())
        param = model.parameters()[4]
        param.data = param.data.copy()
        with pytest.raises(RuntimeError, match=r"parameter 4 "):
            optimizer.step()
        with pytest.raises(RuntimeError, match=r"parameter 4 "):
            clip_grad_norm(optimizer, 1.0)

    def test_second_optimizer_repacks_and_detaches_the_first(self, train_set):
        model = self._model(train_set)
        first = AdamW(model.parameters())
        second = AdamW(model.parameters())
        with pytest.raises(RuntimeError, match=r"parameter 0 "):
            first.step()
        for param in model.parameters():
            param.grad = np.ones_like(param.data)
        before = model.state_dict()
        second.step()
        after = model.state_dict()
        assert all(not np.array_equal(before[name], after[name]) for name in before)

    def test_load_state_dict_keeps_the_views(self, train_set):
        model = self._model(train_set)
        optimizer = AdamW(model.parameters())
        model.load_state_dict(self._model(train_set).state_dict())
        optimizer.step()  # does not raise
        for param, view in zip(model.parameters(), optimizer._data):
            assert param.data is view

    def test_float64_twin_is_unaffected(self, train_set):
        """The parity harness's twin deep-copies: its parameters own fresh
        float64 arrays outside the optimizer's buffer, and the source's
        optimizer keeps training the source."""
        model = self._model(train_set)
        optimizer = AdamW(model.parameters())
        twin = float64_twin(model)
        (flat,) = optimizer._flats
        for param in twin.parameters():
            assert param.data.dtype == np.float64
            assert not np.shares_memory(param.data, flat.rows)
        for param in model.parameters():
            param.grad = np.ones_like(param.data)
        optimizer.step()
        assert not np.array_equal(
            model.parameters()[0].data, twin.parameters()[0].data.astype(np.float32)
        )
