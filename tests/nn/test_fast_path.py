"""The fused training kernels: ``linear`` op, fast-math mode, GradArena."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    AdamW,
    GradArena,
    Linear,
    Parameter,
    Tensor,
    active_arena,
    embedding,
    fast_math,
    is_fast_math,
    linear,
    no_grad,
)
from repro.nn.gradcheck import check_gradients


def _tensors(rng, *shapes, dtype=np.float64):
    return [Tensor(rng.normal(size=s), requires_grad=True, dtype=dtype) for s in shapes]


class TestLinearOp:
    def test_matches_composed_ops_2d(self):
        rng = np.random.default_rng(0)
        x, w, b = _tensors(rng, (5, 3), (3, 4), (4,))
        fused = linear(x, w, b, relu=True)
        reference = (x.matmul(w) + b).relu()
        assert np.allclose(fused.numpy(), reference.numpy())

    def test_matches_composed_ops_leading_dims(self):
        rng = np.random.default_rng(1)
        x, w, b = _tensors(rng, (2, 6, 3), (3, 4), (4,))
        fused = linear(x, w, b)
        reference = x.reshape(-1, 3).matmul(w) + b
        assert fused.shape == (2, 6, 4)
        assert np.allclose(fused.numpy().reshape(-1, 4), reference.numpy())

    def test_packed_matches_per_slice(self):
        rng = np.random.default_rng(2)
        x, w, b = _tensors(rng, (5, 3), (4, 3, 2), (4, 2))
        fused = linear(x, w, b, relu=True)
        assert fused.shape == (4, 5, 2)
        for k in range(4):
            ref = np.maximum(x.numpy() @ w.numpy()[k] + b.numpy()[k], 0.0)
            assert np.allclose(fused.numpy()[k], ref)

    def test_packed_per_slice_inputs(self):
        rng = np.random.default_rng(3)
        x, w, b = _tensors(rng, (4, 5, 3), (4, 3, 2), (4, 2))
        fused = linear(x, w, b)
        for k in range(4):
            assert np.allclose(fused.numpy()[k], x.numpy()[k] @ w.numpy()[k] + b.numpy()[k])

    def test_gradcheck_2d(self):
        rng = np.random.default_rng(4)
        ok, message = check_gradients(
            lambda ts: linear(ts[0], ts[1], ts[2]),
            [rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))],
        )
        assert ok, message

    def test_gradcheck_relu(self):
        rng = np.random.default_rng(5)
        # Keep pre-activations away from the ReLU kink so central differences
        # are well defined.
        x = rng.normal(size=(6, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,)) + 3.0
        ok, message = check_gradients(
            lambda ts: linear(ts[0], ts[1], ts[2], relu=True), [x, w, b]
        )
        assert ok, message

    def test_gradcheck_packed(self):
        rng = np.random.default_rng(6)
        ok, message = check_gradients(
            lambda ts: linear(ts[0], ts[1], ts[2]),
            [rng.normal(size=(5, 3)), rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2))],
        )
        assert ok, message

    def test_gradcheck_packed_per_slice_inputs(self):
        rng = np.random.default_rng(7)
        ok, message = check_gradients(
            lambda ts: linear(ts[0], ts[1], ts[2]),
            [rng.normal(size=(4, 5, 3)), rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2))],
        )
        assert ok, message

    def test_gradients_match_composed_ops(self):
        rng = np.random.default_rng(8)
        data = [rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))]
        fused_inputs = _tensors_from(data)
        linear(fused_inputs[0], fused_inputs[1], fused_inputs[2], relu=True).sum().backward()
        ref_inputs = _tensors_from(data)
        (ref_inputs[0].matmul(ref_inputs[1]) + ref_inputs[2]).relu().sum().backward()
        for fused_t, ref_t in zip(fused_inputs, ref_inputs):
            assert np.allclose(fused_t.grad, ref_t.grad)

    def test_second_contribution_accumulates(self):
        rng = np.random.default_rng(9)
        x, w, b = _tensors(rng, (5, 3), (3, 4), (4,))
        out = linear(x, w, b) + linear(x, w, b)
        out.sum().backward()
        single = _tensors_from([x.numpy(), w.numpy(), b.numpy()])
        linear(*single).sum().backward()
        for twice, once in zip((x, w, b), single):
            assert np.allclose(twice.grad, 2 * once.grad)

    def test_no_grad_fast_path(self):
        rng = np.random.default_rng(10)
        x, w, b = _tensors(rng, (5, 3), (3, 4), (4,))
        with no_grad():
            out = linear(x, w, b)
        assert not out.requires_grad
        assert out._backward is None

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(12)
        x, w, b = _tensors(rng, (5, 3), (2, 4), (4,))
        with pytest.raises(ValueError, match="expected input features"):
            linear(x, w, b)

    def test_rejects_bad_packed_bias(self):
        rng = np.random.default_rng(13)
        x, w, b = _tensors(rng, (5, 3), (4, 3, 2), (2,))
        with pytest.raises(ValueError, match="packed bias"):
            linear(x, w, b)


def _tensors_from(arrays):
    return [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]


class TestFastMathMode:
    def test_default_off(self):
        assert not is_fast_math()
        assert active_arena() is None

    def test_context_sets_and_restores(self):
        arena = GradArena()
        with fast_math(arena):
            assert is_fast_math()
            assert active_arena() is arena
        assert not is_fast_math()
        assert active_arena() is None

    def test_nesting_restores_outer_arena(self):
        outer, inner = GradArena(), GradArena()
        with fast_math(outer):
            with fast_math(inner):
                assert active_arena() is inner
            assert active_arena() is outer

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with fast_math():
                raise RuntimeError("boom")
        assert not is_fast_math()

    def test_linear_layer_fused_output_matches_eager(self):
        rng = np.random.default_rng(3)
        layer = Linear(6, 4, rng)
        x = Tensor(rng.normal(size=(5, 6)).astype(np.float32))
        eager = layer(x).numpy()
        with fast_math():
            fused = layer(x).numpy()
        assert np.allclose(eager, fused, atol=1e-6)

    def test_mlp_fused_matches_eager_with_grads(self):
        rng = np.random.default_rng(4)
        mlp = MLP(6, [8, 3], rng)
        data = rng.normal(size=(5, 6)).astype(np.float32)
        eager_out = mlp(Tensor(data))
        eager_out.sum().backward()
        eager_grads = {name: p.grad.copy() for name, p in mlp.named_parameters()}
        for p in mlp.parameters():
            p.grad = None
        with fast_math():
            fused_out = mlp(Tensor(data))
            fused_out.sum().backward()
        assert np.allclose(eager_out.numpy(), fused_out.numpy(), atol=1e-6)
        for name, p in mlp.named_parameters():
            assert np.allclose(eager_grads[name], p.grad, atol=1e-5), name


class TestGradArena:
    def test_lease_release_reuses_buffer(self):
        arena = GradArena()
        first = arena.lease((3, 4), np.float32)
        arena.release(first)
        second = arena.lease((3, 4), np.float32)
        assert second is first
        assert arena.stats()["allocations"] == 1
        assert arena.stats()["reuses"] == 1

    def test_lease_distinguishes_shape_and_dtype(self):
        arena = GradArena()
        arena.release(arena.lease((3,), np.float32))
        assert arena.lease((3,), np.float64).dtype == np.float64
        assert arena.stats()["allocations"] == 2

    def test_lease_zeros(self):
        """The arena never zeroes a lease, so the embedding scatter-add fills
        its (recycled or slot) buffer first: dirty memory never leaks in."""
        arena = GradArena()
        table = Parameter(np.ones((5, 2), dtype=np.float32))
        buffer = arena.lease((5, 2), np.float32)
        buffer[:] = 7.0
        arena.release(buffer)
        with fast_math(arena):
            embedding(table, np.array([[1], [1], [3]])).sum().backward()
        assert table.grad is buffer
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1], [0, 0]])
        optimizer = AdamW([table])
        table.grad = None
        optimizer._slots[0][:] = 7.0
        with fast_math(arena):
            embedding(table, np.array([4])).sum().backward()
        assert table.grad is optimizer._slots[0]
        assert np.array_equal(table.grad, [[0, 0]] * 4 + [[1, 1]])

    def test_release_none_is_noop(self):
        arena = GradArena()
        arena.release(None)
        assert arena.stats()["pooled"] == 0

    def test_packed_parameter_grads_land_in_their_slots(self):
        """A parameter an AdamW packed receives its gradient in its slot of
        the optimizer's gradient buffer (the fused GEMM, the bias sum and
        the embedding scatter-add alike); the arena pools only
        intermediates, and the slots are never released into it."""
        rng = np.random.default_rng(7)
        table = Parameter(rng.normal(size=(6, 3)))
        w, b = Parameter(rng.normal(size=(3, 2))), Parameter(rng.normal(size=(2,)))
        optimizer = AdamW([table, w, b])
        arena = GradArena()
        with fast_math(arena):
            linear(embedding(table, np.array([0, 2, 5])), w, b, relu=True).sum().backward()
        for param, slot in zip(optimizer.params, optimizer._slots):
            assert param.grad is slot
            assert np.shares_memory(slot, optimizer._flats[0].grad)
        pooled = [buffer for pool in arena._free.values() for buffer in pool]
        assert pooled and not any(np.shares_memory(p, optimizer._flats[0].rows) for p in pooled)

    def test_backward_under_arena_matches_reference(self):
        rng = np.random.default_rng(5)
        data = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2))]
        reference = _tensors_from(data)
        ((reference[0].matmul(reference[1])).relu().sum()).backward()
        arena = GradArena()
        with fast_math(arena):
            fast = _tensors_from(data)
            ((fast[0].matmul(fast[1])).relu().sum()).backward()
        for ref_t, fast_t in zip(reference, fast):
            assert np.array_equal(ref_t.grad, fast_t.grad)

    def test_backward_recycles_intermediate_grads(self):
        arena = GradArena()
        with fast_math(arena):
            x = Tensor(np.ones((4, 3)), requires_grad=True, dtype=np.float64)
            hidden = (x * 2.0).relu()
            hidden.sum().backward()
        # Leaf keeps its gradient for the optimizer...
        assert x.grad is not None
        # ...but the intermediates returned theirs to the pool.
        assert hidden.grad is None
        assert arena.stats()["pooled"] > 0

    def test_steady_state_stops_allocating(self):
        arena = GradArena()
        rng = np.random.default_rng(6)
        w = Parameter(rng.normal(size=(3, 2)), dtype=np.float64)
        b = Parameter(rng.normal(size=(2,)), dtype=np.float64)
        optimizer = AdamW([w, b])
        for step in range(3):
            optimizer.zero_grad()
            with fast_math(arena):
                x = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
                linear(x, w, b).sum().backward()
            optimizer.step()
            if step == 0:
                warm = arena.stats()["allocations"]
        assert arena.stats()["allocations"] == warm
