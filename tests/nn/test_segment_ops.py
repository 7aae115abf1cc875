"""``repeat_rows`` / ``segment_sum`` — the padded↔packed layout pair — and
the row-capacity leasing of ``GradArena`` that makes a varying P free."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    AdamW,
    GradArena,
    Parameter,
    Tensor,
    fast_math,
    linear,
    no_grad,
    repeat_rows,
    segment_sum,
)
from repro.nn.gradcheck import check_gradients


@st.composite
def _segments(draw):
    """Sorted ``rows`` for ``size`` segments of drawn lengths: zeros give
    empty leading / middle / trailing segments, all-zero gives P = 0."""
    lengths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    return np.repeat(np.arange(len(lengths)), lengths), len(lengths)


class TestSegmentOps:
    @given(_segments(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_segment_sum_matches_loop_and_gradcheck(self, segments, seed):
        rows, size = segments
        x = np.random.default_rng(seed).normal(size=(rows.size, 3))
        expected = np.zeros((size, 3))
        for p, row in enumerate(rows):
            expected[row] += x[p]
        out = segment_sum(Tensor(x, dtype=np.float64), rows, size).numpy()
        assert out.shape == (size, 3)
        assert np.allclose(out, expected, atol=1e-12)
        # Empty segments are exactly zero, not the element reduceat returns.
        assert np.all(out[np.bincount(rows, minlength=size) == 0] == 0.0)
        weights = np.random.default_rng(seed + 1).normal(size=(size, 3))
        ok, message = check_gradients(
            lambda ts: segment_sum(ts[0], rows, size) * weights, [x]
        )
        assert ok, message

    @given(_segments(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_repeat_rows_matches_fancy_index_and_gradcheck(self, segments, seed):
        rows, size = segments
        x = np.random.default_rng(seed).normal(size=(size, 2))
        assert np.array_equal(repeat_rows(Tensor(x, dtype=np.float64), rows).numpy(), x[rows])
        weights = np.random.default_rng(seed + 1).normal(size=(rows.size, 2))
        ok, message = check_gradients(lambda ts: repeat_rows(ts[0], rows) * weights, [x])
        assert ok, message

    def test_each_is_the_others_backward(self):
        rows = np.array([0, 0, 2, 2, 2, 5])
        rng = np.random.default_rng(0)
        wide = Tensor(rng.normal(size=(6, 4)), requires_grad=True, dtype=np.float64)
        tall = Tensor(rng.normal(size=(7, 4)), requires_grad=True, dtype=np.float64)
        up_packed, up_rows = rng.normal(size=(6, 4)), rng.normal(size=(7, 4))
        segment_sum(wide, rows, 7).backward(up_rows)
        repeat_rows(tall, rows).backward(up_packed)
        with no_grad():
            assert np.array_equal(wide.grad, repeat_rows(Tensor(up_rows, dtype=np.float64), rows).numpy())
            assert np.array_equal(
                tall.grad, segment_sum(Tensor(up_packed, dtype=np.float64), rows, 7).numpy()
            )

    def test_single_segment_and_trailing_dims(self):
        x = np.arange(24, dtype=np.float64).reshape(4, 2, 3)
        out = segment_sum(Tensor(x, dtype=np.float64), np.zeros(4, dtype=np.int64), 1)
        assert np.array_equal(out.numpy(), x.sum(axis=0, keepdims=True))

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
        with no_grad():
            assert segment_sum(x, np.array([0, 1, 1]), 2)._backward is None
            assert repeat_rows(x, np.array([0, 2]))._backward is None


class TestArenaRowCapacity:
    def test_smaller_lease_is_a_leading_view_released_by_base(self):
        arena = GradArena()
        big = arena.lease((300, 4), np.float32)
        assert big.base is not None and big.base.shape[0] >= 300  # rounded up
        arena.release(big)
        small = arena.lease((200, 4), np.float32)
        assert small.shape == (200, 4) and small.flags.c_contiguous
        assert small.base is big.base
        assert arena.stats()["allocations"] == 1
        arena.release(small)
        assert arena.stats()["pooled"] == 1

    def test_best_fit_keeps_small_and_large_roles_apart(self):
        arena = GradArena()
        table, rows = arena.lease((5000, 4), np.float32), arena.lease((16, 4), np.float32)
        arena.release(table)
        arena.release(rows)
        assert arena.lease((16, 4), np.float32) is rows
        assert arena.lease((4000, 4), np.float32).base is table.base

    def test_scalar_and_zero_row_leases(self):
        arena = GradArena()
        scalar = arena.lease((), np.float64)
        assert scalar.shape == ()
        arena.release(scalar)
        assert arena.lease((), np.float64).base is scalar.base
        assert arena.lease((0, 3), np.float32).shape == (0, 3)

    def test_varying_leading_dim_stops_allocating_and_stays_bounded(self):
        """30 steps, a different P each: once the largest has been seen the
        arena allocates nothing more, and its pool is one step's worth."""
        arena = GradArena()
        rng = np.random.default_rng(3)
        w1 = Parameter(rng.normal(size=(6, 8)))
        w2 = Parameter(rng.normal(size=(8, 3)))
        optimizer = AdamW([w1, w2])
        sizes = [900, *rng.permutation(np.arange(600, 890, 10))]
        assert len(set(sizes)) == 30

        def step(p):
            rows = np.sort(rng.integers(0, 128, size=p))
            optimizer.zero_grad()
            with fast_math(arena):
                hidden = linear(Tensor(rng.normal(size=(p, 6))), w1, relu=True)
                segment_sum(linear(hidden, w2), rows, 128).sum().backward()
            optimizer.step()

        step(sizes[0])
        warm = arena.stats()
        for p in sizes[1:]:
            step(p)
        after = arena.stats()
        assert after["allocations"] == warm["allocations"]
        assert after["pooled"] == warm["pooled"]
        assert after["pooled_bytes"] == warm["pooled_bytes"]

    def test_growing_leading_dim_replaces_buffers_instead_of_hoarding(self):
        arena = GradArena()
        for rows in (200, 400, 800, 1600):
            arena.release(arena.lease((rows, 8), np.float32))
        stats = arena.stats()
        assert stats["pooled"] == 1
        assert stats["pooled_bytes"] == 1664 * 8 * 4  # 1600 rounded up to 13 x 128
