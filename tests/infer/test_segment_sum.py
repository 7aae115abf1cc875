"""``segment_sum`` — the compiled train step's pooling of packed behaviour
positions back into their rows (Eq. 3, Eq. 8) — and its adjoint, the
``gather_rows`` its backward kernels run."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer.kernels import gather_rows
from repro.infer.training import segment_sum


@st.composite
def _segments(draw):
    """Sorted ``rows`` for ``size`` segments of drawn lengths: zeros give
    empty leading / middle / trailing segments, all-zero gives P = 0."""
    lengths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    return np.repeat(np.arange(len(lengths)), lengths), len(lengths)


class TestSegmentSum:
    @given(_segments(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_and_gather_is_its_adjoint(self, segments, seed):
        rows, size = segments
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows.size, 3))
        expected = np.zeros((size, 3))
        for p, row in enumerate(rows):
            expected[row] += x[p]
        out = segment_sum(x, rows, size)
        assert out.shape == (size, 3)
        assert np.allclose(out, expected, atol=1e-12)
        # Empty segments are exactly zero, not the element reduceat returns.
        assert np.all(out[np.bincount(rows, minlength=size) == 0] == 0.0)
        # <segment_sum(x), y> == <x, gather(y)>: the backward is the gather.
        y = rng.normal(size=(size, 3))
        gathered = np.empty_like(x)
        gather_rows(y, rows, gathered)
        assert np.isclose((out * y).sum(), (x * gathered).sum(), atol=1e-10)

    def test_single_segment_and_trailing_dims(self):
        x = np.arange(24, dtype=np.float64).reshape(4, 2, 3)
        out = segment_sum(x, np.zeros(4, dtype=np.int64), 1)
        assert np.array_equal(out, x.sum(axis=0, keepdims=True))
