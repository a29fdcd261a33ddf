"""Tensor substrate: validation, layout, dtype conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carafe.errors import DTypeError, ShapeError
from carafe.tensor import DOUBLE, SINGLE, Tensor

shapes = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6),
                   st.integers(1, 6))


class TestTensorNew:
    def test_zero_fill(self):
        t = Tensor(np.full((1, 1, 2, 2), 0.0))
        assert t.shape == (1, 1, 2, 2)
        assert np.all(t.data == 0.0)
        assert t.size == 4

    def test_constant_fill_and_length(self):
        t = Tensor(np.full((2, 3, 4, 5), 1.5))
        assert t.size == 120
        assert np.all(t.data == 1.5)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.full((1, 1, 1, 0), 0.0))

    def test_dtype_selection(self):
        assert Tensor(np.full((1, 1, 1, 1), 0.0, dtype=SINGLE)).dtype == np.float32
        assert Tensor(np.full((1, 1, 1, 1), 0.0, dtype=DOUBLE)).dtype == np.float64

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(DTypeError):
            Tensor(np.zeros((1, 1, 2, 2), dtype=np.int32))

    def test_non_4d_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2), dtype=np.float64))


class TestLayout:
    def test_row_major_offset_formula(self):
        n, c, h, w = 2, 3, 4, 5
        t = Tensor(np.arange(n * c * h * w, dtype=np.float64).reshape(n, c, h, w))
        flat = t.data.reshape(-1)
        for b in range(n):
            for ch in range(c):
                for i in range(h):
                    for j in range(w):
                        offset = ((b * c + ch) * h + i) * w + j
                        assert flat[offset] == t.data[b, ch, i, j]

    @given(shapes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_write_read_round_trip(self, shape, data):
        t = Tensor(np.zeros(shape))
        b = data.draw(st.integers(0, shape[0] - 1))
        ch = data.draw(st.integers(0, shape[1] - 1))
        i = data.draw(st.integers(0, shape[2] - 1))
        j = data.draw(st.integers(0, shape[3] - 1))
        value = data.draw(st.floats(-1e6, 1e6))
        t.data[b, ch, i, j] = value
        assert t.data[b, ch, i, j] == value

    def test_data_made_contiguous(self):
        base = np.zeros((4, 4, 4, 8), dtype=np.float64)
        view = base[:, :, :, ::2]
        t = Tensor(view)
        assert t.data.flags["C_CONTIGUOUS"]


class TestElementwise:
    """Whole-tensor conversions: dtype cast and copy."""

    def test_astype_and_copy(self):
        t = Tensor(np.full((1, 1, 2, 2), 1.0))
        s = t.astype(SINGLE)
        assert s.dtype == np.float32
        c = t.copy()
        c.data[0, 0, 0, 0] = 5.0
        assert t.data[0, 0, 0, 0] == 1.0
