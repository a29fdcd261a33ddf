"""Binary tensor container and PGM import/export."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carafe.errors import FormatError, NumericError, ShapeError
from carafe.fileio import load_pgm, load_tensor, save_pgm, save_tensor
from carafe.tensor import SINGLE, Tensor

shapes = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6),
                   st.integers(1, 6))


class TestTensorFile:
    def test_round_trip_double(self, tmp_path):
        rng = np.random.default_rng(0)
        t = Tensor(rng.standard_normal((2, 3, 4, 5)))
        path = tmp_path / "t.crft"
        save_tensor(t, path)
        back = load_tensor(path)
        assert back.dtype == np.float64
        assert np.array_equal(back.data, t.data)

    def test_round_trip_single(self, tmp_path):
        rng = np.random.default_rng(1)
        t = Tensor(rng.standard_normal((1, 2, 3, 4)).astype(np.float32))
        path = tmp_path / "t.crft"
        save_tensor(t, path)
        back = load_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back.data, t.data)

    def test_header_layout(self, tmp_path):
        t = Tensor(np.zeros((1, 2, 3, 4), dtype=np.float64))
        path = tmp_path / "t.crft"
        save_tensor(t, path)
        raw = path.read_bytes()
        assert raw[:4] == b"CRFT"
        assert raw[4] == 1
        assert raw[5] == 2  # double
        assert struct.unpack("<4I", raw[6:22]) == (1, 2, 3, 4)
        assert len(raw) == 22 + 24 * 8

    def test_payload_little_endian(self, tmp_path):
        t = Tensor(np.full((1, 1, 1, 1), 1.0, dtype=np.float32))
        path = tmp_path / "t.crft"
        save_tensor(t, path)
        raw = path.read_bytes()
        assert raw[22:] == struct.pack("<f", 1.0)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.crft"
        path.write_bytes(b"NOPE" + bytes(18))
        with pytest.raises(FormatError) as err:
            load_tensor(path)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        t = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64))
        path = tmp_path / "t.crft"
        save_tensor(t, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_tensor(path)
        assert err.value.offset == 4

    def test_bad_dtype_code(self, tmp_path):
        t = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64))
        path = tmp_path / "t.crft"
        save_tensor(t, path)
        raw = bytearray(path.read_bytes())
        raw[5] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_tensor(path)
        assert err.value.offset == 5

    def test_truncated_payload_names_lengths(self, tmp_path):
        t = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float64))
        path = tmp_path / "t.crft"
        save_tensor(t, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError) as err:
            load_tensor(path)
        assert "32" in str(err.value) and "27" in str(err.value)
        assert err.value.offset == 22

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.crft"
        path.write_bytes(b"CRFT\x01")
        with pytest.raises(FormatError):
            load_tensor(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "t.crft"
        path.write_bytes(b"CRFT" + bytes([1, 2]) + struct.pack("<4I", 1, 0, 2, 2))
        with pytest.raises(FormatError) as err:
            load_tensor(path)
        assert err.value.offset == 6

    @given(shapes, st.sampled_from(["f4", "f8"]), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, shape, code, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(shape).astype(code)
        t = Tensor(arr)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.crft"
            save_tensor(t, path)
            back = load_tensor(path)
        assert back.shape == t.shape
        assert back.dtype == t.dtype
        assert np.array_equal(back.data, t.data)


class TestPgm:
    def test_load_values_divided_by_255(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        t = load_pgm(path)
        assert t.shape == (1, 1, 2, 2)
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        assert np.allclose(t.data[0, 0], expected, atol=1e-9)
        assert abs(t.data[0, 0, 1, 0] - 0.50196) < 1e-5
        assert abs(t.data[0, 0, 1, 1] - 0.25098) < 1e-5

    def test_save_load_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        t = Tensor(rng.uniform(0, 1, size=(1, 1, 5, 7)))
        path = tmp_path / "b.pgm"
        save_pgm(t, path)
        back = load_pgm(path)
        assert float(np.abs(back.data - t.data).max()) <= 1 / 510 + 1e-12

    def test_p2_rejected(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(FormatError) as err:
            load_pgm(path)
        assert "P2" in str(err.value) or "ASCII" in str(err.value)

    def test_comments_and_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n# a comment\n 2 # inline\n2\n255\n" + bytes([1, 2, 3, 4]))
        t = load_pgm(path)
        assert t.shape == (1, 1, 2, 2)
        assert abs(t.data[0, 0, 0, 0] - 1 / 255) < 1e-12

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2]))
        with pytest.raises(FormatError):
            load_pgm(path)

    def test_maxval_other_than_255_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError):
            load_pgm(path)

    def test_save_requires_single_channel(self, tmp_path):
        t = Tensor(np.zeros((1, 2, 2, 2), dtype=np.float64))
        with pytest.raises(ShapeError):
            save_pgm(t, tmp_path / "g.pgm")

    def test_save_clips_out_of_range(self, tmp_path):
        t = Tensor(np.array([[[[-0.5, 1.5, -np.inf, np.inf]]]]))
        path = tmp_path / "h.pgm"
        save_pgm(t, path)
        back = load_pgm(path)
        assert back.data[0, 0, 0].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_save_rejects_nan(self, tmp_path):
        t = Tensor(np.array([[[[0.5, np.nan]]]]))
        path = tmp_path / "n.pgm"
        with pytest.raises(NumericError, match="NaN"):
            save_pgm(t, path)
        assert not path.exists()

    def test_load_single_precision_option(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes([128]))
        t = load_pgm(path, dtype=SINGLE)
        assert t.dtype == np.float32
