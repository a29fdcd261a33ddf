"""Dense 4-D tensors in batch-channel-row-col order.

This is the substrate for the whole package: a thin, strict wrapper around a
C-contiguous numpy array with exactly four axes (n, c, h, w) and one of two
floating dtypes. Double precision is used wherever gradients are checked;
single precision exists for benchmarks. There is no broadcasting and no view
aliasing in the public API: operations return fresh tensors.
"""

from __future__ import annotations

import numpy as np

from .errors import DTypeError, ShapeError

SINGLE = np.dtype(np.float32)
DOUBLE = np.dtype(np.float64)
SUPPORTED_DTYPES = (SINGLE, DOUBLE)


class Tensor:
    """4-D array (batch, channels, rows, cols), float32 or float64.

    The buffer is always C-contiguous, so flat offset of (b, ch, i, j) is
    ((b*c + ch)*h + i)*w + j. Library functions treat tensors as immutable
    and return new ones; nothing here enforces read-only buffers because
    parameter updates mutate their own arrays in place.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be 4-D (n,c,h,w), got ndim={arr.ndim}")
        if arr.dtype not in SUPPORTED_DTYPES:
            raise DTypeError(f"unsupported dtype {arr.dtype}; use float32 or float64")
        if min(arr.shape) < 1:
            raise ShapeError(f"all dimensions must be >= 1, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def astype(self, dtype) -> "Tensor":
        dt = np.dtype(dtype)
        if dt not in SUPPORTED_DTYPES:
            raise DTypeError(f"unsupported dtype {dt}; use float32 or float64")
        return Tensor(self.data.astype(dt))

    def __repr__(self) -> str:
        n, c, h, w = self.shape
        return f"Tensor(shape=({n},{c},{h},{w}), dtype={self.data.dtype.name})"
