"""Bit-exact tensor persistence and PGM image import/export.

Tensor container layout (little-endian on every host):
  bytes 0..3   magic "CRFT"
  byte  4      version, currently 1
  byte  5      dtype code: 1 = float32, 2 = float64
  bytes 6..21  four u32 shape fields (n, c, h, w)
  bytes 22..   raw payload, row-major, little-endian

PGM support is binary 8-bit grayscale only (P5, maxval 255); pixel v maps to
v/255 on load and round(clip(v,0,1)*255) on save; a NaN is not saved.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericError, ShapeError
from .tensor import Tensor

MAGIC = b"CRFT"
VERSION = 1
_HEADER_LEN = 22
_DTYPE_FOR_CODE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_DTYPE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_NATIVE_FOR_CODE = {1: np.float32, 2: np.float64}


def save_tensor(t: Tensor, path) -> None:
    code = _CODE_FOR_DTYPE[t.dtype]
    header = MAGIC + struct.pack("<BB4I", VERSION, code, *t.shape)
    payload = np.ascontiguousarray(t.data.astype(_DTYPE_FOR_CODE[code], copy=False))
    Path(path).write_bytes(header + payload.tobytes())


def load_tensor(path) -> Tensor:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_LEN:
        raise FormatError(
            f"file too short for header: {len(raw)} bytes, need {_HEADER_LEN}",
            offset=len(raw))
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}", offset=0)
    version = raw[4]
    if version != VERSION:
        raise FormatError(f"unsupported version {version}, expected {VERSION}", offset=4)
    code = raw[5]
    if code not in _DTYPE_FOR_CODE:
        raise FormatError(f"unknown dtype code {code}", offset=5)
    shape = struct.unpack("<4I", raw[6:_HEADER_LEN])
    if min(shape) < 1:
        raise FormatError(f"invalid shape {shape}: zero dimension", offset=6)
    dtype = _DTYPE_FOR_CODE[code]
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    actual = len(raw) - _HEADER_LEN
    if actual != expected:
        raise FormatError(
            f"payload is {actual} bytes, expected {expected} for shape {shape}",
            offset=_HEADER_LEN)
    arr = np.frombuffer(raw, dtype=dtype, offset=_HEADER_LEN).reshape(shape)
    return Tensor(arr.astype(_NATIVE_FOR_CODE[code]))


def _next_pgm_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Skip whitespace and # comments; return (token, next pos, token offset)."""
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in b" \t\r\n":
            pos += 1
        elif b == ord("#"):
            while pos < n and data[pos] != ord("\n"):
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("unexpected end of file in PGM header", offset=pos)
    start = pos
    while pos < n and data[pos] not in b" \t\r\n":
        pos += 1
    return data[start:pos], pos, start


def load_pgm(path, dtype=np.float64) -> Tensor:
    """Read a binary 8-bit PGM into a (1,1,h,w) tensor with values in [0,1]."""
    raw = Path(path).read_bytes()
    if len(raw) < 2:
        raise FormatError("file too short to be a PGM", offset=len(raw))
    magic = raw[:2]
    if magic == b"P2":
        raise FormatError("ASCII PGM (P2) is unsupported; use binary P5", offset=0)
    if magic != b"P5":
        raise FormatError(f"bad PGM magic {magic!r}, expected b'P5'", offset=0)
    pos = 2
    fields = []
    for _ in range(3):
        token, pos, tok_off = _next_pgm_token(raw, pos)
        try:
            fields.append((int(token), tok_off))
        except ValueError:
            raise FormatError(f"non-numeric PGM header token {token!r}",
                              offset=tok_off) from None
    (width, w_off), (height, h_off), (maxval, m_off) = fields
    if width < 1 or height < 1:
        raise FormatError(f"invalid PGM size {width}x{height}",
                          offset=min(w_off, h_off))
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; only 8-bit (255) PGM",
                          offset=m_off)
    pos += 1
    expected = width * height
    payload = raw[pos:]
    if len(payload) != expected:
        raise FormatError(
            f"PGM payload is {len(payload)} bytes, expected {expected}", offset=pos)
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    values = arr.astype(np.dtype(dtype)) / np.dtype(dtype).type(255)
    return Tensor(values[None, None])


def save_pgm(t: Tensor, path) -> None:
    """Write a (1,1,h,w) tensor as binary 8-bit PGM, clipping to [0,1];
    NumericError for a NaN, which has no pixel value."""
    n, c, h, w = t.shape
    if n != 1 or c != 1:
        raise ShapeError(f"PGM export needs a (1,1,h,w) tensor, got {t.shape}")
    if np.isnan(t.data).any():
        raise NumericError("PGM export of a tensor that holds a NaN")
    v = np.clip(t.data[0, 0], 0.0, 1.0)
    payload = np.round(v * 255.0).astype(np.uint8)
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + payload.tobytes())
