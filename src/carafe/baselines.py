"""Rule-based and learned resamplers sharing the reassembly shape contracts.

Every kind maps (n, c, h, w) to the same output size as the content-aware
operator for its direction: ceil(h/sigma) x ceil(w/sigma) down, sigma*h x
sigma*w up. That makes them drop-in slot fillers for the demo nets and the
benchmark roster.

Kinds:
- nearest_up, bilinear_up: interpolation (half-pixel centers, edges clamped)
- max_pool, avg_pool: window k = sigma, stride sigma; odd windows are
  centered like the reassembly neighborhoods, even windows anchor top-left;
  taps off the map count as -inf (max) or 0 (avg, which divides by k^2)
- strided_conv: 3x3 conv, stride sigma, pad 1
- transposed_conv: kernel 2*sigma - (sigma mod 2), pad (k - sigma) / 2
- nearest_plus_conv, bilinear_plus_conv: interpolation then a 3x3 conv
- spatial_attention: a 1x1-conv sigmoid gate scales x, then decimate/repeat
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, GeometryError
from .nn import (ConvLayerParams, _at_least, _check_grad, _fold, _tap_spans,
                 conv2d_backward, conv2d_forward, conv_params, sigmoid_array,
                 transposed_conv_backward, transposed_conv_forward,
                 transposed_conv_params)
from .reassembly import CarafeConfig
from .tensor import Tensor


@dataclass
class ResampleOp:
    kind: str
    sigma: int
    direction: str
    params: Optional[ConvLayerParams] = None


def deconv_geometry(sigma: int) -> tuple[int, int]:
    """(kernel, pad) for the transposed-conv baseline; k - 2*pad == sigma."""
    k = 2 * sigma - (sigma % 2)
    return k, (k - sigma) // 2


# ---------------------------------------------------------------------------
# interpolation helpers


def _nearest_up(xd: np.ndarray, sigma: int) -> np.ndarray:
    """Repeat every pixel sigma x sigma times."""
    rows, cols = (np.arange(sigma * size) // sigma for size in xd.shape[2:])
    return xd[:, :, rows[:, None], cols[None, :]]


def _bilinear_axis(sigma: int, size: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo index, hi index, hi weight) per output coordinate, half-pixel centers."""
    src = (np.arange(sigma * size, dtype=np.float64) + 0.5) / sigma - 0.5
    src = np.maximum(src, 0.0)
    lo = np.minimum(np.floor(src).astype(np.intp), size - 1)
    t = (src - lo).astype(dtype)
    hi = np.minimum(lo + 1, size - 1)
    return lo, hi, t


def _bilinear_up(xd: np.ndarray, sigma: int) -> tuple[np.ndarray, tuple]:
    n, c, h, w = xd.shape
    i0, i1, ti = _bilinear_axis(sigma, h, xd.dtype)
    j0, j1, tj = _bilinear_axis(sigma, w, xd.dtype)
    one = xd.dtype.type(1)
    rows = xd[:, :, i0, :] * (one - ti)[None, None, :, None] \
        + xd[:, :, i1, :] * ti[None, None, :, None]
    out = rows[:, :, :, j0] * (one - tj)[None, None, None, :] \
        + rows[:, :, :, j1] * tj[None, None, None, :]
    return out, (i0, i1, ti, j0, j1, tj, h, w)


def _bilinear_up_adjoint(go: np.ndarray, geom: tuple) -> np.ndarray:
    i0, i1, ti, j0, j1, tj, h, w = geom
    n, c = go.shape[:2]
    one = go.dtype.type(1)
    g_rows = np.zeros((n, c, go.shape[2], w), dtype=go.dtype)
    np.add.at(g_rows, (slice(None), slice(None), slice(None), j0),
              go * (one - tj)[None, None, None, :])
    np.add.at(g_rows, (slice(None), slice(None), slice(None), j1),
              go * tj[None, None, None, :])
    gx = np.zeros((n, c, h, w), dtype=go.dtype)
    np.add.at(gx, (slice(None), slice(None), i0, slice(None)),
              g_rows * (one - ti)[None, None, :, None])
    np.add.at(gx, (slice(None), slice(None), i1, slice(None)),
              g_rows * ti[None, None, :, None])
    return gx


# ---------------------------------------------------------------------------
# pooling helpers


def _pool_taps(h: int, w: int, sigma: int) -> tuple[int, int, list]:
    """(h_out, w_out, nn._tap_spans) of a sigma-window pool over an h x w
    map, h_out x w_out the down operator's: odd windows centered (pad
    sigma // 2), even ones anchored top-left (pad 0)."""
    h_out, w_out = CarafeConfig("down", sigma).output_hw(h, w)
    pad = sigma // 2 if sigma % 2 else 0
    return h_out, w_out, _tap_spans(sigma, sigma, pad, h_out, w_out, h, w)


def _pool_windows(x: np.ndarray, sig: int, fill: float) -> np.ndarray:
    """(sig^2, n, c, h_out, w_out): every window tap of x, fill where a tap
    falls off the map."""
    h_out, w_out, taps = _pool_taps(*x.shape[2:], sig)
    cands = np.full((sig * sig, *x.shape[:2], h_out, w_out), fill, dtype=x.dtype)
    for cand, ((li, ti), (lj, tj)) in zip(cands, taps):
        cand[:, :, li, lj] = x[:, :, ti, tj]
    return cands


def _pool_adjoint(go: np.ndarray, in_hw: tuple[int, int], sig: int,
                  tap_grads) -> Tensor:
    """Add the in-map part of the q-th of tap_grads into window tap q of
    every output."""
    gx = np.zeros((*go.shape[:2], *in_hw), dtype=go.dtype)
    for ((li, ti), (lj, tj)), g in zip(_pool_taps(*in_hw, sig)[2], tap_grads):
        gx[:, :, ti, tj] += g[:, :, li, lj]
    return Tensor(gx)


def _nearest_up_adjoint(go: np.ndarray, sigma: int, h: int, w: int) -> np.ndarray:
    n, c = go.shape[:2]
    return go.reshape(n, c, h, sigma, w, sigma).sum(axis=(3, 5))


# ---------------------------------------------------------------------------
# per-kind forward / backward; each forward returns (output, cache)


def _nearest_up_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    return Tensor(_nearest_up(x.data, op.sigma)), {"in_hw": x.shape[2:]}


def _nearest_up_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    h, w = cache["in_hw"]
    return Tensor(_nearest_up_adjoint(grad_y.data, op.sigma, h, w))


def _bilinear_up_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    y, geom = _bilinear_up(x.data, op.sigma)
    return Tensor(y), {"geom": geom}


def _bilinear_up_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    return Tensor(_bilinear_up_adjoint(grad_y.data, cache["geom"]))


def _max_pool_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    cands = _pool_windows(x.data, op.sigma, -np.inf)
    arg = np.argmax(cands, axis=0)
    y = np.take_along_axis(cands, arg[None], axis=0)[0]
    return Tensor(y), {"arg": arg, "in_hw": x.shape[2:]}


def _max_pool_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    go, arg = grad_y.data, cache["arg"]
    return _pool_adjoint(go, cache["in_hw"], op.sigma,
                         (go * (arg == q) for q in count()))


def _avg_pool_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    acc = _fold(_pool_windows(x.data, op.sigma, 0.0), 0)
    return Tensor(acc / x.dtype.type(op.sigma * op.sigma)), {"in_hw": x.shape[2:]}


def _avg_pool_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    go = grad_y.data
    return _pool_adjoint(go, cache["in_hw"], op.sigma,
                         repeat(go / go.dtype.type(op.sigma * op.sigma)))


def _strided_conv_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    return conv2d_forward(x, op.params, stride=op.sigma, pad=1), {"x": x}


def _strided_conv_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    return conv2d_backward(grad_y, cache["x"], op.params, stride=op.sigma, pad=1)


def _transposed_conv_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    _, pad = deconv_geometry(op.sigma)
    y = transposed_conv_forward(x, op.params, stride=op.sigma, pad=pad)
    return y, {"x": x}


def _transposed_conv_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    _, pad = deconv_geometry(op.sigma)
    return transposed_conv_backward(grad_y, cache["x"], op.params,
                                    stride=op.sigma, pad=pad)


def _spatial_attention_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    sig = op.sigma
    z = conv2d_forward(x, op.params, stride=1, pad=0)
    gate = sigmoid_array(z.data)
    att = x.data * gate
    if op.direction == "down":
        y = att[:, :, ::sig, ::sig]
    else:
        y = _nearest_up(att, sig)
    return Tensor(np.ascontiguousarray(y)), {"x": x, "gate": gate}


def _spatial_attention_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    go = grad_y.data
    sig = op.sigma
    x = cache["x"]
    gate = cache["gate"]
    n, c, h, w = x.shape
    if op.direction == "down":
        g_att = np.zeros((n, c, h, w), dtype=go.dtype)
        g_att[:, :, ::sig, ::sig] = go
    else:
        g_att = _nearest_up_adjoint(go, sig, h, w)
    gx_feat = g_att * gate
    g_gate = (g_att * x.data).sum(axis=1, keepdims=True)
    gz = g_gate * gate * (1.0 - gate)
    gx_pred = conv2d_backward(Tensor(gz), x, op.params, stride=1, pad=0)
    return Tensor(gx_feat + gx_pred.data)


# ---------------------------------------------------------------------------
# the kind table


@dataclass(frozen=True)
class _Kind:
    """One resampler kind: its direction ("up", "down", or None when the
    caller picks), its parameter builder (channels, sigma, rng, dtype) or
    None for fixed kinds, and its forward/backward pair."""

    direction: Optional[str]
    params: Optional[Callable]
    forward: Callable
    backward: Callable


def _conv3x3_params(channels, sigma, rng, dtype):
    return conv_params(channels, channels, 3, rng, dtype)


def _then_conv3x3(interp: _Kind) -> _Kind:
    """Interpolate with `interp`, then a 3x3 conv, stride 1, pad 1."""

    def forward(op, x):
        up, cache = interp.forward(op, x)
        cache["up"] = up
        return conv2d_forward(up, op.params, stride=1, pad=1), cache

    def backward(op, grad_y, cache):
        g_up = conv2d_backward(grad_y, cache["up"], op.params, stride=1, pad=1)
        return interp.backward(op, g_up, cache)

    return _Kind("up", _conv3x3_params, forward, backward)


_NEAREST_UP = _Kind("up", None, _nearest_up_forward, _nearest_up_backward)
_BILINEAR_UP = _Kind("up", None, _bilinear_up_forward, _bilinear_up_backward)

_KINDS = {
    "nearest_up": _NEAREST_UP,
    "bilinear_up": _BILINEAR_UP,
    "transposed_conv": _Kind(
        "up",
        lambda channels, sigma, rng, dtype: transposed_conv_params(
            channels, channels, deconv_geometry(sigma)[0], rng, dtype),
        _transposed_conv_forward, _transposed_conv_backward),
    "nearest_plus_conv": _then_conv3x3(_NEAREST_UP),
    "bilinear_plus_conv": _then_conv3x3(_BILINEAR_UP),
    "max_pool": _Kind("down", None, _max_pool_forward, _max_pool_backward),
    "avg_pool": _Kind("down", None, _avg_pool_forward, _avg_pool_backward),
    "strided_conv": _Kind("down", _conv3x3_params, _strided_conv_forward,
                          _strided_conv_backward),
    "spatial_attention": _Kind(
        None,
        lambda channels, sigma, rng, dtype: conv_params(1, channels, 1, rng, dtype),
        _spatial_attention_forward, _spatial_attention_backward),
}

UP_KINDS = tuple(k for k, v in _KINDS.items() if v.direction == "up")
DOWN_KINDS = tuple(k for k, v in _KINDS.items() if v.direction == "down")
ALL_KINDS = tuple(_KINDS)


def _kind(name: str) -> _Kind:
    try:
        return _KINDS[name]
    except KeyError:
        raise ContractError(
            f"unknown resample kind {name!r}; choose from {ALL_KINDS}") from None


def make_resample_op(kind: str, sigma: int, channels: int | None = None,
                     rng: np.random.Generator | None = None,
                     dtype=np.float64, direction: str | None = None) -> ResampleOp:
    """Build one roster entry; learned kinds need channels (rng optional)."""
    spec = _kind(kind)
    sigma = _at_least("sigma", sigma, 1, GeometryError)
    inferred = spec.direction
    if inferred is None:
        if direction not in ("down", "up"):
            raise GeometryError(f"{kind} needs an explicit direction ('down' or 'up')")
        inferred = direction
    if direction is not None and direction != inferred:
        raise GeometryError(f"{kind} resamples {inferred}, not {direction}")
    params = None
    if spec.params is not None:
        if channels is None:
            raise ContractError(f"{kind} is learned; pass the channel count")
        params = spec.params(channels, sigma, rng, dtype)
    return ResampleOp(kind=kind, sigma=sigma, direction=inferred, params=params)


def resample_output_hw(op: ResampleOp, h: int, w: int) -> tuple[int, int]:
    """The content-aware operator's output size for op's direction and sigma."""
    return CarafeConfig(op.direction, op.sigma).output_hw(h, w)


def resample_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    """Apply the operator; returns (output, cache for resample_backward),
    the cache holding the output's (shape, dtype) under "out"."""
    y, cache = _kind(op.kind).forward(op, x)
    cache["out"] = (y.shape, y.dtype)
    return y, cache


def resample_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    """Adjoint of resample_forward; accumulates grads of learned params."""
    kind = _kind(op.kind)
    if cache is None or "out" not in cache:
        raise ContractError("resample_backward needs the cache from resample_forward")
    _check_grad(grad_y, *cache["out"])
    return kind.backward(op, grad_y, cache)
