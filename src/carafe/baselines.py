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

Each kind is one forward returning (output, backward), the backward a
closure over what that forward computed. resample_backward raises
ContractError for a cache resample_forward did not make for the same op.
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


def _nearest_up_adjoint(go: np.ndarray, sigma: int, h: int, w: int) -> np.ndarray:
    n, c = go.shape[:2]
    return go.reshape(n, c, h, sigma, w, sigma).sum(axis=(3, 5))


def _bilinear_axis(sigma: int, size: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo index, hi index, hi weight) per output coordinate, half-pixel centers."""
    src = (np.arange(sigma * size, dtype=np.float64) + 0.5) / sigma - 0.5
    src = np.maximum(src, 0.0)
    lo = np.minimum(np.floor(src).astype(np.intp), size - 1)
    t = (src - lo).astype(dtype)
    hi = np.minimum(lo + 1, size - 1)
    return lo, hi, t


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


def _pool_adjoint(in_hw: tuple[int, int], sig: int, tap_grads: Callable) -> Callable:
    """The backward of a pool over an in_hw map: it adds the in-map part of the
    q-th array of tap_grads(go) into window tap q of every output."""

    def backward(grad_y: Tensor) -> Tensor:
        go = grad_y.data
        gx = np.zeros((*go.shape[:2], *in_hw), dtype=go.dtype)
        for ((li, ti), (lj, tj)), g in zip(_pool_taps(*in_hw, sig)[2], tap_grads(go)):
            gx[:, :, ti, tj] += g[:, :, li, lj]
        return Tensor(gx)

    return backward


# ---------------------------------------------------------------------------
# one function per kind: (op, x) -> (output, backward); backward(grad_y) is
# the adjoint at x and accumulates the op's param grads


def _nearest_up_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, Callable]:
    h, w = x.shape[2:]
    return (Tensor(_nearest_up(x.data, op.sigma)),
            lambda grad_y: Tensor(_nearest_up_adjoint(grad_y.data, op.sigma, h, w)))


def _bilinear_up_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, Callable]:
    xd = x.data
    n, c, h, w = xd.shape
    i0, i1, ti = _bilinear_axis(op.sigma, h, xd.dtype)
    j0, j1, tj = _bilinear_axis(op.sigma, w, xd.dtype)
    one = xd.dtype.type(1)
    rows = xd[:, :, i0, :] * (one - ti)[None, None, :, None] \
        + xd[:, :, i1, :] * ti[None, None, :, None]
    out = rows[:, :, :, j0] * (one - tj)[None, None, None, :] \
        + rows[:, :, :, j1] * tj[None, None, None, :]

    def backward(grad_y: Tensor) -> Tensor:
        go = grad_y.data
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
        return Tensor(gx)

    return Tensor(out), backward


def _max_pool_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, Callable]:
    cands = _pool_windows(x.data, op.sigma, -np.inf)
    arg = np.argmax(cands, axis=0)
    return (Tensor(np.take_along_axis(cands, arg[None], axis=0)[0]),
            _pool_adjoint(x.shape[2:], op.sigma,
                          lambda go: (go * (arg == q) for q in count())))


def _avg_pool_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, Callable]:
    acc = _fold(_pool_windows(x.data, op.sigma, 0.0), 0)
    area = x.dtype.type(op.sigma * op.sigma)
    return (Tensor(acc / area),
            _pool_adjoint(x.shape[2:], op.sigma, lambda go: repeat(go / area)))


def _strided_conv_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, Callable]:
    return (conv2d_forward(x, op.params, stride=op.sigma, pad=1),
            lambda grad_y: conv2d_backward(grad_y, x, op.params, stride=op.sigma, pad=1))


def _transposed_conv_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, Callable]:
    _, pad = deconv_geometry(op.sigma)
    return (transposed_conv_forward(x, op.params, stride=op.sigma, pad=pad),
            lambda grad_y: transposed_conv_backward(grad_y, x, op.params,
                                                    stride=op.sigma, pad=pad))


def _spatial_attention_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, Callable]:
    sig = op.sigma
    z = conv2d_forward(x, op.params, stride=1, pad=0)
    gate = sigmoid_array(z.data)
    att = x.data * gate
    if op.direction == "down":
        y = att[:, :, ::sig, ::sig]
    else:
        y = _nearest_up(att, sig)

    def backward(grad_y: Tensor) -> Tensor:
        go = grad_y.data
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

    return Tensor(np.ascontiguousarray(y)), backward


# ---------------------------------------------------------------------------
# the kind table


@dataclass(frozen=True)
class _Kind:
    """One resampler kind: its direction ("up", "down", or None when the
    caller picks), its parameter builder (channels, sigma, rng, dtype) or
    None for fixed kinds, and its forward, which returns (output, backward)."""

    direction: Optional[str]
    params: Optional[Callable]
    forward: Callable


def _conv3x3_params(channels, sigma, rng, dtype):
    return conv_params(channels, channels, 3, rng, dtype)


def _then_conv3x3(interp: Callable) -> _Kind:
    """Interpolate with the kind forward `interp`, then a stride-1 3x3 conv."""

    def forward(op, x):
        up, interp_backward = interp(op, x)
        return (conv2d_forward(up, op.params, stride=1, pad=1),
                lambda grad_y: interp_backward(
                    conv2d_backward(grad_y, up, op.params, stride=1, pad=1)))

    return _Kind("up", _conv3x3_params, forward)


_KINDS = {
    "nearest_up": _Kind("up", None, _nearest_up_forward),
    "bilinear_up": _Kind("up", None, _bilinear_up_forward),
    "transposed_conv": _Kind(
        "up",
        lambda channels, sigma, rng, dtype: transposed_conv_params(
            channels, channels, deconv_geometry(sigma)[0], rng, dtype),
        _transposed_conv_forward),
    "nearest_plus_conv": _then_conv3x3(_nearest_up_forward),
    "bilinear_plus_conv": _then_conv3x3(_bilinear_up_forward),
    "max_pool": _Kind("down", None, _max_pool_forward),
    "avg_pool": _Kind("down", None, _avg_pool_forward),
    "strided_conv": _Kind("down", _conv3x3_params, _strided_conv_forward),
    "spatial_attention": _Kind(
        None,
        lambda channels, sigma, rng, dtype: conv_params(1, channels, 1, rng, dtype),
        _spatial_attention_forward),
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


def resample_forward(op: ResampleOp, x: Tensor) -> tuple[Tensor, dict]:
    """Apply the operator; returns (output, cache for resample_backward),
    the cache holding the op under "op", the output's (shape, dtype) under
    "out" and the adjoint at x under "backward"."""
    y, backward = _kind(op.kind).forward(op, x)
    return y, {"op": op, "out": (y.shape, y.dtype), "backward": backward}


def resample_backward(op: ResampleOp, grad_y: Tensor, cache: dict) -> Tensor:
    """Adjoint of resample_forward; accumulates grads of learned params.
    cache must be the one resample_forward returned for this same op."""
    if not isinstance(cache, dict) or cache.get("op") is not op:
        raise ContractError(
            "resample_backward needs the cache resample_forward made for this op")
    _check_grad(grad_y, *cache["out"])
    return cache["backward"](grad_y)
