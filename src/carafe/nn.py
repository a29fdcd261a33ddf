"""Neural primitives: convolution, transposed convolution, depth-to-space,
grouped softmax, ReLU, per-channel affine normalization, SGD.

Every op here is written against a fixed per-element accumulation order so
that the vectorized implementations agree bitwise with the direct loop nests
in reference.py. The orders are part of each op's contract:

- conv2d_forward: each output element starts from the bias, then folds taps
  in (in-channel, ki, kj) lexicographic order.
- conv2d_backward grad_x: per input element, taps fold in (out-channel, ki,
  kj) order. grad_weights/grad_bias: per parameter, the reduction tree is
  column sums over output cols first, then rows, then batch.
- transposed_conv_forward: taps fold in (source-channel, ki, kj) order into a
  zero accumulator; bias is added once at the end.
- softmax_group: per group, max (exact), exp, then a channel-ascending fold
  for the normalizing sum.
- affine_norm: per channel, statistics fold over (batch, row) first into
  per-column partials, then over columns.

Reductions that have no bitwise twin (parameter grads of the transposed
conv, backward of affine_norm, losses) may use numpy reductions freely; they
are still deterministic run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DTypeError, GeometryError, ShapeError
from .tensor import SUPPORTED_DTYPES, Tensor


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class ConvLayerParams:
    """Weights/bias of one convolution stage plus grad and velocity buffers.

    weights shape (c_out, c_in, k, k) for conv2d; for the transposed conv the
    first axis is the *source* (input) channel: (c_src, c_dst, k, k), so the
    same array serves both the forward transposed conv and conv2d_backward.
    """

    weights: np.ndarray
    bias: np.ndarray
    grad_weights: np.ndarray = field(repr=False, default=None)
    grad_bias: np.ndarray = field(repr=False, default=None)
    vel_weights: np.ndarray = field(repr=False, default=None)
    vel_bias: np.ndarray = field(repr=False, default=None)
    # A conv feeding a normalization stage keeps its bias at zero and out of
    # the optimizer: the norm's mean subtraction cancels any bias shift
    # exactly, so the bias would have an identically-zero gradient.
    trainable_bias: bool = True

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ShapeError(f"conv weights must be 4-D, got {self.weights.shape}")
        if self.weights.shape[2] != self.weights.shape[3]:
            raise ShapeError(f"conv kernel must be square, got {self.weights.shape}")
        if self.weights.shape[2] < 1:
            raise ShapeError("conv kernel size must be >= 1")
        if self.weights.dtype not in SUPPORTED_DTYPES:
            raise DTypeError(f"unsupported weight dtype {self.weights.dtype}")
        if self.bias.shape != (self.weights.shape[0],) and \
           self.bias.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"bias length {self.bias.shape} matches neither weight axis of "
                f"{self.weights.shape}")
        if self.grad_weights is None:
            self.grad_weights = np.zeros_like(self.weights)
        if self.grad_bias is None:
            self.grad_bias = np.zeros_like(self.bias)
        if self.vel_weights is None:
            self.vel_weights = np.zeros_like(self.weights)
        if self.vel_bias is None:
            self.vel_bias = np.zeros_like(self.bias)
        if self.grad_weights.shape != self.weights.shape:
            raise ShapeError("grad_weights shape must match weights")
        if self.grad_bias.shape != self.bias.shape:
            raise ShapeError("grad_bias shape must match bias")

    @property
    def k(self) -> int:
        return self.weights.shape[2]

    def zero_grads(self) -> None:
        self.grad_weights[...] = 0
        self.grad_bias[...] = 0

    def slots(self):
        out = [(self.weights, self.grad_weights, self.vel_weights)]
        if self.trainable_bias:
            out.append((self.bias, self.grad_bias, self.vel_bias))
        return out


@dataclass
class AffineNormParams:
    """Per-channel gain/shift of the normalization stage."""

    gamma: np.ndarray
    beta: np.ndarray
    grad_gamma: np.ndarray = field(repr=False, default=None)
    grad_beta: np.ndarray = field(repr=False, default=None)
    vel_gamma: np.ndarray = field(repr=False, default=None)
    vel_beta: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.gamma.ndim != 1 or self.gamma.shape != self.beta.shape:
            raise ShapeError("gamma and beta must be 1-D and the same length")
        if self.grad_gamma is None:
            self.grad_gamma = np.zeros_like(self.gamma)
        if self.grad_beta is None:
            self.grad_beta = np.zeros_like(self.beta)
        if self.vel_gamma is None:
            self.vel_gamma = np.zeros_like(self.gamma)
        if self.vel_beta is None:
            self.vel_beta = np.zeros_like(self.beta)

    def zero_grads(self) -> None:
        self.grad_gamma[...] = 0
        self.grad_beta[...] = 0

    def slots(self):
        return [
            (self.gamma, self.grad_gamma, self.vel_gamma),
            (self.beta, self.grad_beta, self.vel_beta),
        ]


def conv_params(c_out: int, c_in: int, k: int, rng: np.random.Generator | None,
                dtype=np.float64, bias: bool = True) -> ConvLayerParams:
    """Build conv parameters with fan-in uniform init, or zeros without rng.

    Weights ~ U[-s, s] with s = (1 / (c_in * k^2))^0.5; biases start at 0.
    bias=False pins the bias at zero and keeps it out of the optimizer (for
    convs feeding a normalization stage, where a bias cannot act).
    """
    dt = np.dtype(dtype)
    if rng is None:
        w = np.zeros((c_out, c_in, k, k), dtype=dt)
    else:
        s = float(np.sqrt(1.0 / (c_in * k * k)))
        w = rng.uniform(-s, s, size=(c_out, c_in, k, k)).astype(dt)
    b = np.zeros(c_out, dtype=dt)
    return ConvLayerParams(weights=w, bias=b, trainable_bias=bias)


def transposed_conv_params(c_src: int, c_dst: int, k: int,
                           rng: np.random.Generator | None,
                           dtype=np.float64) -> ConvLayerParams:
    """Parameters for transposed_conv_forward: weights (c_src, c_dst, k, k)."""
    dt = np.dtype(dtype)
    if rng is None:
        w = np.zeros((c_src, c_dst, k, k), dtype=dt)
    else:
        s = float(np.sqrt(1.0 / (c_src * k * k)))
        w = rng.uniform(-s, s, size=(c_src, c_dst, k, k)).astype(dt)
    b = np.zeros(c_dst, dtype=dt)
    return ConvLayerParams(weights=w, bias=b)


def affine_params(channels: int, dtype=np.float64) -> AffineNormParams:
    dt = np.dtype(dtype)
    return AffineNormParams(gamma=np.ones(channels, dtype=dt),
                            beta=np.zeros(channels, dtype=dt))


# ---------------------------------------------------------------------------
# convolution


def conv_output_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    if stride < 1 or pad < 0:
        raise GeometryError(f"invalid stride/pad ({stride},{pad})")
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise GeometryError(
            f"conv output would be {h_out}x{w_out} for input {h}x{w}, "
            f"k={k}, stride={stride}, pad={pad}")
    return h_out, w_out


def _check_conv_args(x: Tensor, p: ConvLayerParams) -> None:
    if x.shape[1] != p.weights.shape[1]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but weights expect {p.weights.shape[1]}")
    if p.bias.shape != (p.weights.shape[0],):
        raise ShapeError(
            f"conv bias must have {p.weights.shape[0]} entries, got {p.bias.shape}")
    if x.dtype != p.weights.dtype:
        raise DTypeError(f"dtype mismatch: input {x.dtype} vs weights {p.weights.dtype}")


def conv2d_forward(x: Tensor, p: ConvLayerParams, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding.

    Output (n, c_out, (h+2p-k)//s + 1, (w+2p-k)//s + 1). Accumulation per
    output element: bias first, then taps in (in-channel, ki, kj) order.
    """
    _check_conv_args(x, p)
    n, c_in, h, w = x.shape
    c_out, _, k, _ = p.weights.shape
    h_out, w_out = conv_output_hw(h, w, k, stride, pad)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty((n, c_out, h_out, w_out), dtype=x.dtype)
    out[...] = p.bias.reshape(1, c_out, 1, 1)
    for ci in range(c_in):
        for ki in range(k):
            for kj in range(k):
                xs = xp[:, ci,
                        ki:ki + stride * (h_out - 1) + 1:stride,
                        kj:kj + stride * (w_out - 1) + 1:stride]
                out += p.weights[:, ci, ki, kj].reshape(1, c_out, 1, 1) * xs[:, None]
    return Tensor(out)


def conv2d_backward(grad_out: Tensor, x: Tensor, p: ConvLayerParams,
                    stride: int = 1, pad: int = 0) -> Tensor:
    """Exact adjoint of conv2d_forward.

    Returns grad wrt x and accumulates grad_weights/grad_bias in place.
    grad_x folds taps per input element in (out-channel, ki, kj) order;
    grad_weights/grad_bias use a fixed column/row/batch reduction tree.
    """
    _check_conv_args(x, p)
    n, c_in, h, w = x.shape
    c_out, _, k, _ = p.weights.shape
    h_out, w_out = conv_output_hw(h, w, k, stride, pad)
    if grad_out.shape != (n, c_out, h_out, w_out):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != forward output "
            f"({n},{c_out},{h_out},{w_out})")
    if grad_out.dtype != x.dtype:
        raise DTypeError(f"dtype mismatch: grad_out {grad_out.dtype} vs input {x.dtype}")
    go = grad_out.data
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    for co in range(c_out):
        go_c = go[:, co][:, None]
        for ki in range(k):
            for kj in range(k):
                gxp[:, :,
                    ki:ki + stride * (h_out - 1) + 1:stride,
                    kj:kj + stride * (w_out - 1) + 1:stride] += \
                    p.weights[co, :, ki, kj].reshape(1, c_in, 1, 1) * go_c
    if pad:
        grad_x = gxp[:, :, pad:pad + h, pad:pad + w].copy()
    else:
        grad_x = gxp
    for ki in range(k):
        for kj in range(k):
            xs = xp[:, :,
                    ki:ki + stride * (h_out - 1) + 1:stride,
                    kj:kj + stride * (w_out - 1) + 1:stride]
            s1 = np.zeros((n, c_out, c_in, h_out), dtype=x.dtype)
            for oj in range(w_out):
                s1 += go[:, :, None, :, oj] * xs[:, None, :, :, oj]
            s2 = np.zeros((n, c_out, c_in), dtype=x.dtype)
            for oi in range(h_out):
                s2 += s1[:, :, :, oi]
            s3 = np.zeros((c_out, c_in), dtype=x.dtype)
            for b in range(n):
                s3 += s2[b]
            p.grad_weights[:, :, ki, kj] += s3
    b1 = np.zeros((n, c_out, h_out), dtype=x.dtype)
    for oj in range(w_out):
        b1 += go[:, :, :, oj]
    b2 = np.zeros((n, c_out), dtype=x.dtype)
    for oi in range(h_out):
        b2 += b1[:, :, oi]
    b3 = np.zeros((c_out,), dtype=x.dtype)
    for b in range(n):
        b3 += b2[b]
    p.grad_bias += b3
    return Tensor(grad_x)


# ---------------------------------------------------------------------------
# transposed convolution


def transposed_conv_output_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    if stride < 1 or pad < 0:
        raise GeometryError(f"invalid stride/pad ({stride},{pad})")
    h_out = stride * (h - 1) + k - 2 * pad
    w_out = stride * (w - 1) + k - 2 * pad
    if h_out < 1 or w_out < 1:
        raise GeometryError(
            f"transposed conv output would be {h_out}x{w_out} for input {h}x{w}, "
            f"k={k}, stride={stride}, pad={pad}")
    return h_out, w_out


def _check_tconv_args(x: Tensor, p: ConvLayerParams) -> None:
    if x.shape[1] != p.weights.shape[0]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but transposed weights expect "
            f"{p.weights.shape[0]} (axis 0 is the source channel)")
    if p.bias.shape != (p.weights.shape[1],):
        raise ShapeError(
            f"transposed conv bias must have {p.weights.shape[1]} entries, "
            f"got {p.bias.shape}")
    if x.dtype != p.weights.dtype:
        raise DTypeError(f"dtype mismatch: input {x.dtype} vs weights {p.weights.dtype}")


def transposed_conv_forward(x: Tensor, p: ConvLayerParams, stride: int = 1,
                            pad: int = 0) -> Tensor:
    """Adjoint-of-conv upsampling. Weights (c_src, c_dst, k, k).

    Output spatial size stride*(in-1) + k - 2*pad. With the same weights
    array this equals conv2d_backward's grad_x, which is the defining
    property. Taps fold per output element in (source-channel, ki, kj)
    order; bias is added once after the fold.
    """
    _check_tconv_args(x, p)
    n, c_src, h, w = x.shape
    _, c_dst, k, _ = p.weights.shape
    h_out, w_out = transposed_conv_output_hw(h, w, k, stride, pad)
    h_full = stride * (h - 1) + k
    w_full = stride * (w - 1) + k
    full = np.zeros((n, c_dst, h_full, w_full), dtype=x.dtype)
    for cs in range(c_src):
        xs = x.data[:, cs][:, None]
        for ki in range(k):
            for kj in range(k):
                full[:, :,
                     ki:ki + stride * (h - 1) + 1:stride,
                     kj:kj + stride * (w - 1) + 1:stride] += \
                    p.weights[cs, :, ki, kj].reshape(1, c_dst, 1, 1) * xs
    out = full[:, :, pad:pad + h_out, pad:pad + w_out] + p.bias.reshape(1, c_dst, 1, 1)
    return Tensor(out)


def transposed_conv_backward(grad_out: Tensor, x: Tensor, p: ConvLayerParams,
                             stride: int = 1, pad: int = 0) -> Tensor:
    """Adjoint of transposed_conv_forward; accumulates parameter grads."""
    _check_tconv_args(x, p)
    n, c_src, h, w = x.shape
    _, c_dst, k, _ = p.weights.shape
    h_out, w_out = transposed_conv_output_hw(h, w, k, stride, pad)
    if grad_out.shape != (n, c_dst, h_out, w_out):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != forward output "
            f"({n},{c_dst},{h_out},{w_out})")
    go_full = np.pad(grad_out.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gx = np.zeros_like(x.data)
    for cd in range(c_dst):
        for ki in range(k):
            for kj in range(k):
                gs = go_full[:, cd,
                             ki:ki + stride * (h - 1) + 1:stride,
                             kj:kj + stride * (w - 1) + 1:stride]
                gx += p.weights[:, cd, ki, kj].reshape(1, c_src, 1, 1) * gs[:, None]
    for ki in range(k):
        for kj in range(k):
            gs = go_full[:, :,
                         ki:ki + stride * (h - 1) + 1:stride,
                         kj:kj + stride * (w - 1) + 1:stride]
            p.grad_weights[:, :, ki, kj] += np.einsum(
                "bsij,bdij->sd", x.data, gs, optimize=False)
    p.grad_bias += grad_out.data.sum(axis=(0, 2, 3))
    return Tensor(gx)


# ---------------------------------------------------------------------------
# depth-to-space


def pixel_shuffle(x: Tensor, sigma: int) -> Tensor:
    """Depth-to-space: (n, c*s^2, h, w) -> (n, c, s*h, s*w).

    out(b, ch, s*i + di, s*j + dj) = x(b, ch*s^2 + di*s + dj, i, j).
    Pure permutation, no arithmetic.
    """
    if sigma < 1:
        raise GeometryError(f"sigma must be >= 1, got {sigma}")
    n, c, h, w = x.shape
    if c % (sigma * sigma) != 0:
        raise ShapeError(f"channels {c} not divisible by sigma^2 = {sigma * sigma}")
    if sigma == 1:
        return Tensor(x.data.copy())
    c_out = c // (sigma * sigma)
    y = x.data.reshape(n, c_out, sigma, sigma, h, w)
    y = y.transpose(0, 1, 4, 2, 5, 3)
    return Tensor(np.ascontiguousarray(y).reshape(n, c_out, h * sigma, w * sigma))


def pixel_unshuffle(x: Tensor, sigma: int) -> Tensor:
    """Inverse of pixel_shuffle: (n, c, s*h, s*w) -> (n, c*s^2, h, w)."""
    if sigma < 1:
        raise GeometryError(f"sigma must be >= 1, got {sigma}")
    n, c, h, w = x.shape
    if h % sigma != 0 or w % sigma != 0:
        raise ShapeError(f"spatial size ({h},{w}) not divisible by sigma {sigma}")
    if sigma == 1:
        return Tensor(x.data.copy())
    y = x.data.reshape(n, c, h // sigma, sigma, w // sigma, sigma)
    y = y.transpose(0, 1, 3, 5, 2, 4)
    return Tensor(np.ascontiguousarray(y).reshape(n, c * sigma * sigma, h // sigma, w // sigma))


# ---------------------------------------------------------------------------
# activations and normalization


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, x.dtype.type(0)))


def relu_backward(grad_out: Tensor, x: Tensor) -> Tensor:
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input shape {x.shape}")
    return Tensor(grad_out.data * (x.data > 0))


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic: branch on sign before exponentiating."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax_group(x: Tensor, group: int) -> Tensor:
    """Softmax over contiguous channel groups of the given size, per location.

    Stabilized by per-group max subtraction. The normalizing sum folds group
    channels in ascending order.
    """
    n, c, h, w = x.shape
    if group < 1 or c % group != 0:
        raise ShapeError(f"channels {c} not divisible by group size {group}")
    ngroups = c // group
    xr = x.data.reshape(n, ngroups, group, h, w)
    m = xr.max(axis=2)
    e = np.exp(xr - m[:, :, None])
    s = np.zeros((n, ngroups, h, w), dtype=x.dtype)
    for ch in range(group):
        s += e[:, :, ch]
    y = e / s[:, :, None]
    return Tensor(y.reshape(n, c, h, w))


def softmax_group_backward(grad_out: Tensor, x: Tensor, group: int) -> Tensor:
    """Adjoint of softmax_group: dz = y * (g - sum(g*y)) per group."""
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input shape {x.shape}")
    n, c, h, w = x.shape
    ngroups = c // group
    y = softmax_group(x, group).data.reshape(n, ngroups, group, h, w)
    g = grad_out.data.reshape(n, ngroups, group, h, w)
    dot = np.zeros((n, ngroups, h, w), dtype=x.dtype)
    for ch in range(group):
        dot += g[:, :, ch] * y[:, :, ch]
    dz = y * (g - dot[:, :, None])
    return Tensor(dz.reshape(n, c, h, w))


def affine_norm(x: Tensor, p: AffineNormParams, eps: float = 1e-5) -> Tensor:
    """Standardize each channel over (batch, rows, cols), then gamma/beta.

    Statistics fold (batch, row) pairs into per-column partial sums, then
    fold columns in ascending order; both the mean and the variance pass use
    that tree.
    """
    n, c, h, w = x.shape
    if p.gamma.shape != (c,):
        raise ShapeError(f"gamma has {p.gamma.shape[0]} entries for {c} channels")
    if p.gamma.dtype != x.dtype:
        raise DTypeError(f"dtype mismatch: input {x.dtype} vs gamma {p.gamma.dtype}")
    xd = x.data
    count = x.dtype.type(n * h * w)
    cs = np.zeros((c, w), dtype=x.dtype)
    for b in range(n):
        for i in range(h):
            cs += xd[b, :, i, :]
    tot = np.zeros((c,), dtype=x.dtype)
    for j in range(w):
        tot += cs[:, j]
    mean = tot / count
    d = xd - mean[None, :, None, None]
    cs2 = np.zeros((c, w), dtype=x.dtype)
    for b in range(n):
        for i in range(h):
            cs2 += d[b, :, i, :] * d[b, :, i, :]
    tot2 = np.zeros((c,), dtype=x.dtype)
    for j in range(w):
        tot2 += cs2[:, j]
    var = tot2 / count
    inv = x.dtype.type(1) / np.sqrt(var + x.dtype.type(eps))
    xhat = d * inv[None, :, None, None]
    y = p.gamma[None, :, None, None] * xhat + p.beta[None, :, None, None]
    return Tensor(y)


def affine_norm_backward(grad_out: Tensor, x: Tensor, p: AffineNormParams,
                         eps: float = 1e-5) -> Tensor:
    """Adjoint of affine_norm through the batch statistics.

    Accumulates grad_gamma/grad_beta and returns grad wrt x. Recomputes the
    forward statistics; no cache needed.
    """
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input shape {x.shape}")
    n, c, h, w = x.shape
    xd = x.data
    go = grad_out.data
    count = x.dtype.type(n * h * w)
    mean = xd.mean(axis=(0, 2, 3), dtype=x.dtype)
    d = xd - mean[None, :, None, None]
    var = (d * d).mean(axis=(0, 2, 3), dtype=x.dtype)
    inv = x.dtype.type(1) / np.sqrt(var + x.dtype.type(eps))
    xhat = d * inv[None, :, None, None]
    p.grad_beta += go.sum(axis=(0, 2, 3))
    p.grad_gamma += (go * xhat).sum(axis=(0, 2, 3))
    gxhat = go * p.gamma[None, :, None, None]
    gvar = (gxhat * d).sum(axis=(0, 2, 3)) * (x.dtype.type(-0.5) * inv ** 3)
    gmean = -(gxhat.sum(axis=(0, 2, 3)) * inv) + gvar * (-2.0 * d.sum(axis=(0, 2, 3)) / count)
    gx = gxhat * inv[None, :, None, None] \
        + (2.0 * d / count) * gvar[None, :, None, None] \
        + (gmean / count)[None, :, None, None]
    return Tensor(gx)


# ---------------------------------------------------------------------------
# optimizer


def _param_objects(params) -> list:
    if hasattr(params, "slots"):
        return [params]
    return list(params)


def sgd_step(params, lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """Heavy-ball SGD: v <- momentum*v + g + weight_decay*p; p <- p - lr*v.

    Accepts a single parameter container or an iterable of them.
    """
    for obj in _param_objects(params):
        for value, grad, vel in obj.slots():
            vel *= momentum
            vel += grad
            if weight_decay:
                vel += weight_decay * value
            value -= lr * vel


def zero_grads(params) -> None:
    for obj in _param_objects(params):
        obj.zero_grads()
