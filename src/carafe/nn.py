"""Neural primitives: convolution, transposed convolution, depth-to-space,
grouped softmax, ReLU, per-channel affine normalization, SGD.

Convolution and reassembly have two numeric tiers, chosen per context by
exact_tier(). Every seam reads the choice through _gemm_tier, called as
nn._gemm_tier from reassembly, so one patch of it sees every decision:

- The exact tier commits each element to a fixed accumulation order, so it
  agrees bitwise with the direct loop nests in reference.py. It runs inside
  ``with exact_tier():``, which every entry point that writes an artifact
  enters: cli.main (its sweep runs each cell in a copy of main's context),
  scripts/compare_operators.py and scripts/exact_digest.py.
  tests/test_fast_tier.py fails if one of them, or a new CLI command,
  reaches a conv or a reassembly on the fast tier. gradcheck.check_op and
  demo.compare_operators run on their caller's tier.
- The fast tier is the default, for callers that train or run the layers
  themselves, as scripts/seed_sensitivity.py does when it trains the
  criterion 7/8 nets on both tiers with exact_tier(exact). Convolution keeps
  the ascending tap loop but folds the channels of each tap into one BLAS
  matrix product (shift-and-GEMM); reassembly's tier is described in
  reassembly.py. Its sums run in BLAS order: it is deterministic run to run
  in one process, and agrees with the exact tier within the tolerances
  pinned in tests/test_fast_tier.py, not bitwise.

The exact orders are part of the exact tier's contract, and each is stated
once, at the loop that carries it (reassembly's at reassembly._phase_step):

- _gather_taps: the tap fold of conv2d_forward (from the bias) and of the
  transposed conv's input gradient (from zero).
- _scatter_taps: the tap fold of conv2d_backward's input gradient and of
  transposed_conv_forward (whose bias is added once after the fold).
- conv2d_backward: grad_weights and grad_bias as one fold over im2col rows
  (the bias is a column of ones): per element, output cols, then rows.
- _fold: every plain sum, each along one axis in ascending order. It has no
  fast tier, so every op but the convolutions and reassembly is exact on
  both tiers.

Reductions that have no bitwise twin (parameter grads of the transposed
conv, backward of affine_norm, losses) may use numpy reductions freely; they
are still deterministic run to run.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DTypeError, GeometryError, ShapeError
from .tensor import SUPPORTED_DTYPES, Tensor


# ---------------------------------------------------------------------------
# parameter containers


class _TrainableArrays:
    """Bookkeeping shared by the parameter containers: each array named in
    _ARRAYS gets zeroed grad_<name> and vel_<name> buffers of its shape, and
    named_slots() is the one place that says which of them train."""

    _ARRAYS: tuple = ()

    def _init_buffers(self) -> None:
        for name in self._ARRAYS:
            for buf in ("grad_", "vel_"):
                setattr(self, buf + name, np.zeros_like(getattr(self, name)))

    def _trainable(self) -> tuple:
        return self._ARRAYS

    def zero_grads(self) -> None:
        for name in self._ARRAYS:
            getattr(self, "grad_" + name)[...] = 0

    def named_slots(self):
        """Yield (name, value, grad, vel) for each trainable array."""
        for name in self._trainable():
            yield (name, getattr(self, name), getattr(self, "grad_" + name),
                   getattr(self, "vel_" + name))

    def slots(self):
        return [slot[1:] for slot in self.named_slots()]


@dataclass
class ConvLayerParams(_TrainableArrays):
    """Weights/bias of one convolution stage plus grad and velocity buffers.

    weights shape (c_out, c_in, k, k) for conv2d; for the transposed conv the
    first axis is the *source* (input) channel: (c_src, c_dst, k, k), so the
    same array serves both the forward transposed conv and conv2d_backward.
    """

    weights: np.ndarray
    bias: np.ndarray
    # A conv feeding a normalization stage keeps its bias at zero and out of
    # the optimizer: the norm's mean subtraction cancels any bias shift
    # exactly, so the bias would have an identically-zero gradient.
    trainable_bias: bool = True

    _ARRAYS = ("weights", "bias")

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
        self._init_buffers()

    def _trainable(self) -> tuple:
        return self._ARRAYS if self.trainable_bias else ("weights",)

    @property
    def k(self) -> int:
        return self.weights.shape[2]


@dataclass
class AffineNormParams(_TrainableArrays):
    """Per-channel gain/shift of the normalization stage."""

    gamma: np.ndarray
    beta: np.ndarray

    _ARRAYS = ("gamma", "beta")

    def __post_init__(self):
        if self.gamma.ndim != 1 or self.gamma.shape != self.beta.shape:
            raise ShapeError("gamma and beta must be 1-D and the same length")
        self._init_buffers()


def _init_weights(shape: tuple, fan_in: int, rng: np.random.Generator | None,
                  dtype) -> np.ndarray:
    """Fan-in uniform U[-s, s], s = (1 / (fan_in * k^2))^0.5, or zeros
    without rng. Every size must be >= 1."""
    if min(shape) < 1:
        raise ShapeError(f"conv weight sizes must be >= 1, got {shape}")
    dt = np.dtype(dtype)
    if rng is None:
        return np.zeros(shape, dtype=dt)
    s = float(np.sqrt(1.0 / (fan_in * shape[2] * shape[3])))
    return rng.uniform(-s, s, size=shape).astype(dt)


def conv_params(c_out: int, c_in: int, k: int, rng: np.random.Generator | None,
                dtype=np.float64, bias: bool = True) -> ConvLayerParams:
    """Build conv parameters with fan-in uniform init, or zeros without rng.

    Weights ~ U[-s, s] with s = (1 / (c_in * k^2))^0.5; biases start at 0.
    bias=False pins the bias at zero and keeps it out of the optimizer (for
    convs feeding a normalization stage, where a bias cannot act).
    """
    w = _init_weights((c_out, c_in, k, k), c_in, rng, dtype)
    return ConvLayerParams(weights=w, bias=np.zeros(c_out, dtype=w.dtype),
                           trainable_bias=bias)


def transposed_conv_params(c_src: int, c_dst: int, k: int,
                           rng: np.random.Generator | None,
                           dtype=np.float64) -> ConvLayerParams:
    """Parameters for transposed_conv_forward: weights (c_src, c_dst, k, k)."""
    w = _init_weights((c_src, c_dst, k, k), c_src, rng, dtype)
    return ConvLayerParams(weights=w, bias=np.zeros(c_dst, dtype=w.dtype))


def affine_params(channels: int, dtype=np.float64) -> AffineNormParams:
    if channels < 1:
        raise ShapeError(f"affine norm needs >= 1 channel, got {channels}")
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


def _fold(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum a along one axis in ascending index order, starting from zero.

    The one plain fixed-order sum of the exact tier. Its callers:
    - softmax_group: the normalizing sum over a group's channels, and the
      backward's dot of grad and output;
    - affine_norm: each statistic over (batch, row) pairs, batch outer, into
      per-column partials, then over columns;
    - conv2d_backward: the parameter-gradient rows over the batch;
    - the sigmoid_norm normalizer of reassembly: its sum and backward dot;
    - the average-pooling baseline: the window taps, row-major.
    """
    parts = np.moveaxis(a, axis, 0)
    acc = np.zeros(parts.shape[1:], dtype=a.dtype)
    for part in parts:
        acc += part
    return acc


def _taps(k: int, stride: int, h: int, w: int):
    """(ki, kj, rows, cols) of each tap, row-major: the strided window of the
    padded map that meets an h x w grid through tap (ki, kj)."""
    for ki in range(k):
        for kj in range(k):
            yield (ki, kj, slice(ki, ki + stride * (h - 1) + 1, stride),
                   slice(kj, kj + stride * (w - 1) + 1, stride))


# True inside exact_tier(). A new thread starts with a fresh context, so on
# the fast tier, whatever the thread that started it had set; a thread pool
# that must keep its submitter's tier runs each task in a copy of the
# submitter's context (contextvars.copy_context().run), as cli's sweep does.
_EXACT = contextvars.ContextVar("carafe_exact_tier", default=False)


@contextmanager
def exact_tier(exact: bool = True):
    """Run every convolution and reassembly in this context on the exact
    tier, or, with exact=False, on the fast tier."""
    token = _EXACT.set(exact)
    try:
        yield
    finally:
        _EXACT.reset(token)


def _gemm_tier(terms: int) -> bool:
    """Whether a conv or reassembly seam takes the fast tier's products. Not
    on the exact tier, and not for a one-term contraction: there each product
    is a single multiply, so the exact fold gives the same bits with fewer
    numpy calls."""
    return terms > 1 and not _EXACT.get()


def _tap_matrices(weights: np.ndarray) -> np.ndarray:
    """weights (a, b, k, k) -> (k, k, a, b), contiguous: one BLAS operand per
    tap."""
    return np.ascontiguousarray(weights.transpose(2, 3, 0, 1))


def _channel_major(a: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> the (c, n*h*w) matrix of its channel rows."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def _tap_windows(src: np.ndarray, k: int, stride: int, h: int, w: int):
    """(ki, kj, window) of each tap, row-major: the fast tier's GEMM operand,
    _channel_major of the strided h x w window of src that the tap meets."""
    for ki, kj, rows, cols in _taps(k, stride, h, w):
        yield ki, kj, _channel_major(src[:, :, rows, cols])


def _gather_taps(acc: np.ndarray, src: np.ndarray, weights: np.ndarray,
                 stride: int) -> np.ndarray:
    """acc[:, o, i, j] += weights[o, c, ki, kj] * src[:, c, ki + s*i, kj + s*j].

    The one gather fold. src is already padded. Exact tier: per element of
    acc, taps fold in (c, ki, kj) order on top of whatever acc holds. Fast
    tier: per tap, acc += W[:, :, ki, kj] @ window.
    """
    n, c_out, h, w = acc.shape
    k = weights.shape[2]
    if _gemm_tier(weights.shape[1]):
        acc_cm = acc.transpose(1, 0, 2, 3)
        tap_w = _tap_matrices(weights)
        for ki, kj, win in _tap_windows(src, k, stride, h, w):
            acc_cm += (tap_w[ki, kj] @ win).reshape(c_out, n, h, w)
        return acc
    for c in range(weights.shape[1]):
        for ki, kj, rows, cols in _taps(k, stride, h, w):
            w_c = weights[:, c, ki, kj].reshape(1, -1, 1, 1)
            acc += w_c * src[:, c, rows, cols][:, None]
    return acc


def _scatter_taps(acc: np.ndarray, src: np.ndarray, weights: np.ndarray,
                  stride: int) -> np.ndarray:
    """acc[:, o, ki + s*i, kj + s*j] += weights[c, o, ki, kj] * src[:, c, i, j].

    The adjoint of _gather_taps and the one scatter fold. acc is the padded
    (or uncropped) map. Exact tier: per element of acc, taps fold in
    (c, ki, kj) order. Fast tier: per tap, acc[view] += W[:, :, ki, kj].T @ src.
    """
    n, _, h, w = src.shape
    c_o, k = weights.shape[1], weights.shape[2]
    if _gemm_tier(weights.shape[0]):
        acc_cm = acc.transpose(1, 0, 2, 3)
        tap_w = _tap_matrices(weights)
        src_cm = _channel_major(src)
        for ki, kj, rows, cols in _taps(k, stride, h, w):
            acc_cm[:, :, rows, cols] += (tap_w[ki, kj].T @ src_cm).reshape(c_o, n, h, w)
        return acc
    for c in range(weights.shape[0]):
        for ki, kj, rows, cols in _taps(k, stride, h, w):
            w_c = weights[c, :, ki, kj].reshape(1, -1, 1, 1)
            acc[:, :, rows, cols] += w_c * src[:, c][:, None]
    return acc


def _fold_weight_taps(grad_w: np.ndarray, lhs: np.ndarray, src: np.ndarray,
                      stride: int, h: int, w: int) -> None:
    """The fast tier of a conv weight gradient: per tap,
    grad_w[:, :, ki, kj] += lhs @ window.T, where lhs is the
    (grad_w.shape[0], n*h*w) matrix that meets each window of src."""
    for ki, kj, win in _tap_windows(src, grad_w.shape[2], stride, h, w):
        grad_w[:, :, ki, kj] += lhs @ win.T


def conv2d_forward(x: Tensor, p: ConvLayerParams, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding: the gather fold from the bias.

    Output (n, c_out, (h+2p-k)//s + 1, (w+2p-k)//s + 1).
    """
    _check_conv_args(x, p)
    n, _, h, w = x.shape
    c_out, _, k, _ = p.weights.shape
    h_out, w_out = conv_output_hw(h, w, k, stride, pad)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty((n, c_out, h_out, w_out), dtype=x.dtype)
    out[...] = p.bias.reshape(1, c_out, 1, 1)
    return Tensor(_gather_taps(out, xp, p.weights, stride))


def conv2d_backward(grad_out: Tensor, x: Tensor, p: ConvLayerParams,
                    stride: int = 1, pad: int = 0) -> Tensor:
    """Exact adjoint of conv2d_forward.

    Returns grad wrt x (the scatter fold into the padded input) and
    accumulates grad_weights/grad_bias in place. On the exact tier, per
    parameter, their reduction tree is column sums over output cols first,
    then rows, then batch; every tap and the bias ride in one im2col row per
    output row. On the fast tier each tap's weights take one GEMM and the
    bias a numpy sum.
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
    gxp = _scatter_taps(np.zeros_like(xp), go, p.weights, stride)
    if pad:
        grad_x = gxp[:, :, pad:pad + h, pad:pad + w].copy()
    else:
        grad_x = gxp
    if _gemm_tier(n * h_out * w_out):
        _fold_weight_taps(p.grad_weights, _channel_major(go), xp, stride,
                          h_out, w_out)
        p.grad_bias += go.sum(axis=(0, 2, 3))
        return Tensor(grad_x)
    # im2col row oi: (b, oj, ci*k*k + ki*k + kj) <- x window; last column 1,
    # so grad_bias is the last column of the same fold (go * 1 == go).
    taps = c_in * k * k
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
    cols = np.ones((n, w_out, taps + 1), dtype=x.dtype)
    cols_x = cols[:, :, :taps].reshape(n, w_out, c_in, k, k)
    prod = np.empty((n, c_out, taps + 1), dtype=x.dtype)
    col_acc = np.empty_like(prod)
    row_acc = np.zeros_like(prod)
    for oi in range(h_out):
        cols_x[...] = win[:, oi]
        col_acc[...] = 0
        for oj in range(w_out):
            col_acc += np.multiply(go[:, :, oi, oj, None], cols[:, None, oj], out=prod)
        row_acc += col_acc
    batch_acc = _fold(row_acc, 0)
    p.grad_weights += batch_acc[:, :taps].reshape(p.weights.shape)
    p.grad_bias += batch_acc[:, taps]
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
    array this is conv2d_backward's grad_x: the same scatter fold into the
    uncropped map, then the crop, then the bias added once.
    """
    _check_tconv_args(x, p)
    n, _, h, w = x.shape
    _, c_dst, k, _ = p.weights.shape
    h_out, w_out = transposed_conv_output_hw(h, w, k, stride, pad)
    full = np.zeros((n, c_dst, stride * (h - 1) + k, stride * (w - 1) + k),
                    dtype=x.dtype)
    _scatter_taps(full, x.data, p.weights, stride)
    out = full[:, :, pad:pad + h_out, pad:pad + w_out] + p.bias.reshape(1, c_dst, 1, 1)
    return Tensor(out)


def transposed_conv_backward(grad_out: Tensor, x: Tensor, p: ConvLayerParams,
                             stride: int = 1, pad: int = 0) -> Tensor:
    """Adjoint of transposed_conv_forward; accumulates parameter grads.

    grad_x is the gather fold from zero: conv2d_forward of grad_out with the
    same weights array and no bias.
    """
    _check_tconv_args(x, p)
    n, _, h, w = x.shape
    _, c_dst, k, _ = p.weights.shape
    h_out, w_out = transposed_conv_output_hw(h, w, k, stride, pad)
    if grad_out.shape != (n, c_dst, h_out, w_out):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != forward output "
            f"({n},{c_dst},{h_out},{w_out})")
    go_full = np.pad(grad_out.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gx = _gather_taps(np.zeros_like(x.data), go_full, p.weights, stride)
    if _gemm_tier(n * h * w):
        _fold_weight_taps(p.grad_weights, _channel_major(x.data), go_full,
                          stride, h, w)
    else:
        for ki, kj, rows, cols in _taps(k, stride, h, w):
            p.grad_weights[:, :, ki, kj] += np.einsum(
                "bsij,bdij->sd", x.data, go_full[:, :, rows, cols],
                optimize=False)
    p.grad_bias += grad_out.data.sum(axis=(0, 2, 3))
    return Tensor(gx)


# ---------------------------------------------------------------------------
# depth-to-space


def _to_phases(a: np.ndarray, s: int) -> np.ndarray:
    """Phase-major layout: (n, c, s*h, s*w) -> (n, c, s, s, h, w), with
    [b, ch, di, dj, i, j] = a[b, ch, s*i + di, s*j + dj]. No copy when s == 1."""
    n, c, h, w = a.shape
    y = a.reshape(n, c, h // s, s, w // s, s).transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(y)


def _from_phases(a: np.ndarray) -> np.ndarray:
    """Inverse of _to_phases: (n, c, s, s, h, w) -> (n, c, s*h, s*w)."""
    n, c, s, _, h, w = a.shape
    return np.ascontiguousarray(a.transpose(0, 1, 4, 2, 5, 3)).reshape(n, c, s * h, s * w)


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
    return Tensor(_from_phases(x.data.reshape(n, c // (sigma * sigma), sigma, sigma, h, w)))


def pixel_unshuffle(x: Tensor, sigma: int) -> Tensor:
    """Inverse of pixel_shuffle: (n, c, s*h, s*w) -> (n, c*s^2, h, w)."""
    if sigma < 1:
        raise GeometryError(f"sigma must be >= 1, got {sigma}")
    n, c, h, w = x.shape
    if h % sigma != 0 or w % sigma != 0:
        raise ShapeError(f"spatial size ({h},{w}) not divisible by sigma {sigma}")
    if sigma == 1:
        return Tensor(x.data.copy())
    y = _to_phases(x.data, sigma)
    return Tensor(y.reshape(n, c * sigma * sigma, h // sigma, w // sigma))


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

    Stabilized by per-group max subtraction, then a _fold over the group.
    """
    n, c, h, w = x.shape
    if group < 1 or c % group != 0:
        raise ShapeError(f"channels {c} not divisible by group size {group}")
    ngroups = c // group
    xr = x.data.reshape(n, ngroups, group, h, w)
    m = xr.max(axis=2)
    e = np.exp(xr - m[:, :, None])
    y = e / _fold(e, 2)[:, :, None]
    return Tensor(y.reshape(n, c, h, w))


def softmax_group_backward(grad_out: Tensor, y: Tensor, group: int) -> Tensor:
    """Adjoint of softmax_group: dz = y * (g - sum(g*y)) per group.

    The second argument is softmax_group's output y. It used to be the
    logits, from which the backward ran the forward a second time.
    """
    if grad_out.shape != y.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != output shape {y.shape}")
    n, c, h, w = y.shape
    if group < 1 or c % group != 0:
        raise ShapeError(f"channels {c} not divisible by group size {group}")
    ngroups = c // group
    y = y.data.reshape(n, ngroups, group, h, w)
    g = grad_out.data.reshape(n, ngroups, group, h, w)
    dz = y * (g - _fold(g * y, 2)[:, :, None])
    return Tensor(dz.reshape(n, c, h, w))


def affine_norm(x: Tensor, p: AffineNormParams, eps: float = 1e-5) -> Tensor:
    """Standardize each channel over (batch, rows, cols), then gamma/beta.

    The mean and the variance each take the fold tree stated at _fold.
    """
    n, c, h, w = x.shape
    if p.gamma.shape != (c,):
        raise ShapeError(f"gamma has {p.gamma.shape[0]} entries for {c} channels")
    if p.gamma.dtype != x.dtype:
        raise DTypeError(f"dtype mismatch: input {x.dtype} vs gamma {p.gamma.dtype}")
    xd = x.data
    count = x.dtype.type(n * h * w)

    def total(a):
        return _fold(_fold(a.transpose(0, 2, 1, 3).reshape(n * h, c, w), 0), 1)

    mean = total(xd) / count
    d = xd - mean[None, :, None, None]
    var = total(d * d) / count
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
