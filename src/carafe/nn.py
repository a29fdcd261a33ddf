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
  criterion 7/8 nets on both tiers with exact_tier(exact). Convolution
  unfolds its input into blocks of (locations, k*k*c_in) windows
  (_unfold_blocks, shared with reassembly) and takes one GEMM per block
  against the (c_out, k*k*c_in) weight matrix (blocked im2col + GEMM,
  Chellapilla, Puri and Simard 2006); reassembly's tier is described in
  reassembly.py. Its sums run in BLAS order, so its bits repeat at a fixed
  BLAS thread count but may differ between counts (the input gradient of
  the conv (1,64,16,16) -> 100, k 3, does between 1 and 2 OpenBLAS
  threads). It agrees with the exact tier within the tolerances pinned in
  tests/test_fast_tier.py, not bitwise.

Borders follow one rule: gathers pad, scatters clip. A gather reads a
zero-padded copy (_windows); a scatter (_scatter_taps, reassembly's source
gradient, the pooling adjoints) adds each tap's span clipped to the map
(_tap_spans) into an unpadded result, so nothing is cropped.

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
import operator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DTypeError, GeometryError, ShapeError
from .tensor import SUPPORTED_DTYPES, Tensor


# ---------------------------------------------------------------------------
# parameter containers


class _Params:
    """A holder of trainable arrays, walked as a tree.

    A holder names its parts once, in _parts(): (name, holder) pairs, in
    the order the optimizer visits them. Every walk follows from that:
    named_slots() yields each array under its dotted path
    ("2.compressor.weights"), slots() drops the names, param_objects()
    lists the leaf containers and zero_grads() zeroes them.
    _TrainableArrays is the leaf that owns the arrays.
    """

    def _parts(self) -> list:
        raise NotImplementedError

    def param_objects(self) -> list:
        return [obj for _, part in self._parts() for obj in part.param_objects()]

    def named_slots(self):
        """Yield (path, value, grad, vel) for each trainable array."""
        for prefix, part in self._parts():
            for name, *slot in part.named_slots():
                yield (f"{prefix}.{name}", *slot)

    def slots(self):
        return [slot[1:] for slot in self.named_slots()]

    def zero_grads(self) -> None:
        for obj in self.param_objects():
            obj.zero_grads()


class _TrainableArrays(_Params):
    """The leaf of the parameter tree: the arrays named in _ARRAYS share one
    supported dtype, each gets zeroed grad_<name> and vel_<name> buffers of
    its shape, and named_slots() is the one place that says which of them
    train."""

    _ARRAYS: tuple = ()

    def _init_buffers(self) -> None:
        """Ends each __post_init__: the one dtype check, then the buffers."""
        dtypes = [getattr(self, name).dtype for name in self._ARRAYS]
        if dtypes[0] not in SUPPORTED_DTYPES or len(set(dtypes)) > 1:
            raise DTypeError(f"{' and '.join(self._ARRAYS)} must share dtype float32 "
                             f"or float64, got {', '.join(map(str, dtypes))}")
        for name in self._ARRAYS:
            for buf in ("grad_", "vel_"):
                setattr(self, buf + name, np.zeros_like(getattr(self, name)))

    def _trainable(self) -> tuple:
        return self._ARRAYS

    def param_objects(self) -> list:
        return [self]

    def zero_grads(self) -> None:
        for name in self._ARRAYS:
            getattr(self, "grad_" + name)[...] = 0

    def named_slots(self):
        """Yield (name, value, grad, vel) for each trainable array."""
        for name in self._trainable():
            yield (name, getattr(self, name), getattr(self, "grad_" + name),
                   getattr(self, "vel_" + name))


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
        if self.bias.shape != (self.weights.shape[0],) and \
           self.bias.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"bias length {self.bias.shape} matches neither weight axis of "
                f"{self.weights.shape}")
        self._init_buffers()

    def _trainable(self) -> tuple:
        return self._ARRAYS if self.trainable_bias else ("weights",)


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


def _at_least(name: str, value, low: int, error: type) -> int:
    """value as a Python int >= low, else error: what operator.index takes,
    but a bool, so every integer argument is rejected before numpy sees it."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return value


def _check_input(x: Tensor, channels: int, dtype, what: str) -> None:
    """The one check of an op's input against its parameter container, whose
    array what gives the channels and dtype the op takes: the channel count
    (ShapeError), then the dtype (DTypeError)."""
    if x.shape[1] != channels:
        raise ShapeError(f"input has {x.shape[1]} channels, {what} has {channels}")
    if x.dtype != dtype:
        raise DTypeError(f"dtype mismatch: input {x.dtype} vs {what} {dtype}")


def _check_grad(grad: Tensor, shape: tuple, dtype) -> None:
    """The one check of a backward's incoming gradient against its
    forward's result: the shape (ShapeError), then the dtype (DTypeError)."""
    if grad.shape != shape:
        raise ShapeError(f"grad shape {grad.shape} != forward output {shape}")
    if grad.dtype != dtype:
        raise DTypeError(f"dtype mismatch: grad {grad.dtype} vs forward output {dtype}")


def _init_weights(shape: tuple, fan_in: int, rng: np.random.Generator | None,
                  dtype) -> np.ndarray:
    """Fan-in uniform U[-s, s], s = (1 / (fan_in * k^2))^0.5, or zeros
    without rng. Every size must be an integer >= 1 (fan_in is one)."""
    shape = tuple(_at_least("conv weight size", size, 1, ShapeError) for size in shape)
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
    channels = _at_least("affine norm channels", channels, 1, ShapeError)
    dt = np.dtype(dtype)
    return AffineNormParams(gamma=np.ones(channels, dtype=dt),
                            beta=np.zeros(channels, dtype=dt))


# ---------------------------------------------------------------------------
# convolution


def conv_output_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    stride = _at_least("stride", stride, 1, GeometryError)
    pad = _at_least("pad", pad, 0, GeometryError)
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise GeometryError(
            f"conv output would be {h_out}x{w_out} for input {h}x{w}, "
            f"k={k}, stride={stride}, pad={pad}")
    return h_out, w_out


def _check_conv_args(x: Tensor, p: ConvLayerParams, src_axis: int) -> None:
    """x against p, whose weights axis src_axis (0 for the transposed conv)
    is the input channel; the bias must run along the other axis."""
    _check_input(x, p.weights.shape[src_axis], p.weights.dtype, f"weights axis {src_axis}")
    if p.bias.shape != (p.weights.shape[1 - src_axis],):
        raise ShapeError(
            f"bias {p.bias.shape} is not on axis {1 - src_axis} of weights {p.weights.shape}")


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


def _span(d: int, step: int, count: int, size: int) -> tuple[slice, slice]:
    """(locations, targets) along one axis: location i in [0, count) reaches
    target step*i + d, which must lie in [0, size)."""
    lo = max(0, -(d // step))
    hi = max(lo, min(count, -((d - size) // step)))
    return slice(lo, hi), slice(step * lo + d, step * hi + d, step)


def _tap_spans(k: int, stride: int, pad: int, hs: int, ws: int, h: int,
               w: int, row0: int = 0) -> list:
    """(rows, cols) of each tap (ki, kj), row-major, each a _span pair of
    (locations, targets): location (row0 + i, j) of an hs x ws grid reaches
    target (stride*(row0 + i) + ki - pad, stride*j + kj - pad) of an h x w
    map, clipped to it. Every scatter-add reads its taps here."""
    rows = [_span(stride * row0 + t - pad, stride, hs, h) for t in range(k)]
    cols = [_span(t - pad, stride, ws, w) for t in range(k)]
    return [(r, c) for r in rows for c in cols]


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
    """Whether a conv or reassembly seam takes the fast tier's products.
    terms is the length of the seam's contraction: c*k*k for a conv's gather
    or scatter, the locations for a weight gradient. Not on the exact tier,
    and not for a one-term contraction: there each product is a single
    multiply, so the exact fold gives the same bits with fewer numpy
    calls."""
    return terms > 1 and not _EXACT.get()


# The fast tier unfolds windows in blocks of about this many bytes. Measured
# on train_toy: fresh blocks of 1 MiB or more cost more in page faults than
# they save, and 64 KiB blocks pay per-block overhead; reassembly on
# carafe_paper is flat from 128 KiB to 1 MiB.
_BLOCK_BYTES = 1 << 18


def _blocks(n: int, hb: int, row_bytes: int) -> list:
    """(images, rows) slices of each block over n images of hb rows of
    row_bytes each: whole images while one fits in _BLOCK_BYTES, else rows
    of one image, the last block of each image ragged. In order, so the
    blocks tile the (n, hb) grid location by location."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    if rows >= hb:
        per = rows // hb
        return [(slice(b, b + per), slice(0, hb)) for b in range(0, n, per)]
    return [(slice(b, b + 1), slice(i, i + rows))
            for b in range(n) for i in range(0, hb, rows)]


def _windows(x: np.ndarray, k: int, step: int, pad: int, hb: int,
             wb: int) -> np.ndarray:
    """The read-only (n, hb, wb, k, k, c) view of the k x k windows at
    (step*i, step*j) of the NCHW x zero-padded by pad, over a channels-last
    copy of the padded x: each window row is k*c contiguous values. The one
    strided window view of the library, built over the copy's buffer
    directly: sliding_window_view goes through __array_interface__, which
    on a fresh array each call grows the process's memory by about 0.6 MiB
    over a few thousand calls (gradcheck makes tens of thousands)."""
    n, c, h, w = x.shape
    src = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    src[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    sn, sh, sw, sc = src.strides
    win = np.ndarray((n, hb, wb, k, k, c), src.dtype, src, 0,
                     (sn, step * sh, step * sw, sh, sw, sc))
    win.flags.writeable = False
    return win


def _unfold_blocks(x: np.ndarray, k: int, step: int, pad: int, hb: int,
                   wb: int):
    """(images, rows, windows) of each block of the fast tier's unfold,
    shared by convolution and reassembly: windows is a contiguous
    (locations, k*k, c) copy of the block's rows of _windows, runs of k*c
    values, so no unfold of a whole large map is ever held at once. Every
    block is copied into one buffer, so a caller uses each block's windows
    before it asks for the next: a fresh array per block would pay the page
    faults of fresh memory every time."""
    n, c = x.shape[:2]
    win = _windows(x, k, step, pad, hb, wb)
    blocks = _blocks(n, hb, wb * k * k * c * x.itemsize)
    bs, rs = blocks[0]
    buf = np.empty(win[bs, rs].size, dtype=x.dtype)
    for bs, rs in blocks:
        blk = win[bs, rs]
        out = buf[:blk.size].reshape(blk.shape)
        np.copyto(out, blk)
        yield bs, rs, out.reshape(-1, k * k, c)


def _weight_matrix(weights: np.ndarray) -> np.ndarray:
    """weights (a, b, k, k) -> the contiguous (a, k*k*b) matrix whose
    columns run in the order of an unfolded window: taps, then channels."""
    a, b, k, _ = weights.shape
    return np.ascontiguousarray(weights.transpose(0, 2, 3, 1)).reshape(a, k * k * b)


def _is_pointwise(k: int, stride: int, pad: int) -> bool:
    """A 1x1, stride-1, unpadded conv: each (n, c, h*w) image of the NCHW
    map is already its GEMM operand, so it needs no unfold."""
    return k == 1 and stride == 1 and pad == 0


def _gemm_gather(x: np.ndarray, weights: np.ndarray, stride: int,
                 pad: int) -> np.ndarray:
    """The fast tier of _gather_taps, without the bias: one GEMM per block
    of unfolded windows, Wm @ colsᵀ, into a (c_out, n, h_out, w_out) result,
    which at n = 1 is already NCHW."""
    n, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    if _is_pointwise(k, stride, pad):
        out = np.matmul(weights.reshape(c_out, c), x.reshape(n, c, h * w))
        return out.reshape(n, c_out, h, w)
    h_out, w_out = conv_output_hw(h, w, k, stride, pad)
    wm = _weight_matrix(weights)
    out = np.empty((c_out, n, h_out, w_out), dtype=x.dtype)
    out_m = out.reshape(c_out, -1)
    lo = 0
    for _, _, cols in _unfold_blocks(x, k, stride, pad, h_out, w_out):
        hi = lo + len(cols)
        np.matmul(wm, cols.reshape(hi - lo, -1).T, out=out_m[:, lo:hi])
        lo = hi
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def _gather_taps(x: np.ndarray, weights: np.ndarray, stride: int, pad: int,
                 bias: np.ndarray | None = None) -> np.ndarray:
    """out[:, o, i, j] = bias[o] + sum over (c, ki, kj) of
    weights[o, c, ki, kj] * xp[:, c, ki + s*i, kj + s*j], xp being x
    zero-padded by pad; from zero without a bias.

    The one gather fold. Exact tier: per element of out, taps fold in
    (c, ki, kj) order on top of the bias, channels-last: each step is one
    value of the _windows view times a run of c_out weights. Fast tier:
    one GEMM per block of unfolded windows against the (c_out, k*k*c)
    weight matrix, then the bias.
    """
    n, c, h, w = x.shape
    c_out, _, k, _ = weights.shape
    h_out, w_out = conv_output_hw(h, w, k, stride, pad)
    if _gemm_tier(c * k * k):
        out = _gemm_gather(x, weights, stride, pad)
        if bias is not None:
            out += bias.reshape(1, c_out, 1, 1)
        return out
    win = _windows(x, k, stride, pad, h_out, w_out)
    wt = weights.transpose(1, 2, 3, 0)
    acc = np.zeros((n, h_out, w_out, c_out), dtype=x.dtype)
    if bias is not None:
        acc[...] = bias
    prod = np.empty_like(acc)
    for ch in range(c):
        for ki, kj in np.ndindex(k, k):
            acc += np.multiply(win[:, :, :, ki, kj, ch, None], wt[ch, ki, kj], out=prod)
    return np.ascontiguousarray(acc.transpose(0, 3, 1, 2))


def _scatter_taps(src: np.ndarray, weights: np.ndarray, stride: int, pad: int,
                  h: int, w: int) -> np.ndarray:
    """out[:, o, ki + s*i - pad, kj + s*j - pad] += weights[c, o, ki, kj] *
    src[:, c, i, j], for the (n, o, h, w) result.

    The adjoint of _gather_taps and the one scatter fold. Every tap adds its
    clipped span (_tap_spans) into an unpadded result. Exact tier: per
    element of the result, taps fold in (c, ki, kj) order from zero. Fast
    tier: at stride 1 (and pad < k), the gather of src zero-padded by
    k - 1 - pad with the flipped, transposed kernel, so no scatter;
    otherwise one src_block @ Wm per block, then k*k channels-last adds.
    """
    n, c, hs, ws = src.shape
    c_o, k = weights.shape[1], weights.shape[2]
    if _gemm_tier(c * k * k):
        if stride == 1 and pad < k:
            flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            return _gemm_gather(src, flipped, 1, k - 1 - pad)
        wm = _weight_matrix(weights)
        src_cl = np.ascontiguousarray(src.transpose(0, 2, 3, 1))
        acc = np.zeros((n, h, w, c_o), dtype=src.dtype)
        blocks = _blocks(n, hs, ws * k * k * c_o * src.itemsize)
        buf = np.empty((src_cl[blocks[0]].size // c, wm.shape[1]), dtype=src.dtype)
        for bs, rs in blocks:
            blk = src_cl[bs, rs]
            nb, rb = blk.shape[:2]
            prod = np.matmul(blk.reshape(-1, c), wm, out=buf[:nb * rb * ws])
            prod = prod.reshape(nb, rb, ws, k * k, c_o)
            for q, ((li, ti), (lj, tj)) in enumerate(
                    _tap_spans(k, stride, pad, rb, ws, h, w, rs.start)):
                acc[bs, ti, tj] += prod[:, li, lj, q]
        return np.ascontiguousarray(acc.transpose(0, 3, 1, 2))
    acc = np.zeros((n, c_o, h, w), dtype=src.dtype)
    taps = _tap_spans(k, stride, pad, hs, ws, h, w)
    for ch in range(c):
        for (ki, kj), ((li, ti), (lj, tj)) in zip(np.ndindex(k, k), taps):
            acc[:, :, ti, tj] += weights[ch, :, ki, kj, None, None] * src[:, ch, None, li, lj]
    return acc


def _fold_weight_taps(grad_w: np.ndarray, lhs: np.ndarray, src: np.ndarray,
                      stride: int, pad: int) -> None:
    """The fast tier of a conv weight gradient: grad_w[a, b, ki, kj] += the
    sum over (batch, i, j) of lhs[:, a, i, j] * srcp[:, b, ki + s*i, kj + s*j],
    srcp being src zero-padded by pad. One lhs_block @ cols per block of
    unfolded windows of src, lhs laid out (a, locations); a pointwise conv
    takes lhs @ srcᵀ per image."""
    n, a, h, w = lhs.shape
    b, k = grad_w.shape[1], grad_w.shape[2]
    if _is_pointwise(k, stride, pad):
        per_image = np.matmul(lhs.reshape(n, a, h * w),
                              src.reshape(n, b, h * w).transpose(0, 2, 1))
        grad_w[:, :, 0, 0] += per_image.sum(axis=0)
        return
    lhs_m = lhs.transpose(1, 0, 2, 3).reshape(a, -1)  # a copy unless n == 1
    gm = np.zeros((a, k * k * b), dtype=grad_w.dtype)
    part = np.empty_like(gm)
    lo = 0
    for _, _, cols in _unfold_blocks(src, k, stride, pad, h, w):
        hi = lo + len(cols)
        gm += np.matmul(lhs_m[:, lo:hi], cols.reshape(hi - lo, -1), out=part)
        lo = hi
    grad_w += gm.reshape(a, k, k, b).transpose(0, 3, 1, 2)


def conv2d_forward(x: Tensor, p: ConvLayerParams, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding: the gather fold from the bias.

    Output (n, c_out, (h+2p-k)//s + 1, (w+2p-k)//s + 1).
    """
    _check_conv_args(x, p, 1)
    return Tensor(_gather_taps(x.data, p.weights, stride, pad, p.bias))


def conv2d_backward(grad_out: Tensor, x: Tensor, p: ConvLayerParams,
                    stride: int = 1, pad: int = 0) -> Tensor:
    """Exact adjoint of conv2d_forward.

    Returns grad wrt x (the scatter fold) and accumulates
    grad_weights/grad_bias in place. On the exact tier, per parameter, their
    reduction tree is column sums over output cols first, then rows, then
    batch; every tap and the bias ride in one im2col row per output row. On
    the fast tier the weights take one GEMM per block of unfolded windows
    and the bias a numpy sum.
    """
    _check_conv_args(x, p, 1)
    n, c_in, h, w = x.shape
    c_out, _, k, _ = p.weights.shape
    h_out, w_out = conv_output_hw(h, w, k, stride, pad)
    _check_grad(grad_out, (n, c_out, h_out, w_out), x.dtype)
    go = grad_out.data
    grad_x = _scatter_taps(go, p.weights, stride, pad, h, w)
    if _gemm_tier(n * h_out * w_out):
        _fold_weight_taps(p.grad_weights, go, x.data, stride, pad)
        p.grad_bias += go.sum(axis=(0, 2, 3))
        return Tensor(grad_x)
    # im2col row oi: (b, oj, ci*k*k + ki*k + kj) <- x window; last column 1,
    # so grad_bias is the last column of the same fold (go * 1 == go).
    taps = c_in * k * k
    win = _windows(x.data, k, stride, pad, h_out, w_out).transpose(0, 1, 2, 5, 3, 4)
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
    stride = _at_least("stride", stride, 1, GeometryError)
    pad = _at_least("pad", pad, 0, GeometryError)
    h_out = stride * (h - 1) + k - 2 * pad
    w_out = stride * (w - 1) + k - 2 * pad
    if h_out < 1 or w_out < 1:
        raise GeometryError(
            f"transposed conv output would be {h_out}x{w_out} for input {h}x{w}, "
            f"k={k}, stride={stride}, pad={pad}")
    return h_out, w_out


def transposed_conv_forward(x: Tensor, p: ConvLayerParams, stride: int = 1,
                            pad: int = 0) -> Tensor:
    """Adjoint-of-conv upsampling. Weights (c_src, c_dst, k, k).

    Output spatial size stride*(in-1) + k - 2*pad. With the same weights
    array this is conv2d_backward's grad_x: the same scatter fold, then the
    bias added once.
    """
    _check_conv_args(x, p, 0)
    h, w = x.shape[2:]
    _, c_dst, k, _ = p.weights.shape
    h_out, w_out = transposed_conv_output_hw(h, w, k, stride, pad)
    out = _scatter_taps(x.data, p.weights, stride, pad, h_out, w_out)
    out += p.bias.reshape(1, c_dst, 1, 1)
    return Tensor(out)


def transposed_conv_backward(grad_out: Tensor, x: Tensor, p: ConvLayerParams,
                             stride: int = 1, pad: int = 0) -> Tensor:
    """Adjoint of transposed_conv_forward; accumulates parameter grads.

    grad_x is the gather fold from zero: conv2d_forward of grad_out with the
    same weights array and no bias.
    """
    _check_conv_args(x, p, 0)
    n, _, h, w = x.shape
    _, c_dst, k, _ = p.weights.shape
    h_out, w_out = transposed_conv_output_hw(h, w, k, stride, pad)
    _check_grad(grad_out, (n, c_dst, h_out, w_out), x.dtype)
    go = grad_out.data
    gx = _gather_taps(go, p.weights, stride, pad)
    if _gemm_tier(n * h * w):
        _fold_weight_taps(p.grad_weights, x.data, go, stride, pad)
    else:
        # The one padded operand outside a gather: einsum sums in unrolled
        # partial sums, and clipping its operands regroups them (new bits).
        go_full = np.pad(go, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        taps = _tap_spans(k, stride, 0, h, w, *go_full.shape[2:])
        for (ki, kj), ((_, rows), (_, cols)) in zip(np.ndindex(k, k), taps):
            p.grad_weights[:, :, ki, kj] += np.einsum(
                "bsij,bdij->sd", x.data, go_full[:, :, rows, cols],
                optimize=False)
    p.grad_bias += go.sum(axis=(0, 2, 3))
    return Tensor(gx)


# ---------------------------------------------------------------------------
# depth-to-space


def pixel_shuffle(x: Tensor, sigma: int) -> Tensor:
    """Depth-to-space: (n, c*s^2, h, w) -> (n, c, s*h, s*w).

    out(b, ch, s*i + di, s*j + dj) = x(b, ch*s^2 + di*s + dj, i, j).
    Pure permutation, no arithmetic.
    """
    sigma = _at_least("sigma", sigma, 1, GeometryError)
    n, c, h, w = x.shape
    if c % (sigma * sigma) != 0:
        raise ShapeError(f"channels {c} not divisible by sigma^2 = {sigma * sigma}")
    c //= sigma * sigma
    y = x.data.reshape(n, c, sigma, sigma, h, w).transpose(0, 1, 4, 2, 5, 3)
    return Tensor(y.copy().reshape(n, c, sigma * h, sigma * w))


def pixel_unshuffle(x: Tensor, sigma: int) -> Tensor:
    """Inverse of pixel_shuffle: (n, c, s*h, s*w) -> (n, c*s^2, h, w)."""
    sigma = _at_least("sigma", sigma, 1, GeometryError)
    n, c, h, w = x.shape
    if h % sigma != 0 or w % sigma != 0:
        raise ShapeError(f"spatial size ({h},{w}) not divisible by sigma {sigma}")
    y = x.data.reshape(n, c, h // sigma, sigma, w // sigma, sigma).transpose(0, 1, 3, 5, 2, 4)
    return Tensor(y.copy().reshape(n, c * sigma * sigma, h // sigma, w // sigma))


# ---------------------------------------------------------------------------
# activations and normalization


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, x.dtype.type(0)))


def relu_backward(grad_out: Tensor, x: Tensor) -> Tensor:
    _check_grad(grad_out, x.shape, x.dtype)
    return Tensor(grad_out.data * (x.data > 0))


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic: branch on sign before exponentiating."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _groups(c: int, group: int) -> tuple[int, int]:
    """(count, size) of c channels in groups of size group, else ShapeError."""
    group = _at_least("group", group, 1, ShapeError)
    if c % group:
        raise ShapeError(f"channels {c} not divisible by group size {group}")
    return c // group, group


def softmax_group(x: Tensor, group: int) -> Tensor:
    """Softmax over contiguous channel groups of the given size, per location.

    Stabilized by per-group max subtraction, then a _fold over the group.
    """
    n, c, h, w = x.shape
    ngroups, group = _groups(c, group)
    xr = x.data.reshape(n, ngroups, group, h, w)
    m = xr.max(axis=2)
    e = np.exp(xr - m[:, :, None])
    y = e / _fold(e, 2)[:, :, None]
    return Tensor(y.reshape(n, c, h, w))


def softmax_group_backward(grad_out: Tensor, y: Tensor, group: int) -> Tensor:
    """Adjoint of softmax_group: dz = y * (g - sum(g*y)) per group, y being
    softmax_group's output."""
    _check_grad(grad_out, y.shape, y.dtype)
    n, c, h, w = y.shape
    ngroups, group = _groups(c, group)
    y = y.data.reshape(n, ngroups, group, h, w)
    g = grad_out.data.reshape(n, ngroups, group, h, w)
    dz = y * (g - _fold(g * y, 2)[:, :, None])
    return Tensor(dz.reshape(n, c, h, w))


# The variance offset of affine_norm; its backward must add the same one.
_NORM_EPS = 1e-5


def affine_norm(x: Tensor, p: AffineNormParams) -> Tensor:
    """Standardize each channel over (batch, rows, cols), then gamma/beta.

    The mean and the variance each take the fold tree stated at _fold.
    """
    _check_input(x, p.gamma.shape[0], p.gamma.dtype, "gamma")
    n, c, h, w = x.shape
    xd = x.data
    count = x.dtype.type(n * h * w)

    def total(a):
        return _fold(_fold(a.transpose(0, 2, 1, 3).reshape(n * h, c, w), 0), 1)

    mean = total(xd) / count
    d = xd - mean[None, :, None, None]
    var = total(d * d) / count
    inv = x.dtype.type(1) / np.sqrt(var + x.dtype.type(_NORM_EPS))
    xhat = d * inv[None, :, None, None]
    y = p.gamma[None, :, None, None] * xhat + p.beta[None, :, None, None]
    return Tensor(y)


def affine_norm_backward(grad_out: Tensor, x: Tensor, p: AffineNormParams
                         ) -> Tensor:
    """Adjoint of affine_norm through the batch statistics.

    Accumulates grad_gamma/grad_beta and returns grad wrt x. Recomputes the
    forward statistics; no cache needed.
    """
    _check_input(x, p.gamma.shape[0], p.gamma.dtype, "gamma")
    _check_grad(grad_out, x.shape, x.dtype)
    n, c, h, w = x.shape
    xd = x.data
    go = grad_out.data
    count = x.dtype.type(n * h * w)
    mean = xd.mean(axis=(0, 2, 3), dtype=x.dtype)
    d = xd - mean[None, :, None, None]
    var = (d * d).mean(axis=(0, 2, 3), dtype=x.dtype)
    inv = x.dtype.type(1) / np.sqrt(var + x.dtype.type(_NORM_EPS))
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
    """The leaf containers under one holder or an iterable of holders."""
    holders = list(params) if hasattr(params, "__iter__") else [params]
    bad = [type(h).__name__ for h in holders if not isinstance(h, _Params)]
    if bad:
        raise ContractError(f"expected parameter holders, got {', '.join(bad)}")
    return [obj for holder in holders for obj in holder.param_objects()]


def sgd_step(params, lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """Heavy-ball SGD: v <- momentum*v + g + weight_decay*p; p <- p - lr*v.

    params is one holder of trainable arrays (a parameter container, a
    CarafeParams or a whole demo net) or an iterable of holders; anything
    else raises ContractError. The arrays step in tree order.
    """
    for obj in _param_objects(params):
        for value, grad, vel in obj.slots():
            vel *= momentum
            vel += grad
            if weight_decay:
                vel += weight_decay * value
            value -= lr * vel


def zero_grads(params) -> None:
    """Zero every gradient buffer under params, which it takes as sgd_step does."""
    for obj in _param_objects(params):
        obj.zero_grads()
