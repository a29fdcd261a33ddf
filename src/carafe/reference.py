"""Direct loop-nest implementations of every dual-path operation.

These are the slow, obviously-correct twins of the exact tier in nn.py
and reassembly.py. Each twin spells out the exact per-element accumulation
order that tier commits to, so the equivalence tests can demand bitwise
agreement in double precision (and get it in single precision too, since
the orders match there as well).

The rule: a loop is a fold order, and an array axis is order-free. Every
Python loop here runs over an axis whose terms one element folds (sums,
or for softmax's max, compares) in that loop's order, ascending; every
axis that carries no order (batch, the channels a fold does not sum,
output locations) is an array axis, so each loop step folds one term into
every element at once, elementwise. A twin
whose only loop is elementwise (relu, the stable logistic) stays scalar.
Each twin spells its own index maps and reads off-map taps as zeros of a
padded copy; where two twins share a fold, they share the one loop nest
below that spells it.

Nothing here is exported for production use; the functions return fresh
arrays instead of accumulating into parameter buffers.
"""

from __future__ import annotations

import numpy as np

from .nn import AffineNormParams, ConvLayerParams, transposed_conv_output_hw
from .reassembly import CarafeConfig, CarafeParams, KernelField, kernel_offsets
from .tensor import Tensor


def _conv_windows(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """View (n, c, h_out, w_out, k, k) of x zero-padded by pad: entry
    [b, c, oi, oj, ki, kj] is padded x[b, c, stride*oi + ki, stride*oj + kj]."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _scatter_fold(src: np.ndarray, weights: np.ndarray, stride: int, pad: int,
                  h: int, w: int) -> np.ndarray:
    """Adjoint of the conv gather, (n, c_dst, h, w) from src (n, c_src, hs, ws)
    and weights (c_src, c_dst, k, k): target (i, j) folds, from zero, each
    weights[cs, cd, ki, kj] * src[b, cs, oi, oj] with stride*oi + ki - pad = i
    and stride*oj + kj - pad = j; taps reaching no location add nothing.

    Fold axes cs, ki, kj ascending; array axes b, cd, oi, oj: one strided add
    per tap, whose targets are distinct, into a map padded by pad and cropped.
    """
    n, c_src, hs, ws = src.shape
    k = weights.shape[2]
    acc = np.zeros((n, weights.shape[1], max(h + pad, stride * (hs - 1) + k),
                    max(w + pad, stride * (ws - 1) + k)), dtype=src.dtype)
    for cs in range(c_src):
        for ki in range(k):
            for kj in range(k):
                acc[:, :, ki:ki + stride * hs:stride, kj:kj + stride * ws:stride] += \
                    weights[cs, :, ki, kj, None, None] * src[:, cs, None]
    return acc[:, :, pad:pad + h, pad:pad + w].copy()


def _output_tree(terms: np.ndarray) -> np.ndarray:
    """Sum of terms (n, h_out, w_out, ...) over its first three axes: output
    cols fold innermost from zero, then rows, then batch, each ascending.

    Fold axes b, oi, oj; array axes the rest (the parameter's own).
    """
    zero = terms.dtype.type(0)
    batch_acc = zero
    for batch in terms:
        row_acc = zero
        for row in batch:
            col_acc = zero
            for term in row:
                col_acc = col_acc + term
            row_acc = row_acc + col_acc
        batch_acc = batch_acc + row_acc
    return batch_acc


def _over_group_sum(a: np.ndarray, group: int) -> np.ndarray:
    """a (n, c, h, w) divided by the sum of its channel group, which folds
    the group's channels ascending from zero.

    Fold axis: the channel within a group; array axes b, group, i, j.
    """
    n, c, h, w = a.shape
    ag = a.reshape(n, c // group, group, h, w)
    tot = a.dtype.type(0)
    for ch in range(group):
        tot = tot + ag[:, :, ch]
    return (ag / tot[:, :, None]).reshape(n, c, h, w)


def _column_tree(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of a (n, c, h, w): each column j's partial folds
    (b, i) from zero, batch outer; the partials fold over j ascending.

    Fold axes j, b, i; array axis the channel.
    """
    zero = a.dtype.type(0)
    tot = zero
    for j in range(a.shape[3]):
        col = zero
        for b in range(a.shape[0]):
            for i in range(a.shape[2]):
                col = col + a[b, :, i, j]
        tot = tot + col
    return tot


def conv2d_forward_direct(x: Tensor, p: ConvLayerParams, stride: int = 1,
                          pad: int = 0) -> Tensor:
    """Cross-correlation, bias first, then taps.

    Fold axes ci, ki, kj ascending; array axes b, co, oi, oj.
    """
    _, c_in, k, _ = p.weights.shape
    win = _conv_windows(x.data, k, stride, pad)
    acc = p.bias[:, None, None]
    for ci in range(c_in):
        for ki in range(k):
            for kj in range(k):
                acc = acc + p.weights[:, ci, ki, kj, None, None] * win[:, ci, None, :, :, ki, kj]
    return Tensor(acc)


def conv2d_backward_direct(grad_out: Tensor, x: Tensor, p: ConvLayerParams,
                           stride: int = 1, pad: int = 0
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoint; returns (grad_x, grad_weights, grad_bias).

    grad_x is _scatter_fold's: fold axes co, ki, kj; array axes b, ci and
    the locations. grad_weights and grad_bias take _output_tree: fold axes
    b, oi, oj; array axes co, ci, ki, kj and co.
    """
    k = p.weights.shape[2]
    go = grad_out.data
    gx = _scatter_fold(go, p.weights, stride, pad, *x.shape[2:])
    win = _conv_windows(x.data, k, stride, pad)
    terms = go.transpose(0, 2, 3, 1)[..., None, None, None] * \
        win.transpose(0, 2, 3, 1, 4, 5)[:, :, :, None]
    return gx, _output_tree(terms), _output_tree(go.transpose(0, 2, 3, 1))


def transposed_conv_forward_direct(x: Tensor, p: ConvLayerParams,
                                   stride: int = 1, pad: int = 0) -> Tensor:
    """Adjoint of the conv gather, bias last.

    _scatter_fold's: fold axes cs, ki, kj; array axes b, cd and the locations.
    """
    h_out, w_out = transposed_conv_output_hw(*x.shape[2:], p.weights.shape[2],
                                             stride, pad)
    out = _scatter_fold(x.data, p.weights, stride, pad, h_out, w_out)
    return Tensor(out + p.bias[:, None, None])


def pixel_shuffle_direct(x: Tensor, sigma: int) -> Tensor:
    """out[b, ch, s*i + di, s*j + dj] = x[b, ch*s*s + di*s + dj, i, j]; no
    fold, every axis an array axis."""
    n, c, h, w = x.shape
    ch, i, j, di, dj = np.ogrid[:c // (sigma * sigma), :h, :w, :sigma, :sigma]
    out = np.empty((n, c // (sigma * sigma), h * sigma, w * sigma), dtype=x.dtype)
    out[:, ch, sigma * i + di, sigma * j + dj] = \
        x.data[:, ch * sigma * sigma + di * sigma + dj, i, j]
    return Tensor(out)


def pixel_unshuffle_direct(x: Tensor, sigma: int) -> Tensor:
    """out[b, ch*s*s + di*s + dj, i, j] = x[b, ch, s*i + di, s*j + dj]; no
    fold, every axis an array axis."""
    n, c, h, w = x.shape
    ch, i, j, di, dj = np.ogrid[:c, :h // sigma, :w // sigma, :sigma, :sigma]
    out = np.empty((n, c * sigma * sigma, h // sigma, w // sigma), dtype=x.dtype)
    out[:, ch * sigma * sigma + di * sigma + dj, i, j] = \
        x.data[:, ch, sigma * i + di, sigma * j + dj]
    return Tensor(out)


def softmax_group_direct(x: Tensor, group: int) -> Tensor:
    """Per-location grouped softmax: a running max, then _over_group_sum.

    Fold axis: the channel within a group (the max keeps the first of equal
    values); array axes b, group, i, j.
    """
    n, c, h, w = x.shape
    xg = x.data.reshape(n, c // group, group, h, w)
    m = xg[:, :, 0]
    for ch in range(1, group):
        m = np.where(xg[:, :, ch] > m, xg[:, :, ch], m)
    e = np.exp(xg - m[:, :, None]).reshape(n, c, h, w)
    return Tensor(_over_group_sum(e, group))


def affine_norm_direct(x: Tensor, p: AffineNormParams, eps: float = 1e-5) -> Tensor:
    """Channel standardization; mean and variance each take _column_tree.

    Fold axes j, b, i; array axis the channel.
    """
    n, c, h, w = x.shape
    count = x.dtype.type(n * h * w)
    mean = _column_tree(x.data) / count
    d = x.data - mean[:, None, None]
    var = _column_tree(d * d) / count
    inv = x.dtype.type(1) / np.sqrt(var + x.dtype.type(eps))
    return Tensor(p.gamma[:, None, None] * (d * inv[:, None, None])
                  + p.beta[:, None, None])


def relu_direct(x: Tensor) -> Tensor:
    out = x.data.copy()
    flat = out.reshape(-1)
    zero = x.dtype.type(0)
    for idx in range(flat.size):
        flat[idx] = np.maximum(flat[idx], zero)
    return Tensor(out)


def _reassembly_taps(x: Tensor, cfg: CarafeConfig
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xp, rows, cols): x zero-padded by r = k//2, and per offset q the
    padded row (k*k, h_out, 1) and col (k*k, 1, w_out) each target reads,
    so xp[..., rows[q], cols[q]] is offset q's tap of every target. Down
    maps target t to source sigma*t, up to t // sigma."""
    h_out, w_out = cfg.output_hw(*x.shape[2:])
    k, sig = cfg.k_reassembly, cfg.sigma
    r = k // 2
    si, sj = np.arange(h_out), np.arange(w_out)
    si, sj = (si * sig, sj * sig) if cfg.direction == "down" else (si // sig, sj // sig)
    dn, dm = np.array(kernel_offsets(k)).T
    xp = np.pad(x.data, ((0, 0), (0, 0), (r, r), (r, r)))
    return xp, (r + dn)[:, None, None] + si[:, None], (r + dm)[:, None, None] + sj


def reassemble_direct(x: Tensor, kf: KernelField, cfg: CarafeConfig) -> Tensor:
    """Per-location weighted window sum.

    Fold axis: offsets q ascending (row-major); array axes b, ch, oi, oj.
    Off-map taps contribute an explicit weight * 0.0 term (not a skip)
    to mirror the exact tier's padded reads, signed zeros included.
    """
    xp, rows, cols = _reassembly_taps(x, cfg)
    kd = kf.tensor.data
    acc = np.zeros((x.shape[0], x.shape[1]) + kd.shape[2:], dtype=x.dtype)
    for q in range(kd.shape[1]):
        acc = acc + kd[:, q, None] * xp[:, :, rows[q], cols[q]]
    return Tensor(acc)


def reassemble_backward_direct(grad_y: Tensor, x: Tensor, kf: KernelField,
                               cfg: CarafeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint twin; returns (grad_x, grad_kernel_field).

    Source gradient: fold axes offsets q ascending and, inside one offset of
    the upsampling direction, sub-pixel phases (di, dj) row-major; array
    axes b, ch and the phase's targets, whose sources are distinct, so each
    step is one add into the padded map. Kernel gradient: fold axis the
    feature channel ascending; array axes b, q, oi, oj.
    """
    xp, rows, cols = _reassembly_taps(x, cfg)
    go = grad_y.data
    kd = kf.tensor.data
    ph = cfg.sigma if cfg.direction == "up" else 1
    gxp = np.zeros_like(xp)
    for q in range(kd.shape[1]):
        for di in range(ph):
            for dj in range(ph):
                gxp[:, :, rows[q, di::ph], cols[q, :, dj::ph]] += \
                    kd[:, q, None, di::ph, dj::ph] * go[:, :, di::ph, dj::ph]
    r, (h, w) = cfg.k_reassembly // 2, x.shape[2:]
    gx = gxp[:, :, r:r + h, r:r + w].copy()
    gk = np.zeros_like(kd)
    for ch in range(x.shape[1]):
        gk = gk + go[:, ch, None] * xp[:, ch][:, rows, cols]
    return gx, gk


def sigmoid_group_direct(x: Tensor, group: int, normalize: bool) -> Tensor:
    """Per-element stable logistic; with normalize, then _over_group_sum."""
    s = np.empty_like(x.data)
    flat_x, flat_s = x.data.reshape(-1), s.reshape(-1)
    for idx in range(flat_x.size):
        z = flat_x[idx]
        if z >= 0:
            flat_s[idx] = 1.0 / (1.0 + np.exp(-z))
        else:
            ez = np.exp(z)
            flat_s[idx] = ez / (1.0 + ez)
    return Tensor(_over_group_sum(s, group) if normalize else s)


def predict_kernels_direct(x: Tensor, params: CarafeParams,
                           cfg: CarafeConfig) -> KernelField:
    """Direct twin of the kernel-prediction pipeline, every normalizer."""
    comp = conv2d_forward_direct(x, params.compressor, stride=1, pad=0)
    if cfg.compressor_norm:
        enc_in = relu_direct(affine_norm_direct(comp, params.norm))
    else:
        enc_in = comp
    pad = cfg.k_encoder // 2
    if cfg.direction == "down":
        logits = conv2d_forward_direct(enc_in, params.encoder,
                                       stride=cfg.sigma, pad=pad)
    else:
        raw = conv2d_forward_direct(enc_in, params.encoder, stride=1, pad=pad)
        logits = pixel_shuffle_direct(raw, cfg.sigma)
    g = cfg.kernel_channels
    if cfg.normalizer == "softmax":
        return KernelField(softmax_group_direct(logits, g), cfg.k_reassembly, True)
    normalize = cfg.normalizer == "sigmoid_norm"
    return KernelField(sigmoid_group_direct(logits, g, normalize),
                       cfg.k_reassembly, normalize)


def carafe_forward_direct(x: Tensor, params: CarafeParams,
                          cfg: CarafeConfig) -> Tensor:
    kf = predict_kernels_direct(x, params, cfg)
    return reassemble_direct(x, kf, cfg)
