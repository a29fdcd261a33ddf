"""Direct loop-nest implementations of every dual-path operation.

These are the slow, obviously-correct twins of the vectorized code in nn.py
and reassembly.py. Each twin spells out, one scalar at a time, the exact
per-element accumulation order the fast path commits to, so the equivalence
tests can demand bitwise agreement in double precision (and get it in single
precision too, since the orders match there as well).

Nothing here is exported for production use; the functions return fresh
arrays instead of accumulating into parameter buffers.
"""

from __future__ import annotations

import numpy as np

from .nn import (AffineNormParams, ConvLayerParams, conv_output_hw,
                 transposed_conv_output_hw)
from .reassembly import (CarafeConfig, CarafeParams, KernelField,
                         kernel_offsets, map_target_to_source)
from .tensor import Tensor


def conv2d_forward_direct(x: Tensor, p: ConvLayerParams, stride: int = 1,
                          pad: int = 0) -> Tensor:
    """Seven-loop cross-correlation; bias first, taps in (ci, ki, kj) order."""
    n, c_in, h, w = x.shape
    c_out, _, k, _ = p.weights.shape
    h_out, w_out = conv_output_hw(h, w, k, stride, pad)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    wts = p.weights
    bias = p.bias
    out = np.empty((n, c_out, h_out, w_out), dtype=x.dtype)
    for b in range(n):
        for co in range(c_out):
            for oi in range(h_out):
                for oj in range(w_out):
                    acc = bias[co]
                    for ci in range(c_in):
                        for ki in range(k):
                            for kj in range(k):
                                acc = acc + wts[co, ci, ki, kj] * \
                                    xp[b, ci, oi * stride + ki, oj * stride + kj]
                    out[b, co, oi, oj] = acc
    return Tensor(out)


def conv2d_backward_direct(grad_out: Tensor, x: Tensor, p: ConvLayerParams,
                           stride: int = 1, pad: int = 0
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoint as explicit gathers; returns (grad_x, grad_weights, grad_bias).

    grad_x folds taps per input element in (out-channel, ki, kj) order.
    grad_weights/grad_bias use the column/row/batch reduction tree of the
    fast path: innermost fold over output cols, then rows, then batch.
    """
    n, c_in, h, w = x.shape
    c_out, _, k, _ = p.weights.shape
    h_out, w_out = conv_output_hw(h, w, k, stride, pad)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    go = grad_out.data
    wts = p.weights
    zero = x.dtype.type(0)
    gx = np.empty_like(x.data)
    for b in range(n):
        for ci in range(c_in):
            for ii in range(h):
                for jj in range(w):
                    acc = zero
                    for co in range(c_out):
                        for ki in range(k):
                            num_i = ii + pad - ki
                            if num_i % stride or not 0 <= num_i // stride < h_out:
                                continue
                            oi = num_i // stride
                            for kj in range(k):
                                num_j = jj + pad - kj
                                if num_j % stride or not 0 <= num_j // stride < w_out:
                                    continue
                                oj = num_j // stride
                                acc = acc + wts[co, ci, ki, kj] * go[b, co, oi, oj]
                    gx[b, ci, ii, jj] = acc
    gw = np.empty_like(wts)
    for co in range(c_out):
        for ci in range(c_in):
            for ki in range(k):
                for kj in range(k):
                    batch_acc = zero
                    for b in range(n):
                        row_acc = zero
                        for oi in range(h_out):
                            col_acc = zero
                            for oj in range(w_out):
                                col_acc = col_acc + go[b, co, oi, oj] * \
                                    xp[b, ci, oi * stride + ki, oj * stride + kj]
                            row_acc = row_acc + col_acc
                        batch_acc = batch_acc + row_acc
                    gw[co, ci, ki, kj] = batch_acc
    gb = np.empty_like(p.bias)
    for co in range(c_out):
        batch_acc = zero
        for b in range(n):
            row_acc = zero
            for oi in range(h_out):
                col_acc = zero
                for oj in range(w_out):
                    col_acc = col_acc + go[b, co, oi, oj]
                row_acc = row_acc + col_acc
            batch_acc = batch_acc + row_acc
        gb[co] = batch_acc
    return gx, gw, gb


def transposed_conv_forward_direct(x: Tensor, p: ConvLayerParams,
                                   stride: int = 1, pad: int = 0) -> Tensor:
    """Gather form of the adjoint conv; taps in (cs, ki, kj) order, bias last."""
    n, c_src, h, w = x.shape
    _, c_dst, k, _ = p.weights.shape
    h_out, w_out = transposed_conv_output_hw(h, w, k, stride, pad)
    xd = x.data
    wts = p.weights
    zero = x.dtype.type(0)
    out = np.empty((n, c_dst, h_out, w_out), dtype=x.dtype)
    for b in range(n):
        for cd in range(c_dst):
            for ii in range(h_out):
                for jj in range(w_out):
                    acc = zero
                    for cs in range(c_src):
                        for ki in range(k):
                            num_i = ii + pad - ki
                            if num_i % stride or not 0 <= num_i // stride < h:
                                continue
                            oi = num_i // stride
                            for kj in range(k):
                                num_j = jj + pad - kj
                                if num_j % stride or not 0 <= num_j // stride < w:
                                    continue
                                oj = num_j // stride
                                acc = acc + wts[cs, cd, ki, kj] * xd[b, cs, oi, oj]
                    out[b, cd, ii, jj] = acc + p.bias[cd]
    return Tensor(out)


def pixel_shuffle_direct(x: Tensor, sigma: int) -> Tensor:
    n, c, h, w = x.shape
    c_out = c // (sigma * sigma)
    out = np.empty((n, c_out, h * sigma, w * sigma), dtype=x.dtype)
    for b in range(n):
        for ch in range(c_out):
            for i in range(h):
                for j in range(w):
                    for di in range(sigma):
                        for dj in range(sigma):
                            out[b, ch, sigma * i + di, sigma * j + dj] = \
                                x.data[b, ch * sigma * sigma + di * sigma + dj, i, j]
    return Tensor(out)


def pixel_unshuffle_direct(x: Tensor, sigma: int) -> Tensor:
    n, c, h, w = x.shape
    out = np.empty((n, c * sigma * sigma, h // sigma, w // sigma), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for i in range(h // sigma):
                for j in range(w // sigma):
                    for di in range(sigma):
                        for dj in range(sigma):
                            out[b, ch * sigma * sigma + di * sigma + dj, i, j] = \
                                x.data[b, ch, sigma * i + di, sigma * j + dj]
    return Tensor(out)


def softmax_group_direct(x: Tensor, group: int) -> Tensor:
    """Per-location grouped softmax; normalizing sum folds channels ascending."""
    n, c, h, w = x.shape
    ngroups = c // group
    xd = x.data
    out = np.empty_like(xd)
    zero = x.dtype.type(0)
    for b in range(n):
        for gi in range(ngroups):
            base = gi * group
            for i in range(h):
                for j in range(w):
                    m = xd[b, base, i, j]
                    for ch in range(1, group):
                        v = xd[b, base + ch, i, j]
                        if v > m:
                            m = v
                    e = [np.exp(xd[b, base + ch, i, j] - m) for ch in range(group)]
                    s = zero
                    for ch in range(group):
                        s = s + e[ch]
                    for ch in range(group):
                        out[b, base + ch, i, j] = e[ch] / s
    return Tensor(out)


def affine_norm_direct(x: Tensor, p: AffineNormParams, eps: float = 1e-5) -> Tensor:
    """Channel standardization with the fast path's (batch,row)-then-col tree."""
    n, c, h, w = x.shape
    xd = x.data
    zero = x.dtype.type(0)
    count = x.dtype.type(n * h * w)
    eps_t = x.dtype.type(eps)
    one = x.dtype.type(1)
    out = np.empty_like(xd)
    for ch in range(c):
        tot = zero
        for j in range(w):
            col = zero
            for b in range(n):
                for i in range(h):
                    col = col + xd[b, ch, i, j]
            tot = tot + col
        mean = tot / count
        tot2 = zero
        for j in range(w):
            col = zero
            for b in range(n):
                for i in range(h):
                    d = xd[b, ch, i, j] - mean
                    col = col + d * d
            tot2 = tot2 + col
        var = tot2 / count
        inv = one / np.sqrt(var + eps_t)
        for b in range(n):
            for i in range(h):
                for j in range(w):
                    d = xd[b, ch, i, j] - mean
                    out[b, ch, i, j] = p.gamma[ch] * (d * inv) + p.beta[ch]
    return Tensor(out)


def relu_direct(x: Tensor) -> Tensor:
    out = x.data.copy()
    flat = out.reshape(-1)
    zero = x.dtype.type(0)
    for idx in range(flat.size):
        flat[idx] = np.maximum(flat[idx], zero)
    return Tensor(out)


def reassemble_direct(x: Tensor, kf: KernelField, cfg: CarafeConfig) -> Tensor:
    """Per-location weighted window sum, offsets folded row-major.

    Out-of-bounds taps contribute an explicit weight * 0.0 term (not a skip)
    to mirror the fast path's padded reads, signed zeros included.
    """
    n, c, h, w = x.shape
    h_out, w_out = cfg.output_hw(h, w)
    k = cfg.k_reassembly
    offs = kernel_offsets(k)
    xd = x.data
    kd = kf.tensor.data
    zero = x.dtype.type(0)
    out = np.empty((n, c, h_out, w_out), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for oi in range(h_out):
                for oj in range(w_out):
                    si, sj = map_target_to_source((oi, oj), cfg)
                    acc = zero
                    for q, (dn, dm) in enumerate(offs):
                        ii = si + dn
                        jj = sj + dm
                        v = xd[b, ch, ii, jj] if 0 <= ii < h and 0 <= jj < w else zero
                        acc = acc + kd[b, q, oi, oj] * v
                    out[b, ch, oi, oj] = acc
    return Tensor(out)


def reassemble_backward_direct(grad_y: Tensor, x: Tensor, kf: KernelField,
                               cfg: CarafeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint twin; returns (grad_x, grad_kernel_field).

    The source-map scatter folds offsets in ascending q; within one offset
    of the upsampling direction, sub-pixel phases (di, dj) go row-major.
    The kernel gradient folds feature channels in ascending order.
    """
    n, c, h, w = x.shape
    h_out, w_out = cfg.output_hw(h, w)
    k = cfg.k_reassembly
    r = k // 2
    sig = cfg.sigma
    offs = kernel_offsets(k)
    go = grad_y.data
    kd = kf.tensor.data
    xd = x.data
    zero = x.dtype.type(0)
    gxp = np.zeros((n, c, h + 2 * r, w + 2 * r), dtype=x.dtype)
    if cfg.direction == "down":
        for q, (dn, dm) in enumerate(offs):
            for b in range(n):
                for ch in range(c):
                    for oi in range(h_out):
                        for oj in range(w_out):
                            gxp[b, ch, r + dn + sig * oi, r + dm + sig * oj] += \
                                kd[b, q, oi, oj] * go[b, ch, oi, oj]
    else:
        for q, (dn, dm) in enumerate(offs):
            for di in range(sig):
                for dj in range(sig):
                    for b in range(n):
                        for ch in range(c):
                            for i in range(h):
                                for j in range(w):
                                    gxp[b, ch, r + dn + i, r + dm + j] += \
                                        kd[b, q, sig * i + di, sig * j + dj] * \
                                        go[b, ch, sig * i + di, sig * j + dj]
    gx = gxp[:, :, r:r + h, r:r + w].copy()
    gk = np.empty_like(kd)
    for b in range(n):
        for q, (dn, dm) in enumerate(offs):
            for oi in range(h_out):
                for oj in range(w_out):
                    si, sj = map_target_to_source((oi, oj), cfg)
                    ii = si + dn
                    jj = sj + dm
                    acc = zero
                    if 0 <= ii < h and 0 <= jj < w:
                        for ch in range(c):
                            acc = acc + go[b, ch, oi, oj] * xd[b, ch, ii, jj]
                    else:
                        for ch in range(c):
                            acc = acc + go[b, ch, oi, oj] * zero
                    gk[b, q, oi, oj] = acc
    return gx, gk


def sigmoid_group_direct(x: Tensor, group: int, normalize: bool) -> Tensor:
    """Per-element stable logistic; with normalize, each value is then
    divided by its group's sum, which folds channels ascending."""
    n, c, h, w = x.shape
    xd = x.data
    s = np.empty_like(xd)
    flat_x, flat_s = xd.reshape(-1), s.reshape(-1)
    for idx in range(flat_x.size):
        z = flat_x[idx]
        if z >= 0:
            flat_s[idx] = 1.0 / (1.0 + np.exp(-z))
        else:
            ez = np.exp(z)
            flat_s[idx] = ez / (1.0 + ez)
    if not normalize:
        return Tensor(s)
    out = np.empty_like(xd)
    zero = x.dtype.type(0)
    for b in range(n):
        for base in range(0, c, group):
            for i in range(h):
                for j in range(w):
                    tot = zero
                    for ch in range(group):
                        tot = tot + s[b, base + ch, i, j]
                    for ch in range(group):
                        out[b, base + ch, i, j] = s[b, base + ch, i, j] / tot
    return Tensor(out)


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
