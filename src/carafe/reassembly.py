"""Content-aware feature reassembly in both resampling directions.

The operator has two halves:

1. Kernel prediction: a 1x1 channel compressor, an optional per-channel
   normalize+ReLU stage, a content-encoder convolution (strided by sigma for
   downsampling; stride 1 followed by depth-to-space for upsampling), and a
   grouped normalizer that turns each k^2 logit group into reassembly
   weights.
2. Reassembly: every output location takes a weighted sum of the k x k
   source neighborhood around its mapped source location, with the same
   per-location kernel shared across all feature channels.

Downsampling maps target (i', j') to source (sigma*i', sigma*j') and emits
ceil(H/sigma) x ceil(W/sigma); upsampling maps to (i'//sigma, j'//sigma) and
emits sigma*H x sigma*W. Borders are zero-padded.

Both directions run one pipeline and one tap loop per pass, parameterized
by _phase_step, the one place the computation reads the direction
(map_target_to_source spells the mapping out per location). Kernel
prediction returns its backward, a closure over the pipeline's
intermediates; carafe_forward keeps one closure, reassemble_backward then
that one, in CarafeCache. The accumulation orders of the exact tier, fixed
so the vectorized code agrees bitwise with the direct loop nests in
reference.py, are stated there; the sigmoid_norm normalizer's sums are
nn._fold's.

Reassembly computes channels-last on both tiers: the kernel field and
grad_y are read from one _channels_last copy each, (n, hb, wb, ph^2, c),
and the source windows from nn._windows (only the exact kernel gradient,
a fold over channels, reads channel-major views). The source gradient is
one function on both tiers and in both directions (_source_gradient): per
offset, each location adds its kernel weights times its block of grad_y
into the one source it reaches, phase by phase on the exact tier, by one
batched matmul over the phases on the fast. Where nn._gemm_tier says so,
seam by seam, the forward and the kernel gradient take one batched matrix
product per block of unfolded windows (nn._unfold_blocks, shared with
convolution): per source location, its (c, k^2) windows times its
(k^2, ph^2) kernels, written into the NCHW output block by block, or its
(ph^2, c) block of grad_y times its (c, k^2) windows. The fast tier's sums
run in BLAS order, within the tolerances pinned in tests/test_fast_tier.py
of the exact tier's.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import nn
from .errors import (ContractError, DTypeError, GeometryError,
                     KernelSizeError, ShapeError)
from .nn import (AffineNormParams, ConvLayerParams, _Params, _at_least, _check_grad,
                 _fold, affine_norm, affine_norm_backward, affine_params,
                 conv2d_backward, conv2d_forward, conv_params, pixel_shuffle,
                 pixel_unshuffle, relu, relu_backward, sigmoid_array,
                 softmax_group, softmax_group_backward)
from .tensor import Tensor

DIRECTIONS = ("down", "up")
NORMALIZERS = ("softmax", "sigmoid", "sigmoid_norm")

_C_MID_DEFAULT = {"down": 16, "up": 64}
_COMPRESSOR_NORM_DEFAULT = {"down": True, "up": False}


def _odd_size(name: str, k) -> int:
    """k as an odd integer >= 1, else KernelSizeError."""
    k = _at_least(name, k, 1, KernelSizeError)
    if k % 2 == 0:
        raise KernelSizeError(f"{name} must be odd, got {k}")
    return k


@dataclass(frozen=True)
class CarafeConfig:
    """Geometry and variant knobs for one reassembly operator.

    c_mid and compressor_norm default by direction (16/True for down,
    64/False for up) when left as None; compressor_norm is otherwise a bool.
    """

    direction: str
    sigma: int
    k_encoder: int = 3
    k_reassembly: int = 5
    c_mid: Optional[int] = None
    normalizer: str = "softmax"
    compressor_norm: Optional[bool] = None

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise GeometryError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.c_mid is None:
            object.__setattr__(self, "c_mid", _C_MID_DEFAULT[self.direction])
        for name, error in (("sigma", GeometryError), ("c_mid", ContractError)):
            object.__setattr__(self, name, _at_least(name, getattr(self, name), 1, error))
        for name in ("k_encoder", "k_reassembly"):
            object.__setattr__(self, name, _odd_size(name, getattr(self, name)))
        if self.normalizer not in NORMALIZERS:
            raise ContractError(f"normalizer must be one of {NORMALIZERS}, got {self.normalizer!r}")
        if self.compressor_norm is None:
            object.__setattr__(self, "compressor_norm",
                               _COMPRESSOR_NORM_DEFAULT[self.direction])
        elif not isinstance(self.compressor_norm, bool):
            raise ContractError(f"compressor_norm must be a bool or None: {self.compressor_norm!r}")

    @property
    def kernel_channels(self) -> int:
        """Channels in the kernel field: k_reassembly^2, independent of C."""
        return self.k_reassembly * self.k_reassembly

    @property
    def encoder_out_channels(self) -> int:
        ph, _ = _phase_step(self)
        return ph * ph * self.kernel_channels

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        """ceil(H/sigma) x ceil(W/sigma) down, sigma*H x sigma*W up."""
        ph, step = _phase_step(self)
        return (-(-h * ph // step), -(-w * ph // step))


@dataclass(frozen=True)
class KernelField:
    """All predicted reassembly kernels for one input.

    tensor is (n, k^2, H_out, W_out): channel q holds the weight of window
    offset (dn, dm) with q = (dn+r)*k + (dm+r). normalized means every k^2
    group sums to 1 with positive entries (softmax or sigmoid+renormalize);
    the plain sigmoid variant emits normalized=False.
    """

    tensor: Tensor
    k: int
    normalized: bool

    def __post_init__(self):
        object.__setattr__(self, "k", _odd_size("kernel size", self.k))
        if self.tensor.shape[1] != self.k * self.k:
            raise ShapeError(
                f"kernel field needs k^2 = {self.k * self.k} channels, "
                f"got {self.tensor.shape[1]}")


@dataclass
class CarafeParams(_Params):
    """Learnables of the kernel-prediction pipeline."""

    compressor: ConvLayerParams
    encoder: ConvLayerParams
    norm: Optional[AffineNormParams] = None

    def _parts(self) -> list:
        """(field name, container) of each stage present, in field order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None]


def carafe_params(c_in: int, cfg: CarafeConfig, rng: np.random.Generator | None,
                  dtype=np.float64) -> CarafeParams:
    """Build the compressor/encoder (and norm, when enabled) for c_in channels.

    With rng=None all conv weights are zero, which makes the predicted
    kernels exactly uniform under the softmax normalizer.
    """
    # With the norm stage on, the compressor's bias would be cancelled by the
    # mean subtraction (identically zero gradient), so it is left untrained.
    compressor = conv_params(cfg.c_mid, c_in, 1, rng, dtype,
                             bias=not cfg.compressor_norm)
    encoder = conv_params(cfg.encoder_out_channels, cfg.c_mid, cfg.k_encoder, rng, dtype)
    norm = affine_params(cfg.c_mid, dtype) if cfg.compressor_norm else None
    return CarafeParams(compressor=compressor, encoder=encoder, norm=norm)


def map_target_to_source(l_prime: tuple[int, int], cfg: CarafeConfig) -> tuple[int, int]:
    """Source location feeding target (i', j'): scale down, floor-divide up."""
    i, j = l_prime
    if i < 0 or j < 0:
        raise GeometryError(f"target location must be non-negative, got {l_prime}")
    if cfg.direction == "down":
        return (cfg.sigma * i, cfg.sigma * j)
    return (i // cfg.sigma, j // cfg.sigma)


def kernel_offsets(k: int) -> list[tuple[int, int]]:
    """Window offsets in kernel-channel order: row-major over (dn, dm)."""
    r = k // 2
    return [(dn, dm) for dn in range(-r, r + 1) for dm in range(-r, r + 1)]


# ---------------------------------------------------------------------------
# kernel prediction


def _normalize_logits(logits: Tensor, cfg: CarafeConfig
                      ) -> tuple[KernelField, Callable]:
    """The kernel field of cfg's normalizer over logits, and its backward:
    the gradient wrt the field's array -> the gradient wrt logits."""
    g = cfg.kernel_channels
    k = cfg.k_reassembly
    if cfg.normalizer == "softmax":
        y = softmax_group(logits, g)
        return (KernelField(y, k, True),
                lambda grad_kf: softmax_group_backward(Tensor(grad_kf), y, g))
    sig = sigmoid_array(logits.data)
    if cfg.normalizer == "sigmoid":
        return (KernelField(Tensor(sig), k, False),
                lambda grad_kf: Tensor(grad_kf * sig * (1.0 - sig)))
    n, c, h, w = logits.shape
    s = sig.reshape(n, c // g, g, h, w)
    total = _fold(s, 2)
    y = s / total[:, :, None]

    def backward(grad_kf: np.ndarray) -> Tensor:
        gr = grad_kf.reshape(n, c // g, g, h, w)
        dot = _fold(gr * s, 2)
        gs = gr / total[:, :, None] - (dot / (total * total))[:, :, None]
        gz = gs * s * (1.0 - s)
        return Tensor(gz.reshape(n, c, h, w))

    return KernelField(Tensor(y.reshape(n, c, h, w)), k, True), backward


def _predict_forward(x: Tensor, params: CarafeParams, cfg: CarafeConfig
                     ) -> tuple[KernelField, Callable]:
    """The kernel field of x, and its backward: (grad wrt the field's array,
    grad_x from reassembly) -> grad_x plus this path's, accumulating param grads."""
    if params.encoder.weights.shape[0] != cfg.encoder_out_channels:
        raise ShapeError(
            f"encoder emits {params.encoder.weights.shape[0]} channels, config "
            f"needs {cfg.encoder_out_channels}")
    if cfg.compressor_norm and params.norm is None:
        raise ContractError("config enables compressor_norm but params.norm is missing")
    ph, step = _phase_step(cfg)
    pad = cfg.k_encoder // 2
    comp = conv2d_forward(x, params.compressor, stride=1, pad=0)
    normed = affine_norm(comp, params.norm) if cfg.compressor_norm else None
    enc_in = comp if normed is None else relu(normed)
    enc = conv2d_forward(enc_in, params.encoder, stride=step, pad=pad)
    logits = pixel_shuffle(enc, ph) if ph > 1 else enc
    kf, normalize_backward = _normalize_logits(logits, cfg)

    def backward(grad_kf: np.ndarray, grad_x: Tensor) -> Tensor:
        g_logits = normalize_backward(grad_kf)
        g_enc = pixel_unshuffle(g_logits, ph) if ph > 1 else g_logits
        g = conv2d_backward(g_enc, enc_in, params.encoder, stride=step, pad=pad)
        if normed is not None:
            g = affine_norm_backward(relu_backward(g, normed), comp, params.norm)
        gx_pred = conv2d_backward(g, x, params.compressor, stride=1, pad=0)
        # Summed while this path's gradients are alive: freed first, they
        # leave a heap layout that costs the next forward fresh pages.
        return Tensor(grad_x.data + gx_pred.data)

    return kf, backward


def predict_kernels(x: Tensor, params: CarafeParams, cfg: CarafeConfig) -> KernelField:
    """Run the kernel-prediction pipeline and return the kernel field."""
    return _predict_forward(x, params, cfg)[0]


# ---------------------------------------------------------------------------
# reassembly


def _check_reassemble_args(x: Tensor, kf: KernelField, cfg: CarafeConfig,
                           allow_unnormalized: bool) -> None:
    if not allow_unnormalized and not kf.normalized:
        raise ContractError(
            "kernel field is not normalized; pass allow_unnormalized=True to "
            "reassemble with raw gate values")
    if kf.k != cfg.k_reassembly:
        raise KernelSizeError(
            f"kernel field built for k={kf.k}, config says {cfg.k_reassembly}")
    n, _, h, w = x.shape
    h_out, w_out = cfg.output_hw(h, w)
    if kf.tensor.shape != (n, cfg.kernel_channels, h_out, w_out):
        raise ShapeError(
            f"kernel field shape {kf.tensor.shape} != expected "
            f"({n},{cfg.kernel_channels},{h_out},{w_out})")
    if kf.tensor.dtype != x.dtype:
        raise DTypeError(
            f"dtype mismatch: input {x.dtype} vs kernel field {kf.tensor.dtype}")


def _phase_step(cfg: CarafeConfig) -> tuple[int, int]:
    """(ph, step): target (ph*i + di, ph*j + dj) reads the window at source
    (step*i, step*j) shifted by each offset. Down has one phase and steps
    sigma, up has sigma x sigma phases and steps 1.

    The same pair drives kernel prediction: the encoder conv strides by step
    and its output is pixel-shuffled by ph. Reassembly lays the kernel field,
    output and grad_y out channels-last, (n, H_out/ph, W_out/ph, ph*ph, c)
    with target (ph*i + di, ph*j + dj) at phase di*ph + dj (_channels_last),
    so each window offset of the source (nn._windows) feeds every phase of
    its location. The exact tier's folds, each per element from zero:
    - reassemble: offsets in ascending q (dn outer, dm inner);
    - reassemble_backward, source gradient: offsets in ascending q and,
      inside one offset, phases (di, dj) row-major;
    - reassemble_backward, kernel gradient: feature channels ascending.
    """
    if cfg.direction == "down":
        return 1, cfg.sigma
    return cfg.sigma, 1


def reassemble(x: Tensor, kf: KernelField, cfg: CarafeConfig,
               allow_unnormalized: bool = False) -> Tensor:
    """Weighted-sum reassembly of source neighborhoods, channel-shared.

    out[b, c, i', j'] = sum over window offsets (dn, dm) of
    kf[b, q, i', j'] * x[b, c, i + dn, j + dm], with (i, j) the mapped source
    location, q = (dn+r)*k + (dm+r), zero padding off the edges; fold order
    at _phase_step. The fast tier takes one batched matrix product per block
    of unfolded windows instead (nn._unfold_blocks) and writes each block
    straight into the NCHW output.
    """
    _check_reassemble_args(x, kf, cfg, allow_unnormalized)
    n, c, _, _ = x.shape
    k = cfg.k_reassembly
    ph, step = _phase_step(cfg)
    kl = _channels_last(kf.tensor.data, ph)
    hb, wb = kl.shape[1:3]
    if nn._gemm_tier(k * k):
        out = np.empty((n, c, hb, ph, wb, ph), dtype=x.dtype)
        for bs, rs, win in nn._unfold_blocks(x.data, k, step, k // 2, hb, wb):
            kb = kl[bs, rs].reshape(-1, ph * ph, k * k).swapaxes(-1, -2)
            _put_location_major(out[bs, :, rs], win.transpose(0, 2, 1) @ kb)
        return Tensor(out.reshape(n, c, ph * hb, ph * wb))
    win = nn._windows(x.data, k, step, k // 2, hb, wb)
    out = np.zeros((n, hb, wb, ph * ph, c), dtype=x.dtype)
    prod = np.empty_like(out)
    for q, (ki, kj) in enumerate(np.ndindex(k, k)):
        out += np.multiply(kl[..., q, None], win[:, :, :, None, ki, kj], out=prod)
    return Tensor(_nchw(out, ph))


def reassemble_backward(grad_y: Tensor, x: Tensor, kf: KernelField,
                        cfg: CarafeConfig, allow_unnormalized: bool = False
                        ) -> tuple[Tensor, Tensor]:
    """Adjoint of reassemble: grads wrt the source map and the kernel field.

    grad_y and the kernel field are read from one _channels_last copy each.
    The source gradient is _source_gradient's on both tiers. The exact
    kernel gradient loops over channels once, each step covering every
    offset and phase, on channel-major views of the windows and of grad_y;
    the fast tier takes one batched matrix product per block of unfolded
    windows into a channels-last result. Fold orders at _phase_step.
    """
    _check_reassemble_args(x, kf, cfg, allow_unnormalized)
    n, c, h, w = x.shape
    _check_grad(grad_y, (n, c) + cfg.output_hw(h, w), x.dtype)
    k = cfg.k_reassembly
    ph, step = _phase_step(cfg)
    gl = _channels_last(grad_y.data, ph)
    kl = _channels_last(kf.tensor.data, ph)
    grad_x = _source_gradient(gl, kl, k, step, h, w)
    hb, wb = gl.shape[1:3]
    if nn._gemm_tier(c):
        gk = np.empty((n, hb, wb, ph * ph, k * k), dtype=x.dtype)
        for bs, rs, win in nn._unfold_blocks(x.data, k, step, k // 2, hb, wb):
            g = gl[bs, rs]
            np.matmul(g, win.reshape(*g.shape[:3], k * k, c).swapaxes(-1, -2),
                      out=gk[bs, rs])
        gk = _nchw(gk, ph)
    else:
        # Channel-major views, whose channel slices read contiguous runs:
        # windows (c, n, k, k, hb, wb) of x with its first two axes swapped,
        # and grad_y as (c, n, ph, ph, hb, wb).
        win = nn._windows(x.data.transpose(1, 0, 2, 3), k, step, k // 2, hb,
                          wb).transpose(0, 5, 3, 4, 1, 2)
        gc = grad_y.data.reshape(n, c, hb, ph, wb, ph).transpose(1, 0, 3, 5, 2, 4)
        acc = np.zeros((n, ph, ph, k, k, hb, wb), dtype=x.dtype)
        prod = np.empty_like(acc)
        for ch in range(c):
            acc += np.multiply(gc[ch, :, :, :, None, None], win[ch, :, None, None],
                               out=prod)
        gk = np.ascontiguousarray(acc.transpose(0, 3, 4, 5, 1, 6, 2)).reshape(
            kf.tensor.shape)
    return Tensor(grad_x), Tensor(gk)


def _channels_last(a: np.ndarray, ph: int) -> np.ndarray:
    """(n, c, ph*hb, ph*wb) -> contiguous (n, hb, wb, ph*ph, c), target
    (ph*i + di, ph*j + dj) at [i, j, di*ph + dj]: each source location holds
    its (ph*ph, c) block contiguously."""
    n, c, h, w = a.shape
    hb, wb = h // ph, w // ph
    return np.ascontiguousarray(a.reshape(n, c, hb, ph, wb, ph).transpose(
        0, 2, 4, 3, 5, 1)).reshape(n, hb, wb, ph * ph, c)


def _nchw(a: np.ndarray, ph: int) -> np.ndarray:
    """Inverse of _channels_last: (n, hb, wb, ph*ph, c) -> contiguous
    (n, c, ph*hb, ph*wb)."""
    n, hb, wb, _, c = a.shape
    return np.ascontiguousarray(a.reshape(n, hb, wb, ph, ph, c).transpose(
        0, 5, 1, 3, 2, 4)).reshape(n, c, ph * hb, ph * wb)


def _source_gradient(gl: np.ndarray, kl: np.ndarray, k: int, step: int, h: int,
                     w: int) -> np.ndarray:
    """Adjoint of reassemble's window sum wrt x: per offset in ascending q,
    each location whose window reaches the map through it adds its kernel
    weights times its (ph*ph, c) block of grad_y into the source it reaches,
    over the offset's clipped spans (nn._tap_spans, 2k spans per call), in
    an unpadded channels-last map. The exact tier adds the phases one at a
    time, row-major (_phase_step's order); where nn._gemm_tier says so, one
    batched (1, ph*ph) x (ph*ph, c) matmul per offset contracts them. Every
    product goes through one buffer. gl and kl are the _channels_last copies
    of grad_y and of the kernel field."""
    n, hb, wb, phases, c = gl.shape
    gx = np.zeros((n, h, w, 1, c), dtype=gl.dtype)
    buf = np.empty(n * hb * wb * c, dtype=gl.dtype)
    gemm = nn._gemm_tier(phases)
    for q, ((li, si), (lj, sj)) in enumerate(nn._tap_spans(k, step, k // 2, hb, wb, h, w)):
        g, kq, dst = gl[:, li, lj], kl[:, li, lj, :, q], gx[:, si, sj]
        prod = buf[:dst.size].reshape(dst.shape)
        if gemm:
            dst += np.matmul(kq[..., None, :], g, out=prod)
        else:
            for p in range(phases):
                dst += np.multiply(kq[..., p, None, None], g[..., p, None, :], out=prod)
    return np.ascontiguousarray(gx[..., 0, :].transpose(0, 3, 1, 2))


def _put_location_major(dst: np.ndarray, prod: np.ndarray) -> None:
    """Write a block's (locations, c, ph*ph) product into dst, its
    (nb, c, rb, ph, wb, ph) block of a map laid out as (n, c, hb, ph, wb, ph),
    which is (n, c, ph*hb, ph*wb) with target (ph*i + di, ph*j + dj) at
    [i, di, j, dj]."""
    nb, c, rb, ph, wb, _ = dst.shape
    dst[...] = prod.reshape(nb, rb, wb, c, ph, ph).transpose(0, 3, 1, 4, 2, 5)


# ---------------------------------------------------------------------------
# fused operator


@dataclass(eq=False)
class CarafeCache:
    """What carafe_forward keeps: the params, the kernel field, the output's
    (shape, dtype) and the adjoint at x, a closure over the forward's state."""

    params: CarafeParams
    kf: KernelField
    out: tuple
    backward: Callable
    consumed: bool = False


def carafe_forward(x: Tensor, params: CarafeParams, cfg: CarafeConfig
                   ) -> tuple[Tensor, CarafeCache]:
    """Predict kernels from content, then reassemble with them."""
    kf, predict_backward = _predict_forward(x, params, cfg)
    raw = not kf.normalized
    y = reassemble(x, kf, cfg, allow_unnormalized=raw)

    def backward(grad_y: Tensor) -> Tensor:
        gx_feat, g_kf = reassemble_backward(grad_y, x, kf, cfg, allow_unnormalized=raw)
        return predict_backward(g_kf.data, gx_feat)

    return y, CarafeCache(params, kf, (y.shape, y.dtype), backward)


def carafe_backward(grad_y: Tensor, cache: CarafeCache) -> Tensor:
    """Full adjoint: both the reassembly-source path and the kernel path.

    Returns grad wrt x (feature path plus prediction path, added in that
    order) and accumulates every parameter gradient in cache.params.
    """
    if not isinstance(cache, CarafeCache):
        raise ContractError("carafe_backward needs the cache from carafe_forward")
    if cache.consumed:
        raise ContractError("cache already consumed by a previous backward call")
    _check_grad(grad_y, *cache.out)
    cache.consumed = True
    return cache.backward(grad_y)
