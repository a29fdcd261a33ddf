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
(map_target_to_source spells the mapping out for the loop twins). The
accumulation orders of the exact tier, fixed so the vectorized code agrees
bitwise with the direct loop nests in reference.py, are stated there; the
sigmoid_norm normalizer's sums are nn._fold's.

Reassembly also has a fast tier, taken where nn._gemm_tier says so, seam
by seam. The forward and the kernel gradient unfold the source windows
block by block (_unfold_blocks, about 1 MiB per block) and take one batched
matrix product per block: per source location, its (c, k^2) windows times
its (k^2, ph^2) kernels, or its (k^2, c) windows times its (c, ph^2) slice
of grad_y. The up direction's source gradient contracts each offset's
sigma^2 phases in one einsum; the down direction's has one phase and keeps
the exact fold. The fast tier's sums run in BLAS and einsum order, within
the tolerances pinned in tests/test_fast_tier.py of the exact tier's.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import nn
from .errors import (ContractError, DTypeError, GeometryError,
                     KernelSizeError, ShapeError)
from .nn import (AffineNormParams, ConvLayerParams, _fold, _from_phases,
                 _taps, _to_phases, affine_norm, affine_norm_backward,
                 affine_params, conv2d_backward, conv2d_forward, conv_params,
                 pixel_shuffle, pixel_unshuffle, relu, relu_backward,
                 sigmoid_array, softmax_group, softmax_group_backward)
from .tensor import Tensor

DIRECTIONS = ("down", "up")
NORMALIZERS = ("softmax", "sigmoid", "sigmoid_norm")

_C_MID_DEFAULT = {"down": 16, "up": 64}
_COMPRESSOR_NORM_DEFAULT = {"down": True, "up": False}


@dataclass(frozen=True)
class CarafeConfig:
    """Geometry and variant knobs for one reassembly operator.

    c_mid and compressor_norm default by direction (16/True for down,
    64/False for up) when left as None.
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
        if not isinstance(self.sigma, int) or isinstance(self.sigma, bool):
            raise GeometryError(f"sigma must be an integer, got {self.sigma!r}")
        if self.sigma < 1:
            raise GeometryError(f"sigma must be >= 1, got {self.sigma}")
        for name in ("k_encoder", "k_reassembly"):
            k = getattr(self, name)
            if not isinstance(k, int) or k < 1 or k % 2 == 0:
                raise KernelSizeError(f"{name} must be odd and >= 1, got {k}")
        if self.c_mid is None:
            object.__setattr__(self, "c_mid", _C_MID_DEFAULT[self.direction])
        if self.c_mid < 1:
            raise ContractError(f"c_mid must be >= 1, got {self.c_mid}")
        if self.normalizer not in NORMALIZERS:
            raise ContractError(f"normalizer must be one of {NORMALIZERS}, got {self.normalizer!r}")
        if self.compressor_norm is None:
            object.__setattr__(self, "compressor_norm",
                               _COMPRESSOR_NORM_DEFAULT[self.direction])

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
        if self.k < 1 or self.k % 2 == 0:
            raise KernelSizeError(f"kernel size must be odd and >= 1, got {self.k}")
        if self.tensor.shape[1] != self.k * self.k:
            raise ShapeError(
                f"kernel field needs k^2 = {self.k * self.k} channels, "
                f"got {self.tensor.shape[1]}")


@dataclass
class CarafeParams:
    """Learnables of the kernel-prediction pipeline."""

    compressor: ConvLayerParams
    encoder: ConvLayerParams
    norm: Optional[AffineNormParams] = None

    def _stages(self) -> list:
        """(field name, container) of each stage present, in field order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None]

    def param_objects(self) -> list:
        return [obj for _, obj in self._stages()]

    def named_slots(self):
        """(stage.name, value, grad, vel) for each trainable array."""
        for stage, obj in self._stages():
            for name, *slot in obj.named_slots():
                yield (f"{stage}.{name}", *slot)

    def slots(self):
        return [slot[1:] for slot in self.named_slots()]

    def zero_grads(self) -> None:
        for obj in self.param_objects():
            obj.zero_grads()


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


@dataclass(eq=False)
class CarafeCache:
    """What one forward pass keeps for carafe_backward: the input, config and
    params, each pipeline stage's output and the kernel field."""

    x: Tensor
    cfg: CarafeConfig
    params: CarafeParams
    comp: Optional[Tensor] = None
    normed: Optional[Tensor] = None
    enc_in: Optional[Tensor] = None
    logits: Optional[Tensor] = None
    sig: Optional[np.ndarray] = None
    sig_sum: Optional[np.ndarray] = None
    kf: Optional[KernelField] = None
    consumed: bool = False


def _normalize_logits(cache: CarafeCache) -> KernelField:
    cfg = cache.cfg
    g = cfg.kernel_channels
    if cfg.normalizer == "softmax":
        return KernelField(softmax_group(cache.logits, g), cfg.k_reassembly, True)
    cache.sig = sigmoid_array(cache.logits.data)
    if cfg.normalizer == "sigmoid":
        return KernelField(Tensor(cache.sig), cfg.k_reassembly, False)
    n, c, h, w = cache.logits.shape
    sr = cache.sig.reshape(n, c // g, g, h, w)
    cache.sig_sum = _fold(sr, 2)
    y = sr / cache.sig_sum[:, :, None]
    return KernelField(Tensor(y.reshape(n, c, h, w)), cfg.k_reassembly, True)


def _predict_forward(x: Tensor, params: CarafeParams, cfg: CarafeConfig
                     ) -> CarafeCache:
    if x.shape[1] != params.compressor.weights.shape[1]:
        raise ShapeError(
            f"input has {x.shape[1]} channels, compressor expects "
            f"{params.compressor.weights.shape[1]}")
    if params.encoder.weights.shape[0] != cfg.encoder_out_channels:
        raise ShapeError(
            f"encoder emits {params.encoder.weights.shape[0]} channels, config "
            f"needs {cfg.encoder_out_channels}")
    if cfg.compressor_norm and params.norm is None:
        raise ContractError("config enables compressor_norm but params.norm is missing")
    cache = CarafeCache(x, cfg, params)
    cache.comp = conv2d_forward(x, params.compressor, stride=1, pad=0)
    if cfg.compressor_norm:
        cache.normed = affine_norm(cache.comp, params.norm)
        cache.enc_in = relu(cache.normed)
    else:
        cache.enc_in = cache.comp
    ph, step = _phase_step(cfg)
    enc = conv2d_forward(cache.enc_in, params.encoder, stride=step,
                         pad=cfg.k_encoder // 2)
    cache.logits = pixel_shuffle(enc, ph) if ph > 1 else enc
    cache.kf = _normalize_logits(cache)
    return cache


def predict_kernels(x: Tensor, params: CarafeParams, cfg: CarafeConfig) -> KernelField:
    """Run the kernel-prediction pipeline and return the kernel field."""
    return _predict_forward(x, params, cfg).kf


def _normalize_backward(grad_kf: np.ndarray, cache: CarafeCache) -> Tensor:
    cfg = cache.cfg
    g = cfg.kernel_channels
    if cfg.normalizer == "softmax":
        return softmax_group_backward(Tensor(grad_kf), cache.kf.tensor, g)
    s = cache.sig
    if cfg.normalizer == "sigmoid":
        return Tensor(grad_kf * s * (1.0 - s))
    n, c, h, w = cache.logits.shape
    s = s.reshape(n, c // g, g, h, w)
    total = cache.sig_sum
    gr = grad_kf.reshape(n, c // g, g, h, w)
    dot = _fold(gr * s, 2)
    gs = gr / total[:, :, None] - (dot / (total * total))[:, :, None]
    gz = gs * s * (1.0 - s)
    return Tensor(gz.reshape(n, c, h, w))


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
    output and grad_y out phase-major, (n, c, ph, ph, H_out/ph, W_out/ph) as
    in pixel_unshuffle, so for each window offset one strided view of the
    padded source feeds every phase. The exact tier's folds, each per
    element from zero:
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
    of unfolded windows instead (_unfold_blocks).
    """
    _check_reassemble_args(x, kf, cfg, allow_unnormalized)
    n, c, _, _ = x.shape
    k = cfg.k_reassembly
    r = k // 2
    ph, step = _phase_step(cfg)
    kd = _to_phases(kf.tensor.data, ph)
    hb, wb = kd.shape[4:]
    if nn._gemm_tier(k * k):
        out = np.empty((n, c, hb, ph, wb, ph), dtype=x.dtype)
        for bs, rs, win in _unfold_blocks(x.data, k, step, hb, wb):
            _put_location_major(out[bs, :, rs],
                                win.transpose(0, 2, 1) @ _location_major(kd[bs, ..., rs, :]))
        return Tensor(out.reshape(n, c, ph * hb, ph * wb))
    xp = np.pad(x.data, ((0, 0), (0, 0), (r, r), (r, r)))
    out = np.zeros((n, c) + kd.shape[2:], dtype=x.dtype)
    for q, (_, _, rows, cols) in enumerate(_taps(k, step, hb, wb)):
        out += kd[:, q][:, None] * xp[:, :, None, None, rows, cols]
    return Tensor(_from_phases(out))


def reassemble_backward(grad_y: Tensor, x: Tensor, kf: KernelField,
                        cfg: CarafeConfig, allow_unnormalized: bool = False
                        ) -> tuple[Tensor, Tensor]:
    """Adjoint of reassemble: grads wrt the source map and the kernel field.

    Each phase of the source scatter writes one strided block; the kernel
    gradient loops over channels once, each step covering every offset and
    phase. Fold orders at _phase_step. The fast tier contracts the phases of
    each offset in one einsum, and takes the kernel gradient as one batched
    matrix product per block of unfolded windows.
    """
    _check_reassemble_args(x, kf, cfg, allow_unnormalized)
    n, c, h, w = x.shape
    h_out, w_out = cfg.output_hw(h, w)
    if grad_y.shape != (n, c, h_out, w_out):
        raise ShapeError(
            f"grad shape {grad_y.shape} != output shape ({n},{c},{h_out},{w_out})")
    if grad_y.dtype != x.dtype:
        raise DTypeError(f"dtype mismatch: grad {grad_y.dtype} vs input {x.dtype}")
    k = cfg.k_reassembly
    r = k // 2
    ph, step = _phase_step(cfg)
    go = _to_phases(grad_y.data, ph)
    kd = _to_phases(kf.tensor.data, ph)
    hb, wb = kd.shape[4:]
    gxp = np.zeros((n, c, h + 2 * r, w + 2 * r), dtype=x.dtype)
    fast_phases = nn._gemm_tier(ph * ph)
    for q, (_, _, rows, cols) in enumerate(_taps(k, step, hb, wb)):
        if fast_phases:
            gxp[:, :, rows, cols] += np.einsum("npqhw,ncpqhw->nchw", kd[:, q], go,
                                               optimize=False)
        else:
            for di in range(ph):
                for dj in range(ph):
                    gxp[:, :, rows, cols] += kd[:, q, di, dj][:, None] * go[:, :, di, dj]
    if nn._gemm_tier(c):
        gk = np.empty((n, k * k, hb, ph, wb, ph), dtype=x.dtype)
        for bs, rs, win in _unfold_blocks(x.data, k, step, hb, wb):
            _put_location_major(gk[bs, :, rs], win @ _location_major(go[bs, ..., rs, :]))
        gk = gk.reshape(kf.tensor.shape)
    else:
        # Source window of every offset at once: (n, c, k, k, 1, 1, hb, wb).
        xp = np.pad(x.data, ((0, 0), (0, 0), (r, r), (r, r)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        xs = win[:, :, ::step, ::step].transpose(0, 1, 4, 5, 2, 3)[:, :, :, :, None, None]
        acc = np.zeros((n, k, k) + kd.shape[2:], dtype=x.dtype)
        prod = np.empty_like(acc)
        for ch in range(c):
            acc += np.multiply(go[:, None, None, ch], xs[:, ch], out=prod)
        gk = _from_phases(acc.reshape(kd.shape))
    grad_x = gxp[:, :, r:r + h, r:r + w].copy() if r else gxp
    return Tensor(grad_x), Tensor(gk)


# The fast tier unfolds source windows in blocks of about this many bytes.
_BLOCK_BYTES = 1 << 20


def _location_major(a: np.ndarray) -> np.ndarray:
    """A block of a phase-major array, (nb, c, ph, ph, rb, wb) -> contiguous
    (nb*rb*wb, c, ph*ph): one (c, ph*ph) matrix per source location."""
    c, ph = a.shape[1], a.shape[2]
    return np.ascontiguousarray(a.transpose(0, 4, 5, 1, 2, 3)).reshape(-1, c, ph * ph)


def _put_location_major(dst: np.ndarray, prod: np.ndarray) -> None:
    """Write a block's (locations, c, ph*ph) product into dst, its
    (nb, c, rb, ph, wb, ph) block of a map laid out as (n, c, hb, ph, wb, ph),
    which is (n, c, ph*hb, ph*wb) with target (ph*i + di, ph*j + dj) at
    [i, di, j, dj]."""
    nb, c, rb, ph, wb, _ = dst.shape
    dst[...] = prod.reshape(nb, rb, wb, c, ph, ph).transpose(0, 3, 1, 4, 2, 5)


def _unfold_blocks(x: np.ndarray, k: int, step: int, hb: int, wb: int):
    """(images, rows, windows) of each block of the fast tier's unfold.

    windows is a fresh contiguous (locations, k*k, c) array: for each
    location (i, j) of the block's rows of the hb x wb grid, the k x k window
    of the zero-padded source x at (step*i, step*j), offsets in ascending q.
    It is copied from a channels-last copy of the padded source, so every
    copied run is one window row of c contiguous values. A block holds whole
    images while one image fits in _BLOCK_BYTES, else rows of one image, so
    no unfold of a whole large map is ever held at once.

    The (n, hb, wb, k, k, c) window view is built over src's buffer
    directly: sliding_window_view goes through __array_interface__, which
    on a fresh array each call grows the process's memory by about 0.6 MiB
    over a few thousand calls (gradcheck makes tens of thousands).
    """
    n, c, h, w = x.shape
    r = k // 2
    src = np.zeros((n, h + 2 * r, w + 2 * r, c), dtype=x.dtype)
    src[:, r:r + h, r:r + w] = x.transpose(0, 2, 3, 1)
    sn, sh, sw, sc = src.strides
    win = np.ndarray((n, hb, wb, k, k, c), src.dtype, src, 0,
                     (sn, step * sh, step * sw, sh, sw, sc))
    rows = max(1, _BLOCK_BYTES // (wb * c * k * k * x.itemsize))
    if rows >= hb:
        per = rows // hb
        spans = [(slice(b, b + per), slice(0, hb)) for b in range(0, n, per)]
    else:
        spans = [(slice(b, b + 1), slice(i, i + rows))
                 for b in range(n) for i in range(0, hb, rows)]
    for bs, rs in spans:
        yield bs, rs, np.ascontiguousarray(win[bs, rs]).reshape(-1, k * k, c)


# ---------------------------------------------------------------------------
# fused operator


def carafe_forward(x: Tensor, params: CarafeParams, cfg: CarafeConfig
                   ) -> tuple[Tensor, CarafeCache]:
    """Predict kernels from content, then reassemble with them."""
    cache = _predict_forward(x, params, cfg)
    y = reassemble(x, cache.kf, cfg, allow_unnormalized=(cfg.normalizer == "sigmoid"))
    return y, cache


def carafe_backward(grad_y: Tensor, cache: CarafeCache) -> Tensor:
    """Full adjoint: both the reassembly-source path and the kernel path.

    Returns grad wrt x (feature path plus prediction path, added in that
    order) and accumulates every parameter gradient in cache.params.
    """
    if cache is None:
        raise ContractError("carafe_backward needs the cache from carafe_forward")
    if cache.consumed:
        raise ContractError("cache already consumed by a previous backward call")
    cfg = cache.cfg
    n, c, h, w = cache.x.shape
    y_shape = (n, c) + cfg.output_hw(h, w)
    if grad_y.shape != y_shape:
        raise ShapeError(f"grad shape {grad_y.shape} != forward output {y_shape}")
    cache.consumed = True
    params = cache.params
    gx_feat, g_kf = reassemble_backward(
        grad_y, cache.x, cache.kf, cfg,
        allow_unnormalized=(cfg.normalizer == "sigmoid"))
    g_logits = _normalize_backward(g_kf.data, cache)
    ph, step = _phase_step(cfg)
    g_enc = pixel_unshuffle(g_logits, ph) if ph > 1 else g_logits
    g_enc_in = conv2d_backward(g_enc, cache.enc_in, params.encoder, stride=step,
                               pad=cfg.k_encoder // 2)
    if cfg.compressor_norm:
        g_normed = relu_backward(g_enc_in, cache.normed)
        g_comp = affine_norm_backward(g_normed, cache.comp, params.norm)
    else:
        g_comp = g_enc_in
    gx_pred = conv2d_backward(g_comp, cache.x, params.compressor, stride=1, pad=0)
    return Tensor(gx_feat.data + gx_pred.data)
