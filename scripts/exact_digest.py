#!/usr/bin/env python3
"""Print one SHA-256 over the results of every exact-tier op on seeded cases.

Outputs, input gradients and parameter gradients of conv, transposed conv,
pixel (un)shuffle, grouped softmax, affine norm, reassembly (both directions),
the full operator and every resampler kind of carafe.baselines (both
directions for the kinds that take either); cases alternate fp64/fp32 and
about a fifth of every drawn input is +0.0 or -0.0. A cross-commit bitwise check is this command
run in both checkouts: python3 scripts/exact_digest.py --cases 500
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from carafe import nn
from carafe.baselines import (ALL_KINDS, DOWN_KINDS, UP_KINDS, make_resample_op,
                              resample_backward, resample_forward)
from carafe.reassembly import (NORMALIZERS, CarafeConfig, KernelField,
                               carafe_backward, carafe_forward, carafe_params,
                               reassemble, reassemble_backward)
from carafe.tensor import Tensor

# (kind, direction): a kind that is neither up-only nor down-only runs both.
RESAMPLERS = ([(k, "up") for k in ALL_KINDS if k not in DOWN_KINDS]
              + [(k, "down") for k in ALL_KINDS if k not in UP_KINDS])


def _draw(rng, shape, dtype) -> Tensor:
    a = rng.standard_normal(shape)
    hit = rng.random(shape) < 0.2
    a[hit] = np.copysign(0.0, rng.standard_normal(shape))[hit]
    return Tensor(a.astype(dtype))


def _case(rng, dtype):
    """Yield every result array of one drawn case, in a fixed order."""
    n, c, s = int(rng.integers(1, 3)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
    k = int(rng.choice([1, 3, 5]))
    stride, pad = int(rng.integers(1, 4)), int(rng.integers(0, k // 2 + 2))
    h, w = int(rng.integers(k, k + 6)), int(rng.integers(k, k + 6))
    x = _draw(rng, (n, c, h, w), dtype)
    for fwd, bwd, p, pd in (
            (nn.conv2d_forward, nn.conv2d_backward,
             nn.conv_params(int(rng.integers(1, 5)), c, k, rng, dtype), pad),
            (nn.transposed_conv_forward, nn.transposed_conv_backward,
             nn.transposed_conv_params(c, int(rng.integers(1, 5)), k, rng, dtype),
             min(pad, k - 1))):
        y = fwd(x, p, stride, pd)
        yield from (y.data, bwd(_draw(rng, y.shape, dtype), x, p, stride, pd).data,
                    p.grad_weights, p.grad_bias)
    yield nn.pixel_shuffle(_draw(rng, (n, c * s * s, h, w), dtype), s).data
    yield nn.pixel_unshuffle(_draw(rng, (n, c, s * h, s * w), dtype), s).data
    z = _draw(rng, (n, c * k * k, h, w), dtype)
    yield nn.softmax_group(z, k * k).data
    yield nn.softmax_group_backward(_draw(rng, z.shape, dtype),
                                    nn.softmax_group(z, k * k), k * k).data
    pa = nn.affine_params(c, dtype)
    pa.gamma[:], pa.beta[:] = rng.standard_normal(c), rng.standard_normal(c)
    yield nn.affine_norm(x, pa).data
    yield nn.affine_norm_backward(_draw(rng, x.shape, dtype), x, pa).data
    yield from (pa.grad_gamma, pa.grad_beta)
    for direction in ("down", "up"):
        cfg = CarafeConfig(direction, s, k_reassembly=k, c_mid=int(rng.integers(1, 5)),
                           normalizer=NORMALIZERS[int(rng.integers(0, 3))],
                           compressor_norm=bool(rng.integers(0, 2)))
        h_out, w_out = cfg.output_hw(h, w)
        kf = KernelField(_draw(rng, (n, k * k, h_out, w_out), dtype), k, True)
        gy = _draw(rng, (n, c, h_out, w_out), dtype)
        yield reassemble(x, kf, cfg).data
        yield from (t.data for t in reassemble_backward(gy, x, kf, cfg))
        # The full operator on x and on a map of at most 2 x 2, where a
        # kernel group can be the only contiguous axis of the field.
        for xin in (x, _draw(rng, (n, c, *rng.integers(1, 3, size=2)), dtype)):
            params = carafe_params(c, cfg, rng, dtype)
            y, cache = carafe_forward(xin, params, cfg)
            yield from (y.data, carafe_backward(_draw(rng, y.shape, dtype), cache).data)
            yield from (grad for _, _, grad, _ in params.named_slots())
    for kind, direction in RESAMPLERS:
        op = make_resample_op(kind, s, channels=c, rng=rng, dtype=dtype,
                              direction=direction)
        y, cache = resample_forward(op, x)
        yield from (y.data, resample_backward(op, _draw(rng, y.shape, dtype), cache).data)
        if op.params is not None:
            yield from (grad for _, _, grad, _ in op.params.named_slots())


@nn.exact_tier()
def digest(cases: int, seed: int) -> str:
    """Hex SHA-256 over dtype, shape and bytes of every array of every case."""
    sha = hashlib.sha256()
    for i in range(cases):
        rng = np.random.default_rng([seed, i])
        for a in _case(rng, (np.float64, np.float32)[i % 2]):
            sha.update(f"{a.dtype.str}{a.shape}".encode())
            sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cases", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    print(f"{digest(args.cases, args.seed)}  {args.cases} cases, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
