"""Bitwise agreement between the vectorized paths and their loop-nest twins.

Every operation with two implementations is exercised on 50 random cases;
the assertion is exact equality in double precision (``np.array_equal``),
not a tolerance, because both paths commit to the same per-element
reduction order.
"""

import numpy as np
import pytest

from carafe import reference as ref
from carafe.nn import (affine_norm, affine_params, conv_output_hw,
                       conv_params, conv2d_backward, conv2d_forward,
                       pixel_shuffle, pixel_unshuffle, relu, softmax_group,
                       transposed_conv_backward, transposed_conv_forward,
                       transposed_conv_params)
from carafe.reassembly import (CarafeConfig, carafe_backward, carafe_forward,
                               carafe_params, predict_kernels, reassemble,
                               reassemble_backward)
from carafe.tensor import Tensor

N_CASES = 50


def _rand(rng, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape).astype(dtype))


def _conv_case(rng):
    n = int(rng.integers(1, 3))
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 4))
    k = int(rng.choice([1, 3, 5]))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, k // 2 + 1))
    h = int(rng.integers(k, k + 5))
    w = int(rng.integers(k, k + 5))
    x = _rand(rng, (n, c_in, h, w))
    p = conv_params(c_out, c_in, k, rng)
    return x, p, stride, pad


def _carafe_case(rng, direction):
    sigma = int(rng.integers(1, 4))
    k_re = int(rng.choice([1, 3, 5]))
    c_in = int(rng.integers(1, 4))
    n = int(rng.integers(1, 3))
    if direction == "down":
        h = sigma * int(rng.integers(1, 4))
        w = sigma * int(rng.integers(1, 4))
    else:
        h = int(rng.integers(2, 6))
        w = int(rng.integers(2, 6))
    cfg = CarafeConfig(direction, sigma, k_encoder=3, k_reassembly=k_re,
                       c_mid=int(rng.integers(1, 4)),
                       compressor_norm=bool(rng.integers(0, 2)))
    x = _rand(rng, (n, c_in, h, w))
    params = carafe_params(c_in, cfg, rng)
    return x, params, cfg


def _assert_same(a, b):
    da = a.data if isinstance(a, Tensor) else a
    db = b.data if isinstance(b, Tensor) else b
    assert da.dtype == db.dtype
    assert da.shape == db.shape
    assert np.array_equal(da, db)


class TestConvPaths:
    def test_forward_three_ways(self):
        rng = np.random.default_rng(601)
        for _ in range(N_CASES):
            x, p, stride, pad = _conv_case(rng)
            fast = conv2d_forward(x, p, stride, pad)
            direct = ref.conv2d_forward_direct(x, p, stride, pad)
            _assert_same(fast, direct)

    def test_backward(self):
        rng = np.random.default_rng(602)
        for _ in range(N_CASES):
            x, p, stride, pad = _conv_case(rng)
            h_out, w_out = conv_output_hw(x.shape[2], x.shape[3],
                                          p.weights.shape[2], stride, pad)
            gy = _rand(rng, (x.shape[0], p.weights.shape[0], h_out, w_out))
            gx = conv2d_backward(gy, x, p, stride, pad)
            gx_d, gw_d, gb_d = ref.conv2d_backward_direct(gy, x, p, stride, pad)
            _assert_same(gx, gx_d)
            _assert_same(p.grad_weights, gw_d)
            _assert_same(p.grad_bias, gb_d)

    def test_transposed_forward(self):
        rng = np.random.default_rng(603)
        for _ in range(N_CASES):
            c_src = int(rng.integers(1, 4))
            c_dst = int(rng.integers(1, 4))
            k = int(rng.choice([1, 2, 3, 4]))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, min(k, 2)))
            x = _rand(rng, (int(rng.integers(1, 3)), c_src,
                            int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            p = transposed_conv_params(c_src, c_dst, k, rng)
            fast = transposed_conv_forward(x, p, stride, pad)
            direct = ref.transposed_conv_forward_direct(x, p, stride, pad)
            _assert_same(fast, direct)


class TestShufflePaths:
    def test_pixel_shuffle(self):
        rng = np.random.default_rng(604)
        for _ in range(N_CASES):
            sigma = int(rng.integers(1, 4))
            c = sigma * sigma * int(rng.integers(1, 4))
            x = _rand(rng, (int(rng.integers(1, 3)), c,
                            int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            _assert_same(pixel_shuffle(x, sigma), ref.pixel_shuffle_direct(x, sigma))

    def test_pixel_unshuffle(self):
        rng = np.random.default_rng(605)
        for _ in range(N_CASES):
            sigma = int(rng.integers(1, 4))
            x = _rand(rng, (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                            sigma * int(rng.integers(1, 5)),
                            sigma * int(rng.integers(1, 5))))
            _assert_same(pixel_unshuffle(x, sigma),
                         ref.pixel_unshuffle_direct(x, sigma))


class TestPointwisePaths:
    def test_softmax_group(self):
        rng = np.random.default_rng(606)
        for _ in range(N_CASES):
            group = int(rng.integers(1, 6))
            c = group * int(rng.integers(1, 4))
            x = _rand(rng, (int(rng.integers(1, 3)), c,
                            int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            _assert_same(softmax_group(x, group),
                         ref.softmax_group_direct(x, group))

    def test_affine_norm(self):
        rng = np.random.default_rng(607)
        for _ in range(N_CASES):
            c = int(rng.integers(1, 5))
            x = _rand(rng, (int(rng.integers(1, 3)), c,
                            int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            p = affine_params(c)
            p.gamma[:] = rng.standard_normal(c)
            p.beta[:] = rng.standard_normal(c)
            _assert_same(affine_norm(x, p), ref.affine_norm_direct(x, p))

    def test_relu(self):
        rng = np.random.default_rng(608)
        for _ in range(N_CASES):
            x = _rand(rng, (1, int(rng.integers(1, 4)),
                            int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            _assert_same(relu(x), ref.relu_direct(x))


class TestReassemblyPaths:
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_reassemble_forward(self, direction):
        rng = np.random.default_rng(609)
        for _ in range(N_CASES):
            x, params, cfg = _carafe_case(rng, direction)
            kf = predict_kernels(x, params, cfg)
            _assert_same(reassemble(x, kf, cfg),
                         ref.reassemble_direct(x, kf, cfg))

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_reassemble_backward(self, direction):
        rng = np.random.default_rng(610)
        for _ in range(N_CASES):
            x, params, cfg = _carafe_case(rng, direction)
            kf = predict_kernels(x, params, cfg)
            h_out, w_out = cfg.output_hw(x.shape[2], x.shape[3])
            gy = _rand(rng, (x.shape[0], x.shape[1], h_out, w_out))
            gx, gk = reassemble_backward(gy, x, kf, cfg)
            gx_d, gk_d = ref.reassemble_backward_direct(gy, x, kf, cfg)
            _assert_same(gx, gx_d)
            _assert_same(gk, gk_d)

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_predict_kernels(self, direction):
        rng = np.random.default_rng(611)
        for _ in range(N_CASES):
            x, params, cfg = _carafe_case(rng, direction)
            _assert_same(predict_kernels(x, params, cfg).tensor,
                         ref.predict_kernels_direct(x, params, cfg).tensor)

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_fused_forward(self, direction):
        rng = np.random.default_rng(612)
        for _ in range(N_CASES):
            x, params, cfg = _carafe_case(rng, direction)
            y, _ = carafe_forward(x, params, cfg)
            _assert_same(y, ref.carafe_forward_direct(x, params, cfg))


class TestFloat32Paths:
    """The reduction orders match in single precision as well."""

    def test_conv_forward_single(self):
        rng = np.random.default_rng(613)
        for _ in range(N_CASES):
            x, p, stride, pad = _conv_case(rng)
            x32 = x.astype(np.float32)
            p32 = conv_params(p.weights.shape[0], p.weights.shape[1],
                              p.weights.shape[2], None, np.float32)
            p32.weights[:] = p.weights.astype(np.float32)
            p32.bias[:] = p.bias.astype(np.float32)
            fast = conv2d_forward(x32, p32, stride, pad)
            direct = ref.conv2d_forward_direct(x32, p32, stride, pad)
            _assert_same(fast, direct)
