"""Bitwise agreement between the vectorized paths and their loop-nest twins.

Every operation with two implementations is exercised on 50 random cases;
the assertion is exact equality in double precision (``np.array_equal``),
not a tolerance, because both paths commit to the same per-element
reduction order. That order is the exact tier's, so every test here runs
inside nn.exact_tier(); the fast tier's tolerances are gated in
test_fast_tier.py.
"""

import numpy as np
import pytest

from carafe import reference as ref
from carafe.nn import (ConvLayerParams, affine_norm, affine_params,
                       conv_output_hw, conv_params, conv2d_backward,
                       conv2d_forward, exact_tier, pixel_shuffle,
                       pixel_unshuffle, relu, softmax_group,
                       transposed_conv_backward, transposed_conv_forward,
                       transposed_conv_output_hw, transposed_conv_params)
from carafe.reassembly import (CarafeConfig, KernelField, carafe_forward,
                               carafe_params, predict_kernels, reassemble,
                               reassemble_backward)
from carafe.tensor import Tensor

N_CASES = 50


@pytest.fixture(autouse=True)
def _on_exact_tier():
    with exact_tier():
        yield


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


def _signed_zeros(rng, t):
    """Set about a quarter of t's entries to +0.0 or -0.0, in place."""
    hit = rng.random(t.shape) < 0.25
    t.data[hit] = np.where(rng.random(t.shape) < 0.5, 0.0, -0.0)[hit]
    return t


def _wide_conv_case(rng, dtype=np.float64):
    """Wider than _conv_case: stride up to 3, c_in*k^2 up to 50, n up to 3,
    h != w, signed zeros in x."""
    n = int(rng.integers(1, 4))
    k = int(rng.choice([1, 3, 5]))
    c_in = int(rng.integers(1, min(5, 50 // (k * k)) + 1))
    c_out = int(rng.integers(1, 6))
    stride = int(rng.integers(1, 4))
    pad = int(rng.integers(0, k // 2 + 2))
    h = int(rng.integers(k, k + 7))
    w = int(rng.integers(k, k + 7))
    if w == h:
        w += 1
    x = _signed_zeros(rng, _rand(rng, (n, c_in, h, w), dtype))
    p = conv_params(c_out, c_in, k, rng, dtype)
    return x, p, stride, pad


def _conv_grad_out(rng, x, p, stride, pad):
    h_out, w_out = conv_output_hw(x.shape[2], x.shape[3], p.weights.shape[2],
                                  stride, pad)
    gy = _rand(rng, (x.shape[0], p.weights.shape[0], h_out, w_out), x.dtype)
    return _signed_zeros(rng, gy)


def _assert_bits(a, b):
    """Equal bit for bit: signed zeros must match too."""
    da = a.data if isinstance(a, Tensor) else a
    db = b.data if isinstance(b, Tensor) else b
    assert da.dtype == db.dtype
    assert da.shape == db.shape
    assert da.tobytes() == db.tobytes()


def _check_wide_conv_backward(rng, dtype):
    for _ in range(N_CASES):
        x, p, stride, pad = _wide_conv_case(rng, dtype)
        gy = _conv_grad_out(rng, x, p, stride, pad)
        gx = conv2d_backward(gy, x, p, stride, pad)
        gx_d, gw_d, gb_d = ref.conv2d_backward_direct(gy, x, p, stride, pad)
        _assert_bits(gx, gx_d)
        _assert_bits(p.grad_weights, gw_d)
        _assert_bits(p.grad_bias, gb_d)


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

    def test_transposed_backward_is_conv(self):
        # The input gradient of the transposed conv is the conv of grad_out
        # with the same weights array and no bias, tap order included.
        rng = np.random.default_rng(616)
        for _ in range(N_CASES):
            c_src = int(rng.integers(1, 4))
            c_dst = int(rng.integers(1, 4))
            k = int(rng.choice([1, 2, 3, 4]))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, min(k, 2)))
            x = _rand(rng, (int(rng.integers(1, 3)), c_src,
                            int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            p = transposed_conv_params(c_src, c_dst, k, rng)
            h_out, w_out = transposed_conv_output_hw(x.shape[2], x.shape[3],
                                                     k, stride, pad)
            gy = _rand(rng, (x.shape[0], c_dst, h_out, w_out))
            gx = transposed_conv_backward(gy, x, p, stride, pad)
            as_conv = ConvLayerParams(p.weights, np.zeros(c_src))
            _assert_same(gx, ref.conv2d_forward_direct(gy, as_conv, stride, pad))


    def test_backward_wide(self):
        _check_wide_conv_backward(np.random.default_rng(617), np.float64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_onto_prior_grads(self, dtype):
        # Parameter grads accumulate: a nonzero buffer ends at prior + twin.
        rng = np.random.default_rng(619)
        for _ in range(N_CASES):
            x, p, stride, pad = _wide_conv_case(rng, dtype)
            gy = _conv_grad_out(rng, x, p, stride, pad)
            p.grad_weights[...] = rng.standard_normal(p.weights.shape)
            p.grad_bias[...] = rng.standard_normal(p.bias.shape)
            prior_w, prior_b = p.grad_weights.copy(), p.grad_bias.copy()
            conv2d_backward(gy, x, p, stride, pad)
            _, gw_d, gb_d = ref.conv2d_backward_direct(gy, x, p, stride, pad)
            _assert_bits(p.grad_weights, prior_w + gw_d)
            _assert_bits(p.grad_bias, prior_b + gb_d)


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


class TestReassemblyEdgePaths:
    """Cases the criterion-6 generator never draws: down maps that sigma does
    not divide (ceil mode), windows wider than the map, and single precision.
    Kernel fields are drawn directly, signs included."""

    @staticmethod
    def _case(rng, direction):
        sigma = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5, 7]))
        dtype = (np.float32, np.float64)[int(rng.integers(0, 2))]
        n = int(rng.integers(1, 3))
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        cfg = CarafeConfig(direction, sigma, k_reassembly=k)
        x = _rand(rng, (n, int(rng.integers(1, 4)), h, w), dtype)
        h_out, w_out = cfg.output_hw(h, w)
        kf = KernelField(_rand(rng, (n, k * k, h_out, w_out), dtype), k, True)
        return x, kf, cfg

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_forward(self, direction):
        rng = np.random.default_rng(614)
        for _ in range(N_CASES):
            x, kf, cfg = self._case(rng, direction)
            _assert_same(reassemble(x, kf, cfg), ref.reassemble_direct(x, kf, cfg))

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_backward(self, direction):
        rng = np.random.default_rng(615)
        for _ in range(N_CASES):
            x, kf, cfg = self._case(rng, direction)
            h_out, w_out = cfg.output_hw(x.shape[2], x.shape[3])
            gy = _rand(rng, (x.shape[0], x.shape[1], h_out, w_out), x.dtype)
            gx, gk = reassemble_backward(gy, x, kf, cfg)
            gx_d, gk_d = ref.reassemble_backward_direct(gy, x, kf, cfg)
            _assert_same(gx, gx_d)
            _assert_same(gk, gk_d)


class TestManyChannelBackward:
    """reassemble_backward at C >= 8, where the kernel gradient folds many
    channels per element; fp32 and fp64, drawn kernel fields, signed zeros."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_backward(self, direction, dtype):
        rng = np.random.default_rng(620)
        for _ in range(20):
            sigma = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            n = int(rng.integers(1, 3))
            c = int(rng.integers(8, 13))
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            cfg = CarafeConfig(direction, sigma, k_reassembly=k)
            x = _signed_zeros(rng, _rand(rng, (n, c, h, w), dtype))
            h_out, w_out = cfg.output_hw(h, w)
            kf = KernelField(_rand(rng, (n, k * k, h_out, w_out), dtype), k, True)
            gy = _signed_zeros(rng, _rand(rng, (n, c, h_out, w_out), dtype))
            gx, gk = reassemble_backward(gy, x, kf, cfg)
            gx_d, gk_d = ref.reassemble_backward_direct(gy, x, kf, cfg)
            _assert_bits(gx, gx_d)
            _assert_bits(gk, gk_d)


class TestPipelinePaths:
    """Kernel prediction and the fused forward under every normalizer, in
    both directions and both precisions, with signed zeros in the input;
    affine_norm with n > 1 and h != w."""

    @staticmethod
    def _case(rng, direction, normalizer, dtype):
        sigma = int(rng.integers(1, 4))
        k_re = int(rng.choice([1, 3, 5]))
        cfg = CarafeConfig(direction, sigma, k_encoder=int(rng.choice([1, 3])),
                           k_reassembly=k_re, c_mid=int(rng.integers(1, 4)),
                           normalizer=normalizer,
                           compressor_norm=bool(rng.integers(0, 2)))
        c_in = int(rng.integers(1, 4))
        shape = (int(rng.integers(1, 3)), c_in,
                 int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        x = _signed_zeros(rng, _rand(rng, shape, dtype))
        return x, carafe_params(c_in, cfg, rng, dtype), cfg

    @pytest.mark.parametrize("normalizer", ["softmax", "sigmoid", "sigmoid_norm"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_predict_and_fuse(self, direction, dtype, normalizer):
        rng = np.random.default_rng(621)
        for _ in range(20):
            x, params, cfg = self._case(rng, direction, normalizer, dtype)
            kf = predict_kernels(x, params, cfg)
            kf_d = ref.predict_kernels_direct(x, params, cfg)
            assert kf.normalized == kf_d.normalized
            _assert_bits(kf.tensor, kf_d.tensor)
            y, _ = carafe_forward(x, params, cfg)
            _assert_bits(y, ref.reassemble_direct(x, kf_d, cfg))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_affine_norm_wide(self, dtype):
        rng = np.random.default_rng(622)
        for _ in range(N_CASES):
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 7))
            w = h + int(rng.integers(1, 4))
            x = _signed_zeros(rng, _rand(rng, (int(rng.integers(2, 4)), c, h, w),
                                         dtype))
            p = affine_params(c, dtype)
            p.gamma[:] = rng.standard_normal(c)
            p.beta[:] = rng.standard_normal(c)
            _assert_bits(affine_norm(x, p), ref.affine_norm_direct(x, p))


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

    def test_conv_backward_single(self):
        _check_wide_conv_backward(np.random.default_rng(618), np.float32)
