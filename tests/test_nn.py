"""Neural primitives against independent oracles and frozen hand-derived values.

The conv oracles here are deliberately written with numpy reductions
(einsum / tensordot), a different computational route from both the shipped
fast paths and the loop-nest twins in reference.py, so agreement is evidence
rather than tautology.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carafe.errors import GeometryError, ShapeError
from carafe.nn import (affine_norm, affine_params, conv2d_backward,
                       conv2d_forward, conv_output_hw, conv_params,
                       pixel_shuffle, pixel_unshuffle, relu, relu_backward,
                       sgd_step, sigmoid_array, softmax_group,
                       softmax_group_backward, transposed_conv_backward,
                       transposed_conv_forward, transposed_conv_output_hw,
                       transposed_conv_params)
from carafe.tensor import Tensor

seeds = st.integers(0, 2**31)


def conv_oracle(x, w, b, stride, pad):
    """Independent conv2d via sliding-window einsum."""
    n, c_in, h, w_in = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w_in + 2 * pad - k) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for oi in range(h_out):
        for oj in range(w_out):
            patch = xp[:, :, oi * stride:oi * stride + k, oj * stride:oj * stride + k]
            out[:, :, oi, oj] = np.einsum("ncij,ocij->no", patch, w) + b
    return out


def tconv_oracle(x, w, b, stride, pad):
    """Independent transposed conv: scatter each input element's stamp."""
    n, c_src, h, w_in = x.shape
    _, c_dst, k, _ = w.shape
    full_h = stride * (h - 1) + k
    full_w = stride * (w_in - 1) + k
    out = np.zeros((n, c_dst, full_h, full_w))
    for b_i in range(n):
        for i in range(h):
            for j in range(w_in):
                for cs in range(c_src):
                    out[b_i, :, i * stride:i * stride + k, j * stride:j * stride + k] \
                        += x[b_i, cs, i, j] * w[cs]
    out = out[:, :, pad:full_h - pad, pad:full_w - pad]
    return out + b.reshape(1, c_dst, 1, 1)


class TestConvGeometry:
    def test_output_size_formula(self):
        assert conv_output_hw(5, 5, 3, 1, 1) == (5, 5)
        assert conv_output_hw(5, 5, 3, 2, 1) == (3, 3)
        assert conv_output_hw(6, 6, 3, 2, 1) == (3, 3)
        assert conv_output_hw(7, 9, 1, 1, 0) == (7, 9)

    def test_too_small_input_rejected(self):
        with pytest.raises(GeometryError):
            conv_output_hw(2, 2, 5, 1, 0)

    def test_transposed_output_size(self):
        assert transposed_conv_output_hw(3, 3, 4, 2, 1) == (6, 6)
        assert transposed_conv_output_hw(4, 5, 3, 3, 0) == (12, 15)


class TestConvForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        p = conv_params(1, 1, 1, None)
        p.weights[0, 0, 0, 0] = 1.0
        y = conv2d_forward(x, p, 1, 0)
        assert np.array_equal(y.data, x.data)

    def test_hand_computed_3x3(self):
        x = Tensor(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
        p = conv_params(1, 1, 3, None)
        p.weights[0, 0] = np.eye(3)
        p.bias[0] = 0.5
        y = conv2d_forward(x, p, 1, 0)
        # taps (0,0),(1,1),(2,2) on the only window: 0 + 4 + 8, plus bias
        assert y.shape == (1, 1, 1, 1)
        assert y.data[0, 0, 0, 0] == 12.5

    @given(seeds, st.integers(1, 2), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_matches_einsum_oracle(self, seed, stride, pad):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 6, 7))
        p = conv_params(4, 3, 3, rng)
        y = conv2d_forward(Tensor(x), p, stride, pad)
        expected = conv_oracle(x, p.weights, p.bias, stride, pad)
        assert np.allclose(y.data, expected, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        p = conv_params(3, 4, 3, None)
        with pytest.raises(ShapeError):
            conv2d_forward(x, p, 1, 1)


class TestConvBackward:
    @given(seeds, st.integers(1, 2), st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_grad_x_matches_dot_product_identity(self, seed, stride, pad):
        # <grad_y, conv(x)> must equal <grad_x, x> for linear conv (zero bias)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, 6, 6))
        p = conv_params(3, 2, 3, rng)
        p.bias[:] = 0.0
        y = conv2d_forward(Tensor(x), p, stride, pad)
        gy = rng.standard_normal(y.shape)
        p.zero_grads()
        gx = conv2d_backward(Tensor(gy), Tensor(x), p, stride, pad)
        lhs = float(np.sum(gy * y.data))
        rhs = float(np.sum(gx.data * x))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_grad_weights_accumulate_across_calls(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        p = conv_params(2, 2, 3, rng)
        y = conv2d_forward(x, p, 1, 1)
        gy = Tensor(np.ones(y.shape))
        p.zero_grads()
        conv2d_backward(gy, x, p, 1, 1)
        once = p.grad_weights.copy()
        conv2d_backward(gy, x, p, 1, 1)
        assert np.allclose(p.grad_weights, 2 * once)

    def test_grad_bias_is_grad_sum(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        p = conv_params(3, 2, 3, rng)
        y = conv2d_forward(x, p, 1, 1)
        gy = rng.standard_normal(y.shape)
        p.zero_grads()
        conv2d_backward(Tensor(gy), x, p, 1, 1)
        assert np.allclose(p.grad_bias, gy.sum(axis=(0, 2, 3)))


class TestTransposedConv:
    @given(seeds, st.integers(1, 3), st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_scatter_oracle(self, seed, stride, pad):
        rng = np.random.default_rng(seed)
        k = stride + 2
        x = rng.standard_normal((2, 3, 4, 5))
        p = transposed_conv_params(3, 2, k, rng)
        y = transposed_conv_forward(Tensor(x), p, stride, pad)
        expected = tconv_oracle(x, p.weights, p.bias, stride, pad)
        assert y.shape == expected.shape
        assert np.allclose(y.data, expected, rtol=1e-12, atol=1e-12)

    def test_adjoint_of_strided_conv(self):
        # forward transposed conv with weights W == conv2d_backward's grad_x
        # under the same W: <y, tconv(x)> == <conv(y), x>
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 3, 4, 4))   # low res
        p = transposed_conv_params(3, 2, 4, rng)
        p.bias[:] = 0.0
        up = transposed_conv_forward(Tensor(x), p, 2, 1)  # (1,2,8,8)
        probe = rng.standard_normal(up.shape)
        # conv with weights transposed to (c_out=3 "src", c_in=2, k, k)
        q = conv_params(3, 2, 4, None)
        q.weights[:] = p.weights
        down = conv2d_forward(Tensor(probe), q, 2, 1)
        lhs = float(np.sum(up.data * probe))
        rhs = float(np.sum(x * down.data))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_backward_dot_product_identity(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 2, 3, 3))
        p = transposed_conv_params(2, 3, 4, rng)
        p.bias[:] = 0.0
        y = transposed_conv_forward(Tensor(x), p, 2, 1)
        gy = rng.standard_normal(y.shape)
        p.zero_grads()
        gx = transposed_conv_backward(Tensor(gy), Tensor(x), p, 2, 1)
        lhs = float(np.sum(gy * y.data))
        rhs = float(np.sum(gx.data * x))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


class TestPixelShuffle:
    def test_frozen_2x2_example(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        y = pixel_shuffle(x, 2)
        assert y.shape == (1, 1, 2, 2)
        assert np.array_equal(y.data[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 18, 3, 4)))
        assert np.array_equal(pixel_unshuffle(pixel_shuffle(x, 3), 3).data, x.data)

    def test_sigma_one_is_identity(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((1, 3, 2, 2)))
        assert np.array_equal(pixel_shuffle(x, 1).data, x.data)

    def test_channel_count_not_divisible_rejected(self):
        x = Tensor(np.zeros((1, 3, 2, 2)))
        with pytest.raises(ShapeError):
            pixel_shuffle(x, 2)

    def test_unshuffle_spatial_not_divisible_rejected(self):
        x = Tensor(np.zeros((1, 1, 3, 4)))
        with pytest.raises(ShapeError):
            pixel_unshuffle(x, 2)


class TestSoftmaxGroup:
    def test_frozen_two_logit_example(self):
        # softmax([0, ln 3]) = [1/4, 3/4] exactly in expectation
        x = Tensor(np.array([0.0, np.log(3.0)]).reshape(1, 2, 1, 1))
        y = softmax_group(x, 2)
        assert abs(y.data[0, 0, 0, 0] - 0.25) < 1e-15
        assert abs(y.data[0, 1, 0, 0] - 0.75) < 1e-15

    def test_uniform_on_equal_logits(self):
        x = Tensor(np.full((1, 9, 2, 2), 3.7))
        y = softmax_group(x, 9)
        assert np.allclose(y.data, 1 / 9, atol=1e-15)

    @given(seeds, st.sampled_from([1, 4, 9, 25]))
    @settings(max_examples=25, deadline=None)
    def test_sums_to_one_and_positive(self, seed, group):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-30, 30, size=(2, 2 * group, 3, 3)))
        y = softmax_group(x, group)
        sums = y.data.reshape(2, 2, group, 3, 3).sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert np.all(y.data > 0)

    def test_shift_invariance_within_group(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 4, 2, 2))
        y1 = softmax_group(Tensor(x), 4)
        y2 = softmax_group(Tensor(x + 100.0), 4)
        assert np.allclose(y1.data, y2.data, atol=1e-12)

    def test_extreme_logits_stable(self):
        x = Tensor(np.array([1000.0, -1000.0, 0.0, 999.0]).reshape(1, 4, 1, 1))
        y = softmax_group(x, 4)
        assert np.all(np.isfinite(y.data))
        assert abs(float(y.data.sum()) - 1.0) < 1e-12

    def test_group_not_dividing_channels_rejected(self):
        with pytest.raises(ShapeError):
            softmax_group(Tensor(np.zeros((1, 5, 2, 2))), 2)

    def test_backward_shift_direction_annihilated(self):
        # adding a constant to a group leaves softmax unchanged, so the
        # backward applied to a constant upstream grad must vanish
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((1, 9, 2, 2)))
        g = Tensor(np.ones((1, 9, 2, 2)))
        gz = softmax_group_backward(g, softmax_group(x, 9), 9)
        assert np.allclose(gz.data, 0.0, atol=1e-14)


class TestAffineNorm:
    def test_matches_numpy_stats(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 4, 5, 6))
        p = affine_params(4)
        p.gamma[:] = rng.uniform(0.5, 1.5, 4)
        p.beta[:] = rng.uniform(-0.5, 0.5, 4)
        y = affine_norm(Tensor(x), p, eps=1e-5)
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        expected = (p.gamma.reshape(1, 4, 1, 1) * (x - mean.reshape(1, 4, 1, 1))
                    / np.sqrt(var.reshape(1, 4, 1, 1) + 1e-5)
                    + p.beta.reshape(1, 4, 1, 1))
        assert np.allclose(y.data, expected, rtol=1e-10, atol=1e-12)

    def test_normalized_output_statistics(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 2, 8, 8)) * 5 + 3
        p = affine_params(2)
        y = affine_norm(Tensor(x), p)
        got_mean = y.data.mean(axis=(0, 2, 3))
        got_var = y.data.var(axis=(0, 2, 3))
        assert np.allclose(got_mean, 0.0, atol=1e-12)
        assert np.allclose(got_var, 1.0, atol=1e-4)  # eps-limited

    def test_constant_channel_stays_finite(self):
        x = Tensor(np.full((2, 1, 4, 4), 7.0))
        p = affine_params(1)
        y = affine_norm(x, p)
        assert np.all(np.isfinite(y.data))
        assert np.allclose(y.data, 0.0, atol=1e-12)


class TestReluSigmoid:
    def test_relu_values(self):
        x = Tensor(np.array([[-1.0, 0.0], [2.5, -0.0]]).reshape(1, 1, 2, 2))
        y = relu(x)
        assert np.array_equal(y.data.ravel(), [0.0, 0.0, 2.5, 0.0])

    def test_relu_backward_gates_strictly_positive(self):
        x = Tensor(np.array([[-1.0, 0.0], [2.5, 3.0]]).reshape(1, 1, 2, 2))
        g = Tensor(np.ones((1, 1, 2, 2)))
        gx = relu_backward(g, x)
        assert np.array_equal(gx.data.ravel(), [0.0, 0.0, 1.0, 1.0])

    def test_sigmoid_symmetry_and_range(self):
        x = np.array([-500.0, 0.0, 500.0, 2.0]).reshape(1, 1, 1, 4)
        y = sigmoid_array(x)
        assert np.all(np.isfinite(y))
        assert y[0, 0, 0, 1] == 0.5
        assert abs(y[0, 0, 0, 3] + sigmoid_array(-x)[0, 0, 0, 3] - 1.0) < 1e-15


class TestSgd:
    def test_lr_zero_is_noop(self):
        p = conv_params(2, 2, 3, np.random.default_rng(18))
        before = p.weights.copy()
        p.grad_weights[:] = 1.0
        sgd_step(p, lr=0.0, momentum=0.9, weight_decay=1e-4)
        assert np.array_equal(p.weights, before)

    def test_hand_computed_momentum_sequence(self):
        p = conv_params(1, 1, 1, None)
        p.weights[0, 0, 0, 0] = 1.0
        # step 1: v = 0.5*0 + g(0.2) + wd(0.1)*w(1.0) = 0.3 ; w = 1 - 0.1*0.3
        p.grad_weights[0, 0, 0, 0] = 0.2
        sgd_step(p, lr=0.1, momentum=0.5, weight_decay=0.1)
        assert abs(p.weights[0, 0, 0, 0] - 0.97) < 1e-15
        # step 2: v = 0.5*0.3 + 0.2 + 0.1*0.97 = 0.447 ; w = 0.97 - 0.0447
        p.grad_weights[0, 0, 0, 0] = 0.2
        sgd_step(p, lr=0.1, momentum=0.5, weight_decay=0.1)
        assert abs(p.weights[0, 0, 0, 0] - 0.9253) < 1e-15

    def test_accepts_iterable_of_params(self):
        a = conv_params(1, 1, 1, None)
        b = affine_params(2)
        a.grad_weights[:] = 1.0
        b.grad_gamma[:] = 1.0
        sgd_step([a, b], lr=0.5)
        assert a.weights[0, 0, 0, 0] == -0.5
        assert np.all(b.gamma == 0.5)

    def test_untrainable_bias_not_updated(self):
        p = conv_params(2, 2, 3, np.random.default_rng(19), bias=False)
        p.grad_bias[:] = 5.0
        sgd_step(p, lr=0.1)
        assert np.all(p.bias == 0.0)


class TestParamBuilders:
    @pytest.mark.parametrize("sizes", [(0, 2, 3), (2, 0, 3), (2, 2, 0), (-1, 2, 3)])
    @pytest.mark.parametrize("rng", [None, np.random.default_rng(20)])
    def test_conv_sizes_below_one_rejected(self, sizes, rng):
        with pytest.raises(ShapeError):
            conv_params(*sizes, rng)
        with pytest.raises(ShapeError):
            transposed_conv_params(*sizes, rng)

    @pytest.mark.parametrize("channels", [0, -2])
    def test_affine_channels_below_one_rejected(self, channels):
        with pytest.raises(ShapeError):
            affine_params(channels)

    def test_named_slots(self):
        conv = conv_params(2, 2, 3, None)
        frozen = conv_params(2, 2, 3, None, bias=False)
        norm = affine_params(2)
        assert [n for n, *_ in conv.named_slots()] == ["weights", "bias"]
        assert [n for n, *_ in frozen.named_slots()] == ["weights"]
        assert [n for n, *_ in norm.named_slots()] == ["gamma", "beta"]
        _, value, grad, vel = next(norm.named_slots())
        assert value is norm.gamma and grad is norm.grad_gamma \
            and vel is norm.vel_gamma

    def test_zero_grads_clears_frozen_bias_too(self):
        p = conv_params(2, 2, 3, None, bias=False)
        p.grad_weights[:] = 1.0
        p.grad_bias[:] = 1.0
        p.zero_grads()
        assert not p.grad_weights.any() and not p.grad_bias.any()
