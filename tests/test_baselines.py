"""Unit tests for the baseline resamplers.

Interpolating kinds get independent index-arithmetic oracles; learned kinds
are checked against the conv primitives they wrap; every backward is checked
with the dot-product adjoint identity <gy, f(x)> == <gx, x> (exact for the
linear kinds, gate-frozen for attention).
"""

import itertools

import numpy as np
import pytest

from carafe.baselines import (ALL_KINDS, DOWN_KINDS, UP_KINDS, deconv_geometry,
                              make_resample_op, resample_backward,
                              resample_forward, resample_output_hw)
from carafe.errors import GeometryError
from carafe.nn import conv2d_forward, sigmoid_array, transposed_conv_forward
from carafe.tensor import Tensor


def _rand(rng, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape).astype(dtype))


class TestConstruction:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_resample_op("lanczos", 2)

    def test_bad_sigma(self):
        with pytest.raises(GeometryError):
            make_resample_op("nearest_up", 0)

    def test_learned_kind_needs_channels(self):
        with pytest.raises(ValueError):
            make_resample_op("strided_conv", 2)

    def test_direction_inference(self):
        assert make_resample_op("nearest_up", 2).direction == "up"
        assert make_resample_op("avg_pool", 2).direction == "down"

    def test_dual_kind_needs_direction(self):
        with pytest.raises(ValueError):
            make_resample_op("spatial_attention", 2, channels=3)
        op = make_resample_op("spatial_attention", 2, channels=3, direction="down")
        assert op.direction == "down"

    def test_direction_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_resample_op("max_pool", 2, direction="up")

    def test_output_hw(self):
        up = make_resample_op("nearest_up", 3)
        down = make_resample_op("avg_pool", 3)
        assert resample_output_hw(up, 4, 5) == (12, 15)
        assert resample_output_hw(down, 10, 9) == (4, 3)

    @pytest.mark.parametrize("sigma,k,pad", [(1, 1, 0), (2, 4, 1), (3, 5, 1),
                                             (4, 8, 2)])
    def test_deconv_geometry(self, sigma, k, pad):
        # kernel/pad pair must satisfy k - 2*pad == sigma so the output is
        # exactly sigma times the input.
        assert deconv_geometry(sigma) == (k, pad)
        assert k - 2 * pad == sigma


class TestInterpolators:
    def test_nearest_up_repeats(self):
        rng = np.random.default_rng(20)
        x = _rand(rng, (2, 3, 4, 5))
        y, _ = resample_forward(make_resample_op("nearest_up", 3), x)
        assert np.array_equal(y.data, x.data.repeat(3, axis=2).repeat(3, axis=3))

    def test_bilinear_up_against_index_oracle(self):
        rng = np.random.default_rng(21)
        sigma = 2
        x = _rand(rng, (1, 2, 5, 4))
        y, _ = resample_forward(make_resample_op("bilinear_up", sigma), x)
        n, c, h, w = x.shape
        expect = np.empty((n, c, sigma * h, sigma * w))
        for oi in range(sigma * h):
            si = max((oi + 0.5) / sigma - 0.5, 0.0)
            i0 = min(int(np.floor(si)), h - 1)
            i1 = min(i0 + 1, h - 1)
            ti = si - i0
            for oj in range(sigma * w):
                sj = max((oj + 0.5) / sigma - 0.5, 0.0)
                j0 = min(int(np.floor(sj)), w - 1)
                j1 = min(j0 + 1, w - 1)
                tj = sj - j0
                row = x.data[:, :, i0, :] * (1 - ti) + x.data[:, :, i1, :] * ti
                expect[:, :, oi, oj] = row[:, :, j0] * (1 - tj) + row[:, :, j1] * tj
        np.testing.assert_allclose(y.data, expect, atol=1e-13)

    def test_bilinear_sigma1_is_identity(self):
        rng = np.random.default_rng(22)
        x = _rand(rng, (1, 2, 4, 4))
        y, _ = resample_forward(make_resample_op("bilinear_up", 1), x)
        np.testing.assert_array_equal(y.data, x.data)

    def test_bilinear_constant_preserved(self):
        x = Tensor(np.full((1, 1, 5, 5), 2.5))
        y, _ = resample_forward(make_resample_op("bilinear_up", 4), x)
        np.testing.assert_allclose(y.data, 2.5, atol=1e-14)


class TestPooling:
    def test_avg_pool_even_sigma_exact_blocks(self):
        rng = np.random.default_rng(23)
        x = _rand(rng, (2, 2, 6, 6))
        y, _ = resample_forward(make_resample_op("avg_pool", 2), x)
        expect = x.data.reshape(2, 2, 3, 2, 3, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(y.data, expect, atol=1e-13)

    def test_max_pool_even_sigma_exact_blocks(self):
        rng = np.random.default_rng(24)
        x = _rand(rng, (1, 3, 8, 8))
        y, _ = resample_forward(make_resample_op("max_pool", 2), x)
        expect = x.data.reshape(1, 3, 4, 2, 4, 2).max(axis=(3, 5))
        assert np.array_equal(y.data, expect)

    def test_odd_sigma_window_centers_on_stride_points(self):
        # sigma=3 windows are centered: output (oi, oj) pools source rows
        # 3*oi-1 .. 3*oi+1 with zero padding (avg) at the border.
        x = Tensor(np.arange(36, dtype=np.float64).reshape(1, 1, 6, 6))
        y, _ = resample_forward(make_resample_op("avg_pool", 3), x)
        assert y.shape == (1, 1, 2, 2)
        # interior cell (1,1): rows 2..4, cols 2..4 full window
        block = x.data[0, 0, 2:5, 2:5]
        np.testing.assert_allclose(y.data[0, 0, 1, 1], block.mean())
        # corner cell (0,0): window rows -1..1 zero-padded, denominator 9
        corner = x.data[0, 0, 0:2, 0:2].sum() / 9.0
        np.testing.assert_allclose(y.data[0, 0, 0, 0], corner)

    def test_pool_ragged_input_shapes(self):
        rng = np.random.default_rng(25)
        x = _rand(rng, (1, 1, 7, 5))
        for kind in ("avg_pool", "max_pool"):
            y, _ = resample_forward(make_resample_op(kind, 2), x)
            assert y.shape == (1, 1, 4, 3)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("sigma", [1, 2, 3, 4])
    def test_pool_keeps_its_loop_definitions_bits(self, sigma, dtype):
        # Over ragged maps, a loop over each window's in-map taps, row-major:
        # max takes the first maximum and routes grad_y to it; avg folds
        # from +0, divides by sigma^2 and adds grad_y / sigma^2 to each tap.
        # About half of every draw is +-0 or +-1, so windows hold ties and
        # signed zeros.
        rng = np.random.default_rng(40 + sigma)

        def draw(shape):
            a = rng.standard_normal(shape)
            hit = rng.random(shape) < 0.5
            a[hit] = rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape)[hit]
            return a.astype(dtype)

        pad = sigma // 2 if sigma % 2 else 0
        div = dtype(sigma * sigma)
        for h, w in itertools.product(range(1, 10), repeat=2):
            x = draw((1, 2, h, w))
            for kind in ("max_pool", "avg_pool"):
                op = make_resample_op(kind, sigma)
                y, cache = resample_forward(op, Tensor(x))
                gy = draw(y.shape)
                gx = resample_backward(op, Tensor(gy), cache).data
                loop_y = np.empty(y.shape, dtype)
                loop_gx = np.zeros(x.shape, dtype)
                for b, c, oi, oj in np.ndindex(*y.shape):
                    taps = [(b, c, r, s)
                            for r in range(sigma * oi - pad, sigma * oi - pad + sigma)
                            for s in range(sigma * oj - pad, sigma * oj - pad + sigma)
                            if 0 <= r < h and 0 <= s < w]
                    if kind == "max_pool":
                        best = taps[0]
                        for tap in taps[1:]:
                            if x[tap] > x[best]:
                                best = tap
                        loop_y[b, c, oi, oj] = x[best]
                        loop_gx[best] += gy[b, c, oi, oj]
                        continue
                    acc = dtype(0)
                    for tap in taps:
                        acc += x[tap]
                        loop_gx[tap] += gy[b, c, oi, oj] / div
                    loop_y[b, c, oi, oj] = acc / div
                case = (kind, h, w)
                assert y.data.dtype == gx.dtype == dtype, case
                assert y.data.tobytes() == loop_y.tobytes(), case
                assert gx.tobytes() == loop_gx.tobytes(), case

    def test_max_pool_on_all_negative_input(self):
        # -inf padding must never leak into the output.
        x = Tensor(np.full((1, 1, 5, 5), -7.0))
        y, _ = resample_forward(make_resample_op("max_pool", 2), x)
        assert np.all(np.isfinite(y.data))
        assert np.all(y.data == -7.0)


class TestLearnedKinds:
    def test_strided_conv_wraps_conv(self):
        rng = np.random.default_rng(26)
        op = make_resample_op("strided_conv", 2, channels=3, rng=rng)
        x = _rand(rng, (1, 3, 6, 6))
        y, _ = resample_forward(op, x)
        expect = conv2d_forward(x, op.params, stride=2, pad=1)
        assert np.array_equal(y.data, expect.data)

    def test_transposed_conv_wraps_tconv(self):
        rng = np.random.default_rng(27)
        op = make_resample_op("transposed_conv", 2, channels=2, rng=rng)
        x = _rand(rng, (1, 2, 4, 4))
        y, _ = resample_forward(op, x)
        k, pad = deconv_geometry(2)
        expect = transposed_conv_forward(x, op.params, stride=2, pad=pad)
        assert np.array_equal(y.data, expect.data)
        assert y.shape == (1, 2, 8, 8)

    def test_nearest_plus_conv_composition(self):
        rng = np.random.default_rng(28)
        op = make_resample_op("nearest_plus_conv", 2, channels=2, rng=rng)
        x = _rand(rng, (1, 2, 3, 3))
        y, _ = resample_forward(op, x)
        up = Tensor(x.data.repeat(2, axis=2).repeat(2, axis=3))
        expect = conv2d_forward(up, op.params, stride=1, pad=1)
        assert np.array_equal(y.data, expect.data)

    def test_spatial_attention_gates_then_resamples(self):
        rng = np.random.default_rng(29)
        op = make_resample_op("spatial_attention", 2, channels=2, rng=rng,
                              direction="down")
        x = _rand(rng, (1, 2, 4, 4))
        y, _ = resample_forward(op, x)
        z = conv2d_forward(x, op.params, stride=1, pad=0)
        att = x.data * sigmoid_array(z.data)
        assert np.array_equal(y.data, att[:, :, ::2, ::2])

    def test_spatial_attention_up_repeats_gated(self):
        rng = np.random.default_rng(30)
        op = make_resample_op("spatial_attention", 2, channels=2, rng=rng,
                              direction="up")
        x = _rand(rng, (1, 2, 3, 3))
        y, _ = resample_forward(op, x)
        z = conv2d_forward(x, op.params, stride=1, pad=0)
        att = x.data * sigmoid_array(z.data)
        assert np.array_equal(y.data, att.repeat(2, axis=2).repeat(2, axis=3))


class TestAdjoints:
    """For linear ops, <gy, f(x)> == <backward(gy), x> exactly; the learned
    kinds are linear in x at frozen params, attention's check freezes the
    gate by linearizing: the identity is checked directionally with the
    finite-difference quotient instead."""

    LINEAR_KINDS = ("nearest_up", "bilinear_up", "avg_pool",
                    "strided_conv", "transposed_conv", "nearest_plus_conv",
                    "bilinear_plus_conv")

    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_linear_adjoint_identity(self, kind):
        rng = np.random.default_rng(31)
        for sigma in (1, 2, 3):
            op = make_resample_op(kind, sigma, channels=2, rng=rng)
            x = _rand(rng, (1, 2, 4, 4))
            y, cache = resample_forward(op, x)
            gy = _rand(rng, y.shape)
            gx = resample_backward(op, gy, cache)
            lhs = float(np.sum(gy.data * y.data))
            rhs = float(np.sum(gx.data * x.data))
            if op.params is not None:
                # subtract the bias term <gy, f(0)>: the map is affine
                zero = Tensor(np.zeros_like(x.data))
                y0, _ = resample_forward(op, zero)
                lhs -= float(np.sum(gy.data * y0.data))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_max_pool_routes_gradient_to_argmax(self):
        x = Tensor(np.array([[[[1.0, 9.0], [3.0, 2.0]]]]))
        op = make_resample_op("max_pool", 2)
        y, cache = resample_forward(op, x)
        gx = resample_backward(op, Tensor(np.array([[[[5.0]]]])), cache)
        assert np.array_equal(gx.data, np.array([[[[0.0, 5.0], [0.0, 0.0]]]]))

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_spatial_attention_fd_gradient(self, direction):
        rng = np.random.default_rng(32)
        op = make_resample_op("spatial_attention", 2, channels=2, rng=rng,
                              direction=direction)
        x = _rand(rng, (1, 2, 4, 4))
        y, cache = resample_forward(op, x)
        gy = _rand(rng, y.shape)
        gx = resample_backward(op, gy, cache)
        eps = 1e-6
        for idx in [(0, 0, 1, 1), (0, 1, 2, 3), (0, 0, 0, 0)]:
            xp = Tensor(x.data.copy())
            xm = Tensor(x.data.copy())
            xp.data[idx] += eps
            xm.data[idx] -= eps
            yp, _ = resample_forward(op, xp)
            ym, _ = resample_forward(op, xm)
            fd = float(np.sum(gy.data * (yp.data - ym.data)) / (2 * eps))
            np.testing.assert_allclose(gx.data[idx], fd, rtol=1e-6, atol=1e-9)

    def test_learned_param_grads_accumulate(self):
        rng = np.random.default_rng(33)
        op = make_resample_op("strided_conv", 2, channels=2, rng=rng)
        x = _rand(rng, (1, 2, 4, 4))
        y, cache = resample_forward(op, x)
        gy = _rand(rng, y.shape)
        resample_backward(op, gy, cache)
        assert float(np.abs(op.params.grad_weights).sum()) > 0
        assert float(np.abs(op.params.grad_bias).sum()) > 0


class TestKindRosters:
    def test_rosters_are_disjoint_and_complete(self):
        assert set(UP_KINDS) & set(DOWN_KINDS) == set()
        assert set(ALL_KINDS) == set(UP_KINDS) | set(DOWN_KINDS) | {"spatial_attention"}
