"""Unit tests for the content-aware reassembly operator.

Covers the config contract, target-to-source geometry, kernel prediction,
the weighted-reassembly forward/backward, and the degenerate cases that
have closed-form answers (uniform kernels, delta kernels, k=1 gating).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carafe import nn
from carafe.baselines import make_resample_op, resample_forward
from carafe.errors import (ContractError, DTypeError, GeometryError,
                           KernelSizeError, ShapeError)
from carafe.reassembly import (CarafeConfig, CarafeParams, KernelField,
                               carafe_backward, carafe_forward, carafe_params,
                               kernel_offsets, map_target_to_source,
                               predict_kernels, reassemble,
                               reassemble_backward)
from carafe.tensor import Tensor


def _rand(rng, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape).astype(dtype))


class TestConfig:
    def test_direction_validation(self):
        with pytest.raises(ValueError):
            CarafeConfig("sideways", 2)

    @pytest.mark.parametrize("sigma", [0, -1, 2.0, True])
    def test_sigma_validation(self, sigma):
        with pytest.raises(GeometryError):
            CarafeConfig("down", sigma)

    @pytest.mark.parametrize("k", [0, 2, 4, -3])
    def test_kernels_must_be_odd(self, k):
        with pytest.raises(KernelSizeError):
            CarafeConfig("down", 2, k_reassembly=k)
        with pytest.raises(KernelSizeError):
            CarafeConfig("down", 2, k_encoder=k)

    @pytest.mark.parametrize("name, value, error", [
        ("sigma", 2.0, GeometryError), ("sigma", np.True_, GeometryError),
        ("k_encoder", True, KernelSizeError), ("k_encoder", 3.0, KernelSizeError),
        ("k_reassembly", np.float64(3), KernelSizeError),
        ("c_mid", 2.0, ContractError), ("c_mid", "4", ContractError),
        ("c_mid", False, ContractError)])
    def test_integer_fields_reject_non_integers(self, name, value, error):
        # Each with its own error type, before any numpy call sees the value.
        with pytest.raises(error, match=f"{name} must be an integer"):
            CarafeConfig(**{"direction": "down", "sigma": 2, name: value})

    def test_integer_fields_accept_numpy_integers_as_python_ints(self):
        cfg = CarafeConfig("up", np.int64(2), k_encoder=np.int32(3),
                           k_reassembly=np.int64(3), c_mid=np.uint8(4))
        assert [(type(v), v) for v in (cfg.sigma, cfg.k_encoder,
                                       cfg.k_reassembly, cfg.c_mid)] == [
            (int, 2), (int, 3), (int, 3), (int, 4)]
        assert cfg == CarafeConfig("up", 2, k_reassembly=3, c_mid=4)
        params = carafe_params(2, cfg, np.random.default_rng(0))
        assert params.encoder.weights.shape == (4 * 9, 4, 3, 3)

    def test_normalizer_validation(self):
        with pytest.raises(ValueError):
            CarafeConfig("down", 2, normalizer="l2")

    def test_direction_defaults(self):
        down = CarafeConfig("down", 2)
        up = CarafeConfig("up", 2)
        assert down.c_mid == 16 and down.compressor_norm is True
        assert up.c_mid == 64 and up.compressor_norm is False

    def test_defaults_can_be_overridden(self):
        cfg = CarafeConfig("down", 2, c_mid=5, compressor_norm=False)
        assert cfg.c_mid == 5 and cfg.compressor_norm is False

    def test_kernel_channels(self):
        assert CarafeConfig("down", 2, k_reassembly=5).kernel_channels == 25
        assert CarafeConfig("up", 3, k_reassembly=1).kernel_channels == 1

    def test_encoder_out_channels(self):
        assert CarafeConfig("down", 3, k_reassembly=5).encoder_out_channels == 25
        assert CarafeConfig("up", 3, k_reassembly=5).encoder_out_channels == 225

    def test_output_hw(self):
        down = CarafeConfig("down", 3)
        assert down.output_hw(9, 9) == (3, 3)
        assert down.output_hw(10, 8) == (4, 3)
        assert down.output_hw(1, 1) == (1, 1)
        up = CarafeConfig("up", 3)
        assert up.output_hw(4, 5) == (12, 15)


class TestGeometry:
    def test_kernel_offsets_k1(self):
        assert kernel_offsets(1) == [(0, 0)]

    def test_kernel_offsets_k3_row_major(self):
        assert kernel_offsets(3) == [(-1, -1), (-1, 0), (-1, 1),
                                     (0, -1), (0, 0), (0, 1),
                                     (1, -1), (1, 0), (1, 1)]

    def test_down_mapping_scales(self):
        cfg = CarafeConfig("down", 3)
        assert map_target_to_source((0, 0), cfg) == (0, 0)
        assert map_target_to_source((2, 1), cfg) == (6, 3)

    def test_up_mapping_floors(self):
        cfg = CarafeConfig("up", 2)
        assert map_target_to_source((0, 1), cfg) == (0, 0)
        assert map_target_to_source((5, 4), cfg) == (2, 2)

    def test_negative_target_rejected(self):
        with pytest.raises(GeometryError):
            map_target_to_source((-1, 0), CarafeConfig("up", 2))

    def test_kernel_field_validation(self):
        t = Tensor(np.zeros((1, 9, 4, 4)))
        with pytest.raises(KernelSizeError):
            KernelField(t, 2, True)
        with pytest.raises(ShapeError):
            KernelField(t, 5, True)
        assert KernelField(t, 3, True).k == 3


class TestPredictKernels:
    @pytest.mark.parametrize("direction,h_out,w_out", [("down", 3, 2), ("up", 12, 8)])
    def test_shape_contract(self, direction, h_out, w_out):
        cfg = CarafeConfig(direction, 2, c_mid=4)
        rng = np.random.default_rng(0)
        x = _rand(rng, (2, 3, 6, 4))
        kf = predict_kernels(x, carafe_params(3, cfg, rng), cfg)
        assert kf.tensor.shape == (2, 25, h_out, w_out)
        assert kf.normalized

    @given(direction=st.sampled_from(["down", "up"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_softmax_groups_sum_to_one(self, direction, seed):
        rng = np.random.default_rng(seed)
        cfg = CarafeConfig(direction, 2, k_reassembly=3, c_mid=3)
        x = _rand(rng, (1, 2, 4, 4))
        kf = predict_kernels(x, carafe_params(2, cfg, rng), cfg)
        d = kf.tensor.data
        assert np.all(d > 0)
        np.testing.assert_allclose(d.sum(axis=1), 1.0, atol=1e-12)

    def test_sigmoid_norm_groups_sum_to_one(self):
        rng = np.random.default_rng(3)
        cfg = CarafeConfig("up", 2, c_mid=4, normalizer="sigmoid_norm")
        x = _rand(rng, (1, 2, 4, 4))
        kf = predict_kernels(x, carafe_params(2, cfg, rng), cfg)
        assert kf.normalized
        np.testing.assert_allclose(kf.tensor.data.sum(axis=1), 1.0, atol=1e-12)

    def test_sigmoid_field_not_normalized(self):
        rng = np.random.default_rng(4)
        cfg = CarafeConfig("up", 2, c_mid=4, normalizer="sigmoid")
        x = _rand(rng, (1, 2, 4, 4))
        kf = predict_kernels(x, carafe_params(2, cfg, rng), cfg)
        assert not kf.normalized
        d = kf.tensor.data
        assert np.all((d > 0) & (d < 1))

    def test_zero_weights_give_uniform_kernels(self):
        for direction in ("down", "up"):
            cfg = CarafeConfig(direction, 2, k_reassembly=5, c_mid=3,
                               compressor_norm=False)
            x = _rand(np.random.default_rng(5), (1, 2, 4, 4))
            kf = predict_kernels(x, carafe_params(2, cfg, None), cfg)
            assert np.array_equal(kf.tensor.data,
                                  np.full_like(kf.tensor.data, 1.0 / 25.0))

    def test_channel_mismatch_rejected(self):
        cfg = CarafeConfig("down", 2, c_mid=3)
        rng = np.random.default_rng(6)
        params = carafe_params(3, cfg, rng)
        with pytest.raises(ShapeError):
            predict_kernels(_rand(rng, (1, 2, 4, 4)), params, cfg)

    def test_missing_norm_params_rejected(self):
        cfg = CarafeConfig("down", 2, c_mid=3, compressor_norm=True)
        rng = np.random.default_rng(7)
        params = carafe_params(3, cfg, rng)
        broken = CarafeParams(compressor=params.compressor,
                              encoder=params.encoder, norm=None)
        with pytest.raises(ContractError):
            predict_kernels(_rand(rng, (1, 3, 4, 4)), broken, cfg)


def _uniform_field(cfg, n, h_out, w_out, dtype=np.float64):
    k2 = cfg.kernel_channels
    data = np.full((n, k2, h_out, w_out), 1.0 / k2, dtype=dtype)
    return KernelField(Tensor(data), cfg.k_reassembly, True)


def _delta_field(cfg, n, h_out, w_out, dtype=np.float64):
    k2 = cfg.kernel_channels
    data = np.zeros((n, k2, h_out, w_out), dtype=dtype)
    data[:, k2 // 2] = 1.0
    return KernelField(Tensor(data), cfg.k_reassembly, True)


class TestReassembleClosedForms:
    def test_uniform_down_is_average_pooling(self):
        # Zero-padded k x k box filter applied at stride sigma.
        rng = np.random.default_rng(8)
        cfg = CarafeConfig("down", 2, k_reassembly=3)
        x = _rand(rng, (1, 2, 6, 6))
        y = reassemble(x, _uniform_field(cfg, 1, 3, 3), cfg)
        xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for oi in range(3):
            for oj in range(3):
                box = xp[:, :, 2 * oi:2 * oi + 3, 2 * oj:2 * oj + 3]
                np.testing.assert_allclose(y.data[:, :, oi, oj],
                                           box.mean(axis=(2, 3)), atol=1e-12)

    def test_delta_down_is_decimation(self):
        rng = np.random.default_rng(9)
        cfg = CarafeConfig("down", 3, k_reassembly=5)
        x = _rand(rng, (2, 3, 9, 6))
        y = reassemble(x, _delta_field(cfg, 2, 3, 2), cfg)
        assert np.array_equal(y.data, x.data[:, :, ::3, ::3])

    def test_delta_up_is_nearest(self):
        rng = np.random.default_rng(10)
        cfg = CarafeConfig("up", 2, k_reassembly=3)
        x = _rand(rng, (1, 2, 4, 4))
        y = reassemble(x, _delta_field(cfg, 1, 8, 8), cfg)
        nearest = x.data.repeat(2, axis=2).repeat(2, axis=3)
        assert np.array_equal(y.data, nearest)

    def test_k1_softmax_is_identity_gate(self):
        # A 1x1 kernel group normalizes to exactly 1, so the operator
        # reduces to nearest-up / stride-decimation.
        rng = np.random.default_rng(11)
        for direction, expect in (
            ("up", lambda d: d.repeat(2, axis=2).repeat(2, axis=3)),
            ("down", lambda d: d[:, :, ::2, ::2]),
        ):
            cfg = CarafeConfig(direction, 2, k_reassembly=1, c_mid=3,
                               compressor_norm=False)
            x = _rand(rng, (1, 2, 4, 4))
            y, _ = carafe_forward(x, carafe_params(2, cfg, rng), cfg)
            assert np.array_equal(y.data, expect(x.data))

    def test_constant_input_preserved_interior(self):
        rng = np.random.default_rng(12)
        for direction in ("down", "up"):
            cfg = CarafeConfig(direction, 2, k_reassembly=5)
            x = Tensor(np.full((1, 3, 8, 8), 0.731))
            y, _ = carafe_forward(x, carafe_params(3, cfg, rng), cfg)
            r = cfg.k_reassembly // 2
            if direction == "down":
                lo, hi = -(-r // 2), y.shape[2] - (-(-r // 2))
            else:
                lo, hi = 2 * r, y.shape[2] - 2 * r
            interior = y.data[:, :, lo:hi, lo:hi]
            np.testing.assert_allclose(interior, 0.731, atol=1e-12)

    def test_uniform_up_matches_bilinear_interior(self):
        # Hand-built separable bilinear kernels (quarter/three-quarter taps
        # by sub-pixel phase) reproduce the bilinear resizer away from the
        # border, where zero padding and edge clamping differ.
        rng = np.random.default_rng(13)
        sigma, h, w = 2, 6, 6
        cfg = CarafeConfig("up", sigma, k_reassembly=3)
        x = _rand(rng, (1, 2, h, w))
        taps = {0: {-1: 0.25, 0: 0.75, 1: 0.0}, 1: {-1: 0.0, 0: 0.75, 1: 0.25}}
        data = np.zeros((1, 9, sigma * h, sigma * w))
        for oi in range(sigma * h):
            for oj in range(sigma * w):
                wi = taps[oi % sigma]
                wj = taps[oj % sigma]
                for q, (dn, dm) in enumerate(kernel_offsets(3)):
                    data[0, q, oi, oj] = wi[dn] * wj[dm]
        kf = KernelField(Tensor(data), 3, True)
        y = reassemble(x, kf, cfg)
        op = make_resample_op("bilinear_up", sigma)
        ref, _ = resample_forward(op, x)
        np.testing.assert_allclose(
            y.data[:, :, sigma:-sigma, sigma:-sigma],
            ref.data[:, :, sigma:-sigma, sigma:-sigma], atol=1e-12)


class TestReassembleContracts:
    def test_unnormalized_field_rejected_by_default(self):
        rng = np.random.default_rng(14)
        cfg = CarafeConfig("up", 2, c_mid=3, normalizer="sigmoid")
        x = _rand(rng, (1, 2, 4, 4))
        kf = predict_kernels(x, carafe_params(2, cfg, rng), cfg)
        with pytest.raises(ContractError):
            reassemble(x, kf, cfg)
        y = reassemble(x, kf, cfg, allow_unnormalized=True)
        assert y.shape == (1, 2, 8, 8)

    def test_kernel_size_mismatch(self):
        cfg3 = CarafeConfig("up", 2, k_reassembly=3)
        cfg5 = CarafeConfig("up", 2, k_reassembly=5)
        x = Tensor(np.zeros((1, 1, 4, 4)))
        kf = _uniform_field(cfg3, 1, 8, 8)
        with pytest.raises(KernelSizeError):
            reassemble(x, kf, cfg5)

    def test_field_shape_mismatch(self):
        cfg = CarafeConfig("up", 2, k_reassembly=3)
        x = Tensor(np.zeros((1, 1, 4, 4)))
        kf = _uniform_field(cfg, 1, 4, 4)  # wrong spatial size
        with pytest.raises(ShapeError):
            reassemble(x, kf, cfg)

    def test_field_dtype_mismatch(self):
        cfg = CarafeConfig("up", 2, k_reassembly=3)
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        kf = _uniform_field(cfg, 1, 8, 8, dtype=np.float64)
        with pytest.raises(DTypeError):
            reassemble(x, kf, cfg)

    def test_backward_grad_shape_checked(self):
        rng = np.random.default_rng(15)
        cfg = CarafeConfig("up", 2, k_reassembly=3)
        x = _rand(rng, (1, 2, 4, 4))
        kf = _uniform_field(cfg, 1, 8, 8)
        with pytest.raises(ShapeError):
            reassemble_backward(_rand(rng, (1, 2, 4, 4)), x, kf, cfg)

    def test_cache_single_use(self):
        rng = np.random.default_rng(16)
        cfg = CarafeConfig("down", 2, c_mid=3)
        x = _rand(rng, (1, 2, 4, 4))
        y, cache = carafe_forward(x, carafe_params(2, cfg, rng), cfg)
        gy = _rand(rng, y.shape)
        carafe_backward(gy, cache)
        with pytest.raises(ContractError):
            carafe_backward(gy, cache)
        with pytest.raises(ContractError):
            carafe_backward(gy, None)

    def test_backward_rejects_wrong_grad_shape(self):
        rng = np.random.default_rng(17)
        cfg = CarafeConfig("up", 2, c_mid=3)
        x = _rand(rng, (1, 2, 4, 4))
        _, cache = carafe_forward(x, carafe_params(2, cfg, rng), cfg)
        with pytest.raises(ShapeError):
            carafe_backward(_rand(rng, (1, 2, 4, 4)), cache)


class TestAdjointIdentity:
    """<gy, reassemble(x)> == <reassemble_backward(gy), x> + <gk, kf>
    splits into two separate linear adjoints since the output is bilinear
    in (x, kf): fixing the kernels makes x -> y linear, and vice versa."""

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_source_path_adjoint(self, direction):
        rng = np.random.default_rng(18)
        for _ in range(10):
            sigma = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            cfg = CarafeConfig(direction, sigma, k_reassembly=k, c_mid=2)
            h = sigma * int(rng.integers(1, 4)) if direction == "down" \
                else int(rng.integers(2, 5))
            w = sigma * int(rng.integers(1, 4)) if direction == "down" \
                else int(rng.integers(2, 5))
            x = _rand(rng, (1, 2, h, w))
            h_out, w_out = cfg.output_hw(h, w)
            kf_data = rng.uniform(0.1, 1.0, (1, k * k, h_out, w_out))
            kf_data /= kf_data.sum(axis=1, keepdims=True)
            kf = KernelField(Tensor(kf_data), k, True)
            gy = _rand(rng, (1, 2, h_out, w_out))
            y = reassemble(x, kf, cfg)
            gx, gk = reassemble_backward(gy, x, kf, cfg)
            lhs = float(np.sum(gy.data * y.data))
            rhs_x = float(np.sum(gx.data * x.data))
            rhs_k = float(np.sum(gk.data * kf_data))
            # y is linear in x at fixed kf: <gy, y> == <gx, x>.
            np.testing.assert_allclose(lhs, rhs_x, rtol=1e-12)
            # y is also linear in kf at fixed x: <gy, y> == <gk, kf>.
            np.testing.assert_allclose(lhs, rhs_k, rtol=1e-12)


class TestCarafeParamsSlots:
    def test_named_slots_up_default(self):
        # up defaults to no norm stage, so the compressor bias trains
        params = carafe_params(3, CarafeConfig("up", 2, c_mid=4), None)
        assert [name for name, *_ in params.named_slots()] == [
            "compressor.weights", "compressor.bias", "encoder.weights",
            "encoder.bias"]

    def test_named_slots_down_default(self):
        # down defaults to the norm stage, which cancels the compressor bias
        params = carafe_params(3, CarafeConfig("down", 2, c_mid=4), None)
        assert [name for name, *_ in params.named_slots()] == [
            "compressor.weights", "encoder.weights", "encoder.bias",
            "norm.gamma", "norm.beta"]

    def test_slots_drop_the_names(self):
        params = carafe_params(3, CarafeConfig("down", 2, c_mid=4), None)
        for (_, *named), plain in zip(params.named_slots(), params.slots(),
                                      strict=True):
            assert all(a is b for a, b in zip(named, plain, strict=True))

    @staticmethod
    def _arrays(params):
        """stage.key -> copy of every array of every stage."""
        stages = zip(("compressor", "encoder", "norm"), params.param_objects())
        return {f"{stage}.{key}": value.copy() for stage, obj in stages
                for key, value in vars(obj).items()
                if isinstance(value, np.ndarray)}

    def _step(self, params, as_objects):
        """Arrays before sgd_step, after it, and after zero_grads."""
        rng = np.random.default_rng(32)
        for obj in params.param_objects():
            for key, value in vars(obj).items():
                if key.startswith("grad_"):
                    value[...] = rng.standard_normal(value.shape)
        target = params.param_objects() if as_objects else params
        before = self._arrays(params)
        nn.sgd_step(target, lr=0.1, momentum=0.9, weight_decay=1e-3)
        stepped = self._arrays(params)
        nn.zero_grads(target)
        return before, stepped, self._arrays(params)

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_container_updates_what_its_param_objects_do(self, direction):
        cfg = CarafeConfig(direction, 2, c_mid=4)
        got, want = (self._step(carafe_params(3, cfg, np.random.default_rng(31)),
                                as_objects) for as_objects in (False, True))
        for a, b in zip(got, want, strict=True):
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)
        before, stepped, zeroed = got
        # the step moves exactly the trainable arrays and their velocities
        moved = {k for k in before if not np.array_equal(before[k], stepped[k])}
        trained = [name for name, *_ in carafe_params(3, cfg, None).named_slots()]
        assert moved == {name.replace(".", "." + prefix) for name in trained
                         for prefix in ("", "vel_")}
        assert not any(zeroed[k].any() for k in zeroed if ".grad_" in k)
