"""Tests for the toy-task generator, the mini networks, and the trainer."""

import dataclasses
import warnings

import numpy as np
import pytest

from carafe.demo import (ARCHITECTURES, TASK_KINDS, ReluLayer, SlotSpec,
                         ToyTask, bce_logits_loss, build_net,
                         compare_operators, dataset_batch, evaluate, iou,
                         make_dataset, mse_loss, psnr, seeded_net, train)
from carafe.errors import ContractError, TrainingDiverged
from carafe.nn import sgd_step, zero_grads
from carafe.tensor import Tensor


def _rngs(seed):
    ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(ss[0]), np.random.default_rng(ss[1])


class TestToyTask:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ToyTask("colorize")

    def test_size_divisibility(self):
        with pytest.raises(ValueError):
            ToyTask("super_res", size=15, sigma=2)

    def test_metric_name(self):
        assert ToyTask("super_res").metric_name == "psnr"
        assert ToyTask("seg2").metric_name == "iou"

    def test_dataset_deterministic(self):
        task = ToyTask("super_res", seed=5)
        a = make_dataset(task, 4)
        b = make_dataset(task, 4)
        for (xa, ya), (xb, yb) in zip(a, b):
            assert np.array_equal(xa.data, xb.data)
            assert np.array_equal(ya.data, yb.data)

    def test_dataset_prefix_stable(self):
        # growing the dataset keeps the earlier samples identical
        task = ToyTask("inpaint", seed=6)
        small = make_dataset(task, 2)
        big = make_dataset(task, 5)
        for (xs, ys), (xb, yb) in zip(small, big):
            assert np.array_equal(xs.data, xb.data)
            assert np.array_equal(ys.data, yb.data)

    def test_super_res_geometry(self):
        task = ToyTask("super_res", size=16, sigma=2, seed=0)
        pairs = make_dataset(task, 3)
        for x, y in pairs:
            assert x.shape == (1, 1, 8, 8)
            assert y.shape == (1, 1, 16, 16)

    def test_super_res_input_is_box_mean(self):
        task = ToyTask("super_res", size=16, sigma=2, seed=1)
        x, y = make_dataset(task, 1)[0]
        blocks = y.data.reshape(1, 1, 8, 2, 8, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(x.data, blocks, atol=1e-12)

    def test_inpaint_geometry_and_hole(self):
        task = ToyTask("inpaint", size=16, seed=2)
        x, y = make_dataset(task, 1)[0]
        assert x.shape == y.shape == (1, 1, 16, 16)
        wiped = (x.data == 0) & (y.data != 0)
        assert wiped.any()

    def test_seg2_targets_are_binary(self):
        task = ToyTask("seg2", size=16, seed=3)
        for x, y in make_dataset(task, 3):
            assert set(np.unique(y.data)) <= {0.0, 1.0}
            assert x.data.min() >= 0.0 and x.data.max() <= 1.0

    def test_images_in_unit_range(self):
        for kind in TASK_KINDS:
            task = ToyTask(kind, size=16, seed=4)
            for x, y in make_dataset(task, 2):
                assert x.data.min() >= 0.0 and x.data.max() <= 1.0

    def test_batch_concatenates(self):
        task = ToyTask("super_res", size=16, sigma=2, seed=0)
        x, y = dataset_batch(task, 4)
        assert x.shape == (4, 1, 8, 8)
        assert y.shape == (4, 1, 16, 16)


class TestLossesAndMetrics:
    def test_mse_matches_numpy(self):
        rng = np.random.default_rng(50)
        pred = Tensor(rng.standard_normal((2, 1, 4, 4)))
        target = Tensor(rng.standard_normal((2, 1, 4, 4)))
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(np.mean((pred.data - target.data) ** 2))
        np.testing.assert_allclose(
            grad.data, 2 * (pred.data - target.data) / pred.data.size)

    def test_mse_zero_at_match(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        loss, grad = mse_loss(x, Tensor(np.ones((1, 1, 2, 2))))
        assert loss == 0.0
        assert np.all(grad.data == 0.0)

    def test_bce_matches_reference(self):
        rng = np.random.default_rng(51)
        z = Tensor(rng.standard_normal((1, 1, 3, 3)) * 3)
        t = Tensor((rng.uniform(size=(1, 1, 3, 3)) > 0.5).astype(np.float64))
        loss, grad = bce_logits_loss(z, t)
        p = 1 / (1 + np.exp(-z.data))
        expect = -np.mean(t.data * np.log(p) + (1 - t.data) * np.log(1 - p))
        assert loss == pytest.approx(expect, rel=1e-10)
        np.testing.assert_allclose(grad.data, (p - t.data) / z.data.size,
                                   atol=1e-12)

    def test_bce_stable_at_extreme_logits(self):
        z = Tensor(np.array([[[[500.0, -500.0]]]]))
        t = Tensor(np.array([[[[1.0, 0.0]]]]))
        loss, grad = bce_logits_loss(z, t)
        assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad.data))

    def test_psnr(self):
        a = Tensor(np.zeros((1, 1, 2, 2)))
        b = Tensor(np.full((1, 1, 2, 2), 0.1))
        assert psnr(a, b) == pytest.approx(20.0)
        assert psnr(a, a) == np.inf

    def test_iou(self):
        logits = Tensor(np.array([[[[1.0, -1.0], [1.0, -1.0]]]]))
        target = Tensor(np.array([[[[1.0, 0.0], [0.0, 0.0]]]]))
        # predicted {TL, BL}, target {TL}: intersection 1, union 2
        assert iou(logits, target) == pytest.approx(0.5)

    def test_iou_empty_union_is_one(self):
        logits = Tensor(np.full((1, 1, 2, 2), -5.0))
        target = Tensor(np.zeros((1, 1, 2, 2)))
        assert iou(logits, target) == 1.0


class TestNetworks:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("slot_kind", ["carafe", "nearest_up", "bilinear_up",
                                           "nearest_plus_conv", "transposed_conv"])
    def test_up_slots_shape_safe(self, arch, slot_kind):
        if arch == "bottleneck":
            pytest.skip("bottleneck takes down-direction slots")
        rs, rl = _rngs(0)
        spec = SlotSpec(slot_kind, c_mid=4)
        net = build_net(arch, spec, channels=4, sigma=2, rng_shared=rs,
                        rng_slot=rl, dtype=np.float64)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 1, 8, 8)))
        y = net.forward(x)
        # upsampler emits sigma x the input; the pyramid merges back at the
        # input resolution
        expect_hw = 16 if arch == "upsampler" else 8
        assert y.shape == (2, 1, expect_hw, expect_hw)

    @pytest.mark.parametrize("slot_kind", ["carafe", "strided_conv", "avg_pool",
                                           "max_pool", "spatial_attention"])
    def test_bottleneck_down_slots(self, slot_kind):
        rs, rl = _rngs(2)
        spec = SlotSpec(slot_kind, c_mid=4)
        net = build_net("bottleneck", spec, channels=4, sigma=2, rng_shared=rs,
                        rng_slot=rl, dtype=np.float64)
        x = Tensor(np.random.default_rng(3).standard_normal((1, 1, 16, 16)))
        assert net.forward(x).shape == (1, 1, 16, 16)

    def test_direction_mismatch_rejected(self):
        rs, rl = _rngs(4)
        with pytest.raises(ValueError):
            build_net("bottleneck", SlotSpec("nearest_up"), channels=4,
                      sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)

    def test_unknown_slot_option_rejected(self):
        with pytest.raises(TypeError):
            SlotSpec("carafe", c_mdi=4)

    def test_unknown_arch(self):
        rs, rl = _rngs(5)
        with pytest.raises(ValueError):
            build_net("autoencoder", SlotSpec("carafe"), channels=4, sigma=2,
                      rng_shared=rs, rng_slot=rl, dtype=np.float64)

    def test_gradients_reach_every_parameter(self):
        rs, rl = _rngs(6)
        net = build_net("fpn", SlotSpec("carafe", c_mid=4), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        x = Tensor(np.random.default_rng(7).standard_normal((1, 1, 8, 8)))
        y = net.forward(x)
        _, grad = mse_loss(y, Tensor(np.zeros_like(y.data)))
        net.backward(grad)
        for obj in net.param_objects():
            total = sum(float(np.abs(g).sum()) for _, g, _ in obj.slots())
            assert total > 0.0

    def test_zero_grads_resets(self):
        rs, rl = _rngs(8)
        net = build_net("upsampler", SlotSpec("carafe", c_mid=4), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        x = Tensor(np.random.default_rng(9).standard_normal((1, 1, 8, 8)))
        y = net.forward(x)
        _, grad = mse_loss(y, Tensor(np.zeros_like(y.data)))
        net.backward(grad)
        net.zero_grads()
        for obj in net.param_objects():
            for _, g, _ in obj.slots():
                assert np.all(g == 0.0)


def _filled_net(arch):
    """A seeded carafe-slot net whose gradients one backward has filled."""
    net = seeded_net(arch, SlotSpec("carafe", c_mid=4), 4, 2, 10)
    x = Tensor(np.random.default_rng(11).standard_normal((1, 1, 8, 8)))
    y = net.forward(x)
    _, grad = mse_loss(y, Tensor(np.zeros_like(y.data)))
    net.backward(grad)
    return net


def _net_arrays(net):
    """Copy of every array of every container of net, in walk order."""
    return [value.copy() for obj in net.param_objects()
            for value in vars(obj).values() if isinstance(value, np.ndarray)]


def _bit_equal(arrays, others):
    return len(arrays) == len(others) and all(
        np.array_equal(a, b) for a, b in zip(arrays, others))


class TestParamTree:
    """A net is one holder of trainable arrays: its walks follow from the
    parts it names, and the optimizer takes it whole."""

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_net_steps_like_its_param_objects(self, arch):
        whole, parts = _filled_net(arch), _filled_net(arch)
        before = _net_arrays(whole)
        sgd_step(whole, lr=0.1, momentum=0.9, weight_decay=1e-3)
        sgd_step(parts.param_objects(), lr=0.1, momentum=0.9, weight_decay=1e-3)
        stepped = _net_arrays(whole)
        assert _bit_equal(stepped, _net_arrays(parts))
        assert not _bit_equal(before, stepped)
        zero_grads(whole)
        for obj in parts.param_objects():
            obj.zero_grads()
        assert _bit_equal(_net_arrays(whole), _net_arrays(parts))
        assert not any(grad.any() for _, _, grad, _ in whole.named_slots())

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_param_objects_order_is_pinned(self, arch):
        net = _filled_net(arch)
        if arch == "fpn":
            carafe = net.slot.params
            want = [net.stem.params, net.down.params, net.lat_hi.params,
                    net.lat_lo.params, carafe.compressor, carafe.encoder,
                    net.head.params]
        elif arch == "upsampler":
            carafe = net.layers[2].params
            want = [net.layers[0].params, carafe.compressor, carafe.encoder,
                    net.layers[3].params]
        else:
            carafe = net.layers[2].params
            want = [net.layers[0].params, carafe.compressor, carafe.encoder,
                    carafe.norm, net.layers[3].params, net.layers[6].params]
        got = net.param_objects()
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))

    @pytest.mark.parametrize("arch,names", [
        ("upsampler", ["0.weights", "0.bias", "2.compressor.weights",
                       "2.compressor.bias", "2.encoder.weights",
                       "2.encoder.bias", "3.weights", "3.bias"]),
        ("fpn", ["stem.weights", "stem.bias", "down.weights", "down.bias",
                 "lat_hi.weights", "lat_hi.bias", "lat_lo.weights",
                 "lat_lo.bias", "slot.compressor.weights",
                 "slot.compressor.bias", "slot.encoder.weights",
                 "slot.encoder.bias", "head.weights", "head.bias"]),
    ])
    def test_named_slots_name_each_array_by_path(self, arch, names):
        net = _filled_net(arch)
        named = list(net.named_slots())
        assert [name for name, *_ in named] == names
        plain = [slot for obj in net.param_objects() for slot in obj.slots()]
        assert len(plain) == len(named)
        for (_, *a), b in zip(named, plain):
            assert all(x is y for x, y in zip(a, b, strict=True))

    def test_baseline_slot_names_its_conv_or_nothing(self):
        rs, rl = _rngs(12)
        learned = build_net("upsampler", SlotSpec("transposed_conv"), channels=4,
                            sigma=2, rng_shared=rs, rng_slot=rl)
        fixed = build_net("upsampler", SlotSpec("bilinear_up"), channels=4,
                          sigma=2, rng_shared=rs, rng_slot=rl)
        assert [n for n, *_ in learned.named_slots()] == [
            "0.weights", "0.bias", "2.weights", "2.bias", "3.weights", "3.bias"]
        assert [n for n, *_ in fixed.named_slots()] == [
            "0.weights", "0.bias", "3.weights", "3.bias"]

    @pytest.mark.parametrize("bad", [ReluLayer(), 3, [ReluLayer()]],
                             ids=["relu_layer", "int", "list_of_relu_layer"])
    def test_non_holders_raise_contract_error(self, bad):
        for walk in (lambda p: sgd_step(p, 0.1), zero_grads):
            with pytest.raises(ContractError):
                walk(bad)


class TestTraining:
    def test_lr_zero_keeps_loss_constant(self):
        task = ToyTask("super_res", size=8, sigma=2, seed=0)
        rs, rl = _rngs(0)
        net = build_net("upsampler", SlotSpec("carafe", c_mid=4), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        report = train(net, task, epochs=4, lr=0.0, train_count=4,
                       eval_count=2)
        assert len(set(report.losses)) == 1

    def test_losses_decrease_with_training(self):
        task = ToyTask("super_res", size=8, sigma=2, seed=0)
        rs, rl = _rngs(1)
        net = build_net("upsampler", SlotSpec("carafe", c_mid=4), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        report = train(net, task, epochs=25, lr=0.05, train_count=6,
                       eval_count=2)
        assert report.losses[-1] < report.losses[0]
        assert report.final_loss == report.losses[-1]

    def test_divergence_raises(self):
        task = ToyTask("super_res", size=8, sigma=2, seed=0)
        rs, rl = _rngs(2)
        net = build_net("upsampler", SlotSpec("nearest_plus_conv"), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        with pytest.raises(TrainingDiverged):
            train(net, task, epochs=200, lr=50.0, train_count=4,
                  eval_count=2)

    def test_divergence_raises_before_any_numpy_warning(self):
        # The first overflow of a step is the package's own error, not a
        # RuntimeWarning printed on the way to a non-finite loss.
        task = ToyTask("super_res", size=8, sigma=2, seed=0)
        rs, rl = _rngs(2)
        net = build_net("upsampler", SlotSpec("carafe", c_mid=4), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="at step"):
                train(net, task, epochs=300, lr=1000.0, train_count=4,
                      eval_count=2)

    @pytest.mark.parametrize("bad", [{"epochs": 0}, {"train_count": 0},
                                     {"eval_count": 0}])
    def test_bad_count_raises_before_any_step(self, bad):
        # train reads eval_count only after its last step, but checks it
        # before the first
        task = ToyTask("super_res", size=8, sigma=2, seed=0)
        rs, rl = _rngs(5)
        net = build_net("upsampler", SlotSpec("nearest_up"), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        calls = []
        forward = net.forward
        net.forward = lambda x: calls.append(x) or forward(x)
        counts = {"epochs": 5, "train_count": 4, "eval_count": 2, **bad}
        with pytest.raises(ContractError, match=f"{next(iter(bad))} must be"):
            train(net, task, lr=0.01, **counts)
        assert len(calls) == 0

    def test_report_payload_excludes_wall_time(self):
        task = ToyTask("seg2", size=8, sigma=2, seed=0)
        rs, rl = _rngs(3)
        net = build_net("bottleneck", SlotSpec("avg_pool"), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        report = train(net, task, epochs=3, lr=0.01, train_count=4,
                       eval_count=2)
        payload = report.to_payload()
        assert "wall_time_s" not in payload
        assert payload["timing"] == "excluded"
        assert payload["metric_name"] == "iou"

    def test_evaluate_uses_held_out_seed(self):
        task = ToyTask("super_res", size=8, sigma=2, seed=0)
        train_batch = dataset_batch(task, 4)
        eval_task = dataclasses.replace(task, seed=task.seed + 1_000_000)
        eval_batch = dataset_batch(eval_task, 4)
        assert not np.array_equal(train_batch[0].data, eval_batch[0].data)
        rs, rl = _rngs(4)
        net = build_net("upsampler", SlotSpec("nearest_up"), channels=4,
                        sigma=2, rng_shared=rs, rng_slot=rl, dtype=np.float64)
        m = evaluate(net, task, count=4)
        assert np.isfinite(m)


class TestCompare:
    def test_compare_operators_report(self):
        task = ToyTask("super_res", size=8, sigma=2, seed=0)
        roster = [SlotSpec("carafe", c_mid=4), SlotSpec("nearest_up")]
        rows = compare_operators(task, roster, seeds=(0, 1), arch="upsampler",
                                 channels=4, epochs=3, lr=0.02,
                                 train_count=4, eval_count=2)
        assert [r.operator for r in rows] == ["carafe", "nearest_up"]
        for row in rows:
            assert len(row.per_seed) == 2
            assert row.mean == pytest.approx(float(np.mean(row.per_seed)))

    def test_identical_budgets_across_operators(self):
        # same seed => same shared-trunk weights regardless of slot kind
        rs1, _ = _rngs(7)
        rs2, _ = _rngs(7)
        a = build_net("upsampler", SlotSpec("carafe", c_mid=4), channels=4,
                      sigma=2, rng_shared=rs1, rng_slot=np.random.default_rng(0),
                      dtype=np.float64)
        b = build_net("upsampler", SlotSpec("nearest_up"), channels=4,
                      sigma=2, rng_shared=rs2, rng_slot=np.random.default_rng(0),
                      dtype=np.float64)
        wa = a.layers[0].params.weights
        wb = b.layers[0].params.weights
        assert np.array_equal(wa, wb)
