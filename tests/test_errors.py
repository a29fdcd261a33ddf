"""Every deliberate rejection raises one of the package's own error types.

errors.py promises that everything raised on purpose derives from
CarafeError; the argument rejections among them are also ValueErrors, so
callers that catch ValueError keep working, and a gradient of another dtype
than its forward's result is a DTypeError, also a TypeError. Every public
backward, and resample_backward for each kind in each direction it takes,
rejects a gradient one row too tall and one of the other dtype. Every op
that takes a parameter container rejects an input one channel short and one
of the other dtype, and a container rejects arrays whose dtypes disagree.
"""

import numpy as np
import pytest

from carafe import nn, reassembly
from carafe.baselines import (ALL_KINDS, DOWN_KINDS, UP_KINDS, make_resample_op,
                              resample_backward, resample_forward)
from carafe.demo import (SlotSpec, ToyTask, build_net, compare_operators,
                         make_dataset, seeded_net, train)
from carafe.errors import CarafeError, ContractError, DTypeError, ShapeError
from carafe.gradcheck import check_op, finite_diff_array
from carafe.reassembly import CarafeConfig, KernelField
from carafe.tensor import Tensor


_TASK = ToyTask("super_res", size=8)


def _x(*shape):
    return Tensor(np.random.default_rng(0).standard_normal(shape))


def _conv():
    return _x(1, 2, 5, 5), nn.conv_params(3, 2, 3, np.random.default_rng(1))


def _tconv():
    return _x(1, 2, 3, 3), nn.transposed_conv_params(2, 3, 3, np.random.default_rng(1))


def _norm():
    return _x(2, 3, 3, 3), nn.affine_params(3)


def _with_forward(forward, backward):
    """(forward's output, backward of a gradient) of one fresh forward."""
    y, state = forward()
    return y, lambda g: backward(g, state)


def _carafe(direction):
    cfg = CarafeConfig(direction, 2, k_encoder=3, k_reassembly=3, c_mid=2)
    x = _x(1, 2, 4, 4)
    params = reassembly.carafe_params(2, cfg, np.random.default_rng(1))
    return _with_forward(lambda: reassembly.carafe_forward(x, params, cfg),
                         reassembly.carafe_backward)


def _reassemble(direction):
    cfg = CarafeConfig(direction, 2, k_reassembly=3)
    x = _x(1, 2, 4, 4)
    kf = reassembly.predict_kernels(
        x, reassembly.carafe_params(2, cfg, np.random.default_rng(1)), cfg)
    return (reassembly.reassemble(x, kf, cfg),
            lambda g: reassembly.reassemble_backward(g, x, kf, cfg))


def _resample(kind, direction):
    op = make_resample_op(kind, 2, channels=2, rng=np.random.default_rng(1),
                          direction=direction)
    return _with_forward(lambda: resample_forward(op, _x(1, 2, 4, 4)),
                         lambda g, cache: resample_backward(op, g, cache))


def _conv2d():
    x, p = _conv()
    return nn.conv2d_forward(x, p, 2, 1), lambda g: nn.conv2d_backward(g, x, p, 2, 1)


def _transposed_conv():
    x, p = _tconv()
    return (nn.transposed_conv_forward(x, p, 2, 1),
            lambda g: nn.transposed_conv_backward(g, x, p, 2, 1))


def _relu():
    x = _x(1, 2, 3, 3)
    return nn.relu(x), lambda g: nn.relu_backward(g, x)


def _softmax_group():
    y = nn.softmax_group(_x(1, 4, 3, 3), 2)
    return y, lambda g: nn.softmax_group_backward(g, y, 2)


def _affine_norm():
    x, p = _norm()
    return nn.affine_norm(x, p), lambda g: nn.affine_norm_backward(g, x, p)


# name -> a builder of (forward output, its backward of a gradient), one
# forward per build, so carafe_backward always gets a fresh cache.
BACKWARDS = {
    "conv2d": _conv2d, "transposed_conv": _transposed_conv, "relu": _relu,
    "softmax_group": _softmax_group, "affine_norm": _affine_norm,
    **{f"{op}_{d}": (lambda op=op, d=d: build(d))
       for op, build in (("reassemble", _reassemble), ("carafe", _carafe))
       for d in ("down", "up")},
    **{f"resample_{kind}_{d}": (lambda kind=kind, d=d: _resample(kind, d))
       for d, other in (("down", UP_KINDS), ("up", DOWN_KINDS))
       for kind in ALL_KINDS if kind not in other},
}


def _backward_of(name, grad):
    """Call BACKWARDS[name]'s backward on grad(forward output)."""
    y, backward = BACKWARDS[name]()
    return backward(grad(y))


def _one_row_taller(y):
    n, c, h, w = y.shape
    return Tensor(np.zeros((n, c, h + 1, w), dtype=y.dtype))


def _single(y):
    return Tensor(np.zeros(y.shape, dtype=np.float32))


REJECTIONS = {
    "config_direction": lambda: CarafeConfig("sideways", 2),
    "config_c_mid": lambda: CarafeConfig("up", 2, c_mid=0),
    "config_normalizer": lambda: CarafeConfig("up", 2, normalizer="bogus"),
    "slot_option_value": lambda: SlotSpec("nearest_up", k_encoder=2),
    "resample_kind": lambda: make_resample_op("bogus", 2),
    "resample_no_direction": lambda: make_resample_op(
        "spatial_attention", 2, channels=4),
    "resample_wrong_direction": lambda: make_resample_op(
        "nearest_up", 2, direction="down"),
    "resample_no_channels": lambda: make_resample_op("strided_conv", 2),
    "resample_sigma_bool": lambda: make_resample_op("nearest_up", True),
    "resample_channels_float": lambda: make_resample_op("strided_conv", 2,
                                                        channels=2.0),
    "conv_size_float": lambda: nn.conv_params(2.0, 3, 3, None),
    "conv_size_bool": lambda: nn.conv_params(True, 3, 3, None),
    "affine_channels_float": lambda: nn.affine_params(2.0),
    "task_kind": lambda: ToyTask("colorize"),
    "task_sigma_float": lambda: ToyTask("super_res", sigma=2.0),
    "task_size_float": lambda: ToyTask("super_res", size=16.0),
    "task_sigma_bool": lambda: ToyTask("super_res", sigma=True),
    "task_seed_float": lambda: make_dataset(ToyTask("super_res", seed=1.5), 2),
    "task_seed_negative": lambda: ToyTask("super_res", seed=-1),
    "kernel_field_k_float": lambda: KernelField(Tensor(np.zeros((1, 9, 2, 2))),
                                                3.0, True),
    "kernel_field_k_bool": lambda: KernelField(Tensor(np.zeros((1, 1, 2, 2))),
                                               True, True),
    "dataset_count": lambda: make_dataset(_TASK, 0),
    "dataset_count_float": lambda: make_dataset(_TASK, 2.0),
    "net_channels_float": lambda: seeded_net(
        "upsampler", SlotSpec("nearest_up"), 4.0, 2, 0),
    "net_seed_negative": lambda: seeded_net(
        "upsampler", SlotSpec("nearest_up"), 4, 2, seed=-1),
    "net_arch": lambda: build_net("autoencoder", SlotSpec("nearest_up"), 4, 2,
                                  np.random.default_rng(0),
                                  np.random.default_rng(1)),
    "train_epochs": lambda: train(
        seeded_net("upsampler", SlotSpec("nearest_up"), 4, 2, 0), _TASK,
        epochs=0, lr=0.1),
    "train_epochs_float": lambda: train(
        seeded_net("upsampler", SlotSpec("nearest_up"), 4, 2, 0), _TASK,
        epochs=2.0, lr=0.1),
    "compare_empty_roster": lambda: compare_operators(
        _TASK, [], seeds=(0,), arch="upsampler"),
    "finite_diff_eps": lambda: finite_diff_array(lambda: 0.0, np.zeros(2),
                                                 eps=0.0),
    "conv_stride_float": lambda: nn.conv2d_forward(*_conv(), 1.5, 1),
    "conv_pad_float": lambda: nn.conv2d_forward(*_conv(), 1, 1.0),
    "conv_stride_bool": lambda: nn.conv2d_forward(*_conv(), True, 1),
    "conv_stride_zero": lambda: nn.conv2d_forward(*_conv(), 0, 1),
    "conv_pad_negative": lambda: nn.conv2d_forward(*_conv(), 1, -1),
    "conv_backward_stride_float": lambda: nn.conv2d_backward(
        _x(1, 3, 3, 3), *_conv(), 2.0, 1),
    "tconv_stride_float": lambda: nn.transposed_conv_forward(*_tconv(), 2.0, 1),
    "tconv_pad_bool": lambda: nn.transposed_conv_forward(*_tconv(), 2, False),
    "shuffle_sigma_float": lambda: nn.pixel_shuffle(_x(1, 4, 2, 2), 2.0),
    "unshuffle_sigma_float": lambda: nn.pixel_unshuffle(_x(1, 1, 4, 4), 2.0),
    "softmax_group_zero": lambda: nn.softmax_group(_x(1, 9, 2, 2), 0),
    "softmax_group_float": lambda: nn.softmax_group(_x(1, 9, 2, 2), 9.0),
    "softmax_backward_group_zero": lambda: nn.softmax_group_backward(
        _x(1, 9, 2, 2), _x(1, 9, 2, 2), 0),
    "softmax_backward_group_float": lambda: nn.softmax_group_backward(
        _x(1, 9, 2, 2), _x(1, 9, 2, 2), 9.0),
    "affine_backward_gamma_length": lambda: nn.affine_norm_backward(
        _x(1, 3, 2, 2), _x(1, 3, 2, 2), nn.affine_params(2)),
    "task_size_small": lambda: ToyTask("super_res", size=2),
    "check_op_seed_float": lambda: check_op("relu", seed=1.5),
    "check_op_seed_bool": lambda: check_op("relu", seed=True),
    "check_op_seed_negative": lambda: check_op("relu", seed=-1),
    "resample_cache_without_output": lambda: resample_backward(
        make_resample_op("avg_pool", 2), _x(1, 2, 2, 2), {"in_hw": (4, 4)}),
    **{f"grad_one_row_taller_{name}": (lambda name=name: _backward_of(
        name, _one_row_taller)) for name in BACKWARDS},
}

# Each public backward handed a gradient of the other dtype.
DTYPE_REJECTIONS = {f"grad_single_{name}": (lambda name=name: _backward_of(
    name, _single)) for name in BACKWARDS}


# Each op that takes a parameter container: name -> (a function returning a
# good input and its container, the op on an input and that container). The
# backwards get a gradient shaped like the good input's forward result.
INPUT_OPS = {
    "conv2d_forward": (_conv, lambda x, p: nn.conv2d_forward(x, p, 2, 1)),
    "conv2d_backward": (_conv, lambda x, p: nn.conv2d_backward(
        _x(1, 3, 3, 3), x, p, 2, 1)),
    "transposed_conv_forward": (_tconv, lambda x, p: nn.transposed_conv_forward(
        x, p, 2, 1)),
    "transposed_conv_backward": (_tconv, lambda x, p: nn.transposed_conv_backward(
        _x(1, 3, 5, 5), x, p, 2, 1)),
    "affine_norm": (_norm, nn.affine_norm),
    "affine_norm_backward": (_norm, lambda x, p: nn.affine_norm_backward(
        _x(2, 3, 3, 3), x, p)),
}


def _one_channel_fewer(x):
    return Tensor(x.data[:, 1:])


# Containers whose own arrays disagree in dtype, or hold an unsupported one.
CONTAINER_REJECTIONS = {
    "conv_single_weights_double_bias": lambda: nn.ConvLayerParams(
        np.zeros((3, 2, 3, 3), np.float32), np.zeros(3)),
    "conv_int64_bias": lambda: nn.ConvLayerParams(
        np.zeros((3, 2, 3, 3)), np.zeros(3, np.int64)),
    "norm_single_gamma_double_beta": lambda: nn.AffineNormParams(
        np.ones(3, np.float32), np.zeros(3)),
    "norm_int64": lambda: nn.AffineNormParams(
        np.ones(3, np.int64), np.zeros(3, np.int64)),
}


@pytest.mark.parametrize("site", list(REJECTIONS))
def test_rejection_is_a_carafe_value_error(site):
    with pytest.raises(CarafeError) as exc:
        REJECTIONS[site]()
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("site", list(DTYPE_REJECTIONS))
def test_other_dtype_gradient_is_a_dtype_error(site):
    with pytest.raises(DTypeError):
        DTYPE_REJECTIONS[site]()


def test_backward_table_covers_every_kind_in_each_direction():
    assert {name for name in BACKWARDS if name.startswith("resample_")} == (
        {f"resample_{kind}_up" for kind in UP_KINDS}
        | {f"resample_{kind}_down" for kind in DOWN_KINDS}
        | {"resample_spatial_attention_down", "resample_spatial_attention_up"})
    for name in BACKWARDS:
        y, backward = BACKWARDS[name]()
        assert isinstance(backward(Tensor(np.ones(y.shape))), Tensor)


def test_rejected_gradient_leaves_the_carafe_cache_unconsumed():
    y, backward = _carafe("up")
    for bad in (_one_row_taller, _single):
        with pytest.raises(CarafeError):
            backward(bad(y))
    assert backward(Tensor(np.ones(y.shape))).shape == (1, 2, 4, 4)
    with pytest.raises(ContractError, match="consumed"):
        backward(Tensor(np.ones(y.shape)))


def test_numpy_integer_sigma_is_stored_as_a_python_int():
    op = make_resample_op("nearest_up", np.int64(2))
    assert type(op.sigma) is int and op.sigma == 2


def test_input_table_ops_accept_their_good_input():
    for build, op in INPUT_OPS.values():
        assert isinstance(op(*build()), Tensor)


@pytest.mark.parametrize("bad, error", [(_one_channel_fewer, ShapeError),
                                        (_single, DTypeError)])
@pytest.mark.parametrize("name", list(INPUT_OPS))
def test_bad_input_raises_its_error(name, bad, error):
    build, op = INPUT_OPS[name]
    x, p = build()
    with pytest.raises(error):
        op(bad(x), p)


@pytest.mark.parametrize("site", list(CONTAINER_REJECTIONS))
def test_container_rejects_its_own_dtype_mismatch(site):
    with pytest.raises(DTypeError):
        CONTAINER_REJECTIONS[site]()


# resample_backward of one op given the cache resample_forward made for
# another: op kind -> the other op's kind.
CACHE_MISMATCHES = {"max_pool": "avg_pool", "spatial_attention": "strided_conv",
                    "strided_conv": "strided_conv"}


@pytest.mark.parametrize("kind", list(CACHE_MISMATCHES))
def test_cache_of_another_op_is_a_contract_error(kind):
    op, other = (make_resample_op(k, 2, channels=2, rng=np.random.default_rng(1),
                                  direction="down")
                 for k in (kind, CACHE_MISMATCHES[kind]))
    y, cache = resample_forward(other, _x(1, 2, 4, 4))
    with pytest.raises(ContractError, match="made for this op"):
        resample_backward(op, Tensor(np.ones(y.shape)), cache)


@pytest.mark.parametrize("cache", [
    {}, "cache", 3, resample_forward(make_resample_op("avg_pool", 2), _x(1, 2, 4, 4))[1]],
    ids=["empty_dict", "str", "int", "resample_cache"])
def test_carafe_backward_rejects_what_carafe_forward_did_not_make(cache):
    with pytest.raises(ContractError, match="cache from carafe_forward"):
        reassembly.carafe_backward(Tensor(np.ones((1, 2, 2, 2))), cache)
