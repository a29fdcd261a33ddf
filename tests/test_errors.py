"""Every deliberate rejection raises one of the package's own error types.

errors.py promises that everything raised on purpose derives from
CarafeError; the argument rejections among them are also ValueErrors, so
callers that catch ValueError keep working.
"""

import numpy as np
import pytest

from carafe import nn
from carafe.baselines import make_resample_op
from carafe.demo import (SlotSpec, ToyTask, build_net, compare_operators,
                         make_dataset, seeded_net, train)
from carafe.errors import CarafeError
from carafe.gradcheck import finite_diff_array
from carafe.reassembly import CarafeConfig, KernelField
from carafe.tensor import Tensor


_TASK = ToyTask("super_res", size=8)

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
    "train_seed_negative": lambda: train(
        seeded_net("upsampler", SlotSpec("nearest_up"), 4, 2, 0), _TASK,
        epochs=1, lr=0.1, seed=-1),
    "compare_empty_roster": lambda: compare_operators(
        _TASK, [], seeds=(0,), arch="upsampler"),
    "finite_diff_eps": lambda: finite_diff_array(lambda: 0.0, np.zeros(2),
                                                 eps=0.0),
}


@pytest.mark.parametrize("site", list(REJECTIONS))
def test_rejection_is_a_carafe_value_error(site):
    with pytest.raises(CarafeError) as exc:
        REJECTIONS[site]()
    assert isinstance(exc.value, ValueError)


def test_numpy_integer_sigma_is_stored_as_a_python_int():
    op = make_resample_op("nearest_up", np.int64(2))
    assert type(op.sigma) is int and op.sigma == 2
