"""Content-aware feature reassembly: a numpy-only operator library.

One operator family resizes feature maps in either direction by predicting a
normalized k x k reassembly kernel at every output location from the content
itself (channel compressor -> content encoder -> kernel normalizer) and then
taking the weighted sum of the matching source neighborhood. The package
carries hand-derived backward passes for every stage, classic resampling
baselines, a finite-difference gradient oracle, bitwise reference
implementations for the optimized paths, and a toy training harness, all on
plain numpy arrays.
"""

__version__ = "0.1.0"

from .baselines import (DOWN_KINDS, UP_KINDS, ResampleOp, deconv_geometry,
                        make_resample_op, resample_backward, resample_forward)
from .errors import (CarafeError, ContractError, DTypeError, FormatError,
                     GeometryError, KernelSizeError, NumericError, ShapeError,
                     TrainingDiverged, UnknownNameError)
from .fileio import load_pgm, load_tensor, save_pgm, save_tensor
from .gradcheck import GradReport, check_op, registered_ops, relative_error
from .nn import (AffineNormParams, ConvLayerParams, affine_norm,
                 affine_norm_backward, affine_params, conv2d_backward,
                 conv2d_forward, conv_output_hw, conv_params, pixel_shuffle,
                 pixel_unshuffle, relu, relu_backward, sgd_step,
                 softmax_group, softmax_group_backward,
                 transposed_conv_backward, transposed_conv_forward,
                 transposed_conv_params, zero_grads)
from .reassembly import (CarafeConfig, CarafeParams, KernelField,
                         carafe_backward, carafe_forward, carafe_params,
                         kernel_offsets, map_target_to_source,
                         predict_kernels, reassemble, reassemble_backward)
from .tensor import DOUBLE, SINGLE, Tensor

__all__ = [
    "__version__",
    "Tensor", "SINGLE", "DOUBLE",
    "CarafeError", "ShapeError", "DTypeError", "GeometryError",
    "KernelSizeError", "ContractError", "FormatError", "NumericError",
    "TrainingDiverged", "UnknownNameError",
    "ConvLayerParams", "AffineNormParams", "conv_params",
    "transposed_conv_params", "affine_params", "conv_output_hw",
    "conv2d_forward", "conv2d_backward",
    "transposed_conv_forward", "transposed_conv_backward", "pixel_shuffle",
    "pixel_unshuffle", "relu", "relu_backward", "softmax_group",
    "softmax_group_backward", "affine_norm", "affine_norm_backward",
    "sgd_step", "zero_grads",
    "CarafeConfig", "CarafeParams", "KernelField", "carafe_params",
    "map_target_to_source", "kernel_offsets", "predict_kernels", "reassemble",
    "reassemble_backward", "carafe_forward", "carafe_backward",
    "ResampleOp", "make_resample_op", "resample_forward", "resample_backward",
    "deconv_geometry", "UP_KINDS", "DOWN_KINDS",
    "GradReport", "relative_error", "check_op", "registered_ops",
    "save_tensor", "load_tensor", "load_pgm", "save_pgm",
]
