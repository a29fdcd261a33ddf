"""Exception taxonomy shared across the package.

Everything raised on purpose derives from CarafeError so callers can catch
the package's failures without also swallowing programming errors. The
types that reject a value (ShapeError, GeometryError, KernelSizeError,
ContractError, FormatError) also derive from ValueError, and
UnknownNameError, raised as a mapping lookup would, from KeyError.

Public ops check their operands at their own boundary, each check written
once in nn: every integer argument goes through nn._at_least (an integer,
not a bool, at or above its bound, else the caller's error type); every
backward checks its incoming gradient against its forward's result through
nn._check_grad (the shape, ShapeError, then the dtype, DTypeError); and
every op that takes a parameter container (the conv, the transposed conv
and affine_norm, forward and backward) checks its input against it through
nn._check_input (the channel count, ShapeError, then the dtype,
DTypeError). The containers check their own arrays against each other
when built, so an op compares only its input with its container.
resample_backward raises ContractError for a cache that resample_forward
did not make for the same op.
"""


class CarafeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CarafeError, ValueError):
    """An array has the wrong rank, axis length, or channel count."""


class DTypeError(CarafeError, TypeError):
    """An array has an unsupported dtype, or two operands disagree."""


class GeometryError(CarafeError, ValueError):
    """Resampling geometry is inconsistent (stride, padding, factor, size)."""


class KernelSizeError(CarafeError, ValueError):
    """A reassembly or encoder kernel size violates its constraints."""


class ContractError(CarafeError, ValueError):
    """A value violates an operator contract (e.g. unnormalized kernels)."""


class FormatError(CarafeError, ValueError):
    """A serialized payload is malformed.

    Carries the byte offset where parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnknownNameError(CarafeError, KeyError):
    """A lookup names an op or gradient target that its table does not hold."""


class NumericError(CarafeError, ArithmeticError):
    """A numeric routine produced or encountered a non-finite value."""


class TrainingDiverged(CarafeError, RuntimeError):
    """A training run produced a non-finite loss."""
