"""Every resampler kind and every kernel normalizer is one forward that
returns its own backward.

A stdlib ``ast`` scan fails when ``baselines.py`` or ``reassembly.py``
defines a private module-level function whose name ends in ``_backward``:
a kind's or a normalizer's backward is the closure its forward returns,
over what that forward computed. The closures are checked to keep their own
forward's state: two forwards on different inputs, then their backwards in
reverse order, give the same bits as each forward followed at once by its
backward.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from carafe.baselines import (DOWN_KINDS, UP_KINDS, make_resample_op,
                              resample_backward, resample_forward)
from carafe.reassembly import (DIRECTIONS, NORMALIZERS, CarafeConfig,
                               carafe_backward, carafe_forward, carafe_params)
from carafe.tensor import Tensor

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("baselines", "reassembly")


def private_backwards(source: str) -> list:
    """Names of the private module-level functions of source that end in
    _backward."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and node.name.endswith("_backward")]


def test_scan_flags_a_private_module_level_backward():
    src = ("def _kind_backward(): pass\n"
           "def public_backward(): pass\n"
           "def _kind_forward():\n"
           "    def _inner_backward(): pass\n"
           "    return _inner_backward\n"
           "class _Kind:\n"
           "    def _method_backward(self): pass\n")
    assert private_backwards(src) == ["_kind_backward"]


def test_no_private_backward_in_the_resamplers():
    found = {mod: private_backwards((ROOT / "src" / "carafe" / f"{mod}.py").read_text())
             for mod in MODULES}
    assert found == {mod: [] for mod in MODULES}


def _both_orders(forward, backward, params):
    """(sequential, interleaved) results of two inputs: per input its
    output, its input gradient and the parameter gradients of its backward
    alone (none when params is None). sequential runs each forward right
    before its backward; interleaved runs both forwards, then the backwards
    in reverse order."""
    xs = [Tensor(np.random.default_rng(seed).standard_normal((2, 3, 5, 6)))
          for seed in (1, 2)]

    def run_backward(index, y, state):
        grad_y = Tensor(np.random.default_rng(10 + index).standard_normal(y.shape))
        if params is None:
            return [backward(grad_y, state).data]
        params.zero_grads()
        gx = backward(grad_y, state)
        return [gx.data] + [grad.copy() for _, _, grad, _ in params.named_slots()]

    sequential = []
    for i, x in enumerate(xs):
        y, state = forward(x)
        sequential.append([y.data] + run_backward(i, y, state))
    forwards = [forward(x) for x in xs]
    interleaved = [None, None]
    for i in (1, 0):
        y, state = forwards[i]
        interleaved[i] = [y.data] + run_backward(i, y, state)
    return sequential, interleaved


def _assert_bit_equal(sequential, interleaved):
    for seq, inter in zip(sequential, interleaved):
        assert len(seq) == len(inter)
        for a, b in zip(seq, inter):
            np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("kind, direction",
                         [(k, "up") for k in UP_KINDS]
                         + [(k, "down") for k in DOWN_KINDS]
                         + [("spatial_attention", d) for d in DIRECTIONS])
def test_interleaved_resample_backwards_keep_their_own_forward(kind, direction):
    op = make_resample_op(kind, 2, channels=3, rng=np.random.default_rng(0),
                          direction=direction)
    _assert_bit_equal(*_both_orders(
        lambda x: resample_forward(op, x),
        lambda g, cache: resample_backward(op, g, cache), op.params))


@pytest.mark.parametrize("compressor_norm", [True, False])
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("normalizer", NORMALIZERS)
def test_interleaved_carafe_backwards_keep_their_own_forward(normalizer, direction,
                                                             compressor_norm):
    cfg = CarafeConfig(direction, 2, k_encoder=3, k_reassembly=3, c_mid=4,
                       normalizer=normalizer, compressor_norm=compressor_norm)
    params = carafe_params(3, cfg, np.random.default_rng(0))
    _assert_bit_equal(*_both_orders(lambda x: carafe_forward(x, params, cfg),
                                    carafe_backward, params))
