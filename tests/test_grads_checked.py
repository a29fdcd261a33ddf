"""Every public backward checks its incoming gradient through nn._check_grad.

The gradient a backward receives must match its forward's result, in shape
and then in dtype, and that check is written once, in nn._check_grad. A
stdlib ``ast`` scan fails on a public ``*_backward`` function of nn.py or
reassembly.py, or on baselines.resample_backward, whose body makes no call
of ``_check_grad`` (bare or as ``nn._check_grad``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src" / "carafe"
SCANNED = {"nn.py": None, "reassembly.py": None, "baselines.py": {"resample_backward"}}


def backwards(source: str, only=None) -> dict:
    """name -> whether it calls _check_grad, for each module-level public
    function of source whose name ends in _backward (or is in only)."""
    found = {}
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef) or top.name.startswith("_"):
            continue
        if (top.name in only) if only is not None else top.name.endswith("_backward"):
            found[top.name] = any(
                isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) == "_check_grad"
                     or getattr(node.func, "attr", None) == "_check_grad")
                for node in ast.walk(top))
    return found


def test_scan_flags_a_backward_without_the_check():
    src = ("def a_backward(g, x):\n"
           "    _check_grad(g, x.shape, x.dtype)\n"
           "def b_backward(g, x):\n"
           "    return nn._check_grad(g, x.shape, x.dtype)\n"
           "def c_backward(g, x):\n"
           "    return _check_grad\n"
           "def _d_backward(g):\n"
           "    pass\n"
           "def forward(x):\n"
           "    pass\n")
    assert backwards(src) == {"a_backward": True, "b_backward": True,
                              "c_backward": False}
    assert backwards(src, {"forward"}) == {"forward": False}


def test_every_public_backward_checks_its_gradient():
    found = {name: called for module, only in SCANNED.items()
             for name, called in backwards((ROOT / module).read_text(), only).items()}
    assert set(found) == {
        "conv2d_backward", "transposed_conv_backward", "relu_backward",
        "softmax_group_backward", "affine_norm_backward",
        "reassemble_backward", "carafe_backward", "resample_backward"}
    assert [name for name, called in found.items() if not called] == []
