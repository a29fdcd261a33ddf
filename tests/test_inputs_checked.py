"""Every public nn op that takes a parameter container checks its input
through nn._check_input.

The input of such an op must match its container, in channel count and
then in dtype, and that check is written once, in nn._check_input. A
stdlib ``ast`` scan fails on a public function of nn.py with an argument
annotated ConvLayerParams or AffineNormParams whose body calls neither
``_check_input`` nor a private helper of nn.py that calls it.
"""

import ast
from pathlib import Path

NN = Path(__file__).resolve().parents[1] / "src" / "carafe" / "nn.py"
CONTAINERS = {"ConvLayerParams", "AffineNormParams"}


def _called(fn: ast.FunctionDef) -> set:
    """Names fn calls, bare or as an attribute (nn._check_input)."""
    return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(fn) if isinstance(node, ast.Call)}


def checked_ops(source: str) -> dict:
    """name -> whether it reaches _check_input, for each module-level public
    function of source with an argument annotated by a container."""
    functions = [top for top in ast.parse(source).body
                 if isinstance(top, ast.FunctionDef)]
    checks, more = set(), {"_check_input"}
    while more:
        checks |= more
        more = {fn.name for fn in functions
                if fn.name.startswith("_") and _called(fn) & checks} - checks
    found = {}
    for fn in functions:
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        annotated = {node.id for arg in args if arg.annotation is not None
                     for node in ast.walk(arg.annotation)
                     if isinstance(node, ast.Name)}
        if not fn.name.startswith("_") and annotated & CONTAINERS:
            found[fn.name] = bool(_called(fn) & checks)
    return found


def test_scan_flags_an_op_without_the_check():
    src = ("def _helper(x, p):\n"
           "    _check_input(x, 1, p.dtype, 'w')\n"
           "def _outer(x, p):\n"
           "    _helper(x, p)\n"
           "def _unrelated(x):\n"
           "    pass\n"
           "def a(x, p: ConvLayerParams):\n"
           "    _check_input(x, 1, p.dtype, 'w')\n"
           "def b(g, x, p: AffineNormParams):\n"
           "    nn._check_input(x, 1, p.dtype, 'w')\n"
           "def c(x, p: ConvLayerParams | None = None):\n"
           "    _outer(x, p)\n"
           "def d(x, p: AffineNormParams):\n"
           "    _unrelated(x)\n"
           "def e(x, p: ConvLayerParams):\n"
           "    return _check_input\n"
           "def _f(x, p: ConvLayerParams):\n"
           "    pass\n"
           "def g(x, p):\n"
           "    pass\n")
    assert checked_ops(src) == {"a": True, "b": True, "c": True, "d": False,
                                "e": False}


def test_every_container_op_checks_its_input():
    found = checked_ops(NN.read_text())
    assert set(found) == {
        "conv2d_forward", "conv2d_backward", "transposed_conv_forward",
        "transposed_conv_backward", "affine_norm", "affine_norm_backward"}
    assert [name for name, called in found.items() if not called] == []
