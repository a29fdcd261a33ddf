"""Gathers pad, scatters clip: the library calls np.pad only in the loop
twins and at the one recorded exception to that rule.

Gathers read a zero-padded copy (nn._windows builds it without np.pad).
Scatters add each tap's clipped span into an unpadded map (nn._tap_spans),
so they need no padded accumulator and no crop. A stdlib ``ast`` scan fails
on a call of ``np.pad`` in ``src/carafe`` outside the places allowed one:
reference.py, whose loop twins stay independent of the library, and the
exact weight gradient of nn.transposed_conv_backward, whose einsum reads the
zero-padded grad because clipping its operands regroups einsum's partial
sums and changes bits.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for p in (ROOT / "src" / "carafe").glob("*.py")
                 if p.name != "reference.py")
ALLOWED = {("nn.py", "transposed_conv_backward")}


def pad_calls(source: str) -> list:
    """(line, enclosing module-level function or None) of each np.pad call."""
    calls = []
    for top in ast.parse(source).body:
        func = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pad"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                calls.append((node.lineno, func))
    return calls


def test_scan_flags_every_pad_call():
    src = ("import numpy as np\n"
           "a = np.pad(x, 1)\n"
           "def f(x):\n"
           "    def g():\n"
           "        return np.pad(x, 2)\n"
           "    return g, x.pad(3)\n"
           "class C:\n"
           "    def m(self):\n"
           "        return numpy.pad(self, 1)\n")
    assert pad_calls(src) == [(2, None), (5, "f"), (9, None)]


def test_scan_sees_the_library_but_the_oracle():
    names = {p.name for p in SCANNED}
    assert "nn.py" in names and "reference.py" not in names


def test_only_the_exact_transposed_conv_weight_gradient_pads():
    found = [(path.name, func, line) for path in SCANNED
             for line, func in pad_calls(path.read_text())]
    assert [f for f in found if f[:2] not in ALLOWED] == []
