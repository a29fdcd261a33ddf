"""The loop twins stay independent of the library they check.

reference.py may read from nn, reassembly and tensor only the names in
ALLOWED: parameter containers, output-size rules, the kernel-offset table,
the source-location map and the Tensor wrapper. A stdlib ``ast`` scan fails
on any other name it imports from them, or on an import of one of those
modules whole, so no library fold or helper (nn._windows, say) can become
the oracle's own.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ("nn", "reassembly", "tensor")
ALLOWED = {
    "nn.AffineNormParams", "nn.ConvLayerParams", "nn.conv_output_hw",
    "nn.transposed_conv_output_hw", "reassembly.CarafeConfig",
    "reassembly.CarafeParams", "reassembly.KernelField",
    "reassembly.kernel_offsets", "reassembly.map_target_to_source",
    "tensor.Tensor",
}


def library_imports(source: str) -> list:
    """module.name of each name the source imports from a LIBRARY module,
    and the bare module name of each LIBRARY module it imports whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("carafe").lstrip(".")
            if module in LIBRARY:
                found += [f"{module}.{alias.name}" for alias in node.names]
            elif module == "":
                found += [a.name for a in node.names if a.name in LIBRARY]
        elif isinstance(node, ast.Import):
            found += [a.name.removeprefix("carafe.") for a in node.names
                      if a.name.removeprefix("carafe.") in LIBRARY]
    return found


def test_scan_flags_every_library_import():
    src = ("import numpy as np\n"
           "from .nn import Tensor, _windows\n"
           "from carafe.reassembly import *\n"
           "from . import tensor, errors\n"
           "from carafe import nn\n"
           "import carafe.reassembly\n"
           "from .errors import ShapeError\n")
    assert library_imports(src) == [
        "nn.Tensor", "nn._windows", "reassembly.*", "tensor", "nn", "reassembly"]


def test_twins_import_only_the_allowed_names():
    found = library_imports((ROOT / "src" / "carafe" / "reference.py").read_text())
    assert "tensor.Tensor" in found
    assert [name for name in found if name not in ALLOWED] == []
