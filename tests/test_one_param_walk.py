"""Only the two parameter-tree classes of nn define the parameter walks.

A stdlib ``ast`` scan: every holder of trainable arrays names its parts once,
in ``_parts()``, and inherits ``param_objects``, ``slots``, ``named_slots``
and ``zero_grads`` from ``nn._Params``; only the leaf, ``nn._TrainableArrays``,
writes its own. A class of ``src/carafe`` that defines one of the walks
anywhere else fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "carafe").glob("*.py"))
WALKS = {"param_objects", "slots", "named_slots", "zero_grads"}
ALLOWED = {("nn", "_Params"), ("nn", "_TrainableArrays")}
HOLDERS = {("reassembly", "CarafeParams"), ("demo", "MiniNet"),
           ("demo", "MiniFpn")}


def defined_methods(source: str) -> dict:
    """Class name -> names of the methods its body defines, for every class
    of source, nested ones too."""
    return {node.name: {item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))}
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)}


def walk_definers(modules: dict) -> set:
    """(module, class) of each class of modules that defines a walk; modules
    maps a module name to its source."""
    return {(mod, cls) for mod, src in modules.items()
            for cls, methods in defined_methods(src).items() if methods & WALKS}


def _library() -> dict:
    return {p.stem: p.read_text() for p in LIBRARY}


def test_scan_flags_a_class_that_walks_its_own_params():
    src = ("class Net:\n"
           "    def _parts(self): return []\n"
           "class Layer:\n"
           "    class Inner:\n"
           "        def zero_grads(self): pass\n"
           "def slots(): pass\n")
    assert walk_definers({"m": src}) == {("m", "Inner")}


def test_only_the_tree_classes_define_the_walks():
    assert walk_definers(_library()) == ALLOWED


def test_each_holder_defines_only_its_parts():
    library = _library()
    for mod, cls in HOLDERS:
        assert defined_methods(library[mod])[cls] & (WALKS | {"_parts"}) == {"_parts"}
