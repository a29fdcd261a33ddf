"""Every private helper of the library has a caller in the library or the
scripts.

A stdlib ``ast`` scan: a module-level function or class of ``src/carafe``
whose name starts with one underscore is dead when no module of
``src/carafe`` or ``scripts/`` reads its name, bare or as an attribute
(``nn._gemm_tier``). Tests do not count as callers, so a helper that only
its own tests call fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "carafe").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py"))


def private_helpers(source: str) -> list:
    """Names of the module-level private functions and classes in source."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def names_read(source: str) -> set:
    """Every name source reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dead_helpers(modules: dict, callers: dict) -> list:
    """(module, name) of each private helper of modules that no source in
    callers reads; both map a module name to its source."""
    read = set().union(*(names_read(src) for src in callers.values()))
    return [(mod, name) for mod, src in modules.items()
            for name in private_helpers(src) if name not in read]


def test_scan_sees_the_library_and_the_scripts():
    assert {p.parent.name for p in CALLERS} == {"carafe", "scripts"}
    assert any(private_helpers(p.read_text()) for p in LIBRARY)


def test_scan_flags_a_dead_helper():
    lib = ("import m\n"
           "def _called(): pass\n"
           "def _dead(): pass\n"
           "class _Dead: pass\n"
           "class _Used: pass\n"
           "def __dunder__(): pass\n"
           "def public(): return _called(), m._attr\n")
    other = "from lib import public\nx = public(); y = lib._Used\n"
    helper = "def _attr(): pass\n"
    assert dead_helpers({"lib": lib, "m": helper},
                        {"lib": lib, "other": other, "m": helper}) == [
        ("lib", "_dead"), ("lib", "_Dead")]


def test_every_private_helper_has_a_caller():
    library = {p.name: p.read_text() for p in LIBRARY}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert dead_helpers(library, callers) == []
