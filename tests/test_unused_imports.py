"""Every imported name in the library, the tests and the scripts is used.

A stdlib ``ast`` scan: a name bound by ``import``/``from ... import`` that no
expression in the same file ever references is dead. ``__init__.py`` is
skipped because its imports are the package's re-exports, and ``from
__future__`` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(
    [p for p in (ROOT / "src" / "carafe").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py")))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_sees_every_tree():
    dirs = {p.parent.name for p in SCANNED}
    assert dirs == {"carafe", "tests", "scripts"}


def test_scan_flags_a_dead_import():
    src = "import os\nfrom a import b, c as d\nimport x.y\nprint(b, x)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


def test_no_unused_imports():
    dead = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in SCANNED
            for line, name in unused_imports(path.read_text())]
    assert dead == []
