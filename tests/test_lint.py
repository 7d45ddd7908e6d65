"""Static checks on the package and test source that need no installed
linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "iseki").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names that the module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    """Every name that a module of ``src/iseki`` or ``tests`` imports is
    read in it.  ``src/iseki/__init__.py`` is skipped: its imports are the
    package's re-exports."""
    sample = "import os\nimport a.b\nfrom x import y as z, w\nprint(os, w)\n"
    assert unused_imports(sample) == ["a", "z"]
    found = {
        str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8"))
        for p in MODULES
    }
    assert {name: names for name, names in found.items() if names} == {}
