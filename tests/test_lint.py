"""Static checks on the package and test source that need no installed
linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "iseki").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(source):
    """The names that the module's imports bind, in import order."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    return imported


def unused_imports(source):
    """Names that the module imports but never reads, in import order."""
    read = {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported_names(source) if name not in read]


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


def definitions(source):
    """Module-level functions and classes, and the non-dunder methods of
    those classes, as (qualified name, name) pairs in source order."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def names_read(source):
    """Every name the module reads, as a variable or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unreferenced(sources, exported=()):
    """Definitions of the modules in ``sources`` (file name -> source)
    whose bare name no module reads and ``exported`` does not hold, as
    ``file:qualified name``.

    A match is by bare name only: a method counts as used when any module
    reads its name as any variable or attribute, whatever the receiver.
    So a dead method that shares its name with a live one (``to_json``,
    ``report``) is not caught; only names unique to a dead definition are.
    """
    read = set(exported).union(*(names_read(src) for src in sources.values()))
    return [
        f"{name}:{qualified}"
        for name, src in sources.items()
        for qualified, bare in definitions(src)
        if bare not in read
    ]


def test_no_unreferenced_definitions():
    """Every module-level function or class of ``src/iseki``, and every
    non-dunder method of one, is read by bare name, as a variable or as an
    attribute, in some module of ``src/iseki`` other than ``__init__.py``,
    or is imported by ``__init__.py``: those names are the public API,
    which callers outside the package read.  ``verify.py`` is exempt: the
    tests and perfbench call its checkers.  The sample with a name
    collision records the limit of matching by bare name, and its
    ``api`` is used only by being exported."""
    sample = "def f():\n    pass\nclass C:\n    def m(self):\n        pass\n"
    assert list(definitions(sample)) == [("f", "f"), ("C", "C"), ("C.m", "m")]
    assert names_read("f(C().m)\nx = 1\n") == {"f", "C", "m"}
    collision = {
        "a.py": "class C:\n    def to_json(self):\n        pass\n"
        "    def dead(self):\n        pass\ndef api():\n    pass\n",
        "b.py": "C()\nreport = {}\nreport.to_json\n",
    }
    assert unreferenced(collision) == ["a.py:C.dead", "a.py:api"]
    assert unreferenced(collision, exported=["api"]) == ["a.py:C.dead"]
    package = {
        p.name: p.read_text(encoding="utf-8")
        for p in MODULES
        if p.parent.name == "iseki"
    }
    init = (ROOT / "src" / "iseki" / "__init__.py").read_text(encoding="utf-8")
    found = unreferenced(package, exported=imported_names(init))
    assert [f for f in found if not f.startswith("verify.py:")] == []


def assert_statements(source):
    """Line numbers of the ``assert`` statements of a module."""
    tree = ast.parse(source)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_the_package():
    """No module of ``src/iseki`` holds an ``assert`` statement:
    ``python -O`` strips them, so a check the package relies on raises
    its error explicitly."""
    assert assert_statements("x = 1\nassert x\nif x:\n    assert x, 'm'\n") == [2, 4]
    found = {
        p.name: assert_statements(p.read_text(encoding="utf-8"))
        for p in (ROOT / "src" / "iseki").glob("*.py")
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
