"""Source checks on src/txsched/*.py with the standard library's ast: no
module imports a name it never reads, and every module-level private
function, class or constant is named somewhere in src/ outside its own
definition. Code that nothing uses is then a test failure, not a review
finding."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "txsched"


def _identifiers(node):
    """Every name node reads, as a bare name or an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _exported(tree: ast.Module) -> set:
    """The strings of a module-level ``__all__``."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            out |= {c.value for c in ast.walk(stmt.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return out


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each name an import binds that the module never reads."""
    read = set(_identifiers(tree)) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append((node.lineno, bound))
    return unused


def _defined(stmt) -> list:
    """The names a module-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unnamed_privates(trees: dict) -> list:
    """(module, name) of each module-level private function, class or
    constant that no module names outside the definition itself."""
    named = Counter(n for tree in trees.values() for n in _identifiers(tree))
    return [(module, name) for module, tree in trees.items() for stmt in tree.body
            for name in _defined(stmt) if name.startswith("_") and not name.startswith("__")
            and named[name] == Counter(_identifiers(stmt))[name]]


@pytest.fixture(scope="module")
def trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def test_no_unused_imports(trees):
    found = {module: unused_imports(tree) for module, tree in trees.items()}
    assert not {m: u for m, u in found.items() if u}


def test_every_private_function_class_and_constant_is_used(trees):
    assert unnamed_privates(trees) == []


class TestTheChecksThemselves:
    """Each check finds what it is for in a module written for it."""

    def test_unused_import_found(self):
        tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\n"
                      "from . import sim\n\ndef f():\n    from . import cli\n"
                      "    return np.zeros(1), tau, sim.run\n")
        assert unused_imports(tree) == [(1, "os"), (3, "pi"), (7, "cli")]

    def test_import_read_only_through_all_is_used(self):
        assert unused_imports(ast.parse("from .x import a\n__all__ = ['a']\n")) == []

    def test_private_named_only_by_itself_is_found(self):
        trees = {"a.py": ast.parse("def _loop(n):\n    return _loop(n - 1)\n\n"
                                "def _used():\n    return 1\n\nclass _Dead:\n    pass\n"),
                 "b.py": ast.parse("from .a import _used\n\nx = _used()\n")}
        assert unnamed_privates(trees) == [("a.py", "_loop"), ("a.py", "_Dead")]

    def test_private_constant_read_only_by_itself_is_found(self):
        trees = {"a.py": ast.parse("_SEPS = 1\n_READ = 2\n_X, _Y = 3, 4\n_ANN: int = 5\n"
                                "_OUT = 6\n__all__ = []\n\ndef f():\n    return _READ + _Y\n"),
                 "b.py": ast.parse("from .a import _OUT\n\nx = _OUT\n")}
        assert unnamed_privates(trees) == [("a.py", "_SEPS"), ("a.py", "_X"), ("a.py", "_ANN")]
