"""Static checks of the package source, with the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sgipair").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _foreign_imports(source: str) -> list[str]:
    """Absolute imports, at any depth, of a package that is neither the stdlib nor numpy."""
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        foreign += [f"{m} (line {node.lineno})" for m in modules if m.split(".")[0] not in allowed]
    return foreign


def test_checker_flags_an_unused_import():
    assert _unused_imports("import math\nimport numpy as np\nnp.pi\n") == ["math (line 1)"]
    assert _unused_imports("from .a import b, c\n__all__ = ['b']\nc()\n") == []


def test_checker_flags_a_foreign_import():
    source = "import os, numpy.linalg\nfrom . import dynamics\ndef f():\n    import scipy.linalg\n"
    assert _foreign_imports(source) == ["scipy.linalg (line 4)"]
    assert _foreign_imports("from mpmath import mp\nfrom numpy import pi\n") == ["mpmath (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_stdlib_and_numpy(path):
    # README: the library needs only numpy; scipy, mpmath and hypothesis are test-only
    assert _foreign_imports(path.read_text()) == []
