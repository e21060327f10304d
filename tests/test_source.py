"""Static checks of the package source, with the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sgipair").glob("*.py"))
# Code outside the package that counts as a reader of its public names.
READERS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


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


def _package_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each module-level import from its own package (``from .x import ...``)."""
    return [
        (node.module, alias.name)
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


def _reads(tree: ast.AST) -> set[str]:
    """Names a syntax tree reads: loaded names and attributes, and imported aliases."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name)
    return reads


def _defines(statement: ast.stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _public_names(body: list[ast.stmt]) -> list[str]:
    """The ``__all__`` entries of a module body."""
    return [
        name
        for statement in body
        if "__all__" in _defines(statement)
        for name in ast.literal_eval(statement.value)
    ]


def _undefined_public_names(source: str) -> list[str]:
    """``__all__`` entries that no top-level statement of the module defines, such as re-exports."""
    body = ast.parse(source).body
    defined = set().union(*map(_defines, body))
    return [name for name in _public_names(body) if name not in defined]


def _unread_public_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each ``__all__`` entry that no other code reads.

    A read counts in another top-level statement of the name's own module
    (not its definition), in another of ``modules``, or in ``readers``.
    """
    bodies = {module: ast.parse(source).body for module, source in modules.items()}
    statements = {
        module: [(_defines(statement), _reads(statement)) for statement in body]
        for module, body in bodies.items()
    }
    reads = {module: set().union(*(r for _, r in pairs)) for module, pairs in statements.items()}
    outside = set().union(*(_reads(ast.parse(source)) for source in readers))
    unread = []
    for module, body in bodies.items():
        elsewhere = outside.union(*(r for other, r in reads.items() if other != module))
        for name in _public_names(body):
            own = (r for defined, r in statements[module] if name not in defined)
            if name not in elsewhere.union(*own):
                unread.append(f"{module}.{name}")
    return unread


def _unread_members(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.Class.name`` for each public method or property of an ``__all__`` class unread.

    A read is an attribute load ``x.name`` anywhere in ``modules`` or ``readers``; the
    check goes by name, so a read of any attribute of that name counts.
    """
    attributes = {
        node.attr
        for source in [*modules.values(), *readers]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, source in modules.items():
        body = ast.parse(source).body
        public = set(_public_names(body))
        for node in body:
            if not (isinstance(node, ast.ClassDef) and node.name in public):
                continue
            unread += [
                f"{module}.{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not item.name.startswith("_")
                and item.name not in attributes
            ]
    return unread


def _unset_fields(definitions: str, classes: list[str], callers: list[str]) -> list[str]:
    """``Class.field`` for each annotated field of ``classes`` that no call in ``callers`` sets.

    The classes and their field order come from the module source ``definitions``; a call
    ``Class(...)`` or ``module.Class(...)`` sets a field by keyword or by position.
    """
    fields = {
        node.name: [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        for node in ast.parse(definitions).body
        if isinstance(node, ast.ClassDef) and node.name in classes
    }
    assert sorted(fields) == sorted(classes), "a class is not defined at module level"
    set_fields = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in fields:
                set_fields.update((name, field) for field in fields[name][: len(node.args)])
                set_fields.update((name, keyword.arg) for keyword in node.keywords)
    return [
        f"{name}.{field}"
        for name, names in fields.items()
        for field in names
        if (name, field) not in set_fields
    ]


def test_checker_flags_an_unused_import():
    assert _unused_imports("import math\nimport numpy as np\nnp.pi\n") == ["math (line 1)"]
    assert _unused_imports("from .a import b, c\n__all__ = ['b']\nc()\n") == []


def test_checker_flags_a_foreign_import():
    source = "import os, numpy.linalg\nfrom . import dynamics\ndef f():\n    import scipy.linalg\n"
    assert _foreign_imports(source) == ["scipy.linalg (line 4)"]
    assert _foreign_imports("from mpmath import mp\nfrom numpy import pi\n") == ["mpmath (line 1)"]


def test_checker_lists_module_level_package_imports():
    source = "import numpy\n"
    source += "from .a import b, c as d\nfrom .e import f\ndef g():\n    from .h import i\n"
    assert _package_imports(source) == [("a", "b"), ("a", "c"), ("e", "f")]


def test_checker_flags_a_public_name_nothing_reads():
    modules = {
        "a": "__all__ = ['f', 'g', 'h', 'K']\ndef f():\n    return f()\ndef g():\n    pass\n"
        "h = lambda: g()\nK = 1\n",
        "b": "from .a import h\nf = 2\n",
    }
    # f reads itself and b only stores to a name f; g, h and K have readers
    assert _unread_public_names(modules, ["import a\na.K\n"]) == ["a.f"]
    assert _unread_public_names(modules, ["from a import f\n"]) == ["a.K"]


def test_checker_flags_a_public_name_defined_elsewhere():
    source = "from .a import f\nimport b as g\n__all__ = ['f', 'g', 'h', 'K']\n"
    source += "def h():\n    pass\nK = 1\n"
    assert _undefined_public_names(source) == ["f", "g"]


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.stem != "__init__"], ids=lambda path: path.name
)
def test_every_public_name_is_defined_in_its_module(path):
    # One public route per name: a module does not re-export another module's names.
    assert _undefined_public_names(path.read_text()) == []


def test_every_public_name_is_read_outside_the_tests():
    # A public function that only tests call belongs in tests/oracles.py, not in the package.
    modules = {path.stem: path.read_text() for path in SOURCES}
    assert _unread_public_names(modules, [path.read_text() for path in READERS]) == []


def test_checker_flags_a_member_nothing_reads():
    modules = {
        "a": "__all__ = ['P']\nclass P:\n    def f(self):\n        return self.g\n"
        "    @property\n    def g(self):\n        pass\n    def h(self):\n        pass\n"
        "    def _i(self):\n        pass\nclass Q:\n    def j(self):\n        pass\n",
    }
    # g is read in a; f in the reader; h has no read, and a call h() is not an attribute read;
    # _i is private and Q is not in __all__
    assert _unread_members(modules, ["import a\na.P().f()\nh()\n"]) == ["a.P.h"]
    assert _unread_members(modules, ["P.h\n"]) == ["a.P.f"]


def test_every_public_member_is_read_outside_the_tests():
    # A method or property of a public class that only tests read belongs in the tests.
    modules = {path.stem: path.read_text() for path in SOURCES}
    assert _unread_members(modules, [path.read_text() for path in READERS]) == []


def test_checker_flags_a_field_no_call_sets():
    definitions = "@dataclass\nclass P:\n    a: int\n    b: int = 0\n    c: int = 1\n    K = 2\n"
    assert _unset_fields(definitions, ["P"], ["P(1)\n", "m.P(0, c=3)\n"]) == ["P.b"]
    assert _unset_fields(definitions, ["P"], ["Q(1, b=2, c=3)\nP(a=1)\n"]) == ["P.b", "P.c"]


def test_every_oracle_setting_is_set_outside_the_tests():
    # A problem field that only tests set is a setting with one value in use: a constant.
    callers = [path.read_text() for path in [*SOURCES, *READERS]]
    oracle = (ROOT / "src" / "sgipair" / "oracle.py").read_text()
    assert _unset_fields(oracle, ["FockProblem", "MomentOdeProblem"], callers) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_stdlib_and_numpy(path):
    # README: the library needs only numpy; scipy, mpmath and hypothesis are test-only
    assert _foreign_imports(path.read_text()) == []


def test_oracle_states_its_own_model():
    # The oracles check the closed forms, so at module level they take from the package only
    # the parameters and the input check; they write their own qubit-sector table, and the
    # closed forms they compare against are imported inside the verify_* functions.
    allowed = {"UnitlessParams", "_require"}
    imports = _package_imports((ROOT / "src" / "sgipair" / "oracle.py").read_text())
    assert [(module, name) for module, name in imports if name not in allowed] == []
