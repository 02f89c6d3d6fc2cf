"""No module of the package imports a name it never uses, and every
top-level function and class of the package, and every method, is named by
the program itself, not only by the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rbshare"
# Where the program's own names are read: code that only `tests/` reads is a
# test oracle and belongs there.
PROGRAM = ("src", "perfbench")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; `__all__` entries count as reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detector_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads\nfrom typing import NamedTuple\n"
              "__all__ = ['NamedTuple']\n"
              "def f(x: np.ndarray):\n    return dumps(os.path.sep)\n")
    assert unused_imports(source) == ["line 2: math", "line 5: loads"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(source: str) -> list[str]:
    """The functions and classes a module defines at its top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, imports or spells as a (dotted) string:
    `setattr(channel, "draw_link", ...)` and `__all__` name a function too."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


# A name spelled in a string (`setattr`) counts as read; one that appears
# only in a comment does not.
def test_dead_name_detector():
    defs = "class Used:\n    pass\nclass Dead:\n    pass\ndef patched():\n    pass\n"
    users = "x = Used()\nsetattr(m, 'patched', None)\n# Dead is only in a comment\n"
    assert top_level_names(defs) == ["Used", "Dead", "patched"]
    assert set(top_level_names(defs)) - referenced_names(users) == {"Dead"}


def names_read_in(folders) -> set[str]:
    used: set[str] = set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= referenced_names(path.read_text())
    return used


def defined_names(source: str) -> list[str]:
    """The module's top-level functions and classes, then the methods of
    those classes other than dunders."""
    methods = [item.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (item.name.startswith("__") and item.name.endswith("__"))]
    return top_level_names(source) + methods


def test_test_only_name_detector():
    defs = ("def used():\n    pass\ndef oracle():\n    pass\n"
            "class Env:\n    def __init__(self):\n        pass\n"
            "    def step(self):\n        pass\n    def peek(self):\n        pass\n")
    program = "env = Env()\nenv.step()\nused()\n"
    tests = "oracle()\nEnv().peek()\n"
    assert defined_names(defs) == ["used", "oracle", "Env", "step", "peek"]
    assert set(defined_names(defs)) - referenced_names(program + tests) == set()
    assert [n for n in defined_names(defs) if n not in referenced_names(program)] == \
        ["oracle", "peek"]


def test_no_test_only_names():
    used = names_read_in(PROGRAM)
    test_only = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
                 for name in defined_names(path.read_text()) if name not in used]
    assert test_only == []
