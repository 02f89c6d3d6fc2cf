"""No module of the package or of the tests imports a name it never uses;
every top-level function and class of the package, and every method, is
named by the program itself, not only by the tests; and every field and
`self.` attribute of the package is read by the program."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rbshare"
TESTS = ROOT / "tests"
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
                         + sorted((ROOT / "perfbench").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(source: str) -> list[str]:
    """The functions and classes a module defines at its top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def referenced_names(source: str, attributes_only: bool = False) -> set[str]:
    """Every name a module reads, imports or spells as a (dotted) string:
    `setattr(channel, "draw_link", ...)` and `__all__` name a function too.

    An attribute counts where it is read, not where it is assigned, and not
    on a module imported from outside the package: `np.load` reads numpy's
    `load`, not `MLP.load`. With `attributes_only`, only attribute reads and
    a string's last part count, the ways a field is read: a local `env` does
    not read `Run.env`, nor does the span name "env.step".
    """
    tree = ast.parse(source)
    foreign = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.partition(".")[0] != "rbshare"}
    names: set[str] = set()
    attributes: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts[:-1])
                attributes.add(parts[-1])
    return attributes if attributes_only else names | attributes


# A name spelled in a string (`setattr`) counts as read; one that appears
# only in a comment does not.
def test_dead_name_detector():
    defs = "class Used:\n    pass\nclass Dead:\n    pass\ndef patched():\n    pass\n"
    users = "x = Used()\nsetattr(m, 'patched', None)\n# Dead is only in a comment\n"
    assert top_level_names(defs) == ["Used", "Dead", "patched"]
    assert set(top_level_names(defs)) - referenced_names(users) == {"Dead"}


def names_read_in(folders, attributes_only: bool = False) -> set[str]:
    used: set[str] = set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= referenced_names(path.read_text(), attributes_only)
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


def defined_fields(source: str) -> list[str]:
    """`Class.name` of each field a class of the module declares in its body
    (a dataclass or `NamedTuple` field) or assigns as `self.name`."""
    fields: dict[str, None] = {}
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    fields[f"{cls.name}.{node.target.id}"] = None
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) and node.value.id == "self":
                    fields[f"{cls.name}.{node.attr}"] = None
    return list(fields)


# `np.load` is numpy's, so it reads no method of the package.
def test_foreign_module_read_detector():
    defs = "class Net:\n    def load(self):\n        pass\n    def save(self):\n        pass\n"
    program = ("import numpy as np\nfrom rbshare import agent\n"
               "np.load('w.npz')\nnp.lib.npyio.load\nagent.Net().save('w.npz')\n")
    assert [n for n in defined_names(defs) if n not in referenced_names(program)] == ["load"]


# A field is read only as an attribute or a string: not by a local of its
# name, an assignment, an update in place or a dotted string that ends elsewhere.
def test_unread_field_detector():
    defs = ("@dataclass\nclass Run:\n    env: object\n    status: str = 'ok'\n"
            "class Policy:\n    def __init__(self):\n        self.frozen = False\n"
            "        self.steps = 0\n    def step(self):\n        self.steps += 1\n")
    program = "env = make()\nrun = Run(env)\nrun.env = env\nrun.frozen = True\n" \
        "print('frozen.status')\n"
    assert defined_fields(defs) == ["Run.env", "Run.status", "Policy.frozen", "Policy.steps"]
    read = referenced_names(defs + program, attributes_only=True)
    assert [f for f in defined_fields(defs) if f.rpartition(".")[2] not in read] == \
        ["Run.env", "Policy.frozen", "Policy.steps"]


# `MLP.load` reads back what `MLP.save` writes, and only the tests call it
# until resuming a run (ROADMAP item 3) gives it a reader in the program.
KNOWN_TEST_ONLY = ["agent.py: load"]


def test_no_test_only_names():
    used = names_read_in(PROGRAM)
    attributes = names_read_in(PROGRAM, attributes_only=True)
    test_only = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        test_only += [f"{path.name}: {name}" for name in defined_names(source)
                      if name not in used]
        test_only += [f"{path.name}: {field}" for field in defined_fields(source)
                      if field.rpartition(".")[2] not in attributes]
    assert test_only == KNOWN_TEST_ONLY
