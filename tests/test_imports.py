"""Every name the package and its tests import is used, and every name a
package module exports is defined there.

An AST scan, so it needs no linter: a name bound by ``import`` or ``from
... import`` must be read somewhere in its file, be listed in the file's
``__all__``, or sit on an import line marked ``# noqa: F401``. A name in a
package module's ``__all__`` must be bound at its top level by ``def``,
``class`` or an assignment, so a deletion cannot leave a stale export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/banditseq/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def _exported(tree):
    """The names in the module's ``__all__``, in order."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(source):
    """Names imported by ``source`` that it never reads, in line order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = read | set(_exported(tree))
    return sorted((line, name) for name, line in imported.items()
                  if name not in keep)


def test_scan_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(os.sep)\n")
    assert unused_imports(source) == [(3, "pi")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def undefined_exports(source):
    """Names in ``source``'s ``__all__`` that its top level does not bind
    by ``def``, ``class`` or an assignment, in ``__all__`` order."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)}
    return [name for name in _exported(tree) if name not in defined]


def test_scan_finds_an_undefined_export():
    source = ("from math import pi\nX: int = 1\nY, W = 2, 4\n"
              "def f():\n    Z = 3\n"
              "class C:\n    pass\n"
              "__all__ = ['C', 'Z', 'X', 'f', 'pi', 'Y', 'W']\n")
    assert undefined_exports(source) == ["Z", "pi"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_export_defined(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []
