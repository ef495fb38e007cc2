"""Every name the package and its tests import is used.

An AST scan, so it needs no linter: a name bound by ``import`` or ``from
... import`` must be read somewhere in its file, be listed in the file's
``__all__``, or sit on an import line marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/banditseq/*.py"), *ROOT.glob("tests/*.py")])


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


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
    keep = read | _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in keep)


def test_scan_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(os.sep)\n")
    assert unused_imports(source) == [(3, "pi")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
