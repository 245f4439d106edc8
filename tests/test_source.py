"""Static checks of the package source: every imported name is used."""

import ast
import pathlib

import pytest

import driftflux

SOURCES = sorted(pathlib.Path(driftflux.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each name that ``source`` imports but never reads, where
    a name listed in the module's ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
              "__all__ = ['d']\nnp.zeros(1)\n")
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
