"""The package's export list: every name resolves, and none is stale."""

import ast

import codegb


def imported_names():
    with open(codegb.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


def test_every_export_resolves():
    missing = [name for name in codegb.__all__ if not hasattr(codegb, name)]
    assert missing == []


def test_exports_are_exactly_the_imported_names():
    assert len(codegb.__all__) == len(set(codegb.__all__))
    assert set(codegb.__all__) == imported_names()
