"""Postconditions must hold under `python -O`, which strips `assert`
statements, so the package checks with explicit raises only."""

import ast
from pathlib import Path

import formalab

SOURCES = sorted(Path(formalab.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
