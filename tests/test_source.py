"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import levypremium

PACKAGE = Path(levypremium.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so a runtime invariant written as
    # one silently stops being checked; raise a package error instead.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
