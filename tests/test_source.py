"""Source-level rules for the package itself."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats is over a third of the CLI's import time and the package
    # needs none of it: the chi-square tail comes from scipy.special.chdtrc.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, levypremium.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
