"""Source-level rules for the package itself."""

import ast
import builtins
import importlib
import os
import subprocess
import sys
import types
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


def test_raises_are_package_errors():
    # Runtime invariants raise package errors, which the CLI maps to its
    # documented exit codes; a bare ValueError or RuntimeError would escape
    # as a traceback.  The CLI's own usage errors are the two exceptions.
    from argparse import ArgumentTypeError
    from levypremium.cli import CliConfigError
    allowed = (levypremium.LevyPremiumError, CliConfigError, ArgumentTypeError)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "levypremium" if path.stem == "__init__" else f"levypremium.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                # The class a raise names, looked up where the module would.
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                cls = exc and eval(ast.unparse(exc), {**vars(builtins), **vars(module)})
                if not (isinstance(cls, type) and issubclass(cls, allowed)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _module_private_names(tree) -> list[tuple[str, int]]:
    """The private functions, classes and constants a module defines at its
    top level, with their lines; dunder names such as __all__ are not private."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node.lineno) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [(name, line) for name, line in found
            if name.startswith("_") and not name.startswith("__")]


def test_private_names_are_read():
    # A private name that no module of the package reads, by name or as an
    # attribute, is dead code: a tolerance or helper left behind by a change.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    found = [f"{filename}:{line} {name}" for filename, tree in trees.items()
             for name, line in _module_private_names(tree) if name not in read]
    assert found == []


def _imported_names(node) -> list[str]:
    """The dotted names an absolute import statement binds:
    `from scipy import integrate` gives scipy.integrate."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_no_module_imports_scipy_integrate():
    # The package integrates nothing numerically; quadrature belongs to the
    # test oracles.  Both `import scipy.integrate` and
    # `from scipy import integrate`, at any depth, count.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if any(name.split(".")[:2] == ["scipy", "integrate"]
                    for name in _imported_names(node))]
    assert found == []


def _import_time_statements(tree):
    """The import statements a module runs when it is imported: all those
    outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_only_the_cli_imports_scipy_at_module_level():
    # Importing the package loads no scipy: the functions that evaluate a
    # special function or run an optimizer import scipy themselves.  The
    # CLI's processes load scipy.special at start-up.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for node in _import_time_statements(ast.parse(path.read_text(encoding="utf-8")))
             if any(name.split(".")[0] == "scipy" for name in _imported_names(node))]
    assert found == []


def test_public_surface_is_declared_in_module_all():
    # The modules' __all__ lists are the one declaration of the public surface:
    # each name there is exported by the package, and each exported name other
    # than a submodule or an error class is listed there, so a deleted type
    # cannot linger as an export.
    modules = [importlib.import_module(f"levypremium.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    declared = {name for module in modules for name in getattr(module, "__all__", ())}
    exported = {name for name, value in vars(levypremium).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)
                and not (isinstance(value, type)
                         and issubclass(value, levypremium.LevyPremiumError))}
    assert sorted(declared - set(dir(levypremium))) == []
    assert sorted(exported - declared) == []


# scipy.stats is over a third of the CLI's import time and the package needs
# none of it (the chi-square tail is scipy.special.chdtrc); scipy.optimize, a
# third of the rest, is loaded only by the functions that fit, and
# scipy.integrate never.
UNUSED_SCIPY = {"scipy.stats", "scipy.optimize", "scipy.integrate"}


def _loaded(code: str) -> set[str]:
    """The scipy modules that a fresh interpreter has loaded after running
    ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code += "\nprint(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return set(out.stdout.split())


def test_cli_import_leaves_out_unused_scipy():
    assert _loaded("import levypremium.cli").isdisjoint(UNUSED_SCIPY)


def test_package_import_loads_no_scipy():
    assert _loaded("import levypremium") == set()


def test_premium_sampling_inversion_and_normal_fit_load_no_scipy():
    # None of these evaluates a special function: the premium and the
    # calibration need only the MGFs, the inversion only the chf and an FFT.
    assert _loaded("""
import numpy as np
from levypremium import (NcigParams, NigParams, NormalParams, calibrate_crra,
                         cdf_function, default_grid, fit_normal_mle, invert_chf,
                         ncig_sample, nig_chf, nig_moments, nig_sample,
                         quantile_function)
nig = NigParams(mu=0.002351, alpha=38.437308, beta=-5.194172, delta=0.006590)
ncig = NcigParams(lam=195.903, mu=0.261, nu=0.08, sigma2=3.472)
for model in (NormalParams(mu=0.0014508893, sigma=0.0128671292), nig, ncig):
    assert calibrate_crra(0.05894 / 12, 0.97, model) > 0.0
data = np.concatenate([nig_sample(nig, 1000, seed=1), ncig_sample(ncig, 1000, seed=2)])
density = invert_chf(lambda u: nig_chf(nig, u), default_grid(nig_moments(nig)))
assert np.all((cdf_function(density)(data) >= 0.0) & (cdf_function(density)(data) <= 1.0))
assert np.all(np.diff(quantile_function(density)(np.array([0.1, 0.5, 0.9]))) > 0.0)
fit_normal_mle(data)
""") == set()


def test_nig_density_loads_scipy_special_on_its_first_call():
    loaded = _loaded("""
from levypremium import NigParams, nig_log_pdf
assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)
nig_log_pdf(NigParams(mu=0.0, alpha=2.0, beta=0.5, delta=1.0), [0.0, 1.0])
""")
    assert "scipy.special" in loaded and loaded.isdisjoint(UNUSED_SCIPY)


def test_uniformity_tests_load_no_optimizer_or_quadrature():
    # n = 500 takes the asymptotic nulls, whose Frosini law is closed form.
    assert _loaded("""
import numpy as np
from levypremium import frosini_test, ks_test_uniform, neyman_smooth_test, pit
s = pit(np.random.default_rng(5).normal(size=500), lambda x: 0.5 + np.arctan(x) / np.pi)
reports = [frosini_test(s), ks_test_uniform(s), neyman_smooth_test(s)]
assert [r.null for r in reports] == ["asymptotic", "asymptotic", "chi-square"]
""").isdisjoint(UNUSED_SCIPY)
