"""Every module-level import and private function in the package and in its tests is used in its own module.

`__init__` is skipped: it holds only the docstring and `__version__`, so
importing the package loads no submodule and no numpy.  `from __future__`
imports are exempt.  A private function counts as used only when a
top-level statement other than its own definition names it.

Public functions that no module calls are API kept for tests and callers
outside the package; that set is pinned, so it may shrink but not grow.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orderfinding"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unreferenced(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uses = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)} for node in tree.body]
    dead = []
    for idx, node in enumerate(tree.body):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_") \
                and not node.name.startswith("__"):
            names = [node.name]
        else:
            continue
        dead += [name for name in names if not any(name in used for k, used in enumerate(uses) if k != idx)]
    return dead


def test_package_modules_are_found():
    assert {p.stem for p in MODULES} >= {"circuits", "prodops", "simulator", "spectra"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_names_are_referenced(path):
    assert _unreferenced(path) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.stem)
def test_test_module_level_names_are_referenced(path):
    assert _unreferenced(path) == []


# Public functions that no module of the package (outside `__init__`) names.
UNCALLED_PUBLIC = {
    "observables_from_distribution",
    "net_area",
    "schedule_prep",
}


def _uncalled_public() -> set[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES]
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")}
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for tree in trees for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    return public - named


def test_public_functions_no_module_calls_do_not_grow():
    assert _uncalled_public() <= UNCALLED_PUBLIC


@pytest.mark.parametrize("module", ["classical", "exactlp", "prodops"])
def test_classical_imports_no_numpy(module):
    # the certificates and the preparation algebra are exact integer, Fraction and
    # Q(sqrt 2) work; the test below checks that nothing the certificates import
    # loads numpy either (prodops still does, through the gate types in simulator)
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {name for name in modules if name.partition(".")[0] == "numpy"}


@pytest.mark.parametrize("module", ["orderfinding", "orderfinding.permutations", "orderfinding.classical",
                                    "orderfinding.exactlp"])
def test_importing_the_package_loads_no_numpy(module):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys, {module}; assert 'numpy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
