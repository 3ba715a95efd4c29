"""Every module-level import and private function in the package and in its tests is used in its own module.

`__init__` is skipped: it holds only the docstring, `__version__` and
`CertificateError`, and imports nothing, so importing the package loads no
submodule and no numpy.  `from __future__`
imports are exempt.  A private function counts as used only when a
top-level statement other than its own definition names it.

Public functions that no module calls are API kept for tests and callers
outside the package; that set is pinned, so it may shrink but not grow.
"""
import ast
import os
import re
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


def test_package_docstring_names_every_module():
    docstring = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    submodules = docstring.partition("Submodules:")[2].partition("\n\n")[0]
    assert {p.stem for p in MODULES} <= set(re.findall(r"(\w+)\s+\(", submodules))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_names_are_referenced(path):
    assert _unreferenced(path) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.stem)
def test_test_module_level_names_are_referenced(path):
    assert _unreferenced(path) == []


# Public functions that no module of the package (outside `__init__`) names.
UNCALLED_PUBLIC = {"schedule_prep"}


def _uncalled_public() -> set[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES]
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")}
    named = {n.id if isinstance(n, ast.Name) else n.attr
             for tree in trees for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    return public - named


def test_public_functions_no_module_calls_do_not_grow():
    assert _uncalled_public() <= UNCALLED_PUBLIC


# Functions, by module and qualified name, of which no CLI invocation of tools/prodcov.py runs a
# body statement.  Pinned like UNCALLED_PUBLIC: the set may shrink but not grow.
NEVER_RUN = {"prodops.schedule_prep", "prodops.mask_to_pattern", "spectra._parse_int"}


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, first lines of its body statements, docstring left out) for every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = child.body[1:] if ast.get_docstring(child) is not None else child.body
            yield prefix + child.name, {stmt.lineno for top in body for stmt in ast.walk(top)
                                        if isinstance(stmt, ast.stmt)}
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _functions(child, f"{prefix}{child.name}.")


def test_functions_production_never_runs_do_not_grow():
    tool = PACKAGE.parents[1] / "tools" / "prodcov.py"
    report = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True, check=True).stdout
    never = {}
    for row in report.splitlines():  # "<module> <never> / <total> <line> <line> ..."
        stem, _, _, _, *lines = row.split()
        never[stem] = {int(line) for line in lines}
    assert {p.stem for p in MODULES} <= set(never)
    found = {f"{path.stem}.{name}" for path in MODULES
             for name, lines in _functions(ast.parse(path.read_text(encoding="utf-8")))
             if lines and lines <= never[path.stem]}
    assert found <= NEVER_RUN


@pytest.mark.parametrize("module", ["classical", "prodops", "circuits", "gates"])
def test_classical_imports_no_numpy(module):
    # the certificates, the preparation algebra and the native-sequence checks are exact
    # integer, Fraction and Q(sqrt 2) work; the tests below check that nothing they
    # import loads numpy either
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {name for name in modules if name.partition(".")[0] == "numpy"}


def _run_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter that imports the package from this tree; fail if it fails."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, check=True)


@pytest.mark.parametrize("module", ["orderfinding", "orderfinding.permutations", "orderfinding.classical",
                                    "orderfinding.gates", "orderfinding.circuits", "orderfinding.prodops"])
def test_importing_the_package_loads_no_numpy(module):
    _run_fresh(f"import sys, {module}; assert 'numpy' not in sys.modules, sorted(sys.modules)")


def test_importing_the_cli_loads_no_other_submodule_and_no_numpy():
    # each subcommand imports what it runs, so the import itself is the package and the front end
    _run_fresh("import sys, orderfinding.cli\n"
               "loaded = sorted(name for name in sys.modules if name.partition('.')[0] in ('orderfinding', 'numpy'))\n"
               "assert loaded == ['orderfinding', 'orderfinding.cli'], loaded")


@pytest.mark.parametrize("argv", [
    ["classical", "--out", "{tmp}/classical"],
    ["prep-verify", "--out", "{tmp}/prep"],
    ["verify-sequence", "--seq", "C24 P34 P54 C35 P54", "--perm", "(0 1 2 3)", "--y", "0"],
], ids=lambda argv: argv[0])
def test_exact_subcommands_run_without_numpy(tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    _run_fresh("import sys\nfrom orderfinding.cli import main\n"
               f"assert main({argv!r}) == 0\n"
               "assert 'numpy' not in sys.modules, sorted(sys.modules)")
