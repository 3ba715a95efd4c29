"""Production coverage: which function-body statements of `orderfinding` no CLI input runs.

Runs 26 CLI invocations in one process under a stdlib `sys.settrace` line
tracer: every subcommand on its defaults, `run` also with the molecule
file, on a permutation given as an image list and on instances of order 1
and 3 (so `run` of every order, with the defaults' order 4 and the image
list's order 2), `verify-sequence` also on a listing with P tokens and on
the identity "()", plus a bad sequence token, a token naming one spin
twice, a bad permutation, an image list with a digit int() cannot read, a
bad molecule, a molecule whose linewidth is too narrow to render, a
molecule with a line too far from its grid to render, two molecules whose
line frequencies overflow (a coupling of either sign), an empty and a
missing molecule path, and two bad grids.
A statement inside a function body counts as run when its first line was
reached; module-level statements run on import and are not counted.
Prints, per module, the never-run statements over the total and their
line numbers.

Usage: python3 tools/prodcov.py   (from the repository root or anywhere)

tests/test_module_hygiene.py runs it and parses its rows, "<module> <never> / <total>
<line> ...", to pin the functions no invocation enters; keep that format.
"""
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orderfinding"
MOLECULE = ROOT / "configs" / "molecule_synthetic.json"


def invocations(tmp: Path) -> list[list[str]]:
    bad_molecule = tmp / "bad_molecule.json"
    bad_molecule.write_text('{"shifts": [0.0, 1.0], "J": [], "linewidth_hz": 1.0}\n')
    narrow_molecule = tmp / "narrow_molecule.json"  # no couplings: spin 1's lines peak on one grid point
    narrow_molecule.write_text('{"shifts": [0, 10, 20, 30, 40], "J": ' + str([[0] * 5] * 5)
                               + ', "linewidth_hz": 5e-324}\n')
    far_molecule = tmp / "far_molecule.json"  # spin 1's lines at 1.7e308 Hz: an offset from the grid below overflows
    far_molecule.write_text('{"shifts": [1.7e308, 10, 20, 30, 40], "J": ' + str([[0] * 5] * 5)
                            + ', "linewidth_hz": 1.0}\n')
    overflow = [tmp / "overflow_molecule.json", tmp / "overflow_negative_molecule.json"]
    for path, j12 in zip(overflow, (1e308, -1e308)):  # shifts[0] + |J12|/2 overflows for either sign
        couplings = [[0.0] * 5 for _ in range(5)]
        couplings[0][1] = couplings[1][0] = j12
        path.write_text('{"shifts": [1.7e308, 10, 20, 30, 40], "J": ' + str(couplings) + ', "linewidth_hz": 1.0}\n')
    run = ["run", "--perm", "(0 1 2 3)", "--y", "0", "--out", str(tmp / "run")]
    vseq = ["verify-sequence", "--perm", "(0 1)(2 3)", "--y", "0"]
    return [
        run,
        run[:-1] + [str(tmp / "run_molecule"), "--molecule", str(MOLECULE)],
        ["run", "--perm", "1,0,3,2", "--y", "0", "--out", str(tmp / "run_images")],
        ["run", "--perm", "(1 2 3)", "--y", "0", "--out", str(tmp / "run_order1")],
        ["run", "--perm", "(0 1 2)", "--y", "0", "--out", str(tmp / "run_order3")],
        *[[name, "--out", str(tmp / name)] for name in ("sweep", "prep-verify", "guess-table", "classical")],
        ["qft-check"],
        vseq + ["--seq", "C35"],
        vseq + ["--seq", "C24 P34 P54 C35 P54", "--time-order", "listed"],
        ["verify-sequence", "--perm", "()", "--y", "0", "--seq", "C35"],
        vseq + ["--seq", "C35 X9"],
        vseq + ["--seq", "C11"],
        ["run", "--perm", "(0 1", "--y", "0", "--out", str(tmp / "bad_perm")],
        ["run", "--perm", "\u00b2,0,1,3", "--y", "0", "--out", str(tmp / "bad_image")],
        run + ["--molecule", str(bad_molecule)],
        run + ["--molecule", str(narrow_molecule)],
        run + ["--molecule", str(far_molecule), "--grid=-8e307,8e307,5"],
        *[run + ["--molecule", str(path)] for path in overflow],
        run + ["--molecule", ""],
        run + ["--molecule", str(tmp / "missing.json")],
        run + ["--grid", "1,2"],
        run + ["--grid", "60,-60,4001"],
    ]


def body_statements(path: Path) -> set[int]:
    """First lines of the statements nested in function bodies, docstrings left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {fn.body[0] for fn in functions if ast.get_docstring(fn) is not None}
    return {stmt.lineno for fn in functions for top in fn.body if top not in docstrings
            for stmt in ast.walk(top) if isinstance(stmt, ast.stmt)}


def main() -> None:
    reached: set[tuple[str, int]] = set()
    package = str(PACKAGE)

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(trace)
        from orderfinding.cli import main as cli_main
        for argv in invocations(Path(tmp)):
            try:
                cli_main(argv)
            except SystemExit:  # argparse rejects a bad --grid before main's handlers
                pass
        sys.settrace(None)
    never_total = total = 0
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        statements = body_statements(path)
        never = sorted(line for line in statements if (str(path), line) not in reached)
        never_total, total = never_total + len(never), total + len(statements)
        if statements:
            rows.append((len(never), path.stem, len(statements), never))
    for count, stem, size, never in sorted(rows, key=lambda row: (-row[0], row[1])):
        print(f"{stem:<13} {count:>4} / {size:<4} {' '.join(map(str, never))}")
    print(f"{'total':<13} {never_total:>4} / {total}")


if __name__ == "__main__":
    main()
