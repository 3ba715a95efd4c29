"""Byte comparison of two source trees' CLI: same stdout, stderr, exit code and files.

Runs every invocation of `tools/prodcov.py` (`invocations`) plus `-h`,
`sweep -h`, an unknown command and a missing command against OLD_TREE and
NEW_TREE, each as its own `python -m orderfinding.cli` process with
`PYTHONPATH=<tree>/src`.  Every process starts in the same working
directory, emptied before each run, so paths in messages and output
files match.  Prints one line per invocation, "same" or the number of
fields and files that differ, and under it one indented line per differing
field (exit code, stdout, stderr) or file, with its first differing line
and its number of differing lines.  Ends with a count, and exits 1 if any
invocation differs.

Usage: python3 tools/samebytes.py OLD_TREE NEW_TREE
"""
import itertools
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from prodcov import ROOT, invocations  # noqa: E402

EXTRA = [["-h"], ["sweep", "-h"], ["no-such-command"], []]


def run(tree: Path, work: Path, index: int) -> tuple[list[str], dict[str, bytes]]:
    """argv number `index`, run on `tree` in an emptied `work`: (argv, {field or file: bytes})."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    argv = (invocations(work) + EXTRA)[index]  # (re)writes the input files the invocation reads
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "orderfinding.cli", *argv], cwd=work, env=env,
                          capture_output=True)
    outcome = {"exit code": str(done.returncode).encode(), "stdout": done.stdout, "stderr": done.stderr}
    outcome.update({f"file {path.relative_to(work)}": path.read_bytes()
                    for path in sorted(work.rglob("*")) if path.is_file()})
    return argv, outcome


def differences(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per field or file that differs: its first differing line and how many lines differ."""
    found = []
    for key in [*old, *(k for k in new if k not in old)]:
        if key not in new or key not in old:
            found.append(f"{key} only in {'old' if key in old else 'new'}")
        elif old[key] != new[key]:
            pairs = itertools.zip_longest(old[key].splitlines(True), new[key].splitlines(True), fillvalue=b"")
            differing = [(n, a, b) for n, (a, b) in enumerate(pairs, 1) if a != b]
            line, a, b = differing[0]
            found.append(f"{key} line {line} ({len(differing)} lines differ): "
                         f"old {a.decode(errors='replace')!r}, new {b.decode(errors='replace')!r}")
    return found


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old_tree, new_tree = (Path(arg).resolve() for arg in sys.argv[1:])
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        count = len(invocations(Path(tmp)) + EXTRA)
        for index in range(count):
            argv, old = run(old_tree, work, index)
            _, new = run(new_tree, work, index)
            found = differences(old, new)
            differ += bool(found)
            shown = shlex.join(argv).replace(str(work), "WORK").replace(str(ROOT), "REPO") or "(no arguments)"
            print(f"{shown}: {f'{len(found)} differ' if found else 'same'}")
            for line in found:
                print(f"  {line}")
    print(f"{count} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
