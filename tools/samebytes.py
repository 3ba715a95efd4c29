"""Byte comparison of two source trees' CLI: same stdout, stderr, exit code and files.

Runs every invocation of `tools/prodcov.py` (`invocations`) plus `-h`,
`sweep -h`, an unknown command and a missing command against OLD_TREE and
NEW_TREE, each as its own `python -m orderfinding.cli` process with
`PYTHONPATH=<tree>/src`.  Every process starts in the same working
directory, emptied before each run, so paths in messages and output
files match.  Prints one line per invocation, "same" or the first
difference (exit code, stdout, stderr, or the first file that differs,
each with its first differing line), then a count, and exits 1 if any
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


def first_difference(old: dict[str, bytes], new: dict[str, bytes]) -> str | None:
    for key in [*old, *(k for k in new if k not in old)]:
        if key not in new or key not in old:
            return f"{key} only in {'old' if key in old else 'new'}"
        if old[key] != new[key]:
            pairs = itertools.zip_longest(old[key].splitlines(True), new[key].splitlines(True), fillvalue=b"")
            line, (a, b) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
            return f"{key} line {line}: old {a.decode(errors='replace')!r}, new {b.decode(errors='replace')!r}"
    return None


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
            difference = first_difference(old, new)
            differ += difference is not None
            shown = shlex.join(argv).replace(str(work), "WORK").replace(str(ROOT), "REPO") or "(no arguments)"
            print(f"{shown}: {difference or 'same'}")
    print(f"{count} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
