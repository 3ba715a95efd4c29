"""Cold-start wall time of each subcommand, as fresh `python3 -m orderfinding.cli` processes.

Runs each subcommand on its defaults (the first `tools/prodcov.py`
invocation of each) in a fresh interpreter, interleaved with
`python3 -c pass`, the floor that every process pays before it imports
anything.  A round runs the floor, then every subcommand, in a fixed
order; one untimed round first warms the file cache and, unless
PYTHONDONTWRITEBYTECODE is set, writes the bytecode caches.  Every process
starts in one emptied working directory.  Prints, per subcommand, the
median and minimum wall milliseconds over the rounds and the median as a
multiple of the floor's median.  Exits 1 if a subcommand exits with a
nonzero status, since its time would not be a run's.  Uses the standard
library only.

Usage: python3 tools/coldstart.py [--src DIR]
"""
import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from prodcov import ROOT, invocations  # noqa: E402

FLOOR = "python3 -c pass"
ROUNDS = 9


def subcommands(work: Path) -> dict[str, list[str]]:
    """Each subcommand's first prodcov invocation, by subcommand name, in prodcov's order."""
    found: dict[str, list[str]] = {}
    for argv in invocations(work):
        found.setdefault(argv[0], argv)
    return found


def wall_ms(argv: list[str], work: Path, env: dict[str, str]) -> float:
    """Wall milliseconds of one process run in an emptied `work`; raises if it exits nonzero."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    start = perf_counter()
    done = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = perf_counter() - start
    if done.returncode:
        raise RuntimeError(f"{' '.join(argv[3:])} exited {done.returncode}: {done.stderr.decode().strip()}")
    return 1e3 * elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding orderfinding")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        commands = {FLOOR: [sys.executable, "-c", "pass"]}
        commands.update({name: [sys.executable, "-m", "orderfinding.cli", *argv]
                         for name, argv in subcommands(work).items()})
        times: dict[str, list[float]] = {name: [] for name in commands}
        try:
            for round_ in range(ROUNDS + 1):
                for name, argv in commands.items():
                    ms = wall_ms(argv, work, env)
                    if round_:
                        times[name].append(ms)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    floor = statistics.median(times[FLOOR])
    print(f"{'command':<17} {'median ms':>9} {'min ms':>8} {'x floor':>8}   ({ROUNDS} rounds)")
    for name, values in times.items():
        median = statistics.median(values)
        print(f"{name:<17} {median:>9.1f} {min(values):>8.1f} {median / floor:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
