"""One workload pass in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py --mode {timed,plan,traced} --workload W --seed N
        --seconds S --src SRC --tmp DIR

Every mode draws the same plan from the seed: the first PLAN_BLOCKS blocks
of the workload's call stream, whose calls are the run's operations.
`timed` runs the plan's blocks over and over, each time whole, until S
seconds have passed and the plan has run at least once; `plan` runs the
plan once; `traced` runs it once with every public function wrapped (see
tracer.py).  Each call goes through `orderfinding.cli.main(argv)` in this
process, with its stdout and stderr captured, and is judged against the
outcome fixed in its Call.  Each record holds the call's operation (its
index in the plan), its wall time, its CPU time and its time in reference
milliseconds (see timebase.py).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

from timebase import Clock, reference_ms  # noqa: E402


def _import_program(src: Path) -> tuple[object, float, float]:
    sys.path.insert(0, str(src))
    t0 = process_time()
    import numpy  # noqa: F401
    t1 = process_time()
    import orderfinding.cli
    t2 = process_time()
    return orderfinding.cli, t1 - t0, t2 - t1


def _invoke(cli, argv: tuple[str, ...], clock: Clock) -> tuple[int | str, str, str, dict]:
    """Run cli.main once: (status, stdout, stderr, times).

    The status is the exit code, or the name of an escaping exception.  The
    times exclude the calibrations that ran during the call.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clock.timing():
        t0, c0, spent_cpu, spent_wall = perf_counter(), process_time(), clock.spent_cpu, clock.spent_wall
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a traceback is a failed call, not a benchmark crash
            status = type(exc).__name__
            traceback.print_exc(file=err)
        c1, t1 = process_time(), perf_counter()
    times = {"seconds": t1 - t0 - (clock.spent_wall - spent_wall),
             "cpu_s": c1 - c0 - (clock.spent_cpu - spent_cpu), "span": (c0, c1)}
    return status, out.getvalue(), err.getvalue(), times


def judge(call, status, stdout: str, stderr: str, out: Path) -> str | None:
    """Why the call did not produce its expected outcome, or None."""
    if status != call.expect:
        return f"exit {status}, expected {call.expect}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if call.expect == 2:
        lines = stderr.strip().splitlines()
        errors = [line for line in lines if "error:" in line]
        if len(errors) != 1 or lines[-1] != errors[0]:
            return f"expected one final 'error:' line, got {stderr.strip()!r}"
        return None
    if call.check is None:
        return None
    try:
        return call.check(out, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed report
        return f"unreadable report: {type(exc).__name__}: {exc}"


def peak_rss_kb() -> int:
    """This process's peak resident set size (Linux).

    VmHWM restarts at exec, unlike ru_maxrss, which keeps the high-water mark
    of the parent process the worker was forked from.
    """
    status = Path("/proc/self/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0])


def _clear(directory: Path) -> None:
    if directory.exists():
        shutil.rmtree(directory)


def run_pass(cli, stream, plan: list[list], order, tracer=None) -> tuple[list[dict], list[float]]:
    """Run the plan's blocks in the given order; return the calls' records and the calibration times taken."""
    starts = list(itertools.accumulate((len(block) for block in plan), initial=0))
    records: list[dict] = []
    index = 0
    with Clock() as clock:
        for b in order:
            for op, call in enumerate(plan[b], start=starts[b]):
                out = Path(stream.out(call.command))
                _clear(out)
                if tracer is not None:
                    tracer.begin_invocation(index)
                status, stdout, stderr, times = _invoke(cli, call.argv, clock)
                reason = judge(call, status, stdout, stderr, out)
                records.append({"op": op, "command": call.command, "malformed": call.malformed,
                                "failure": reason, **times})
                if tracer is not None:
                    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0
                    tracer.counters["cli.out_bytes"] += size + len(stdout.encode()) + len(stderr.encode())
                index += 1
    for record in records:
        record["ref_ms"] = clock.reference_ms(*record.pop("span"), record["cpu_s"])
    return records, [cal for _, cal in clock.samples]


def _timed_order(blocks: int, seconds: float):
    """Block indices 0, 1, .., blocks-1, 0, 1, ..: one whole pass, and on until `seconds` have passed."""
    deadline = perf_counter() + seconds
    for k in itertools.count():
        yield k % blocks
        if k + 1 >= blocks and perf_counter() >= deadline:
            return


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("timed", "plan", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()

    cli, numpy_s, import_s = _import_program(args.src)
    import numpy

    from tracer import Tracer
    from workloads import PLAN_BLOCKS, Stream

    args.tmp.mkdir(parents=True, exist_ok=True)
    stream = Stream(args.workload, args.seed, args.tmp)
    result: dict = {}
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        result["unwrapped"] = tracer.install()
    plan = list(itertools.islice(stream.blocks(), PLAN_BLOCKS[args.workload]))
    order = _timed_order(len(plan), args.seconds) if args.mode == "timed" else range(len(plan))
    result["records"], cals = run_pass(cli, stream, plan, order, tracer)
    result["peak_rss_kb"] = peak_rss_kb()
    result["cals"] = cals
    result["python"] = platform.python_version()
    result["numpy"] = numpy.__version__
    if tracer is not None:
        # Spans also hold the calibrations that interrupt calls longer than
        # LONG_CALL_S, about 2% of those calls' time.
        layers = tracer.layer_metrics()
        layers["import.numpy.ms"] = 1e3 * numpy_s
        layers["import.orderfinding.ms"] = 1e3 * import_s
        # Busy times in reference milliseconds, at the pass's median calibration.
        scale = reference_ms(1e-3, statistics.median(cals))
        result["layers"] = {k: v * scale if k.endswith("ms") else v for k, v in layers.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
