"""Benchmark of the orderfinding CLI, driven in-process through orderfinding.cli.main(argv).

    python3 perfbench/run.py --workload {sweep,instances,certify,verify} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  Each
pass runs in a fresh single-threaded interpreter (perfbench/worker.py).
Times are reference CPU milliseconds (or seconds): each call's process CPU
time rescaled by a calibration task run alongside, so that other tenants'
load on the host cancels out (see timebase.py).  The report also gives
wall times.

--trace 0: times SETUP_IMPORTS fresh imports of orderfinding.cli, then one
timed pass that repeats the run's plan of blocks (see workloads.py) for S
seconds.  End-to-end metrics:
  latency_ms   geometric mean, over the subcommands the workload runs, of
               each subcommand's median latency per call
  op_tail_ms   the highest percentile of per-call latency with at least
               TAIL_BEYOND calls beyond it (percentile and count in the report)
  peak_rss_mb  the timed pass's peak resident set size
  setup_s      median time of a fresh interpreter to import orderfinding.cli
Latencies cover calls with valid input; calls fed malformed input only
count in `failed`.

--trace 1: one untraced and one traced pass over the plan, once each;
prints the per-layer metrics of tracer.LAYERS, and reports the tracing
overhead per subcommand.

The line before the last holds the report: per-subcommand medians, the
failure fraction, the environment and the src/ line count.  The last line
is the result: {"correct", "attempted", "failed", "metrics"}.  `attempted`
counts the calls of the plan, and `failed` those of them that ever gave an
outcome other than the one fixed in advance, including calls with malformed
input; so both depend on the seed only, not on how many times the pass
repeated a call.  `correct` is false when a call with valid input failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from timebase import reference_ms  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_IMPORTS = 7
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(cmd: list[str]) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_worker(mode: str, src: Path, tmp: Path, workload: str, seed: int, seconds: float = 0.0) -> dict:
    return _child([sys.executable, str(HERE / "worker.py"), "--mode", mode, "--src", str(src),
                   "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--tmp", str(tmp / mode)])


def probe_import(src: Path) -> dict:
    probe = _child([sys.executable, str(HERE / "probe.py"), str(src)])
    if Path(probe["file"]).resolve() != (src / "orderfinding" / "cli.py").resolve():
        raise BenchError(f"orderfinding.cli was imported from {probe['file']}, not from {src}")
    return probe


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def per_command(records: list[dict], key: str) -> dict[str, list[float]]:
    """Per subcommand, the calls' "ref_ms", "cpu_s" or "seconds" (wall) times, in ms."""
    scale = 1.0 if key == "ref_ms" else 1e3
    out: dict[str, list[float]] = {}
    for rec in records:
        if rec["malformed"] is None:
            out.setdefault(rec["command"], []).append(scale * rec[key])
    return out


def medians_ms(records: list[dict], key: str) -> dict[str, float]:
    return {f"{cmd.replace('-', '_')}_ms": statistics.median(v)
            for cmd, v in sorted(per_command(records, key).items())}


def outcome(records: list[dict]) -> tuple[bool, int, int, dict]:
    """(correct, attempted, failed, a failure reason per kind) over the planned calls (operations)."""
    ops: dict[int, dict] = {}  # each operation's first failed run, else its first run
    for r in records:
        if r["op"] not in ops or (r["failure"] and not ops[r["op"]]["failure"]):
            ops[r["op"]] = r
    failures = [r for r in ops.values() if r["failure"]]
    correct = not any(r["malformed"] is None for r in failures)
    kinds: dict[str, str] = {}
    for r in failures:
        kinds.setdefault(r["malformed"] or r["command"], r["failure"])
    return correct, len(ops), len(failures), kinds


def src_record(src: Path) -> dict:
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, src: Path, seed: int, worker: dict) -> dict:
    env = child_env()
    return {
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_sha": git_sha(root),
        "seed": seed,
        **src_record(src),
    }


def untraced(args, src: Path, tmp: Path) -> tuple[dict, dict, dict]:
    probe_import(src)  # compiles bytecode and warms the file cache
    setups = [probe_import(src) for _ in range(SETUP_IMPORTS)]
    setup_s = statistics.median(1e-3 * reference_ms(p["numpy_import_s"] + p["import_s"], p["cal_s"])
                                for p in setups)
    worker = run_worker("timed", src, tmp, args.workload, args.seed, args.seconds)
    records = worker["records"]
    medians = medians_ms(records, "ref_ms")
    latencies = [v for values in per_command(records, "ref_ms").values() for v in values]
    tail_ms, tail_pct, beyond = tail(latencies)
    metrics = {
        "latency_ms": {"value": math.exp(statistics.fmean(math.log(v) for v in medians.values())), "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": worker["peak_rss_kb"] / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    report = {
        "per_command_median": {k: {"value": v, "unit": "ms"} for k, v in medians.items()},
        "per_command_median_wall": {k: {"value": v, "unit": "ms"}
                                    for k, v in medians_ms(records, "seconds").items()},
        "op_tail": {"percentile": tail_pct, "samples": len(latencies), "beyond": beyond},
        "setup_wall_s": statistics.median(p["wall_s"] for p in setups),
        "calibration_ms": 1e3 * statistics.median(worker["cals"]),
        "setup_imports": SETUP_IMPORTS,
    }
    return metrics, report, worker


def traced(args, src: Path, tmp: Path) -> tuple[dict, dict, dict]:
    probe_import(src)
    plain = run_worker("plan", src, tmp, args.workload, args.seed)
    worker = run_worker("traced", src, tmp, args.workload, args.seed)
    if worker["unwrapped"]:
        raise BenchError(f"functions reachable without their tracing wrapper: {worker['unwrapped']}")
    layers = worker["layers"]
    metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit, *_ in LAYERS}
    base, with_trace = medians_ms(plain["records"], "ref_ms"), medians_ms(worker["records"], "ref_ms")
    report = {
        "tracing_overhead": {k: {"untraced_ms": base[k], "traced_ms": with_trace[k], "ratio": with_trace[k] / base[k]}
                             for k in base},
        "layers_all": layers,
    }
    return metrics, report, worker


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "orderfinding" / "cli.py").is_file():
        print(f"error: no program to benchmark at {src / 'orderfinding'}", file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        metrics, report, worker = (traced if args.trace else untraced)(args, src, tmp)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    correct, attempted, failed, failures = outcome(worker["records"])
    report.update({
        "workload": args.workload,
        "fail_frac": failed / attempted,
        "failures": failures,
        "environment": environment(root, src, args.seed, worker),
    })
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
