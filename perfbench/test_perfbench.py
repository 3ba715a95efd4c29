"""Checks of the benchmark itself: repeatable counts, exercised layers, one metric table.

    python3 -m pytest perfbench -q      (from the repository root; about half a minute)
"""
from __future__ import annotations

import itertools
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import outcome, run_worker  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import PLAN_BLOCKS, WORKLOADS, Stream  # noqa: E402


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("ms")}


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced passes per workload with the same seed."""
    tmp = ROOT / ".perfbench_tmp" / "test"
    try:
        yield {w: [run_worker("traced", ROOT / "src", tmp / f"{w}{k}", w, seed=7) for k in range(2)]
               for w in WORKLOADS}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat(traced_twice, workload):
    first, second = traced_twice[workload]
    assert first["unwrapped"] == []
    assert _counts(first["layers"]) == _counts(second["layers"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_listed_layer_metrics_are_nonzero(traced_twice, workload):
    layers = traced_twice[workload][0]["layers"]
    zero = [name for name, _, _, workloads, _ in LAYERS if workload in workloads and not layers.get(name)]
    assert zero == []


def test_benchmark_json_lists_the_layer_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in LAYERS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_outcome_counts_planned_calls_once():
    def rec(op, failure=None, malformed=None):
        return {"op": op, "command": "run", "malformed": malformed, "failure": failure}
    records = [rec(0), rec(1, "exit 0, expected 2", "molecule_nan_shift"), rec(2),
               rec(0), rec(1, "exit 0, expected 2", "molecule_nan_shift"), rec(2, "wrong order")]
    correct, attempted, failed, kinds = outcome(records)
    assert (correct, attempted, failed) == (False, 3, 2)
    assert kinds == {"molecule_nan_shift": "exit 0, expected 2", "run": "wrong order"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plan_holds_the_same_malformed_kinds_for_every_seed(workload):
    tmp = ROOT / ".perfbench_tmp" / f"plan-{workload}"

    def kinds(seed):
        (tmp / str(seed)).mkdir(parents=True)
        plan = itertools.islice(Stream(workload, seed, tmp / str(seed)).blocks(), PLAN_BLOCKS[workload])
        return sorted(call.malformed for block in plan for call in block if call.malformed)
    try:
        first = kinds(1)
        assert all(kinds(seed) == first for seed in range(2, 12))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if workload == "instances":
        assert len(set(first)) == len(first) == 5
