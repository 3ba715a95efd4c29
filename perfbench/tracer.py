"""Spans and call counts for the traced pass, recorded from outside the program.

`Tracer.install` wraps every public function defined in an orderfinding
module and rebinds the wrapper at every place the function is bound,
including `from .x import f` copies in other modules and the package
`__init__`.  A wrapper records a span (name, start, end, parent span,
invocation) per call, timed in process CPU time (see timebase.py).
`layer_metrics` turns the spans into the per-layer metrics listed in
`LAYERS`.
"""
from __future__ import annotations

import functools
import gc
import inspect
import sys
from collections import Counter, defaultdict
from time import process_time
from types import ModuleType

PACKAGE = "orderfinding"

# (metric, unit, better, workloads on which it must be nonzero, what it should move).
# "<cmd>_ms" is that subcommand's median latency, a factor of latency_ms.
LAYERS = (
    ("simulator.apply_gate.calls", "count", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("simulator.apply_gate.ms", "ms", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("simulator.self_ms", "ms", "lower", ("sweep", "instances", "verify"), "sweep_ms on sweep; run_ms on instances"),
    ("circuits.run_orderfinding.calls", "count", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("circuits.run_orderfinding.ms", "ms", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("circuits.build_orderfinding.ms", "ms", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("permutations.power.calls", "count", "lower", ("sweep", "instances", "certify", "verify"), "sweep_ms on sweep"),
    ("permutations.oracle_stages.ms", "ms", "lower", ("sweep", "instances"), "sweep_ms on sweep"),
    ("measurement.sims_per_instance", "ratio", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("measurement.simulated_distribution.ms", "ms", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("measurement.simulated_observables.ms", "ms", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("measurement.final_density.ms", "ms", "lower", ("instances",), "run_ms on instances"),
    ("measurement.infer_order.ms", "ms", "lower", ("instances",), "run_ms on instances"),
    ("simulator.expectation_Iz.calls", "count", "lower", ("sweep", "instances"), "sweep_ms on sweep; run_ms on instances"),
    ("measurement.solve_guess_game.calls", "count", "lower", ("instances", "certify"), "run_ms on instances; guess_table_ms on certify"),
    ("measurement.solve_guess_game.ms", "ms", "lower", ("instances", "certify"), "run_ms on instances; guess_table_ms on certify"),
    ("measurement.guess_distinct_frac", "ratio", "higher", ("instances", "certify"), "run_ms on instances; guess_table_ms on certify"),
    ("exactlp.simplex_maximize.calls", "count", "lower", ("instances", "certify"), "classical_ms, guess_table_ms on certify; run_ms on instances"),
    ("exactlp.simplex_maximize.ms", "ms", "lower", ("instances", "certify"), "classical_ms, guess_table_ms on certify; run_ms on instances"),
    ("exactlp.simplex_maximize.rows", "count", "lower", ("instances", "certify"), "classical_ms, guess_table_ms on certify; run_ms on instances"),
    ("exactlp.simplex_maximize.cols", "count", "lower", ("instances", "certify"), "classical_ms, guess_table_ms on certify; run_ms on instances"),
    ("exactlp.solve_maximin_assignment.ms", "ms", "lower", ("instances", "certify"), "guess_table_ms on certify; run_ms on instances"),
    ("classical.one_query_value.ms", "ms", "lower", ("certify",), "classical_ms on certify"),
    ("classical.prior_best_response_value.ms", "ms", "lower", ("certify",), "classical_ms on certify"),
    ("classical.two_query_certainty.ms", "ms", "lower", ("certify",), "classical_ms on certify"),
    ("classical.prior_best_response_value.calls", "count", "lower", ("certify",), "classical_ms on certify"),
    ("classical.self_ms", "ms", "lower", ("certify",), "classical_ms on certify"),
    ("simulator.gate_unitary.calls", "count", "lower", ("verify",), "qft_check_ms, prep_verify_ms on verify"),
    ("simulator.circuit_unitary.ms", "ms", "lower", ("verify",), "qft_check_ms, prep_verify_ms on verify"),
    ("circuits.verify_oracle_sequence.ms", "ms", "lower", ("verify",), "verify_sequence_ms on verify"),
    ("circuits.parse_native_sequence.ms", "ms", "lower", ("verify",), "verify_sequence_ms, prep_verify_ms on verify"),
    ("prodops.verify_prep_set.ms", "ms", "lower", ("verify",), "prep_verify_ms on verify"),
    ("prodops.apply_prep_dense.ms", "ms", "lower", ("verify",), "prep_verify_ms on verify"),
    ("prodops.apply_prep.calls", "count", "lower", ("verify",), "prep_verify_ms on verify"),
    ("spectra.readout_lines.ms", "ms", "lower", ("instances",), "run_ms on instances"),
    ("spectra.render_spectrum.ms", "ms", "lower", ("instances",), "run_ms and op_tail_ms on instances"),
    ("spectra.load_molecule.ms", "ms", "lower", ("instances",), "run_ms on instances"),
    ("spectra.render_points", "count", "lower", ("instances",), "run_ms and op_tail_ms on instances"),
    ("cli.build_parser.ms", "ms", "lower", ("sweep", "instances", "certify", "verify"), "verify_sequence_ms, qft_check_ms on verify"),
    ("cli.self_ms", "ms", "lower", ("sweep", "instances", "certify", "verify"), "verify_sequence_ms on verify; op_tail_ms on instances"),
    ("cli.out_bytes", "bytes", "lower", ("sweep", "instances", "certify", "verify"), "op_tail_ms on instances"),
    ("import.numpy.ms", "ms", "lower", ("sweep", "instances", "certify", "verify"), "setup_s on every workload"),
    ("import.orderfinding.ms", "ms", "lower", ("sweep", "instances", "certify", "verify"), "setup_s on every workload"),
)


def package_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _public_functions() -> dict[int, object]:
    found = {}
    for module in package_modules():
        for obj in vars(module).values():
            if (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE)
                    and not obj.__name__.startswith("_")):
                found[id(obj)] = obj
    return found


def _label(fn) -> str:
    return f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__qualname__}"


class Tracer:
    """Keeps spans in memory: [label, start, end, parent index, invocation, outermost]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.invocation = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._instances: set = set()
        self._distinct_instances = 0
        self._guess_inputs: set = set()

    def install(self) -> list[str]:
        """Wrap every binding of every public function; return the references left unwrapped.

        After rebinding, the only objects allowed to refer to an original
        function are its wrapper (closure cell and `__wrapped__`) and the
        local tables here; any other referrer, such as a module namespace,
        a container or a default argument, would call it untraced.
        """
        originals = _public_functions()
        wrappers = {key: self._wrap(fn) for key, fn in originals.items()}
        for module in package_modules():
            for name, obj in list(vars(module).items()):
                if originals.get(id(obj)) is obj:
                    setattr(module, name, wrappers[id(obj)])
        allowed = {id(originals)} | {id(w.__dict__) for w in wrappers.values()}
        allowed |= {id(cell) for w in wrappers.values() for cell in w.__closure__}
        namespaces = {id(vars(m)): m.__name__ for m in list(sys.modules.values()) if m is not None}
        stray = []
        for fn in originals.values():
            for ref in gc.get_referrers(fn):
                if id(ref) in allowed or inspect.isframe(ref):
                    continue
                where = namespaces.get(id(ref), type(ref).__name__)
                stray.append(f"{_label(fn)} referenced from {where}")
        return sorted(stray)

    def begin_invocation(self, index: int) -> None:
        self._distinct_instances += len(self._instances)
        self._instances = set()
        self.invocation = index

    def _wrap(self, fn):
        label = _label(fn)
        hook = getattr(self, "_on_" + label.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments)
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.invocation, self._active[label] == 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active[label] += 1
            span[1] = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                self._active[label] -= 1
                self._stack.pop()
        return wrapper

    # Counts read from the arguments of particular layers.

    def _on_exactlp_simplex_maximize(self, args: dict) -> None:
        self.counters["exactlp.simplex_maximize.rows"] += len(args["A"])
        self.counters["exactlp.simplex_maximize.cols"] += len(args["A"][0]) if args["A"] else 0

    def _on_spectra_render_spectrum(self, args: dict) -> None:
        nonzero = sum(1 for line in args["lines"] if line.amplitude != 0)
        self.counters["spectra.render_points"] += args["grid"].points * nonzero

    def _on_circuits_run_orderfinding(self, args: dict) -> None:
        spec = args["spec"]
        self._instances.add((spec.pi.images, spec.y))

    def _on_measurement_solve_guess_game(self, args: dict) -> None:
        dists = args.get("dists")
        key = None if dists is None else tuple(d.probs.tobytes() for d in dists)
        self._guess_inputs.add(key)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer quantity: calls and inclusive ms per function, self ms per module, counters."""
        self.begin_invocation(self.invocation)
        out: dict[str, float] = {}
        children = defaultdict(float)
        for label, start, end, parent, _, outermost in self.spans:
            if parent >= 0:
                children[parent] += end - start
            out[f"{label}.calls"] = out.get(f"{label}.calls", 0) + 1
            if outermost:  # recursion is busy time once
                out[f"{label}.ms"] = out.get(f"{label}.ms", 0.0) + 1e3 * (end - start)
        for index, (label, start, end, *_) in enumerate(self.spans):
            key = label.split(".")[0] + ".self_ms"
            out[key] = out.get(key, 0.0) + 1e3 * (end - start - children[index])
        out.update(self.counters)
        sims = out.get("circuits.run_orderfinding.calls", 0)
        out["measurement.sims_per_instance"] = sims / self._distinct_instances if self._distinct_instances else 0.0
        guesses = out.get("measurement.solve_guess_game.calls", 0)
        out["measurement.guess_distinct_frac"] = len(self._guess_inputs) / guesses if guesses else 0.0
        return out
