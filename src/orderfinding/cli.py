"""Command-line orchestration: run instances end to end and emit verification reports.

Subcommands: run, sweep, prep-verify, guess-table, classical, qft-check,
verify-sequence.  All outputs are plain CSV/JSON with stable key and column
order, so identical inputs produce byte-identical files.  Exit status is 0
only if every verification invoked by the subcommand passes.  A subcommand
with `--out` computes every output before it creates the directory and
writes the first file, so a bad input (exit 2) or a failed certificate
(exit 1 with an `error:` line) leaves `--out` as it was; a FAIL verdict
still writes its report.

Each subcommand imports only the modules it runs, inside its `cmd_*`
function, so importing this module loads no other submodule and no numpy,
and `classical`, `prep-verify`, `guess-table` and `verify-sequence` run
without numpy.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

from . import CertificateError

if TYPE_CHECKING:
    import numpy as np

    from .permutations import OracleSpec
    from .spectra import FrequencyGrid

SWEEP_TOL = 1e-10
_QUOTED = frozenset(',"\r\n')  # csv.writer would quote a cell holding one, or csv.reader split it


def _parse_grid(text: str) -> FrequencyGrid:
    from .spectra import FrequencyGrid

    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be fmin,fmax,points")
    try:
        return FrequencyGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _csv_cells(column: list) -> Iterable[str]:
    """One column's cells: numbers as repr (the shortest round-trip form of a float), plain text as is."""
    kinds = set(map(type, column))
    if kinds <= {int, float}:
        return map(repr, column)
    if kinds != {str}:
        raise TypeError(f"CSV column of {sorted(k.__name__ for k in kinds)}")
    for cell in column:
        if not _QUOTED.isdisjoint(cell):
            raise ValueError(f"CSV cell {cell!r} would need quoting")
    return column


def _write_csv(path: Path, header: list[str], columns: list[list]) -> None:
    """Write `header` and one line per row of equal-length `columns` (ints, floats or plain text).

    No cell is quoted: a text cell that CSV would quote raises ValueError.
    Lines are streamed, so no whole-file string is built.
    """
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"{path.name}: the columns do not match the header")
    cells = [_csv_cells(c) for c in columns]
    with path.open("w", newline="") as fh:
        fh.write(",".join(_csv_cells(header)) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_run(perm: str, y: int, molecule: str | None, out: Path, grid: FrequencyGrid) -> int:
    """One instance end to end: `cmd_sweep`'s simulation and reductions on a one-row batch."""
    import numpy as np

    from . import measurement, spectra
    from .permutations import OracleSpec, format_cycles, order_of, parse_permutation
    from .simulator import expectation_Iz, run_instances

    pi = parse_permutation(perm)
    spec = OracleSpec(pi, y)
    params = spectra.load_molecule(molecule) if molecule is not None else spectra.synthetic_molecule()

    amps = run_instances([spec])
    probs = measurement.outcome_probabilities(amps)[0]
    observables = expectation_Iz(amps * amps.conj())[0].tolist()
    lines = spectra.readout_lines(amps[0], 1, params)
    spectrum = spectra.render_spectrum(lines, params, grid)
    r_true = order_of(pi, y)
    r_inferred = measurement.infer_order(probs)
    game = measurement.solve_guess_game()
    report = {
        "perm": format_cycles(pi),
        "y": y,
        "r_inferred": r_inferred,
        "r_true": r_true,
        "distribution_error": float(np.abs(probs - measurement.analytic_distribution(r_true)).max()),
        "guess_value": game.value,
        "guess_success_per_order": list(game.per_order_success),
    }

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "distribution.csv", ["m", "probability"], [list(range(8)), probs.tolist()])
    _write_json(out / "observables.json", {"O": observables})
    _write_csv(out / "lines_spin1.csv", ["spin", "label", "frequency_hz", "amp_real", "amp_imag"],
               [[l.spin for l in lines], [l.label for l in lines], [l.frequency_hz for l in lines],
                [l.amplitude.real for l in lines], [l.amplitude.imag for l in lines]])
    _write_csv(out / "spectrum_spin1.csv", ["frequency_hz", "real", "imag"],
               [spectrum.frequencies_hz.tolist(), spectrum.trace.real.tolist(), spectrum.trace.imag.tolist()])
    _write_json(out / "report.json", report)
    print(f"perm={format_cycles(pi)} y={y}: r={r_inferred}  O=" +
          "(" + ", ".join(f"{v:.6g}" for v in observables) + ")")
    return 0 if r_inferred == r_true else 1


@functools.cache
def _sweep_table() -> tuple[tuple[OracleSpec, ...], tuple[tuple[str, int, int], ...], np.ndarray]:
    """The sweep's 96 instances, their (perm name, y, r) labels and their analytic distributions.

    Built once per process: the distributions are a read-only (96, 8)
    array.  The simulation and its checks still run on every sweep.
    """
    import numpy as np

    from .measurement import analytic_distribution
    from .permutations import ALL_PERMUTATIONS, OracleSpec, order_of, permutation_names

    specs = tuple(OracleSpec(pi, y) for pi in ALL_PERMUTATIONS for y in range(4))
    names = dict(zip(ALL_PERMUTATIONS, permutation_names()))
    labels = tuple((names[spec.pi], spec.y, order_of(spec.pi, spec.y)) for spec in specs)
    analytic = np.array([analytic_distribution(r) for _, _, r in labels])
    analytic.flags.writeable = False
    return specs, labels, analytic


def cmd_sweep(out: Path) -> int:
    import numpy as np

    from .measurement import outcome_probabilities
    from .simulator import expectation_Iz, run_instances

    specs, labels, analytic = _sweep_table()
    amps = run_instances(specs)
    errors = np.abs(outcome_probabilities(amps) - analytic).max(axis=1)
    observables = expectation_Iz(amps * amps.conj())
    rows = [(*label, err, *o) for label, err, o in zip(labels, errors.tolist(), observables.tolist())]
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv",
               ["perm", "y", "r", "dist_error", "O_1", "O_2", "O_3", "O_4", "O_5"], list(zip(*rows)))
    worst = errors.max()
    ok = worst <= SWEEP_TOL
    print(f"sweep: {len(specs)} cases, worst |simulated - analytic| = {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {SWEEP_TOL})")
    return 0 if ok else 1


def cmd_prep_verify(out: Path) -> int:
    from . import prodops

    seqs = prodops.standard_prep_sequences()
    report = prodops.verify_prep_set(seqs)
    eq = prodops.equilibrium_zsum()
    dense_ok = all(image == prodops.apply_prep_dense(seq, eq) for seq, image in zip(seqs, report.images))
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "prep_report.json", {
        "sequences": list(prodops.PREP_SET_5SPIN),
        "total_terms": report.total_terms,
        "is_effective_pure": report.is_effective_pure,
        "canceled_pairs": report.canceled_pairs,
        "residual": {prodops.mask_to_pattern(k): v for k, v in enumerate(report.residual) if v},
        "dense_conjugation_agrees": dense_ok,
    })
    print(f"prep-verify: total_terms={report.total_terms} "
          f"is_effective_pure={report.is_effective_pure} canceled_pairs={report.canceled_pairs} "
          f"dense_agreement={dense_ok}")
    return 0 if (report.is_effective_pure and dense_ok) else 1


def cmd_guess_table(out: Path) -> int:
    from . import measurement

    dists = [measurement.distribution_floats(r) for r in measurement.ORDERS]
    sol = measurement.solve_guess_game()
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "distributions.csv", ["m", "p_r1", "p_r2", "p_r3", "p_r4"], [list(range(8))] + dists)
    _write_csv(out / "guess_strategy.csv", ["m", "g_r1", "g_r2", "g_r3", "g_r4"],
               [list(range(8))] + list(zip(*sol.strategy)))
    _write_json(out / "guess_report.json", {
        "value": sol.value,
        "value_exact": repr(sol.exact_value),
        "success_per_order": list(sol.per_order_success),
        "hardest_prior": [repr(p) for p in sol.prior],
    })
    ok = all(s == sol.value for s in sol.per_order_success)
    print(f"guess-table: value = {sol.value:.6f} (exact {sol.exact_value!r}), "
          f"per-order success {'equalized' if ok else 'NOT equalized'}")
    return 0 if ok else 1


def cmd_classical(out: Path) -> int:
    from . import classical

    one = classical.one_query_value()
    two = classical.two_query_certainty()
    witness_desc = {
        "x_weights": {str(x): str(w) for x, w in sorted(one.witness.x_weights.items()) if w},
        "guesses": {
            f"x={x},z={z}": [str(p) for p in dist]
            for (x, z), dist in sorted(one.witness.guesses.items())
            if one.witness.x_weights[x]
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "classical_report.json", {
        "one_query_value": str(one.value),
        "one_query_value_per_y": [str(v) for v in one.values_per_y],
        "one_query_witness": witness_desc,
        "one_query_hardest_prior": {k: str(v) for k, v in sorted(one.prior.items())},
        "one_query_prior_best_response": str(one.prior_best_response),
        "paper_witness_value": str(one.paper_witness_value),
        "two_query_certain": two.achievable,
        "two_query_cases_checked": two.cases_checked,
        "single_query_deterministic_checked": two.single_query_strategies_checked,
        "single_query_deterministic_perfect": two.single_query_perfect,
    })
    ok = (
        str(one.value) == "1/2"
        and one.prior_best_response == one.value
        and one.paper_witness_value == one.value
        and two.achievable
        and two.single_query_perfect == 0
    )
    print(f"classical: one-query value = {one.value} "
          f"(witness {one.paper_witness_value}, dual {one.prior_best_response}); "
          f"two queries certain on {two.cases_checked} cases; "
          f"{two.single_query_perfect}/{two.single_query_strategies_checked} "
          f"single-query strategies perfect")
    return 0 if ok else 1


def cmd_qft_check() -> int:
    import numpy as np

    from .circuits import build_qft3
    from .gates import DIM
    from .measurement import m_from_register_index
    from .simulator import run_circuits

    j, k = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    dft = np.exp(2j * np.pi * j * k / 8) / np.sqrt(8)  # entries omega^{jk}/sqrt(8), omega = exp(2 pi i/8)
    eye4 = np.eye(4)
    # row b of the identity is |b>, so the runner's rows are the unitary's columns
    u_swap, u_noswap = (run_circuits([build_qft3(swap)] * DIM, np.eye(DIM, dtype=complex)).T
                        for swap in (True, False))
    err_swap = float(np.max(np.abs(u_swap - np.kron(dft, eye4))))
    perm = np.eye(8)[[m_from_register_index(b) for b in range(8)]]
    err_noswap = float(np.max(np.abs(u_noswap - np.kron(perm @ dft, eye4))))
    ok = err_swap <= 1e-12 and err_noswap <= 1e-12
    print(f"qft-check: |QFT(swap) - DFT8| = {err_swap:.3e}, "
          f"|QFT(no swap) - bit-reversed DFT8| = {err_noswap:.3e} "
          f"({'PASS' if ok else 'FAIL'} at 1e-12)")
    return 0 if ok else 1


def cmd_verify_sequence(seq_text: str, perm_text: str, y: int, time_order: str) -> int:
    from . import circuits
    from .permutations import format_cycles, parse_permutation

    if time_order == "listed":
        seq = circuits.parse_native_sequence(seq_text)
    else:
        seq = circuits.parse_readout_listing(seq_text)
    pi = parse_permutation(perm_text)
    ok = circuits.verify_oracle_sequence(seq, pi, y)
    print(f"verify-sequence: {seq_text!r} vs perm={format_cycles(pi)} y={y} "
          f"({time_order} order): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderfinding",
        description="Simulate and verify the five-spin order-finding experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one (permutation, y) instance end to end")
    run.add_argument("--perm", required=True, help='cycle notation, e.g. "(0 1 2 3)" or image list "1,0,3,2"')
    run.add_argument("--y", type=int, required=True, choices=range(4), help="start element")
    run.add_argument("--molecule", default=None, help="molecule JSON config (default: synthetic parameters)")
    run.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    run.add_argument("--grid", type=_parse_grid, default="-60.0,60.0,4001",
                     help="spectrum grid fmin,fmax,points (Hz)")

    sweep = sub.add_parser("sweep", help="run all 24 permutations x 4 start elements")
    sweep.add_argument("--out", type=Path, default=Path("out"))

    prep = sub.add_parser("prep-verify", help="verify the nine-experiment preparation set")
    prep.add_argument("--out", type=Path, default=Path("out"))

    guess = sub.add_parser("guess-table", help="certify the stored optimal guess strategy and write its tables")
    guess.add_argument("--out", type=Path, default=Path("out"))

    cls = sub.add_parser("classical", help="exact classical one/two-query bounds")
    cls.add_argument("--out", type=Path, default=Path("out"))

    sub.add_parser("qft-check", help="compare the QFT circuit against the 8-point DFT")

    vseq = sub.add_parser("verify-sequence", help="check a native sequence against an oracle instance")
    vseq.add_argument("--seq", required=True, help='tokens like "C24 P34 P54 C35 P54"')
    vseq.add_argument("--perm", required=True)
    vseq.add_argument("--y", type=int, required=True, choices=range(4))
    vseq.add_argument("--time-order", choices=("listed", "reversed"), default="reversed",
                      help="how to read the listing; oracle listings are operator products (reversed)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.perm, args.y, args.molecule, args.out, args.grid)
        if args.command == "sweep":
            return cmd_sweep(args.out)
        if args.command == "prep-verify":
            return cmd_prep_verify(args.out)
        if args.command == "guess-table":
            return cmd_guess_table(args.out)
        if args.command == "classical":
            return cmd_classical(args.out)
        if args.command == "qft-check":
            return cmd_qft_check()
        if args.command == "verify-sequence":
            return cmd_verify_sequence(args.seq, args.perm, args.y, args.time_order)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CertificateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
