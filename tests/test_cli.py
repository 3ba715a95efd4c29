import contextlib
import csv
import io
import json
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orderfinding import circuits, classical, cli, measurement, prodops, simulator
from orderfinding.cli import main
from orderfinding.permutations import OracleSpec, parse_permutation


def _read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def test_run_identity_instance(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--perm", "()", "--y", "0", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["r_inferred"] == 1 and report["r_true"] == 1
    observables = json.loads((out / "observables.json").read_text())
    assert observables["O"] == pytest.approx([1, 1, 1, 1, 1], abs=1e-9)
    assert "r=1" in capsys.readouterr().out


def test_each_instance_is_simulated_once(tmp_path, monkeypatch):
    # the commands import the batch entry run_instances from simulator when they run, its one binding
    batches = []
    simulate = simulator.run_instances

    def counted(specs):
        batches.append(list(specs))
        return simulate(specs)

    assert not any(hasattr(module, "run_instances") for module in (circuits, cli, measurement))
    monkeypatch.setattr(simulator, "run_instances", counted)
    assert main(["sweep", "--out", str(tmp_path / "sweep")]) == 0
    assert len(batches) == 1 and len(batches[0]) == 96
    assert len({(s.pi.images, s.y) for s in batches[0]}) == 96
    batches.clear()
    assert main(["run", "--perm", "(0 1 2)", "--y", "0", "--out", str(tmp_path / "run")]) == 0
    assert len(batches) == 1 and len(batches[0]) == 1


def test_sweep_makes_nine_kernel_calls_and_one_gather_per_oracle_stage(tmp_path, monkeypatch):
    # 3 Hadamards and 6 QFT ops hold one op on all 96 rows; each of the 3 oracle stages is one gather
    kernel, gathers = [], []
    apply_unitary, take_along_axis = simulator.apply_unitary, np.take_along_axis

    def counted_kernel(amps, spins, u):
        kernel.append(np.shape(amps))
        return apply_unitary(amps, spins, u)

    def counted_gather(arr, indices, axis):
        gathers.append(indices.shape)
        return take_along_axis(arr, indices, axis)

    monkeypatch.setattr(simulator, "apply_unitary", counted_kernel)
    monkeypatch.setattr(np, "take_along_axis", counted_gather)
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    assert kernel == [(96, 32)] * 9
    assert gathers == [(96, 32)] * 3


def test_sweep_rows_equal_the_one_row_path_exactly(tmp_path):
    # `run` is the sweep's one-row case: its written figures equal the sweep row's to the last bit
    assert main(["sweep", "--out", str(tmp_path / "sweep")]) == 0
    rows = _read_csv(tmp_path / "sweep" / "sweep.csv")
    assert rows[0] == ["perm", "y", "r", "dist_error", "O_1", "O_2", "O_3", "O_4", "O_5"]
    assert len(rows) == 1 + 96
    orders = set()
    for perm, y, r, dist_error, *observables in rows[1::5]:
        out = tmp_path / "run"
        assert main(["run", "--perm", perm, "--y", y, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["distribution_error"] == float(dist_error), (perm, y)
        assert json.loads((out / "observables.json").read_text())["O"] == [float(o) for o in observables], (perm, y)
        orders.add(int(r))
    assert orders == {1, 2, 3, 4}


def test_run_order_two_distribution(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--perm", "(0 1)(2 3)", "--y", "0", "--out", str(out)]) == 0
    rows = _read_csv(out / "distribution.csv")
    assert rows[0] == ["m", "probability"]
    probs = {int(m): float(p) for m, p in rows[1:]}
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[4] == pytest.approx(0.5, abs=1e-12)


def test_run_fixed_point_of_three_cycle(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--perm", "(0 1 2)", "--y", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["r_inferred"] == 1


def test_run_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--perm", "(0 2 1 3)", "--y", "2", "--out", str(out)]) == 0
    for name in ("distribution.csv", "observables.json", "lines_spin1.csv",
                 "spectrum_spin1.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_with_molecule_config(tmp_path):
    config = tmp_path / "mol.json"
    config.write_text(json.dumps({
        "shifts": [0.0, 1000.0, 2000.0, 3000.0, 4000.0],
        "J": [[0.0] * 5 for _ in range(5)],
        "linewidth_hz": 2.0,
    }))
    out = tmp_path / "run"
    assert main(["run", "--perm", "()", "--y", "0", "--molecule", str(config), "--out", str(out)]) == 0
    rows = _read_csv(out / "lines_spin1.csv")
    freqs = {float(r[2]) for r in rows[1:]}
    assert freqs == {0.0}  # no couplings: all lines at the spin-1 shift


@pytest.mark.parametrize("linewidth", ["5e-324", "1e-308"])
def test_run_too_narrow_linewidth_exits_2_without_a_non_finite_spectrum(tmp_path, capsys, linewidth):
    # no couplings put all 16 lines of spin 1 on the grid point 0.0, where a peak 2/(pi*linewidth) overflows
    config = tmp_path / "mol.json"
    config.write_text('{"shifts": [0, 10, 20, 30, 40], "J": ' + json.dumps([[0] * 5] * 5)
                      + f', "linewidth_hz": {linewidth}}}')
    out = tmp_path / "run"
    assert main(["run", "--perm", "(0 1 2 3)", "--y", "0", "--molecule", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: linewidth_hz {linewidth} is too narrow: "
                                       "the rendered spectrum is not finite\n")
    assert not (out / "spectrum_spin1.csv").exists()


def test_a_failed_run_leaves_the_output_directory_as_it_was(tmp_path, capsys):
    # every file of a run is computed before the first is written, so a spectrum that overflows writes none
    out = tmp_path / "run"
    assert main(["run", "--perm", "(0 1)", "--y", "0", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(before) == 5
    config = tmp_path / "mol.json"
    config.write_text('{"shifts": [0, 10, 20, 30, 40], "J": ' + json.dumps([[0] * 5] * 5) + ', "linewidth_hz": 5e-324}')
    capsys.readouterr()
    assert main(["run", "--perm", "(0 1 2 3)", "--y", "0", "--molecule", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("j12", [1e308, -1e308])
def test_run_molecule_whose_line_frequencies_overflow_exits_2_naming_the_shift(tmp_path, capsys, j12):
    # spin 1's lines sit at shifts[0] +/- J12/2, and one of them is past the float range for either sign
    couplings = [[0.0] * 5 for _ in range(5)]
    couplings[0][1] = couplings[1][0] = j12
    config = tmp_path / "mol.json"
    config.write_text(json.dumps({"shifts": [1.7e308, 10, 20, 30, 40], "J": couplings, "linewidth_hz": 1.0}))
    out = tmp_path / "run"
    assert main(["run", "--perm", "(0 1 2 3)", "--y", "0", "--molecule", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {config}:1:13: shifts[0]: line frequencies overflow: "
                                       "|shift| + sum of |J|/2 is not finite\n")
    assert not out.exists()


def test_run_empty_molecule_path_is_read_not_ignored(tmp_path, capsys, monkeypatch):
    # an empty path names the working directory, as "." does; it must not fall back to the synthetic molecule
    monkeypatch.chdir(tmp_path)
    for molecule in ("", "."):
        assert main(["run", "--perm", "()", "--y", "0", "--molecule", molecule, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: [Errno 21] Is a directory: '.'\n"
    assert not (tmp_path / "o").exists()


def test_run_bad_permutation_exits_2(tmp_path, capsys):
    assert main(["run", "--perm", "(0 9)", "--y", "0", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["run", "--perm", "\u00b2,0,1,3", "--y", "0"], "bad image list: '\u00b2,0,1,3'"),
    (["verify-sequence", "--perm", "()", "--y", "0", "--seq", "C35 C11"],
     "bad sequence token 'C11': spin indices must be distinct, got (1, 1)"),
], ids=["superscript-image", "same-spin"])
def test_bad_text_exits_2_with_one_error_line_naming_it(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main(argv + (["--out", str(out)] if argv[0] == "run" else [])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_missing_molecule_key_exits_2(tmp_path, capsys):
    config = tmp_path / "mol.json"
    config.write_text(json.dumps({"shifts": [0, 1, 2, 3, 4]}))
    assert main(["run", "--perm", "()", "--y", "0", "--molecule", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    assert "J" in capsys.readouterr().err


def test_sweep_covers_96_cases(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out)]) == 0
    rows = _read_csv(out / "sweep.csv")
    assert rows[0] == ["perm", "y", "r", "dist_error", "O_1", "O_2", "O_3", "O_4", "O_5"]
    assert len(rows) == 97
    assert all(float(r[3]) <= 1e-10 for r in rows[1:])


def test_prep_verify_report(tmp_path):
    out = tmp_path / "prep"
    assert main(["prep-verify", "--out", str(out)]) == 0
    report = json.loads((out / "prep_report.json").read_text())
    assert report["total_terms"] == 45
    assert report["is_effective_pure"] is True
    assert report["canceled_pairs"] == 7
    assert report["dense_conjugation_agrees"] is True
    assert report["residual"] == {}


def test_prep_verify_reports_the_residual_of_an_impure_set(tmp_path, monkeypatch):
    # without the ninth sequence, "C35 C23 N1", the eight experiments miss the target by five strings
    monkeypatch.setattr(prodops, "PREP_SET_5SPIN", prodops.PREP_SET_5SPIN[:8])
    out = tmp_path / "prep"
    assert main(["prep-verify", "--out", str(out)]) == 1
    report = json.loads((out / "prep_report.json").read_text())
    assert report["total_terms"] == 40
    assert report["is_effective_pure"] is False
    assert list(report["residual"].items()) == [
        ("IIIZI", -1), ("IZIII", -1), ("IZZII", -1), ("IZZIZ", -1), ("ZIIII", 1),
    ]


def test_prep_verify_fails_when_the_basis_map_disagrees(tmp_path, capsys, monkeypatch):
    # every basis image swapped with its partner across spin 5: the map stays a permutation that is affine
    # over GF(2), so the dense Z-sums stay integer, but each experiment's spin-5 strings change sign
    real = circuits.native_image
    monkeypatch.setattr(circuits, "native_image", lambda seq, index: (real(seq, index)[0] ^ 1, 0))
    out = tmp_path / "prep"
    assert main(["prep-verify", "--out", str(out)]) == 1
    report = json.loads((out / "prep_report.json").read_text())
    assert report["dense_conjugation_agrees"] is False
    assert report["is_effective_pure"] is True
    assert "dense_agreement=False" in capsys.readouterr().out


def test_guess_table_outputs(tmp_path):
    out = tmp_path / "guess"
    assert main(["guess-table", "--out", str(out)]) == 0
    report = json.loads((out / "guess_report.json").read_text())
    assert 0.545 <= report["value"] <= 0.560
    assert report["value_exact"] == "60/109"
    strategy = _read_csv(out / "guess_strategy.csv")
    assert strategy[0] == ["m", "g_r1", "g_r2", "g_r3", "g_r4"]
    for row in strategy[1:]:
        assert sum(float(v) for v in row[1:]) == pytest.approx(1.0, abs=1e-9)
    dists = _read_csv(out / "distributions.csv")
    assert dists[0] == ["m", "p_r1", "p_r2", "p_r3", "p_r4"]


def test_classical_report(tmp_path):
    out = tmp_path / "classical"
    assert main(["classical", "--out", str(out)]) == 0
    report = json.loads((out / "classical_report.json").read_text())
    assert report["one_query_value"] == "1/2"
    assert report["one_query_value_per_y"] == ["1/2"] * 4
    assert report["two_query_certain"] is True
    assert report["single_query_deterministic_perfect"] == 0
    assert report["paper_witness_value"] == "1/2"


def test_qft_check(capsys):
    assert main(["qft-check"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_sequence_pass_and_fail(capsys):
    assert main(["verify-sequence", "--seq", "C35", "--perm", "(0 1)(2 3)", "--y", "0"]) == 0
    assert main(["verify-sequence", "--seq", "C35", "--perm", "()", "--y", "0"]) == 1
    assert main(["verify-sequence", "--seq", "C24 P34 P54 C35 P54", "--perm", "(0 1 2 3)",
                 "--y", "0"]) == 0
    # the same listing read chronologically does not implement the oracle
    assert main(["verify-sequence", "--seq", "C24 P34 P54 C35 P54", "--perm", "(0 1 2 3)",
                 "--y", "0", "--time-order", "listed"]) == 1


def test_run_non_object_molecule_exits_2_with_one_error_line(tmp_path, capsys):
    config = tmp_path / "mol.json"
    config.write_text("5")
    assert main(["run", "--perm", "()", "--y", "0", "--molecule", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {config}:1:1: ")
    assert "Traceback" not in err


def test_run_molecule_integer_past_the_digit_limit_exits_2_with_one_located_error_line(tmp_path, capsys):
    # int() refuses a literal of more than 4300 digits; the loader reports it at the literal like any bad value
    config = tmp_path / "mol.json"
    config.write_text('{"shifts": [0, 1, 2, 3, 1' + "0" * 5000 + '], "J": [], "linewidth_hz": 1}')
    assert main(["run", "--perm", "()", "--y", "0", "--molecule", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err == f"error: {config}:1:25: shifts[4]: not a finite number\n"


def test_run_deeply_nested_molecule_exits_2_with_one_located_error_line(tmp_path, capsys):
    # the JSON decoder recurses once per nested array; past its limit the loader still reports a location
    config = tmp_path / "mol.json"
    config.write_text('{"shifts": ' + "[" * 200000 + "]" * 200000 + ', "J": [], "linewidth_hz": 1}')
    assert main(["run", "--perm", "()", "--y", "0", "--molecule", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {config}:1:1: nested too deeply to decode\n"


@pytest.mark.parametrize("grid", ["-60,60", "60,-60,100", "nan,60,100", "-inf,inf,5", "-1e308,1e308,5",
                                  "-60,60,1000001"])
def test_run_bad_grid_exits_2_without_spectrum(tmp_path, capsys, grid):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--perm", "()", "--y", "0", f"--grid={grid}", "--out", str(out)])
    assert exc.value.code == 2
    assert not (out / "spectrum_spin1.csv").exists()
    err = capsys.readouterr().err
    assert "--grid" in err and "Traceback" not in err


_GRID_FIELD = st.sampled_from(["-60", "60", "0", "1e3", "nan", "-inf", "1e308", "x", "", " 7", "4001.5", "2", "-5",
                                "1000001", "0x10"])


@settings(max_examples=100)
@given(st.one_of(st.text(), st.lists(_GRID_FIELD, min_size=1, max_size=4).map(",".join)))
@example("-60,60,2")
@example(" -1e3, 7 ,2")
def test_run_grid_text_runs_or_exits_2_without_a_traceback(grid):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["run", "--perm", "()", "--y", "0", f"--grid={grid}", "--out", tmp])
        except SystemExit as exc:  # argparse rejects the grid
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert "--grid" in err.getvalue()


@pytest.mark.parametrize("module, name, replacement, argv, message", [
    (classical, "ONE_QUERY_WITNESS", {**classical.ONE_QUERY_WITNESS, 7: (Fraction(1, 4), (1, 3, 2, 3))},
     ["classical"], "one-query certificate failed at y=0: witness 1/4 != prior 1/2"),
    (measurement, "GUESS_PRIOR", (12, 21, 32, 44), ["guess-table"],
     "guess-game certificate failed: strategy 60/109 != prior 61/109"),
    (measurement, "GUESS_STRATEGY", ((59, 12, 16, 22), *measurement.GUESS_STRATEGY[1:]),
     ["run", "--perm", "(0 1 2)", "--y", "0"], "guess-game certificate failed: strategy 59/109 != prior 60/109"),
], ids=["classical", "guess-table", "run"])
def test_certificate_failure_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch, module, name, replacement,
                                                         argv, message):
    monkeypatch.setattr(module, name, replacement)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def _reference_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def test_csv_writer_matches_the_csv_module(tmp_path):
    header = ["perm", "label", "n", "x"]
    columns = [
        ["(0 1 2)(3)", "(0 1)(2 3)", "()", "(0 1 2 3)", "(1 3)", "(0 2 1 3)", "(0 3)", "(0 1 2)(3)"],
        ["0000", "0101", "1111", "1000", "0011", "0110", "1001", "0001"],
        [0, -1, 7, 2**70, 3, 4, 5, 6],
        [-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 1 / 3, -2.5e-310, 123456789.125],
    ]
    path = tmp_path / "edge.csv"
    cli._write_csv(path, header, columns)
    assert path.read_bytes().decode() == _reference_csv(header, zip(*columns))


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "a\rb", "a\nb"], ids=["comma", "quote", "cr", "lf"])
def test_csv_writer_refuses_cells_that_would_need_quoting(tmp_path, cell):
    # csv.writer quotes ",", '"' and "\n"; it leaves a bare "\r" alone, but csv.reader ends a line there
    with pytest.raises(ValueError, match="quoting"):
        cli._write_csv(tmp_path / "bad.csv", ["text", "n"], [["plain", cell], [1, 2]])
    with pytest.raises(ValueError, match="quoting"):
        cli._write_csv(tmp_path / "bad.csv", [cell, "n"], [["plain"], [1]])


def test_csv_writer_rejects_ragged_columns_and_numpy_scalars(tmp_path):
    with pytest.raises(ValueError, match="do not match"):
        cli._write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError, match="do not match"):
        cli._write_csv(tmp_path / "bad.csv", ["a"], [[1], [3]])
    with pytest.raises(TypeError):  # repr would write "np.float64(0.5)"
        cli._write_csv(tmp_path / "bad.csv", ["a"], [list(np.array([0.5]))])


# Column kinds of every CSV the CLI writes: i int, f float, s text.
CSV_SCHEMAS = {
    "distribution.csv": "if",
    "lines_spin1.csv": "isfff",
    "spectrum_spin1.csv": "fff",
    "sweep.csv": "siiffffff",
    "distributions.csv": "iffff",
    "guess_strategy.csv": "iffff",
}
_KINDS = {"i": int, "f": float, "s": str}


def test_cli_csv_files_equal_their_csv_module_reserialization(tmp_path):
    assert main(["run", "--perm", "(0 1 2 3)", "--y", "1", "--grid=-60,60,40001", "--out", str(tmp_path)]) == 0
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    assert main(["guess-table", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(CSV_SCHEMAS)
    for name, kinds in CSV_SCHEMAS.items():
        text = (tmp_path / name).read_bytes().decode()
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        parsed = [[_KINDS[k](cell) for k, cell in zip(kinds, row, strict=True)] for row in rows]
        assert text == _reference_csv(header, parsed), name


def test_failed_guess_game_solve_is_not_cached(tmp_path, capsys, monkeypatch):
    argv = ["run", "--perm", "(0 1 2)", "--y", "0", "--out", str(tmp_path)]
    with monkeypatch.context() as patch:
        patch.setattr(measurement, "GUESS_PRIOR", (12, 21, 32, 44))
        assert main(argv) == 1
    assert main(argv) == 0
    assert capsys.readouterr().err == "error: guess-game certificate failed: strategy 60/109 != prior 61/109\n"


@pytest.fixture
def cold_sweep_caches():
    simulator._orderfinding_circuit.cache_clear()
    cli._sweep_table.cache_clear()
    yield
    simulator._orderfinding_circuit.cache_clear()
    cli._sweep_table.cache_clear()


def test_sweep_builds_each_circuit_once_per_process(tmp_path, monkeypatch, cold_sweep_caches):
    built = []
    build = simulator.build_orderfinding

    def counted(pi):
        built.append(pi)
        return build(pi)

    monkeypatch.setattr(simulator, "build_orderfinding", counted)
    assert main(["sweep", "--out", str(tmp_path / "a")]) == 0
    assert len(built) == 24 and len(set(built)) == 24
    built.clear()
    assert main(["sweep", "--out", str(tmp_path / "b")]) == 0
    assert built == []
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


def test_run_gets_the_circuit_the_sweep_used(tmp_path, monkeypatch, cold_sweep_caches):
    batches = []
    run_circuits = simulator.run_circuits

    def recorded(batch, amps):
        batches.append(list(batch))
        return run_circuits(batch, amps)

    monkeypatch.setattr(simulator, "run_circuits", recorded)
    assert main(["sweep", "--out", str(tmp_path / "sweep")]) == 0
    assert main(["run", "--perm", "(0 1 2)", "--y", "3", "--out", str(tmp_path / "run")]) == 0
    specs = cli._sweep_table()[0]
    row = specs.index(OracleSpec(parse_permutation("(0 1 2)"), 3))
    assert len(batches) == 2 and len(batches[1]) == 1
    assert batches[1][0] is batches[0][row]


def test_sweep_table_distributions_are_read_only(cold_sweep_caches):
    specs, labels, analytic = cli._sweep_table()
    assert len(specs) == len(labels) == 96 and analytic.shape == (96, 8)
    assert not analytic.flags.writeable
    with pytest.raises(ValueError):
        analytic[0, 0] = 0.5


def test_prep_verify_conjugates_each_sequence_once(tmp_path, monkeypatch):
    # verify_prep_set keeps each sequence's image, and the exact cross-check compares those
    calls = []
    apply_prep = prodops.apply_prep

    def counted(seq, terms):
        calls.append(seq)
        return apply_prep(seq, terms)

    monkeypatch.setattr(prodops, "apply_prep", counted)
    assert main(["prep-verify", "--out", str(tmp_path)]) == 0
    assert len(calls) == len(prodops.PREP_SET_5SPIN) == 9
    assert json.loads((tmp_path / "prep_report.json").read_text())["dense_conjugation_agrees"] is True


@pytest.mark.parametrize("module, name, broken, argv, message", [
    (classical, "ONE_QUERY_WITNESS", {**classical.ONE_QUERY_WITNESS, 1: (Fraction(1, 2), (1, 2, 3, 3))},
     ["classical"], "witness weights are not a distribution over exponents 1..12"),
    (classical, "HARDEST_PRIOR", {**classical.HARDEST_PRIOR, "(1 3)": Fraction(1, 3)},
     ["classical"], "hardest prior is not a distribution over the 24 permutations"),
    (measurement, "GUESS_STRATEGY", (*measurement.GUESS_STRATEGY[:3], (0, 0, 108, 0), *measurement.GUESS_STRATEGY[4:]),
     ["guess-table"], "guess strategy row m=3 is not a distribution over the orders"),
    (measurement, "GUESS_PRIOR", (11, 22, 32, 45), ["guess-table"],
     "hardest guess prior is not a distribution over the orders"),
], ids=["witness_weight", "hardest_prior_mass", "guess_strategy_row", "guess_prior"])
def test_tables_built_once_per_process_cache_no_verdict(tmp_path, capsys, monkeypatch, module, name, broken, argv,
                                                         message):
    # the per-process tables are warm after passing calls, and a stored literal broken afterwards still fails
    assert main(["classical", "--out", str(tmp_path / "a")]) == 0
    assert main(["guess-table", "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(module, name, broken)
        assert main(argv + ["--out", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert main(argv + ["--out", str(tmp_path / "c")]) == 0
