import csv
import json

import pytest

from orderfinding import circuits, classical, cli, exactlp, measurement
from orderfinding.cli import main


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
    # every module binding of run_orderfinding is counted, wherever a command reaches it from
    specs = []
    simulate = circuits.run_orderfinding

    def counted(spec):
        specs.append(spec)
        return simulate(spec)

    for module in (circuits, cli, measurement):
        if hasattr(module, "run_orderfinding"):
            monkeypatch.setattr(module, "run_orderfinding", counted)
    assert main(["sweep", "--out", str(tmp_path / "sweep")]) == 0
    assert len(specs) == 96
    assert len({(s.pi.images, s.y) for s in specs}) == 96
    specs.clear()
    assert main(["run", "--perm", "(0 1 2)", "--y", "0", "--out", str(tmp_path / "run")]) == 0
    assert len(specs) == 1


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


def test_run_bad_permutation_exits_2(tmp_path, capsys):
    assert main(["run", "--perm", "(0 9)", "--y", "0", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("module, argv", [
    (classical, ["classical"]),
    (exactlp, ["guess-table"]),
    (exactlp, ["run", "--perm", "(0 1 2)", "--y", "0"]),
], ids=["classical", "guess-table", "run"])
def test_certificate_failure_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch, module, argv):
    def failing_solver(A, b, c):
        raise exactlp.CertificateError("column 7 has a positive reduced cost")

    monkeypatch.setattr(module, "simplex_maximize", failing_solver)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: column 7 has a positive reduced cost\n"
