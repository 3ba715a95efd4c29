import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import net_area, zsum_to_matrix
from orderfinding.permutations import ALL_PERMUTATIONS, OracleSpec, parse_permutation
from orderfinding.prodops import effective_pure_target, equilibrium_zsum
from orderfinding.gates import DIM, bit_of
from orderfinding.simulator import DensityOperator, expectation_Iz, run_instances
from orderfinding.spectra import (
    FrequencyGrid,
    MoleculeError,
    MoleculeParams,
    SpectralLine,
    line_frequency,
    load_molecule,
    other_spins,
    readout_lines,
    render_spectrum,
    synthetic_molecule,
)

PARAMS = synthetic_molecule()
PERMS = ALL_PERMUTATIONS
BASIS = np.eye(DIM, dtype=complex)  # row b is the basis state |b>


def pure_density(amps: np.ndarray) -> DensityOperator:
    """|a><a| for one amplitude row a, as `run` hands it to `readout_lines`."""
    return DensityOperator(np.outer(amps, amps.conj()))


def test_line_frequency_no_couplings():
    params = MoleculeParams(PARAMS.shifts, np.zeros((5, 5)), 1.0)
    for spin in range(1, 6):
        for config in range(16):
            label = format(config, "04b")
            assert line_frequency(spin, label, params) == params.shifts[spin - 1]


def _two_spin_params(j12: float) -> MoleculeParams:
    j = np.zeros((5, 5))
    j[0, 1] = j[1, 0] = j12
    return MoleculeParams((100.0, -50.0, 0.0, 0.0, 0.0), j, 1.0)


def test_line_frequency_two_spin_splitting():
    params = _two_spin_params(10.0)
    assert line_frequency(1, "0000", params) == pytest.approx(95.0)
    assert line_frequency(1, "1000", params) == pytest.approx(105.0)


def test_line_frequency_sign_flip_swaps_labels():
    up = _two_spin_params(10.0)
    down = _two_spin_params(-10.0)
    assert line_frequency(1, "0000", down) == line_frequency(1, "1000", up)
    assert line_frequency(1, "1000", down) == line_frequency(1, "0000", up)


def test_line_frequency_matches_hamiltonian_eigenvalue_differences():
    """Independent route: transition energies of the diagonal Hamiltonian.

    H/(2 pi) = sum_i shift_i Iz_i + sum_{i<j} J_ij Iz_i Iz_j with Iz = +1/2
    on |1> (the spectral axis convention); a spin's line for configuration c
    sits at E(spin up) - E(spin down).
    """

    def energy(b: int) -> float:
        mz = [0.5 if bit_of(b, q) else -0.5 for q in range(1, 6)]
        e = sum(PARAMS.shifts[q - 1] * mz[q - 1] for q in range(1, 6))
        for i in range(1, 6):
            for j in range(i + 1, 6):
                e += PARAMS.coupling(i, j) * mz[i - 1] * mz[j - 1]
        return e

    for spin in range(1, 6):
        others = other_spins(spin)
        for config in range(16):
            label = format(config, "04b")
            b0 = sum(((config >> (3 - k)) & 1) << (5 - q) for k, q in enumerate(others))
            b1 = b0 | (1 << (5 - spin))
            assert line_frequency(spin, label, PARAMS) == pytest.approx(energy(b1) - energy(b0), abs=1e-9)


def test_ground_state_single_positive_line():
    lines = readout_lines(pure_density(BASIS[0]), 1, PARAMS)
    by_label = {l.label: l.amplitude for l in lines}
    assert by_label["0000"].real == pytest.approx(0.5, abs=1e-12)
    assert by_label["0000"].imag == pytest.approx(0.0, abs=1e-12)
    assert all(amp == 0 for label, amp in by_label.items() if label != "0000")


def test_effective_pure_deviation_single_line():
    dev = DensityOperator(zsum_to_matrix(effective_pure_target()), kind="deviation")
    lines = readout_lines(dev, 1, PARAMS)
    by_label = {l.label: l.amplitude for l in lines}
    assert by_label["0000"].real == pytest.approx(16.0, abs=1e-9)
    assert all(abs(amp) < 1e-9 for label, amp in by_label.items() if label != "0000")


def test_equilibrium_sixteen_equal_lines():
    eq = DensityOperator(zsum_to_matrix(equilibrium_zsum()), kind="deviation")
    for spin in range(1, 6):
        amps = [l.amplitude for l in readout_lines(eq, spin, PARAMS)]
        assert np.allclose(amps, 1.0, atol=1e-12)


def test_maximally_mixed_all_lines_vanish():
    lines = readout_lines(DensityOperator(np.eye(DIM, dtype=complex) / DIM), 1, PARAMS)
    assert all(l.amplitude == 0 for l in lines)


def test_sixteen_labels_always_present():
    for spin in range(1, 6):
        lines = readout_lines(pure_density(BASIS[7]), spin, PARAMS)
        assert sorted(l.label for l in lines) == sorted(format(c, "04b") for c in range(16))


@st.composite
def density_pair(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        m = gen.normal(size=(DIM, DIM)) + 1j * gen.normal(size=(DIM, DIM))
        h = (m + m.conj().T) / 2
        h -= np.trace(h) / DIM * np.eye(DIM)
        out.append(DensityOperator(h, kind="deviation"))
    return out


@given(density_pair(), st.integers(1, 5))
@settings(max_examples=15)
def test_readout_linearity(pair, spin):
    rho1, rho2 = pair
    combined = DensityOperator(2 * rho1.matrix - 3 * rho2.matrix, kind="deviation")
    lines = readout_lines(combined, spin, PARAMS)
    l1 = readout_lines(rho1, spin, PARAMS)
    l2 = readout_lines(rho2, spin, PARAMS)
    for line, a, b in zip(lines, l1, l2):
        assert line.amplitude == pytest.approx(2 * a.amplitude - 3 * b.amplitude, abs=1e-9)


def test_net_area_proportional_to_observable_across_sweep():
    amps = run_instances([OracleSpec(pi, y) for pi in PERMS[::4] for y in range(4)])
    for row, observables in zip(amps, expectation_Iz(amps * amps.conj())):
        rho = pure_density(row)
        for spin in range(1, 6):
            area = net_area(readout_lines(rho, spin, PARAMS))
            assert area == pytest.approx(observables[spin - 1] / 2.0, abs=1e-10)


def test_order_two_line_signature():
    rho = pure_density(run_instances([OracleSpec(parse_permutation("(0 1)(2 3)"), 0)])[0])
    lines = readout_lines(rho, 1, PARAMS)
    positive = {l.label for l in lines if l.amplitude.real > 1e-9}
    assert positive == {"0000", "0001", "0100", "0101"}
    for line in lines:
        if line.label not in positive:
            assert abs(line.amplitude) < 1e-9


def test_order_four_lines_all_nonnegative_with_positive_sum():
    rho = pure_density(run_instances([OracleSpec(parse_permutation("(0 1 2 3)"), 0)])[0])
    lines = readout_lines(rho, 1, PARAMS)
    assert all(l.amplitude.real >= -1e-9 for l in lines)
    assert net_area(lines) > 0.1


def test_order_three_net_area_vanishes():
    specs = [OracleSpec(parse_permutation(text), y) for text, y in (("(0 1 2)", 0), ("(1 2 3)", 1), ("(0 2 3)", 2))]
    for row in run_instances(specs):
        assert abs(net_area(readout_lines(pure_density(row), 1, PARAMS))) < 1e-9


def test_unit_line_integral_and_peak():
    line = [SpectralLine(1, "0000", 0.0, 1.0 + 0j)]
    grid = FrequencyGrid(-500.0, 500.0, 200001)
    spectrum = render_spectrum(line, PARAMS, grid)
    integral = np.trapezoid(spectrum.trace.real, spectrum.frequencies_hz)
    assert integral == pytest.approx(1.0, abs=1e-3)
    assert spectrum.trace.real.max() == pytest.approx(2 / (np.pi * PARAMS.linewidth_hz), abs=1e-6)


def test_two_distant_lines_resolve_into_two_maxima():
    lines = [SpectralLine(1, "0000", -20.0, 1.0 + 0j), SpectralLine(1, "0001", 20.0, 1.0 + 0j)]
    spectrum = render_spectrum(lines, PARAMS, FrequencyGrid(-40.0, 40.0, 2001))
    trace = spectrum.trace.real
    peaks = [i for i in range(1, len(trace) - 1) if trace[i] > trace[i - 1] and trace[i] > trace[i + 1]]
    assert len(peaks) == 2


def test_synthetic_molecule_lines_all_resolved():
    for spin in range(1, 6):
        freqs = [line_frequency(spin, format(c, "04b"), PARAMS) for c in range(16)]
        assert len({round(f, 6) for f in freqs}) == 16


def test_molecule_config_round_trip(tmp_path):
    path = tmp_path / "mol.json"
    payload = {
        "shifts": list(PARAMS.shifts),
        "J": PARAMS.couplings.tolist(),
        "linewidth_hz": PARAMS.linewidth_hz,
        "reference_spin": 1,  # not a config key: ignored like any other
    }
    path.write_text(json.dumps(payload))
    loaded = load_molecule(path)
    assert loaded.shifts == PARAMS.shifts
    assert np.array_equal(loaded.couplings, PARAMS.couplings)
    assert loaded.linewidth_hz == PARAMS.linewidth_hz


def test_molecule_config_missing_key_named(tmp_path):
    path = tmp_path / "mol.json"
    path.write_text(json.dumps({"shifts": [0, 1, 2, 3, 4], "J": np.zeros((5, 5)).tolist()}))
    with pytest.raises(ValueError, match="linewidth_hz"):
        load_molecule(path)


def test_molecule_config_syntax_error_carries_position(tmp_path):
    path = tmp_path / "mol.json"
    path.write_text('{"shifts": [0, 1\n, "oops"]}')
    with pytest.raises(ValueError, match=r":\d+:\d+:"):
        load_molecule(path)


def test_molecule_validation():
    with pytest.raises(ValueError):
        MoleculeParams((0, 0, 0, 0, 0), np.ones((5, 5)), 1.0)  # nonzero diagonal
    j = np.zeros((5, 5))
    j[0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        MoleculeParams((0, 0, 0, 0, 0), j, 1.0)
    with pytest.raises(ValueError):
        MoleculeParams((0, 0, 0, 0, 0), np.zeros((5, 5)), 0.0)  # linewidth
    with pytest.raises(ValueError):
        MoleculeParams((0, 0, 0, 0, 0), np.zeros((5, 5)), float("inf"))  # non-finite linewidth
    with pytest.raises(ValueError):
        MoleculeParams((0, 0, 0, 0, 0), np.where(np.eye(5) > 0, 0.0, np.nan), 1.0)  # NaN couplings


@pytest.mark.parametrize("j12", [1e308, -1e308])
def test_molecule_whose_line_frequencies_overflow_names_the_shift(j12):
    j = np.zeros((5, 5))
    j[0, 1] = j[1, 0] = j12
    with pytest.raises(MoleculeError) as err:
        MoleculeParams((1.7e308, 0, 0, 0, 0), j, 1.0)
    assert err.value.where == ("shifts", 0)
    # spin 2's lines reach only 0.5e308 from its shift, and halving each coupling first keeps a
    # spin with two couplings of 1e308 in range: every line frequency of these is finite
    j[0, 2] = j[2, 0] = j12
    params = MoleculeParams((0, 1.2e308, 0, 0, 0), j, 1.0)
    assert all(math.isfinite(line_frequency(spin, format(config, "04b"), params))
               for spin in range(1, 6) for config in range(16))


_ZERO_J = "[[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]"


def _config_text(shifts="[0, 1, 2, 3, 4]", J=_ZERO_J, linewidth_hz="1"):
    """One key per line, so a value starts at column 13, 8 or 19 of lines 2-4; None drops the key."""
    members = [f'  "{key}": {value}' for key, value in
               (("shifts", shifts), ("J", J), ("linewidth_hz", linewidth_hz))
               if value is not None]
    return "{\n" + ",\n".join(members) + "\n}"


@pytest.mark.parametrize(
    ("text", "location", "names"),
    [
        ("5", "1:1", "JSON object"),
        ("[0, 1, 2, 3, 4]", "1:1", "JSON object"),
        (_config_text(J=None), "1:1", "'J'"),
        (_config_text(shifts="[0, NaN, 2, 3, 4]"), "2:17", "shifts[1]"),
        (_config_text(shifts="[0, 1, 2, 3, -Infinity]"), "2:26", "shifts[4]"),
        (_config_text(shifts="[0, 1, 2, 3, 1e400]"), "2:26", "shifts[4]"),
        (_config_text(shifts="[0, 1, 2, 3, 1" + "0" * 400 + "]"), "2:26", "shifts[4]"),
        (_config_text(shifts="[0, 1, 2, 3, 1" + "0" * 5000 + "]"), "2:26", "shifts[4]"),  # past int()'s digit limit
        (_config_text(shifts='[0, 1, "oops", 3, 4]'), "2:20", "shifts[2]"),
        (_config_text(shifts="5"), "2:13", "shifts"),
        (_config_text(shifts="[0, 1, 2, 3]"), "2:13", "shifts"),
        (_config_text(J=_ZERO_J.replace("0, 0]]", "0]]")), "3:77", "J[4]"),
        (_config_text(J="[[0, 0, 0, 0, 0]]"), "3:8", "J"),
        (_config_text(J=_ZERO_J.replace("[[0, 0", "[[0, NaN")), "3:13", "J[0][1]"),
        (_config_text(J=_ZERO_J.replace("[[0, 0", "[[0, 2")), "3:13", "J[0][1]"),
        (_config_text(linewidth_hz="null"), "4:19", "linewidth_hz"),
        (_config_text(linewidth_hz="[1]"), "4:19", "linewidth_hz"),
        (_config_text(linewidth_hz="true"), "4:19", "linewidth_hz"),
        (_config_text(linewidth_hz="0"), "4:19", "linewidth_hz"),
        ("[" * 200000 + "]" * 200000, "1:1", "nested too deeply"),  # past the decoder's recursion limit
        (_config_text(shifts="[" * 200000 + "]" * 200000), "1:1", "nested too deeply"),
    ],
    ids=[
        "not_object", "array_document", "missing_key", "nan_shift", "inf_shift", "overflow_shift",
        "int_overflow_shift", "int_digit_limit_shift", "string_shift", "shifts_not_list", "four_shifts",
        "ragged_J", "one_row_J", "nan_J", "asymmetric_J", "linewidth_null", "linewidth_list", "linewidth_bool",
        "linewidth_zero", "deeply_nested_document", "deeply_nested_shifts",
    ],
)
def test_molecule_config_errors_are_located(tmp_path, text, location, names):
    path = tmp_path / "mol.json"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_molecule(path)
    message = str(err.value)
    assert message.startswith(f"{path}:{location}: ")
    assert names in message
    assert "\n" not in message


def test_molecule_config_invalid_utf8_is_located(tmp_path):
    path = tmp_path / "mol.json"
    path.write_bytes(b'{"shifts":\n  [0, "\xff"]}')
    with pytest.raises(ValueError, match=r":2:8: not valid UTF-8$"):
        load_molecule(path)


def test_molecule_config_shipped_file_matches_synthetic_parameters():
    loaded = load_molecule(Path(__file__).resolve().parents[1] / "configs" / "molecule_synthetic.json")
    assert loaded.shifts == PARAMS.shifts
    assert np.array_equal(loaded.couplings, PARAMS.couplings)
    assert loaded.linewidth_hz == PARAMS.linewidth_hz


_CORRUPT_VALUE = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "null", "true", '"1"', "[]", "{}", "[0, 1]",
                     "-0.5", "1" + "0" * 400, "1" + "0" * 5000]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=4),
)


@st.composite
def molecule_text(draw):
    """The shipped config with one value corrupted, maybe a duplicated key, in a drawn layout."""
    shifts = [repr(v) for v in PARAMS.shifts]
    j = [[repr(float(v)) for v in row] for row in PARAMS.couplings]
    linewidth = [repr(PARAMS.linewidth_hz)]
    ws = draw(st.sampled_from(["", " ", "\n", "\n  ", "\t", "\r\n    "]))

    def array(items):
        return "[" + ("," + ws).join(items) + "]"

    def config_members():
        return [("shifts", array(shifts)), ("J", array(map(array, j))), ("linewidth_hz", linewidth[0])]

    valid = config_members()
    entries, k = draw(st.sampled_from([(shifts, k) for k in range(5)] + [(row, k) for row in j for k in range(5)]
                                      + [(linewidth, 0)]))
    entries[k] = draw(_CORRUPT_VALUE)
    members = config_members()
    if draw(st.booleans()):
        members.append(draw(st.sampled_from(valid)))  # json.loads keeps the last of duplicate keys
    members = draw(st.permutations(members))
    return "{" + ws + ("," + ws).join(f'"{key}":{ws}{value}' for key, value in members) + ws + "}"


@settings(max_examples=200)
@given(molecule_text())
def test_corrupted_molecule_config_loads_or_gives_a_located_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mol.json"
        path.write_text(text, encoding="utf-8")
        try:
            params = load_molecule(path)
        except ValueError as err:
            message = str(err)
            assert message.startswith(f"{path}:") and "\n" not in message
        else:
            assert isinstance(params, MoleculeParams)
