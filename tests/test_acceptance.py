"""End-to-end acceptance gates for the whole suite.

Each test prints one PASS/FAIL line.  The two-spin, two-experiment schedule
gate asserts the outcome a parity count proves: the scheduler must report
that no schedule exists.  The order-3 readout gate asserts the published
claim for listing c and fails: the listing as transcribed never flips
spin 4, so it cannot carry an order-3 orbit.  The paper reports that the
sequence worked, so the transcription is the likelier fault; the gate stays
red until the listing can be checked against the paper's figure.  The
exhaustive certificates are in tests/test_prodops.py and
tests/test_circuits.py; see the docstrings below.
"""
import re

import numpy as np

from dense_reference import net_area, observables_from_distribution, zsum_to_matrix
from orderfinding import circuits, classical, measurement, prodops
from orderfinding.permutations import ALL_PERMUTATIONS, OracleSpec, format_cycles, order_of, parse_permutation
from orderfinding.simulator import DensityOperator, circuit_unitary, expectation_Iz, run_instances
from orderfinding.spectra import readout_lines, synthetic_molecule

PERMS = ALL_PERMUTATIONS
PARAMS = synthetic_molecule()


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_exhaustive_distribution_sweep():
    worst = 0.0
    specs = [OracleSpec(pi, y) for pi in PERMS for y in range(4)]
    for spec, sim in zip(specs, measurement.outcome_probabilities(run_instances(specs))):
        ref = measurement.analytic_distribution(order_of(spec.pi, spec.y))
        worst = max(worst, float(np.max(np.abs(sim - ref))))
    _report("criterion 1 (96-case sweep vs analytic, 1e-10)", worst <= 1e-10, f"worst error {worst:.3e}")


def test_c2_observable_anchor_values():
    checks = []
    cases = {
        "()": (1.0, 1.0, 1.0, 1.0, 1.0),
        "(0 1)(2 3)": (1.0, 1.0, 0.0, 1.0, 0.0),
        "(0 1 2 3)": (1.0, 0.0, 0.0, 0.0, 0.0),
    }
    amps = run_instances([OracleSpec(parse_permutation(text), 0) for text in (*cases, "(0 1 2)")])
    *observed, sim3 = expectation_Iz(amps * amps.conj()).tolist()
    for row, expected in zip(observed, cases.values()):
        checks.append(max(abs(a - b) for a, b in zip(row, expected)) <= 1e-9)
    o123 = observables_from_distribution(measurement.analytic_distribution(3))
    checks.append(max(abs(a - b) for a, b in zip(o123, (0.0, 0.25, 0.3125))) <= 1e-9)
    checks.append(max(abs(a - b) for a, b in zip(sim3[:3], (0.0, 0.25, 0.3125))) <= 1e-9)
    _report("criterion 2 (O_i anchors r=1,2,3,4)", all(checks), f"{sum(checks)}/{len(checks)} anchor sets")


def test_c3_guess_strategy_value():
    sol = measurement.solve_guess_game()
    ok_value = 0.545 <= sol.value <= 0.560
    ok_equalized = all(s >= sol.value - 1e-6 for s in sol.per_order_success)
    _report(
        "criterion 3 (guess value in [0.545, 0.560], equalized)",
        ok_value and ok_equalized,
        f"value {sol.value:.9f} (exact {sol.exact_value!r})",
    )


def test_c4_preparation_verification():
    seqs = prodops.standard_prep_sequences()
    report = prodops.verify_prep_set(seqs)
    eq = prodops.equilibrium_zsum()
    dense_ok = all(prodops.apply_prep(s, eq) == prodops.apply_prep_dense(s, eq) for s in seqs)
    ok = (
        report.total_terms == 45
        and report.is_effective_pure
        and report.summed == (0,) + (1,) * 31  # no identity, all 31 non-identity strings with coefficient 1
        and dense_ok
    )
    _report(
        "criterion 4 (nine sequences -> 45 terms -> 31-term target, dense cross-check)",
        ok,
        f"terms={report.total_terms} pure={report.is_effective_pure} pairs={report.canceled_pairs}",
    )


def test_c5_scheduler_five_spins():
    seqs = prodops.schedule_prep(5, 9)
    report = prodops.verify_prep_set(seqs, 5)
    ok = len(seqs) <= 9 and report.is_effective_pure
    _report("criterion 5 (schedule_prep n=5 within 9 experiments)", ok,
            f"{len(seqs)} experiments, pure={report.is_effective_pure}")


def test_c5_scheduler_two_spins_two_experiments():
    """Two spins in two experiments: the scheduler must report the parity obstruction.

    Every preparation experiment contributes exactly n signed terms, so two
    two-spin experiments sum 4 coefficients of +/-1, and cancellation only
    removes them in pairs: the total weight stays even.  The target
    IZ + ZI + ZZ has odd weight 3, so no schedule exists, and the request
    must raise SearchExhausted naming that weight; a returned plan fails
    this gate.  The exhaustive certificate for every experiment count is
    tests/test_prodops.py::test_two_spin_schedules_are_impossible_for_any_experiment_count.
    """
    try:
        seqs = prodops.schedule_prep(2, 2)
    except prodops.SearchExhausted as err:
        ok, detail = re.search(r"\b3\b", str(err)) is not None, f"SearchExhausted: {err}"
    else:
        ok, detail = False, f"returned {len(seqs)} experiments for a target of odd weight 3"
    _report("criterion 5 (schedule_prep n=2 in 2 experiments ruled out by parity)", ok, detail)


def test_c6_classical_bounds(one_query_report):
    one = one_query_report
    two = classical.two_query_certainty()
    from fractions import Fraction

    ok = (
        one.value == Fraction(1, 2)
        and one.paper_witness_value == Fraction(1, 2)
        and one.prior_best_response == Fraction(1, 2)
        and two.achievable
        and two.cases_checked == 96
        and two.single_query_perfect == 0
    )
    _report(
        "criterion 6 (one-query value = 1/2 exact; two-query certainty; no perfect single query)",
        ok,
        f"value={one.value}, witness={one.paper_witness_value}, "
        f"perfect singles={two.single_query_perfect}/{two.single_query_strategies_checked}",
    )


def test_c7_qft_identities():
    omega = np.exp(2j * np.pi / 8)
    dft = np.array([[omega ** (j * k) for k in range(8)] for j in range(8)]) / np.sqrt(8)
    err_swap = float(np.max(np.abs(circuit_unitary(circuits.build_qft3(True)) - np.kron(dft, np.eye(4)))))
    rev = [int(format(b, "03b")[::-1], 2) for b in range(8)]
    perm = np.zeros((8, 8))
    for b in range(8):
        perm[b, rev[b]] = 1.0
    err_noswap = float(
        np.max(np.abs(circuit_unitary(circuits.build_qft3(False)) - np.kron(perm @ dft, np.eye(4))))
    )
    ok = err_swap <= 1e-12 and err_noswap <= 1e-12
    _report("criterion 7 (QFT = DFT_8 / bit-reversed DFT_8, 1e-12)", ok,
            f"swap {err_swap:.2e}, no-swap {err_noswap:.2e}")


def test_c8_spectral_signatures():
    from orderfinding.prodops import effective_pure_target

    checks = []
    pure = DensityOperator(zsum_to_matrix(effective_pure_target()), kind="deviation")
    lines = readout_lines(pure, 1, PARAMS)
    by_label = {l.label: l.amplitude for l in lines}
    checks.append(by_label["0000"].real > 0 and abs(by_label["0000"].imag) < 1e-9)
    checks.append(all(abs(a) < 1e-9 for lab, a in by_label.items() if lab != "0000"))

    amps = run_instances([OracleSpec(parse_permutation(text), 0) for text in ("(0 1)(2 3)", "(0 1 2 3)", "(0 1 2)")])
    rho2, rho4, rho3 = (DensityOperator(np.outer(a, a.conj())) for a in amps)
    lines2 = readout_lines(rho2, 1, PARAMS)
    positive = {l.label for l in lines2 if l.amplitude.real > 1e-9}
    checks.append(positive == {"0000", "0001", "0100", "0101"})
    checks.append(all(abs(l.amplitude) < 1e-9 for l in lines2 if l.label not in positive))

    lines4 = readout_lines(rho4, 1, PARAMS)
    checks.append(all(l.amplitude.real >= -1e-9 for l in lines4))
    checks.append(net_area(lines4) > 0)

    checks.append(abs(net_area(readout_lines(rho3, 1, PARAMS))) < 1e-9)

    _report("criterion 8 (spectral signatures: pure/r=2/r=4/r=3)", all(checks),
            f"{sum(checks)}/{len(checks)} signature checks")


def test_c9_oracle_sequences_b_and_d():
    b_seq = circuits.parse_readout_listing(circuits.READOUT_SEQUENCES[2])
    b_ok = circuits.verify_oracle_sequence(b_seq, parse_permutation("(0 1)(2 3)"), 0)
    d_seq = circuits.parse_readout_listing(circuits.READOUT_SEQUENCES[4])
    d_hits = [
        (pi, y)
        for pi in PERMS
        for y in range(4)
        if order_of(pi, y) == 4 and circuits.verify_oracle_sequence(d_seq, pi, y)
    ]
    ok = b_ok and len(d_hits) > 0
    _report("criterion 9 (sequence b and d verify)", ok,
            f"b={b_ok}, d hits={[(format_cycles(p), y) for p, y in d_hits]}")


def test_c9_oracle_sequence_c_order_three():
    """Faithful check of the published order-3 listing; unattainable.

    The listing contains no gate that flips spin 4, so starting from y = 2
    the second register never leaves {2, 3}, while an order-3 orbit visits
    three rooms.  No (permutation, y) instance verifies under either reading
    of the listing (exhaustive certificate in tests/test_circuits.py); this
    test records the originally stated target rather than weakening it.
    """
    c_seq = circuits.parse_readout_listing(circuits.READOUT_SEQUENCES[3])
    hits_y2 = [
        pi for pi in PERMS if order_of(pi, 2) == 3 and circuits.verify_oracle_sequence(c_seq, pi, 2)
    ]
    ok = bool(hits_y2) and any(
        not circuits.verify_oracle_sequence(c_seq, pi, y) for pi in hits_y2 for y in (0, 1, 3)
    )
    _report("criterion 9 (sequence c verifies at y=2 only)", ok,
            f"order-3 instances verifying at y=2: {len(hits_y2)}")
