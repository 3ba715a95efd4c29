import contextlib
import io
import re

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from orderfinding.circuits import (
    READOUT_SEQUENCES,
    build_orderfinding,
    build_qft3,
    parse_native_sequence,
    parse_readout_listing,
    verify_oracle_sequence,
)
from orderfinding import cli
from orderfinding.permutations import ALL_PERMUTATIONS, IDENTITY, OracleSpec, format_cycles, order_of, parse_permutation, power
from orderfinding.gates import DIM, ConditionalZRotation, ControlledNot, ControlledPermutation, Hadamard, NotGate
from orderfinding.simulator import circuit_unitary, run_circuits, run_instances

PERMS = ALL_PERMUTATIONS
BASIS = np.eye(DIM, dtype=complex)  # row b is the basis state |b>


def _dft8() -> np.ndarray:
    omega = np.exp(2j * np.pi / 8)
    return np.array([[omega ** (j * k) for k in range(8)] for j in range(8)]) / np.sqrt(8)


def test_qft_with_swap_is_dft():
    expected = np.kron(_dft8(), np.eye(4))
    assert np.max(np.abs(circuit_unitary(build_qft3(True)) - expected)) < 1e-12


def test_qft_without_swap_is_bit_reversed_dft():
    rev = [int(format(b, "03b")[::-1], 2) for b in range(8)]
    perm = np.zeros((8, 8))
    for b in range(8):
        perm[b, rev[b]] = 1.0
    expected = np.kron(perm @ _dft8(), np.eye(4))
    assert np.max(np.abs(circuit_unitary(build_qft3(False)) - expected)) < 1e-12


@pytest.mark.parametrize("swap", [True, False])
def test_qft_of_zero_is_uniform(swap):
    (amps,) = run_circuits([build_qft3(swap)], BASIS[:1])
    reg = amps.reshape(8, 4)
    assert np.allclose(reg[:, 0], np.full(8, 1 / np.sqrt(8)), atol=1e-12)
    assert np.allclose(reg[:, 1:], 0, atol=1e-12)


def test_qft_uses_only_90_and_45_degree_rotations():
    for swap in (True, False):
        for op in build_qft3(swap):
            if isinstance(op, ConditionalZRotation):
                assert op.angle_deg in (90.0, 45.0)


def test_orderfinding_identity_instance_returns_to_ground():
    (state,) = run_instances([OracleSpec(IDENTITY, 0)])
    expected = np.zeros(32)
    expected[0] = 1.0
    assert np.max(np.abs(state - expected)) < 1e-12


def test_orderfinding_order_two_supported_on_0_and_4():
    from orderfinding.measurement import outcome_probabilities

    (probs,) = outcome_probabilities(run_instances([OracleSpec(parse_permutation("(0 1)(2 3)"), 0)]))
    assert probs[[0, 4]] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert np.max(np.abs(probs[[1, 2, 3, 5, 6, 7]])) < 1e-12


def test_orderfinding_gate_count():
    circuit = build_orderfinding(parse_permutation("(0 1 2 3)"))
    assert len(circuit) == 3 + 3 + 6  # Hadamards, oracle stages, QFT gates


def test_orderfinding_distribution_matches_order_for_all_instances():
    from orderfinding.measurement import analytic_distribution, outcome_probabilities

    specs = [OracleSpec(pi, y) for pi in PERMS for y in range(4)]
    for spec, probs in zip(specs, outcome_probabilities(run_instances(specs))):
        expected = analytic_distribution(order_of(spec.pi, spec.y))
        assert np.max(np.abs(probs - expected)) < 1e-10


def test_native_sequence_parse():
    seq = parse_native_sequence("C24 P34 P54' C35 N1")
    assert seq[1] == ConditionalZRotation(3, 4, 90.0, dagger=False)
    assert seq[2] == ConditionalZRotation(5, 4, 90.0, dagger=True)


@pytest.mark.parametrize("bad", ["C3", "P5", "N34", "N3'", "C35'", "X12", "C66", "c35"])
def test_native_sequence_bad_tokens(bad):
    with pytest.raises(ValueError, match=f"^bad sequence token {re.escape(repr(bad))}$"):
        parse_native_sequence(f"C35 {bad} N1")


@pytest.mark.parametrize("bad", ["C11", "P22", "P33'"])
def test_a_token_naming_one_spin_twice_is_named_in_the_error(bad):
    with pytest.raises(ValueError, match=f"^bad sequence token {re.escape(repr(bad))}: spin indices must be distinct"):
        parse_native_sequence(f"C35 {bad} N1")


def test_c35_flips_y0_conditioned_on_x0():
    u = circuit_unitary(parse_native_sequence("C35"))
    for b in range(32):
        x0 = (b >> 2) & 1
        expected = b ^ x0  # flip the lowest bit when spin 3 is set
        col = np.zeros(32)
        col[expected] = 1.0
        assert np.allclose(u[:, b], col, atol=1e-12)


def test_p54_inverse_pair_is_identity():
    u = circuit_unitary(parse_native_sequence("P54 P54'"))
    assert np.allclose(u, np.eye(32), atol=1e-12)


def test_readout_d_maps_basis_to_basis_up_to_phase_from_ground_register():
    u = circuit_unitary(parse_readout_listing(READOUT_SEQUENCES[4]))
    assert np.max(np.abs(u.conj().T @ u - np.eye(32))) < 1e-12
    for x in range(8):
        col = u[:, 4 * x + 0]  # second register |00>
        nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
        assert len(nonzero) == 1
        assert abs(abs(col[nonzero[0]]) - 1.0) < 1e-12


def test_verify_empty_sequence_identity():
    for y in range(4):
        assert verify_oracle_sequence((), IDENTITY, y)


def test_verify_is_global_phase_invariant():
    seq = (ControlledNot(3, 5),)
    pi = parse_permutation("(0 1)(2 3)")
    assert verify_oracle_sequence(seq, pi, 0)
    # P45 N4 P45 N4 puts i^{b5} on every basis state; conjugated by N5 it puts i^{1 - b5}
    phase_block = parse_native_sequence("P45 N4 P45 N4 N5 P45 N4 P45 N4 N5")
    assert np.allclose(circuit_unitary(phase_block), 1j * np.eye(32), atol=1e-12)
    assert verify_oracle_sequence(seq + phase_block, pi, 0)


def test_verify_rejects_wrong_instance():
    assert not verify_oracle_sequence((ControlledNot(3, 5),), IDENTITY, 0)


def test_readout_b_verifies_for_order_two_instance():
    seq = parse_readout_listing(READOUT_SEQUENCES[2])
    assert verify_oracle_sequence(seq, parse_permutation("(0 1)(2 3)"), 0)


def test_readout_b_fails_when_read_against_wrong_permutation():
    assert not verify_oracle_sequence(parse_readout_listing(READOUT_SEQUENCES[2]), parse_permutation("(2 3)"), 0)


def test_readout_d_verifies_for_a_four_cycle_by_exhaustive_search():
    seq = parse_readout_listing(READOUT_SEQUENCES[4])
    hits = [(pi, y) for pi in PERMS for y in range(4) if verify_oracle_sequence(seq, pi, y)]
    assert hits, "no instance verified"
    assert any(order_of(pi, y) == 4 for pi, y in hits)
    # every verifying instance is an order-4 one
    assert all(order_of(pi, y) == 4 for pi, y in hits)


def test_readout_a_verifies_exactly_for_fixed_points_away_from_room_three():
    seq = parse_readout_listing(READOUT_SEQUENCES[1])
    hits = {(pi.images, y) for pi in PERMS for y in range(4) if verify_oracle_sequence(seq, pi, y)}
    expected = {(pi.images, y) for pi in PERMS for y in range(3) if pi(y) == y}
    assert hits == expected


def test_readout_c_listing_cannot_implement_any_order_three_instance():
    """Certificate for a defect in the published order-3 listing.

    None of its gates ever flips spin 4, so starting from y the register
    stays within a two-value set, while an order-3 orbit visits three rooms.
    Exhaustive search confirms: no (permutation, y) instance verifies under
    either reading of the listing.
    """
    listed = parse_native_sequence(READOUT_SEQUENCES[3])
    assert not any(isinstance(op, ControlledNot) and op.target == 4 for op in listed)
    for seq in (listed, tuple(reversed(listed))):
        hits = [(pi, y) for pi in PERMS for y in range(4) if verify_oracle_sequence(seq, pi, y)]
        assert all(order_of(pi, y) != 3 for pi, y in hits)
        assert hits == []


def test_input_state_places_y_in_second_register():
    # the identity instance returns spins 1-3 to |000>, so the final state is the input |000>|y>
    (state,) = run_instances([OracleSpec(IDENTITY, 3)])
    assert np.max(np.abs(state - BASIS[3])) < 1e-12


def _dense_verdict(seq, pi, y) -> bool:
    """Float reference for verify_oracle_sequence: simulate the sequence on (H H H |000>) (x) |y>
    and compare with (1/sqrt(8)) sum_x |x>|pi^x(y)> up to one global phase, entry-wise within 1e-9."""
    (state,) = run_circuits([(Hadamard(1), Hadamard(2), Hadamard(3)) + tuple(seq)],
                            BASIS[y][None])
    target = np.zeros(32, dtype=complex)
    for x in range(8):
        target[4 * x + power(pi, x)(y)] = 1 / np.sqrt(8.0)
    phase = state[y] / target[y]  # target[y] is the x = 0 branch
    return abs(abs(phase) - 1.0) <= 1e-9 and np.max(np.abs(state - phase * target)) <= 1e-9


@pytest.mark.parametrize("listing, verified", [
    # y = 3 sets spins 4 and 5, so P45 turns every branch by +1; the four P14' turn the x2 = 1 branches
    # back by 4, to -3: the branches agree mod 4 (one global phase) but not mod 5
    ("P45 P14' P14' P14' P14'", True),
    # five P14 turn only the x2 = 1 branches, by 5: the branches agree mod 5 but not mod 4
    ("P14 P14 P14 P14 P14", False),
])
def test_quarter_turns_are_counted_mod_four(listing, verified):
    seq = parse_native_sequence(listing)
    assert verify_oracle_sequence(seq, IDENTITY, 3) is verified
    assert _dense_verdict(seq, IDENTITY, 3) == verified


def test_exact_verdicts_match_the_dense_reference_for_every_listing_instance_and_order():
    verdicts = 0
    for text in READOUT_SEQUENCES.values():
        for parse in (parse_native_sequence, parse_readout_listing):
            seq = parse(text)
            for pi in PERMS:
                for y in range(4):
                    exact = verify_oracle_sequence(seq, pi, y)
                    assert exact == _dense_verdict(seq, pi, y), (text, parse.__name__, format_cycles(pi), y)
                    verdicts += exact
    assert verdicts == 55


NATIVE_TOKENS = [f"N{i}" for i in range(1, 6)] + [
    f"{kind}{i}{j}{dagger}" for kind, dagger in (("C", ""), ("P", ""), ("P", "'"))
    for i in range(1, 6) for j in range(1, 6) if i != j]


@given(st.lists(st.sampled_from(NATIVE_TOKENS), max_size=12), st.sampled_from(PERMS), st.integers(0, 3))
# swapping spins 1 and 3 sends branch |x> to |reversed x> but leaves the uniform superposition
# unchanged, so it passes: the decision compares the set of branch images, as the state does
@example(["C13", "C31", "C13"], IDENTITY, 2)
def test_exact_verdict_matches_the_dense_reference_on_random_sequences(tokens, pi, y):
    seq = parse_native_sequence(" ".join(tokens))
    assert verify_oracle_sequence(seq, pi, y) == _dense_verdict(seq, pi, y)


@pytest.mark.parametrize("op", [Hadamard(1), ConditionalZRotation(4, 5, 45.0),
                                ControlledPermutation(1, (4, 5), (1, 0, 3, 2))])
def test_verify_rejects_ops_that_are_not_native(op):
    with pytest.raises(ValueError, match="not a native op"):
        verify_oracle_sequence((NotGate(1), op), IDENTITY, 0)


SEQUENCE_TEXT = st.one_of(st.text(), st.text(alphabet="CPN0123456' \t-"))


@settings(max_examples=200)
@given(SEQUENCE_TEXT)
def test_parsed_text_is_native_or_a_value_error(text):
    for parse in (parse_native_sequence, parse_readout_listing):
        try:
            seq = parse(text)
        except ValueError:
            continue
        assert verify_oracle_sequence(seq, IDENTITY, 0) in (True, False)


@settings(max_examples=100)
@given(SEQUENCE_TEXT, st.one_of(st.text(), st.sampled_from(["()", "(0 1)(2 3)", "1,0,3,2"])),
       st.sampled_from(["0", "3", "4", "x"]), st.sampled_from(["listed", "reversed"]))
def test_verify_sequence_exits_0_1_or_2_without_a_traceback(seq, perm, y, order):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["verify-sequence", "--seq", seq, "--perm", perm, "--y", y, "--time-order", order])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
