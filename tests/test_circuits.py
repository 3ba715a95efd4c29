import numpy as np
import pytest
from hypothesis import given, strategies as st

from orderfinding.circuits import (
    READOUT_SEQUENCES,
    build_orderfinding,
    build_qft3,
    dft_matrix,
    format_native_sequence,
    input_state,
    oracle_target_state,
    parse_native_sequence,
    parse_readout_listing,
    readout_sequence,
    run_orderfinding,
    verify_oracle_sequence,
)
from orderfinding.permutations import IDENTITY, OracleSpec, all_permutations, order_of, parse_permutation
from orderfinding.simulator import (
    Circuit,
    ConditionalZRotation,
    ControlledNot,
    Hadamard,
    basis_state,
    circuit_unitary,
    run_circuit,
)

PERMS = all_permutations()


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
    state = run_circuit(build_qft3(swap), basis_state(0))
    reg = state.amplitudes.reshape(8, 4)
    assert np.allclose(reg[:, 0], np.full(8, 1 / np.sqrt(8)), atol=1e-12)
    assert np.allclose(reg[:, 1:], 0, atol=1e-12)


def test_qft_uses_only_90_and_45_degree_rotations():
    for swap in (True, False):
        for op in build_qft3(swap).ops:
            if isinstance(op, ConditionalZRotation):
                assert op.angle_deg in (90.0, 45.0)


def test_orderfinding_identity_instance_returns_to_ground():
    state = run_orderfinding(OracleSpec(IDENTITY, 0))
    expected = np.zeros(32)
    expected[0] = 1.0
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def test_orderfinding_order_two_supported_on_0_and_4():
    from orderfinding.measurement import simulated_distribution

    dist = simulated_distribution(run_orderfinding(OracleSpec(parse_permutation("(0 1)(2 3)"), 0)))
    assert dist.probs[[0, 4]] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert np.max(np.abs(dist.probs[[1, 2, 3, 5, 6, 7]])) < 1e-12


def test_orderfinding_gate_count():
    circuit = build_orderfinding(OracleSpec(parse_permutation("(0 1 2 3)"), 1))
    assert len(circuit.ops) == 3 + 3 + 6  # Hadamards, oracle stages, QFT gates


def test_orderfinding_distribution_matches_order_for_all_instances():
    from orderfinding.measurement import analytic_distribution, simulated_distribution

    for pi in PERMS:
        for y in range(4):
            dist = simulated_distribution(run_orderfinding(OracleSpec(pi, y)))
            expected = analytic_distribution(order_of(pi, y))
            assert np.max(np.abs(dist.probs - expected.probs)) < 1e-10


def test_native_sequence_parse_and_format_round_trip():
    text = "C24 P34 P54' C35 N1"
    seq = parse_native_sequence(text)
    assert format_native_sequence(seq) == text
    assert seq[1] == ConditionalZRotation(3, 4, 90.0, dagger=False)
    assert seq[2] == ConditionalZRotation(5, 4, 90.0, dagger=True)


@pytest.mark.parametrize("bad", ["C3", "P5", "N34", "C35'", "X12", "C66", "c35"])
def test_native_sequence_bad_tokens(bad):
    with pytest.raises(ValueError):
        parse_native_sequence(bad)


def test_c35_flips_y0_conditioned_on_x0():
    u = circuit_unitary(Circuit(parse_native_sequence("C35")))
    for b in range(32):
        x0 = (b >> 2) & 1
        expected = b ^ x0  # flip the lowest bit when spin 3 is set
        col = np.zeros(32)
        col[expected] = 1.0
        assert np.allclose(u[:, b], col, atol=1e-12)


def test_p54_inverse_pair_is_identity():
    u = circuit_unitary(Circuit(parse_native_sequence("P54 P54'")))
    assert np.allclose(u, np.eye(32), atol=1e-12)


def test_readout_d_maps_basis_to_basis_up_to_phase_from_ground_register():
    u = circuit_unitary(Circuit(readout_sequence(4)))
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
    from orderfinding.simulator import NotGate, ZRotation

    seq = (ControlledNot(3, 5),)
    pi = parse_permutation("(0 1)(2 3)")
    assert verify_oracle_sequence(seq, pi, 0)
    # X Rz(t) X Rz(t) = e^{it} I on one spin: an exact global phase
    phase_block = (NotGate(4), ZRotation(4, 77.0), NotGate(4), ZRotation(4, 77.0))
    assert verify_oracle_sequence(seq + phase_block, pi, 0)


def test_verify_rejects_wrong_instance():
    assert not verify_oracle_sequence((ControlledNot(3, 5),), IDENTITY, 0)


def test_readout_b_verifies_for_order_two_instance():
    seq = readout_sequence(2)
    assert verify_oracle_sequence(seq, parse_permutation("(0 1)(2 3)"), 0)


def test_readout_b_fails_when_read_against_wrong_permutation():
    assert not verify_oracle_sequence(readout_sequence(2), parse_permutation("(2 3)"), 0)


def test_readout_d_verifies_for_a_four_cycle_by_exhaustive_search():
    seq = readout_sequence(4)
    hits = [(pi, y) for pi in PERMS for y in range(4) if verify_oracle_sequence(seq, pi, y)]
    assert hits, "no instance verified"
    assert any(order_of(pi, y) == 4 for pi, y in hits)
    # every verifying instance is an order-4 one
    assert all(order_of(pi, y) == 4 for pi, y in hits)


def test_readout_a_verifies_exactly_for_fixed_points_away_from_room_three():
    seq = readout_sequence(1)
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


def test_oracle_target_state_normalization():
    for pi in PERMS[:6]:
        for y in range(4):
            amps = oracle_target_state(pi, y)
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_input_state_places_y_in_second_register():
    state = input_state(OracleSpec(IDENTITY, 3))
    assert state.amplitudes[3] == 1.0
