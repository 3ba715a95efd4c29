import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dense_reference import unitary
from orderfinding import simulator
from orderfinding.gates import DIM, ConditionalZRotation, ControlledNot, ControlledPermutation, Hadamard, NotGate
from orderfinding.simulator import (
    apply_unitary,
    expectation_Iz,
    run_circuits,
    run_instances,
)


BASIS = np.eye(DIM, dtype=complex)  # row b is the basis state |b>


def idx(bits: str) -> int:
    return int(bits, 2)


def run_gate(amps: np.ndarray, op) -> np.ndarray:
    """One gate on one state: the runner on a one-row batch of a one-op circuit."""
    return run_circuits([(op,)], amps[None])[0]


def test_hadamard_on_ground_state():
    out = run_gate(BASIS[0], Hadamard(1))
    expected = np.zeros(DIM, dtype=complex)
    expected[idx("00000")] = expected[idx("10000")] = 1 / np.sqrt(2)
    assert np.allclose(out, expected, atol=1e-12)


def test_cnot_flips_target_when_control_set():
    out = run_gate(BASIS[idx("11000")], ControlledNot(1, 2))
    assert np.allclose(out, BASIS[idx("10000")], atol=1e-12)


def test_conditional_z_phase_convention():
    out = run_gate(BASIS[idx("00011")], ConditionalZRotation(4, 5, 90.0))
    assert np.allclose(out, 1j * BASIS[idx("00011")], atol=1e-12)
    out = run_gate(BASIS[idx("00011")], ConditionalZRotation(4, 5, 90.0, dagger=True))
    assert np.allclose(out, -1j * BASIS[idx("00011")], atol=1e-12)


def test_empty_circuit_is_identity():
    assert np.allclose(unitary(()), np.eye(DIM), atol=1e-15)


def test_cnot_involution():
    c = (ControlledNot(1, 2), ControlledNot(1, 2))
    assert np.allclose(unitary(c), np.eye(DIM), atol=1e-12)


def test_qft3_circuit_matches_dft_tensor_identity():
    # independent oracle: entries omega^{jk}/sqrt(8) assembled by double loop
    from orderfinding.circuits import build_qft3

    omega = np.exp(2j * np.pi / 8)
    dft = np.array([[omega ** (j * k) for k in range(8)] for j in range(8)]) / np.sqrt(8)
    expected = np.kron(dft, np.eye(4))
    assert np.max(np.abs(unitary(build_qft3(True)) - expected)) < 1e-12


def test_expectation_iz_ground_and_mixed():
    ground = BASIS[0] * BASIS[0].conj()
    mixed = np.full(DIM, 1 / DIM)  # the diagonal of the maximally mixed state
    assert expectation_Iz(ground).tolist() == pytest.approx([1.0] * 5, abs=1e-12)
    assert expectation_Iz(mixed).tolist() == pytest.approx([0.0] * 5, abs=1e-12)
    batch = expectation_Iz(np.array([ground, mixed]))
    assert batch.shape == (2, 5)
    assert batch.tolist() == [expectation_Iz(ground).tolist(), expectation_Iz(mixed).tolist()]


def test_expectation_iz_order_two_final_state():
    # O_i anchor for an order-2 instance started at y=0: 1, 1, 0, 1, 0
    from orderfinding.permutations import OracleSpec, parse_permutation

    amps = run_instances([OracleSpec(parse_permutation("(0 1)(2 3)"), 0)])
    observed = expectation_Iz(amps * amps.conj())[0].tolist()
    assert observed == pytest.approx([1.0, 1.0, 0.0, 1.0, 0.0], abs=1e-9)


@st.composite
def gate_strategy(draw):
    kind = draw(st.sampled_from(["h", "x", "z", "cz", "cx", "cp"]))
    spins = list(range(1, 6))
    if kind in ("h", "x"):
        q = draw(st.sampled_from(spins))
        return Hadamard(q) if kind == "h" else NotGate(q)
    pair = draw(st.permutations(spins))
    if kind == "z":
        return ConditionalZRotation(pair[0], pair[1], draw(st.floats(-360, 360, allow_nan=False)),
                                    draw(st.booleans()))
    if kind == "cz":
        return ConditionalZRotation(pair[0], pair[1], draw(st.sampled_from([45.0, 90.0, 180.0, 30.0])),
                                    draw(st.booleans()))
    if kind == "cx":
        return ControlledNot(pair[0], pair[1])
    return ControlledPermutation(pair[0], (pair[1], pair[2]), tuple(draw(st.permutations(range(4)))))


@st.composite
def state_strategy(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=DIM) + 1j * gen.normal(size=DIM)
    return amps / np.linalg.norm(amps)


@given(state_strategy(), gate_strategy())
def test_norm_preserved_by_every_gate(state, op):
    out = run_gate(state, op)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@given(st.lists(gate_strategy(), max_size=100))
def test_random_circuits_are_unitary(ops):
    u = unitary(tuple(ops))
    assert np.max(np.abs(u.conj().T @ u - np.eye(DIM))) < 1e-10


@given(state_strategy(), st.lists(gate_strategy(), max_size=12))
def test_gate_sequencing_matches_unitary_product(state, ops):
    c = tuple(ops)
    (stepped,) = run_circuits([c], state[None])
    assert np.max(np.abs(stepped - unitary(c) @ state)) < 1e-10


@given(state_strategy(), st.lists(gate_strategy(), max_size=8))
def test_density_conjugation_preserves_hermiticity_and_trace(state, ops):
    rho = np.outer(state, state.conj())
    u = unitary(tuple(ops))
    evolved = u @ rho @ u.conj().T
    assert np.max(np.abs(evolved - evolved.conj().T)) < 1e-10
    assert abs(np.trace(evolved) - 1.0) < 1e-10


_KET0, _KET1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])  # |0><0|, |1><1|
_H2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
_X2 = np.array([[0, 1], [1, 0]])


def _kron_on(factors: dict) -> np.ndarray:
    """Kronecker product over spins 1..5 (spin 1 leftmost) of the given 2x2 factors, identity elsewhere."""
    u = np.eye(1)
    for q in range(1, 6):
        u = np.kron(u, factors.get(q, np.eye(2)))
    return u


def reference_unitary(op) -> np.ndarray:
    """32x32 embedding written per op type from projectors and blocks, independent of the simulator's kernel."""
    if isinstance(op, Hadamard):
        return _kron_on({op.spin: _H2})
    if isinstance(op, NotGate):
        return _kron_on({op.spin: _X2})
    if isinstance(op, ConditionalZRotation):
        phase = np.exp((-1j if op.dagger else 1j) * np.deg2rad(op.angle_deg))
        return np.eye(DIM) + (phase - 1.0) * _kron_on({op.control: _KET1, op.target: _KET1})
    if isinstance(op, ControlledNot):
        return _kron_on({op.control: _KET0}) + _kron_on({op.control: _KET1, op.target: _X2})
    (t1, t2), e = op.targets, np.eye(2)  # ControlledPermutation: sum of |images[c]><c| on (t1, t2)
    u = _kron_on({op.control: _KET0})
    for c, r in enumerate(op.images):
        on_targets = {t1: np.outer(e[r >> 1], e[c >> 1]), t2: np.outer(e[r & 1], e[c & 1])}
        u = u + _kron_on({op.control: _KET1, **on_targets})
    return u


def _assert_matches_reference(op) -> None:
    expected = reference_unitary(op)
    assert np.max(np.abs(unitary((op,)) - expected)) < 1e-12, op
    for b in range(DIM):
        col = run_gate(BASIS[b], op)
        assert np.max(np.abs(col - expected[:, b])) < 1e-12, op


def test_single_gate_matches_the_kron_reference_on_basis_states():
    # both share the simulator's kernel, so each is checked against the kron reference
    ops = [
        Hadamard(3),
        NotGate(5),
        ConditionalZRotation(3, 2, 33.0),
        ConditionalZRotation(2, 4, 45.0),
        ConditionalZRotation(5, 1, 90.0, dagger=True),
        ControlledNot(4, 2),
        ControlledPermutation(1, (4, 5), (1, 2, 3, 0)),
        ControlledPermutation(3, (5, 2), (2, 0, 3, 1)),
    ]
    for op in ops:
        _assert_matches_reference(op)


@given(gate_strategy())
def test_every_drawn_gate_matches_reference_embedding(op):
    _assert_matches_reference(op)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3))
def test_apply_unitary_batch_equals_row_by_row(seed, k, n_spins):
    gen = np.random.default_rng(seed)
    spins = tuple(int(q) for q in gen.permutation(np.arange(1, 6))[:n_spins])
    n = 2**n_spins
    u, _ = np.linalg.qr(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)))
    batch = gen.normal(size=(k, DIM)) + 1j * gen.normal(size=(k, DIM))
    rows = np.array([apply_unitary(row, spins, u) for row in batch])
    out = apply_unitary(batch, spins, u)
    assert out.shape == (k, DIM)
    assert np.max(np.abs(out - rows)) < 1e-12


@given(st.lists(st.tuples(state_strategy(), st.lists(gate_strategy(), min_size=4, max_size=4)),
                min_size=1, max_size=5))
def test_run_circuits_batch_is_byte_equal_to_one_row_runs(cases):
    # rows that share an op value share one kernel call; that must not change a row's bytes
    shared = cases[0][1][2]  # the third op of every even row
    circuits = [(*ops[:2], shared if i % 2 == 0 else ops[2], ops[3]) for i, (_, ops) in enumerate(cases)]
    amps = np.array([state for state, _ in cases])
    batch = run_circuits(circuits, amps)
    assert batch.shape == amps.shape
    for c, row, out in zip(circuits, amps, batch):
        assert out.tobytes() == run_circuits([c], row[None]).tobytes()
    assert np.array_equal(amps, [state for state, _ in cases])  # the input is not modified


@given(st.lists(st.lists(gate_strategy(), min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), state_strategy()), min_size=1, max_size=8))
def test_rows_sharing_a_circuit_object_are_byte_equal_to_one_row_runs(op_lists, rows):
    # the runner looks at each distinct circuit object once per step and maps its rows to it
    circuits = [tuple(ops) for ops in op_lists]
    batch_circuits = [circuits[i % len(circuits)] for i, _ in rows]
    amps = np.array([state for _, state in rows])
    batch = run_circuits(batch_circuits, amps)
    for c, row, out in zip(batch_circuits, amps, batch):
        assert out.tobytes() == run_circuits([c], row[None]).tobytes()


def test_run_circuits_rejects_circuits_of_unequal_length():
    amps = BASIS[:2]
    with pytest.raises(ValueError, match="unequal lengths"):
        run_circuits([(Hadamard(1),), (Hadamard(1), Hadamard(2))], amps)
    with pytest.raises(ValueError, match="unequal lengths"):
        run_circuits([(Hadamard(1),), ()], amps)


def test_run_circuits_rejects_a_row_count_or_width_that_does_not_match():
    with pytest.raises(ValueError, match="shape"):
        run_circuits([(), ()], BASIS[:1])
    with pytest.raises(ValueError, match="shape"):
        run_circuits([()], np.ones((1, 16)) / 4.0)


_H_CX = (Hadamard(1), ControlledNot(1, 4))


@pytest.mark.parametrize("bad, ops", [  # a gate on an infinite row makes NaNs with a RuntimeWarning
    (np.zeros(DIM), _H_CX), (2 * BASIS[5], _H_CX), (np.full(DIM, np.nan), _H_CX),
    (np.full(DIM, np.inf), ()), (np.full(DIM, -np.inf), ()),
], ids=["zero", "norm-two", "nan", "inf", "-inf"])
def test_run_circuits_names_the_row_that_is_not_a_unit_vector(bad, ops):
    amps = np.array([BASIS[0], BASIS[1], bad, BASIS[2]])
    circuits = [ops] * len(amps)
    with pytest.raises(ValueError, match=r"^row 2: state norm"):
        run_circuits(circuits, amps)


def _transposed_apply_unitary(amps: np.ndarray, spins: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """The kernel as an axis transpose: listed spins to the front, multiply, transpose back."""
    order = (*spins, 0, *(q for q in range(1, 6) if q not in spins))
    rows = np.asarray(amps, dtype=complex).reshape((-1,) + (2,) * 5)
    t = rows.transpose(order)
    out = (u @ t.reshape(2 ** len(spins), -1)).reshape(t.shape)
    return out.transpose(np.argsort(order)).reshape(np.shape(amps))


@given(st.integers(0, 2**32 - 1), st.sampled_from([(DIM,), (1, DIM), (32, DIM)]), st.integers(1, 3),
       st.booleans(), st.booleans())
def test_apply_unitary_is_byte_equal_to_the_transpose_formulation(seed, shape, n_spins, real_u, signed_zeros):
    gen = np.random.default_rng(seed)
    spins = tuple(int(q) for q in gen.permutation(np.arange(1, 6))[:n_spins])
    n = 2**n_spins
    u = gen.normal(size=(n, n)) + (0 if real_u else 1j * gen.normal(size=(n, n)))
    amps = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    if signed_zeros:  # the signs of zeros count in a byte comparison
        amps = np.where(gen.random(shape) < 0.5, -0.0, amps)
    out = apply_unitary(amps, spins, u)
    assert out.shape == shape
    assert out.tobytes() == _transposed_apply_unitary(amps, spins, u).tobytes()


@pytest.mark.parametrize("control, targets, images", [
    pytest.param(1, (4, 5), (0, 0, 1, 2), id="repeated_image"),
    pytest.param(1, (4, 5), (0, 1, 2, 4), id="image_out_of_range"),
    pytest.param(1, (4, 5), (0, 1, 2), id="three_images"),
    pytest.param(1, (4, 5), [1, 0, 3, 2], id="image_list"),
    pytest.param(1, (4, 5), (True, False, 2, 3), id="bool_images"),
    pytest.param(1, (4, 5), (1.0, 0.0, 3.0, 2.0), id="float_images"),
    pytest.param(1, (4, 5), (np.int64(1), 0, 3, 2), id="numpy_int_image"),
    pytest.param(1, (4,), (1, 0, 3, 2), id="one_target"),
    pytest.param(1, (3, 4, 5), (1, 0, 3, 2), id="three_targets"),
    pytest.param(4, (4, 5), (1, 0, 3, 2), id="control_is_a_target"),
    pytest.param(1, (4, 6), (1, 0, 3, 2), id="target_out_of_range"),
])
def test_controlled_permutation_rejects_bad_images_and_spins(control, targets, images):
    with pytest.raises(ValueError):
        ControlledPermutation(control, targets, images)


def _matrix_controlled_permutation(amps: np.ndarray, op: ControlledPermutation) -> np.ndarray:
    """The permutation as a 0/1 matrix m, |t> -> |images[t]>, applied by the kernel as diag(I, m)."""
    u = np.eye(8, dtype=complex)
    u[4:, 4:] = 0.0
    u[4 + np.array(op.images), range(4, 8)] = 1.0
    return apply_unitary(amps, (op.control, *op.targets), u)


@pytest.mark.parametrize("control, targets", [(1, (4, 5)), (2, (5, 4)), (3, (1, 2)), (5, (3, 1)), (4, (2, 5))])
def test_controlled_permutation_gather_is_byte_equal_to_the_matrix_kernel(control, targets):
    gen = np.random.default_rng(control)
    amps = gen.normal(size=(24, DIM)) + 1j * gen.normal(size=(24, DIM))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    ops = [ControlledPermutation(control, targets, images) for images in itertools.permutations(range(4))]
    expected = np.array([_matrix_controlled_permutation(row, op) for row, op in zip(amps, ops)])
    gathered = run_circuits([(op,) for op in ops], amps)  # one step of 24 distinct permutations
    assert gathered.tobytes() == expected.tobytes()
    for row, op, out in zip(amps, ops, expected):
        assert run_circuits([(op,)], row[None])[0].tobytes() == out.tobytes()
        assert unitary((op,)).tobytes() == _matrix_controlled_permutation(np.eye(DIM), op).T.tobytes()


def test_equal_controlled_permutations_compare_and_hash_equal():
    a = ControlledPermutation(1, (4, 5), (1, 0, 3, 2))
    b = ControlledPermutation(1, [4, 5], (1, 0, 3, 2))
    assert a == b and hash(a) == hash(b) and b.targets == (4, 5)
    assert a != ControlledPermutation(1, (5, 4), (1, 0, 3, 2))
    assert simulator._memo_operands(a) is simulator._memo_operands(b)  # one lowering for equal values


def test_invalid_spin_indices_rejected():
    with pytest.raises(ValueError):
        run_gate(BASIS[0], Hadamard(6))
    with pytest.raises(ValueError):
        run_gate(BASIS[0], ControlledNot(2, 2))
    with pytest.raises(ValueError):
        Hadamard(0)
    # equal to Hadamard(1) as a value, so a memoized lowering must never see them
    for spin in (1.0, True):
        with pytest.raises(ValueError):
            Hadamard(spin)


def test_numpy_integer_spins_are_accepted_like_ints():
    # the spin check reads numbers.Integral, so numpy's integers pass without the gates importing numpy
    op = Hadamard(np.int64(1))
    assert op == Hadamard(1) and hash(op) == hash(Hadamard(1))
    assert ControlledNot(np.int32(2), np.int64(3)) == ControlledNot(2, 3)
    assert unitary((op,)).tobytes() == unitary((Hadamard(1),)).tobytes()
    for spin in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="is not an integer in 1..5"):
            Hadamard(spin)


@pytest.mark.parametrize("circuit", [(object(),), (Hadamard(1), object())], ids=["alone", "after-a-gate"])
def test_a_circuit_holding_a_non_gate_is_rejected_when_run(circuit):
    # a circuit is a plain tuple, so the check is the lowering's, on the first use of each op
    with pytest.raises(TypeError, match="not a gate op"):
        run_circuits([circuit], BASIS[:1])
    with pytest.raises(TypeError, match="not a gate op"):
        unitary(circuit)


def test_quantum_state_norm_validated():
    # a state that is not a unit vector is refused by the runner, its one way in
    with pytest.raises(ValueError, match="state norm"):
        run_circuits([()], np.ones((1, DIM)))
