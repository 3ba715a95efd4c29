import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderfinding.simulator import (
    DIM,
    Circuit,
    ConditionalZRotation,
    ControlledNot,
    ControlledTargetUnitary,
    DensityOperator,
    Hadamard,
    NotGate,
    QuantumState,
    ZRotation,
    apply_gate,
    apply_unitary,
    basis_state,
    circuit_unitary,
    expectation_Iz,
    gate_unitary,
    run_circuit,
)


def idx(bits: str) -> int:
    return int(bits, 2)


def test_hadamard_on_ground_state():
    out = apply_gate(basis_state(0), Hadamard(1))
    expected = np.zeros(DIM, dtype=complex)
    expected[idx("00000")] = expected[idx("10000")] = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_cnot_flips_target_when_control_set():
    out = apply_gate(basis_state(idx("11000")), ControlledNot(1, 2))
    assert np.allclose(out.amplitudes, basis_state(idx("10000")).amplitudes, atol=1e-12)


def test_conditional_z_phase_convention():
    out = apply_gate(basis_state(idx("00011")), ConditionalZRotation(4, 5, 90.0))
    assert np.allclose(out.amplitudes, 1j * basis_state(idx("00011")).amplitudes, atol=1e-12)
    out = apply_gate(basis_state(idx("00011")), ConditionalZRotation(4, 5, 90.0, dagger=True))
    assert np.allclose(out.amplitudes, -1j * basis_state(idx("00011")).amplitudes, atol=1e-12)


def test_empty_circuit_is_identity():
    assert np.allclose(circuit_unitary(Circuit()), np.eye(DIM), atol=1e-15)


def test_cnot_involution():
    c = Circuit((ControlledNot(1, 2), ControlledNot(1, 2)))
    assert np.allclose(circuit_unitary(c), np.eye(DIM), atol=1e-12)


def test_qft3_circuit_matches_dft_tensor_identity():
    # independent oracle: entries omega^{jk}/sqrt(8) assembled by double loop
    from orderfinding.circuits import build_qft3

    omega = np.exp(2j * np.pi / 8)
    dft = np.array([[omega ** (j * k) for k in range(8)] for j in range(8)]) / np.sqrt(8)
    expected = np.kron(dft, np.eye(4))
    assert np.max(np.abs(circuit_unitary(build_qft3(True)) - expected)) < 1e-12


def test_expectation_iz_ground_and_mixed():
    rho = basis_state(0).density()
    for spin in range(1, 6):
        assert expectation_Iz(rho, spin) == pytest.approx(1.0, abs=1e-12)
        assert expectation_Iz(DensityOperator(np.eye(DIM, dtype=complex) / DIM), spin) == pytest.approx(0.0, abs=1e-12)


def test_expectation_iz_order_two_final_state():
    # O_i anchor for an order-2 instance started at y=0: 1, 1, 0, 1, 0
    from orderfinding.circuits import run_orderfinding
    from orderfinding.permutations import OracleSpec, parse_permutation

    rho = run_orderfinding(OracleSpec(parse_permutation("(0 1)(2 3)"), 0)).density()
    observed = [expectation_Iz(rho, i) for i in range(1, 6)]
    assert observed == pytest.approx([1.0, 1.0, 0.0, 1.0, 0.0], abs=1e-9)


def _random_unitary_4(seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    m = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def gate_strategy(draw):
    kind = draw(st.sampled_from(["h", "x", "z", "cz", "cx", "ctu"]))
    spins = list(range(1, 6))
    if kind in ("h", "x", "z"):
        q = draw(st.sampled_from(spins))
        if kind == "h":
            return Hadamard(q)
        if kind == "x":
            return NotGate(q)
        return ZRotation(q, draw(st.floats(-360, 360, allow_nan=False)))
    pair = draw(st.permutations(spins))
    if kind == "cz":
        return ConditionalZRotation(pair[0], pair[1], draw(st.sampled_from([45.0, 90.0, 180.0, 30.0])),
                                    draw(st.booleans()))
    if kind == "cx":
        return ControlledNot(pair[0], pair[1])
    return ControlledTargetUnitary(pair[0], (pair[1], pair[2]), _random_unitary_4(draw(st.integers(0, 2**16))))


@st.composite
def state_strategy(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=DIM) + 1j * gen.normal(size=DIM)
    return QuantumState(amps / np.linalg.norm(amps))


@given(state_strategy(), gate_strategy())
def test_norm_preserved_by_every_gate(state, op):
    out = apply_gate(state, op)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


@given(st.lists(gate_strategy(), max_size=100))
def test_circuit_unitary_is_unitary(ops):
    u = circuit_unitary(Circuit(tuple(ops)))
    assert np.max(np.abs(u.conj().T @ u - np.eye(DIM))) < 1e-10


@given(state_strategy(), st.lists(gate_strategy(), max_size=12))
def test_gate_sequencing_matches_unitary_product(state, ops):
    c = Circuit(tuple(ops))
    stepped = run_circuit(c, state)
    assert np.max(np.abs(stepped.amplitudes - circuit_unitary(c) @ state.amplitudes)) < 1e-10


@given(state_strategy(), st.lists(gate_strategy(), max_size=8))
def test_density_conjugation_preserves_hermiticity_and_trace(state, ops):
    rho = state.density()
    u = circuit_unitary(Circuit(tuple(ops)))
    evolved = DensityOperator(u @ rho.matrix @ u.conj().T, kind=rho.kind)  # validates hermiticity and unit trace
    assert evolved.kind == "normalized"


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
    if isinstance(op, ZRotation):
        return _kron_on({op.spin: np.diag([1.0, np.exp(1j * np.deg2rad(op.angle_deg))])})
    if isinstance(op, ConditionalZRotation):
        phase = np.exp((-1j if op.dagger else 1j) * np.deg2rad(op.angle_deg))
        return np.eye(DIM) + (phase - 1.0) * _kron_on({op.control: _KET1, op.target: _KET1})
    if isinstance(op, ControlledNot):
        return _kron_on({op.control: _KET0}) + _kron_on({op.control: _KET1, op.target: _X2})
    (t1, t2), e = op.targets, np.eye(2)  # ControlledTargetUnitary: sum of m[r, c] |r><c| on (t1, t2)
    u = _kron_on({op.control: _KET0})
    for r in range(4):
        for c in range(4):
            on_targets = {t1: np.outer(e[r >> 1], e[c >> 1]), t2: np.outer(e[r & 1], e[c & 1])}
            u = u + op.matrix[r, c] * _kron_on({op.control: _KET1, **on_targets})
    return u


def _assert_matches_reference(op) -> None:
    expected = reference_unitary(op)
    assert np.max(np.abs(gate_unitary(op) - expected)) < 1e-12, op
    for b in range(DIM):
        col = apply_gate(basis_state(b), op).amplitudes
        assert np.max(np.abs(col - expected[:, b])) < 1e-12, op


def test_gate_unitary_matches_apply_gate_on_basis_states():
    # both share the simulator's kernel, so each is checked against the kron reference
    ops = [
        Hadamard(3),
        NotGate(5),
        ZRotation(2, 33.0),
        ConditionalZRotation(2, 4, 45.0),
        ConditionalZRotation(5, 1, 90.0, dagger=True),
        ControlledNot(4, 2),
        ControlledTargetUnitary(1, (4, 5), _random_unitary_4(7)),
        ControlledTargetUnitary(3, (5, 2), _random_unitary_4(8)),
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


def test_invalid_spin_indices_rejected():
    with pytest.raises(ValueError):
        apply_gate(basis_state(0), Hadamard(6))
    with pytest.raises(ValueError):
        apply_gate(basis_state(0), ControlledNot(2, 2))
    with pytest.raises(ValueError):
        Circuit((Hadamard(0),))
    # equal to Hadamard(1) as a value, so a memoized lowering must never see them
    for spin in (1.0, True):
        with pytest.raises(ValueError):
            Circuit((Hadamard(spin),))


def test_non_unitary_block_rejected():
    with pytest.raises(ValueError):
        ControlledTargetUnitary(1, (4, 5), np.ones((4, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_non_finite_block_rejected_before_the_unitarity_product(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite entry"):
            ControlledTargetUnitary(1, (4, 5), m)


def test_quantum_state_norm_validated():
    with pytest.raises(ValueError):
        QuantumState(np.ones(DIM))


def test_density_operator_validation():
    m = np.eye(DIM, dtype=complex)
    m[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(m)
    with pytest.raises(ValueError):
        DensityOperator(np.eye(DIM, dtype=complex), kind="normalized")  # trace 32
    DensityOperator(np.eye(DIM, dtype=complex) / DIM, kind="normalized")
    with pytest.raises(ValueError):
        DensityOperator(np.eye(DIM, dtype=complex) / DIM, kind="deviation")


# The unitarity and Hermiticity checks are written as one numpy predicate,
# |a - b| <= atol + 1e-5 |b|; np.allclose stays here as the reference.  They
# must agree on finite input, and reject every NaN or infinite entry (even
# where np.allclose passes an inf that equals itself).
NON_FINITE = [None, np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)]


def _accepts(make) -> bool:
    try:
        make()
    except ValueError:
        return False
    return True


def _perturbed(base: np.ndarray, seed: int, log_eps: float, bad, offdiagonal_only: bool) -> np.ndarray:
    gen = np.random.default_rng(seed)
    e = gen.normal(size=base.shape) + 1j * gen.normal(size=base.shape)
    if offdiagonal_only:
        np.fill_diagonal(e, 0)  # keeps the trace, so only the Hermiticity check decides
    m = base + 10.0**log_eps * e
    if bad is not None:
        m[divmod(int(gen.integers(m.size)), m.shape[1])] = bad
    return m


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.floats(-13, -11), st.sampled_from(NON_FINITE))
def test_unitarity_check_accepts_exactly_when_allclose_does(seed, log_eps, bad):
    m = _perturbed(_random_unitary_4(seed), seed, log_eps, bad, offdiagonal_only=False)
    expected = bool(np.isfinite(m).all()) and np.allclose(m.conj().T @ m, np.eye(4), atol=1e-12)
    assert _accepts(lambda: ControlledTargetUnitary(1, (4, 5), m)) == expected


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.floats(-10, -8), st.sampled_from(NON_FINITE),
       st.sampled_from([0.0, 1e-5, 1.0 / DIM]), st.sampled_from(["normalized", "deviation"]))
def test_hermiticity_check_accepts_exactly_when_allclose_does(seed, log_eps, bad, scale, kind):
    gen = np.random.default_rng(seed + 1)
    h = gen.normal(size=(DIM, DIM)) + 1j * gen.normal(size=(DIM, DIM))
    h = scale * (h + h.conj().T)
    np.fill_diagonal(h, gen.dirichlet(np.ones(DIM)) - (1.0 / DIM if kind == "deviation" else 0.0))
    m = _perturbed(h, seed, log_eps, bad, offdiagonal_only=True)
    expected = bool(np.isfinite(m).all()) and np.allclose(m, m.conj().T, atol=1e-9)
    assert _accepts(lambda: DensityOperator(m, kind=kind)) == expected


def test_hermiticity_check_rejects_infinities_that_allclose_passes():
    m = np.zeros((DIM, DIM), dtype=complex)
    m[0, 0], m[1, 1] = np.inf, -np.inf  # trace NaN
    assert np.allclose(m, m.conj().T, atol=1e-9)
    with pytest.raises(ValueError):
        DensityOperator(m, kind="deviation")
