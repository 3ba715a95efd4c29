"""Dense state-vector and density-operator simulation of the five-spin register.

Basis convention, used everywhere in this package: a basis state is labeled
b1 b2 b3 b4 b5 with spin 1 the most significant bit, i.e. |b1..b5> lives at
index 16*b1 + 8*b2 + 4*b3 + 2*b4 + b5.  Gate angles are in degrees.  A
conditional z-rotation puts the phase on the |11> component of the
control/target pair, so it is symmetric in control and target.

Every gate type is lowered once, by `_lowered`, to (controls, targets, m):
the small unitary m acts on the target spins when every control spin is |1>.
That table is the only place gate types are told apart.  One kernel,
`apply_unitary`, applies a small unitary to chosen spins of every row of an
amplitude array; a controlled op goes through it as diag(I, m) on the
controls followed by the targets.  `apply_gate` runs the kernel on one state
and `gate_unitary` on the 32 rows of the identity.

All operations are pure functions; values are never mutated after
construction and are safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

N_SPINS = 5
DIM = 2**N_SPINS

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def bit_of(index: int, spin: int) -> int:
    """Bit of basis label `index` carried by `spin` (1 = most significant)."""
    return (index >> (N_SPINS - spin)) & 1


def _check_spin(q: int) -> None:
    if not 1 <= q <= N_SPINS:
        raise ValueError(f"spin index {q} out of range 1..{N_SPINS}")


def _check_distinct(*qs: int) -> None:
    for q in qs:
        _check_spin(q)
    if len(set(qs)) != len(qs):
        raise ValueError(f"spin indices must be distinct, got {qs}")


@dataclass(frozen=True)
class Hadamard:
    spin: int


@dataclass(frozen=True)
class NotGate:
    spin: int


@dataclass(frozen=True)
class ZRotation:
    spin: int
    angle_deg: float


@dataclass(frozen=True)
class ConditionalZRotation:
    """Phase diag(1, e^{i*angle}) on `target`, applied only when `control` is |1>."""

    control: int
    target: int
    angle_deg: float
    dagger: bool = False


@dataclass(frozen=True)
class ControlledNot:
    control: int
    target: int


@dataclass(frozen=True, eq=False)
class ControlledTargetUnitary:
    """A 4x4 unitary on a pair of target spins, applied when `control` is |1>."""

    control: int
    targets: tuple[int, int]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("embedded block must be 4x4")
        if not np.allclose(m.conj().T @ m, np.eye(4), atol=1e-12):
            raise ValueError("embedded block is not unitary")
        object.__setattr__(self, "matrix", m)


GateOp = Union[
    Hadamard,
    NotGate,
    ZRotation,
    ConditionalZRotation,
    ControlledNot,
    ControlledTargetUnitary,
]


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; the first op acts first in time."""

    ops: tuple[GateOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            _lowered(op)  # validates the op type and its spin indices

    def __add__(self, other: "Circuit") -> "Circuit":
        return Circuit(self.ops + other.ops)


def _phase(angle_deg: float, dagger: bool = False) -> complex:
    sign = -1.0 if dagger else 1.0
    return np.exp(1j * sign * np.deg2rad(angle_deg))


def _lowered(op: GateOp) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """(controls, targets, m): m acts on `targets` (first = most significant) when all `controls` are |1>."""
    if isinstance(op, Hadamard):
        controls, targets, m = (), (op.spin,), _H
    elif isinstance(op, NotGate):
        controls, targets, m = (), (op.spin,), _X
    elif isinstance(op, ZRotation):
        controls, targets, m = (), (op.spin,), np.diag([1.0, _phase(op.angle_deg)])
    elif isinstance(op, ConditionalZRotation):
        controls, targets, m = (op.control,), (op.target,), np.diag([1.0, _phase(op.angle_deg, op.dagger)])
    elif isinstance(op, ControlledNot):
        controls, targets, m = (op.control,), (op.target,), _X
    elif isinstance(op, ControlledTargetUnitary):
        controls, targets, m = (op.control,), tuple(op.targets), op.matrix
    else:
        raise TypeError(f"not a gate op: {op!r}")
    _check_distinct(*controls, *targets)
    return controls, targets, m


@dataclass(frozen=True)
class QuantumState:
    """Pure state of the five-spin register: 32 complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex).reshape(DIM)
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", a)

    def density(self) -> "DensityOperator":
        a = self.amplitudes
        return DensityOperator(np.outer(a, a.conj()), kind="normalized")


def basis_state(index: int) -> QuantumState:
    if not 0 <= index < DIM:
        raise ValueError(f"basis index {index} out of range")
    a = np.zeros(DIM, dtype=complex)
    a[index] = 1.0
    return QuantumState(a)


@dataclass(frozen=True)
class DensityOperator:
    """32x32 Hermitian operator; `kind` is "normalized" (unit trace) or "deviation" (traceless)."""

    matrix: np.ndarray
    kind: str = "normalized"

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError("density operator must be 32x32")
        if not np.allclose(m, m.conj().T, atol=1e-9):
            raise ValueError("density operator must be Hermitian")
        tr = np.trace(m)
        if self.kind == "normalized":
            if abs(tr - 1.0) > 1e-9:
                raise ValueError(f"normalized density operator has trace {tr}")
        elif self.kind == "deviation":
            if abs(tr) > 1e-9 * max(1.0, np.abs(m).max()):
                raise ValueError(f"deviation density operator has trace {tr}")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "matrix", m)


def apply_unitary(amps: np.ndarray, spins: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """Apply `u` to `spins` (first listed = most significant) of every length-32 row of `amps`.

    `amps` has shape (32,) or (k, 32); the result has the same shape.  The
    listed spins are transposed to the front, `u` multiplies them, and the
    inverse transpose restores the basis order.
    """
    _check_distinct(*spins)
    rows = np.asarray(amps, dtype=complex).reshape((-1,) + (2,) * N_SPINS)
    order = (*spins, 0, *(q for q in range(1, N_SPINS + 1) if q not in spins))
    t = rows.transpose(order)
    out = (u @ t.reshape(2 ** len(spins), -1)).reshape(t.shape)
    return out.transpose(np.argsort(order)).reshape(np.shape(amps))


def _apply_op(amps: np.ndarray, op: GateOp) -> np.ndarray:
    controls, targets, m = _lowered(op)
    u = np.eye(2 ** len(controls) * len(m), dtype=complex)
    u[-len(m):, -len(m):] = m  # diag(I, m): m acts only when every control is |1>
    return apply_unitary(amps, controls + targets, u)


def apply_gate(state: QuantumState, op: GateOp) -> QuantumState:
    """Apply one gate to a pure state."""
    return QuantumState(_apply_op(state.amplitudes, op))


def run_circuit(circuit: Circuit, state: QuantumState) -> QuantumState:
    for op in circuit.ops:
        state = apply_gate(state, op)
    return state


def gate_unitary(op: GateOp) -> np.ndarray:
    """Full 32x32 unitary of one gate: the kernel applied to the identity's rows (basis states)."""
    return _apply_op(np.eye(DIM, dtype=complex), op).T


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product of the gate unitaries in time order (first op rightmost)."""
    u = np.eye(DIM, dtype=complex)
    for op in circuit.ops:
        u = gate_unitary(op) @ u
    return u


def expectation_Iz(rho: DensityOperator, spin: int) -> float:
    """O_i = 2 Tr(rho I_zi), with I_z eigenvalue +1/2 on |0>.

    For a deviation operator the result is in the same arbitrary units as
    the operator itself.
    """
    _check_spin(spin)
    signs = np.array([1.0 if bit_of(b, spin) == 0 else -1.0 for b in range(DIM)])
    return float(np.real(np.sum(signs * np.diag(rho.matrix))))


def maximally_mixed() -> DensityOperator:
    return DensityOperator(np.eye(DIM, dtype=complex) / DIM, kind="normalized")


def register_probabilities(state: QuantumState) -> np.ndarray:
    """Marginal probabilities of the first register (spins 1-3), indexed by b1b2b3."""
    p = np.abs(state.amplitudes) ** 2
    return p.reshape(8, 4).sum(axis=1)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """True if complex vectors a, b agree up to one global phase, entry-wise within atol."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    k = int(np.argmax(np.abs(b)))
    if abs(b[k]) < atol:
        return bool(np.all(np.abs(a) <= atol))
    phase = a[k] / b[k]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return bool(np.max(np.abs(a - phase * b)) <= atol)
