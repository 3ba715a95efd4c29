"""Dense state-vector and density-operator simulation of the five-spin register.

Basis convention, used everywhere in this package: a basis state is labeled
b1 b2 b3 b4 b5 with spin 1 the most significant bit, i.e. |b1..b5> lives at
index 16*b1 + 8*b2 + 4*b3 + 2*b4 + b5.  Gate angles are in degrees.  A
conditional z-rotation puts the phase on the |11> component of the
control/target pair, so it is symmetric in control and target.

Every gate type is lowered by `_lowered` to (controls, targets, m): the
small unitary m acts on the target spins when every control spin is |1>.
That table is the only place gate types are told apart.  One kernel,
`apply_unitary`, applies a small unitary to chosen spins of every row of an
amplitude array; a controlled op goes through it as diag(I, m) on the
controls followed by the targets.  `apply_gate` runs the kernel on one state
and `gate_unitary` on the 32 rows of the identity.

Each op value is lowered once: `_kernel_operands` memoizes (spins,
diag(I, m)) by op value in an LRU memo of at most `_MEMO_SIZE` entries, and
`Circuit` validates through the same memo, so a circuit that is built and
then run lowers each op once.  `ControlledTargetUnitary` holds an array and
compares by identity, so it stays out of the memo: `Circuit` only checks its
spins, and each apply builds its diag(I, m) afresh.  The transpose
orders of the kernel are memoized per spin tuple in a memo of the same
size.  The memoized arrays are read-only.

All operations are pure functions; values are never mutated after
construction and are safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

N_SPINS = 5
DIM = 2**N_SPINS

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_EYE4 = np.eye(4)
_MEMO_SIZE = 256


def bit_of(index: int, spin: int) -> int:
    """Bit of basis label `index` carried by `spin` (1 = most significant)."""
    return (index >> (N_SPINS - spin)) & 1


def _check_spin(q: int) -> None:
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or not 1 <= q <= N_SPINS:
        raise ValueError(f"spin index {q!r} is not an integer in 1..{N_SPINS}")


def _close(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """np.allclose(a, b, rtol=1e-5, atol) for finite entries; any NaN or infinite entry fails."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the comparison
        return bool(np.all(np.abs(a - b) <= atol + 1e-5 * np.abs(b)))


def _check_distinct(*qs: int) -> None:
    for q in qs:
        _check_spin(q)
    if len(set(qs)) != len(qs):
        raise ValueError(f"spin indices must be distinct, got {qs}")


# Each gate checks its spins when built: the lowering memo treats equal ops
# (e.g. Hadamard(1) and Hadamard(1.0)) as one, so equal ops must be equally valid.

@dataclass(frozen=True)
class Hadamard:
    spin: int

    def __post_init__(self) -> None:
        _check_distinct(self.spin)


@dataclass(frozen=True)
class NotGate:
    spin: int

    def __post_init__(self) -> None:
        _check_distinct(self.spin)


@dataclass(frozen=True)
class ZRotation:
    spin: int
    angle_deg: float

    def __post_init__(self) -> None:
        _check_distinct(self.spin)


@dataclass(frozen=True)
class ConditionalZRotation:
    """Phase diag(1, e^{i*angle}) on `target`, applied only when `control` is |1>."""

    control: int
    target: int
    angle_deg: float
    dagger: bool = False

    def __post_init__(self) -> None:
        _check_distinct(self.control, self.target)


@dataclass(frozen=True)
class ControlledNot:
    control: int
    target: int

    def __post_init__(self) -> None:
        _check_distinct(self.control, self.target)


@dataclass(frozen=True, eq=False)
class ControlledTargetUnitary:
    """A 4x4 unitary on a pair of target spins, applied when `control` is |1>."""

    control: int
    targets: tuple[int, int]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        targets = tuple(self.targets)
        if len(targets) != 2:
            raise ValueError(f"embedded block needs two target spins, got {targets}")
        _check_distinct(self.control, *targets)
        object.__setattr__(self, "targets", targets)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("embedded block must be 4x4")
        if not np.isfinite(m).all():
            raise ValueError("embedded block has a non-finite entry")
        if not _close(m.conj().T @ m, _EYE4, atol=1e-12):
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
# Gate types that hash and compare by value, so their lowering is memoized.
_BY_VALUE = (Hadamard, NotGate, ZRotation, ConditionalZRotation, ControlledNot)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; the first op acts first in time."""

    ops: tuple[GateOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:  # validates each op's type; the ops checked their spins when built
            if isinstance(op, _BY_VALUE):
                _memo_operands(op)
            else:
                _lowered(op)


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
        controls, targets, m = (op.control,), op.targets, op.matrix
    else:
        raise TypeError(f"not a gate op: {op!r}")
    return controls, targets, m


@dataclass(frozen=True)
class QuantumState:
    """Pure state of the five-spin register: 32 complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex).reshape(DIM)
        norm = np.sqrt(np.vdot(a, a).real)
        if not abs(norm - 1.0) <= 1e-9:
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
        if not _close(m, m.conj().T, atol=1e-9):
            raise ValueError("density operator must be Hermitian")
        tr = np.trace(m)
        if self.kind == "normalized":
            if not abs(tr - 1.0) <= 1e-9:
                raise ValueError(f"normalized density operator has trace {tr}")
        elif self.kind == "deviation":
            if not abs(tr) <= 1e-9 * max(1.0, np.abs(m).max()):
                raise ValueError(f"deviation density operator has trace {tr}")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "matrix", m)


@lru_cache(maxsize=_MEMO_SIZE)
def _axis_orders(spins: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axes that bring `spins` to the front of a (rows, 2, ..., 2) array, and the inverse order."""
    _check_distinct(*spins)
    order = (*spins, 0, *(q for q in range(1, N_SPINS + 1) if q not in spins))
    return order, tuple(int(k) for k in np.argsort(order))


def apply_unitary(amps: np.ndarray, spins: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """Apply `u` to `spins` (first listed = most significant) of every length-32 row of `amps`.

    `amps` has shape (32,) or (k, 32); the result has the same shape.  The
    listed spins are transposed to the front, `u` multiplies them, and the
    inverse transpose restores the basis order.
    """
    order, inverse = _axis_orders(tuple(spins))
    rows = np.asarray(amps, dtype=complex).reshape((-1,) + (2,) * N_SPINS)
    t = rows.transpose(order)
    out = (u @ t.reshape(2 ** len(spins), -1)).reshape(t.shape)
    return out.transpose(inverse).reshape(np.shape(amps))


def _controlled_operands(op: GateOp) -> tuple[tuple[int, ...], np.ndarray]:
    """(controls + targets, diag(I, m)): m acts only when every control is |1>."""
    controls, targets, m = _lowered(op)
    u = np.eye(2 ** len(controls) * len(m), dtype=complex)
    u[-len(m):, -len(m):] = m
    u.setflags(write=False)
    return controls + targets, u


_memo_operands = lru_cache(maxsize=_MEMO_SIZE)(_controlled_operands)


def _kernel_operands(op: GateOp) -> tuple[tuple[int, ...], np.ndarray]:
    """Kernel spins and matrix of `op`, memoized by op value except for ControlledTargetUnitary."""
    if isinstance(op, _BY_VALUE):
        return _memo_operands(op)
    return _controlled_operands(op)  # raises TypeError for anything that is not a gate op


def _apply_op(amps: np.ndarray, op: GateOp) -> np.ndarray:
    spins, u = _kernel_operands(op)
    return apply_unitary(amps, spins, u)


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


# _IZ_SIGNS[i - 1, b] = +1 if spin i of basis label b is |0>, else -1.
_IZ_SIGNS = np.array([[1.0 if bit_of(b, spin) == 0 else -1.0 for b in range(DIM)]
                      for spin in range(1, N_SPINS + 1)])


def expectation_Iz(rho: DensityOperator, spin: int) -> float:
    """O_i = 2 Tr(rho I_zi), with I_z eigenvalue +1/2 on |0>.

    For a deviation operator the result is in the same arbitrary units as
    the operator itself.
    """
    _check_spin(spin)
    return float(np.real(np.sum(_IZ_SIGNS[spin - 1] * np.diag(rho.matrix))))


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
