"""Dense state-vector simulation of the five-spin register.

Basis convention, used everywhere in this package: a basis state is labeled
b1 b2 b3 b4 b5 with spin 1 the most significant bit, i.e. |b1..b5> lives at
index 16*b1 + 8*b2 + 4*b3 + 2*b4 + b5.  Gate angles are in degrees.  A
conditional z-rotation puts the phase on the |11> component of the
control/target pair, so it is symmetric in control and target.

A state has one form: a complex amplitude array of shape (32,) or (k, 32),
one state per row; |b> is row b of the identity.  `DensityOperator`, the
readout spectra's input, is the one checked matrix type.

Every gate type is lowered by `_memo_operands`, the only place gate types
are told apart for simulation.  A `ControlledPermutation` lowers to an exact
source index s over the 32 basis states, new[b] = old[s[b]]; every other op
to (spins, diag(I, m)), the small unitary m acting on the targets when
every control is |1>.  `circuits` reads the native ops (N, C and 90-degree
P) exactly, as basis index maps with phases in quarter turns.  One kernel,
`apply_unitary`, applies a small unitary to chosen spins of every row of an
amplitude array.  The one runner, `run_circuits`, runs circuit i on row i
of a (k, 32) array, reading each step once per distinct circuit object: a
step of controlled permutations is one `take_along_axis` gather, each row
through its own op's source index; a step that holds one op on every row
is one call on all rows; a mixed step, which no order-finding circuit
has, is one call per distinct circuit on its own rows.  Each row's norm is
checked once, at the end.  `gate_unitary` applies the lowered op to the
32 rows of the identity.

Every gate is a frozen, hashable value that checks itself exactly when
built.  A circuit is a plain tuple of gate ops, the first acting first in
time; lowering rejects anything that is not a gate.  Each op value is
lowered once, when first applied: `_memo_operands` is an LRU memo of at
most `_MEMO_SIZE` entries keyed by op value.  The kernel is a gather, one
matmul and a scatter: a flat index per (spins, rows), memoized in a memo of
the same size, brings the listed spins' amplitudes to the rows of one
contiguous matrix and puts the product back; a source index is built from
the same flat index.  The memoized arrays are read-only.

All operations are pure functions; values are never mutated after
construction and are safe to share across threads.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_SPINS = 5
DIM = 2**N_SPINS

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
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


# Each gate checks its fields when built: the lowering memo treats equal ops
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


@dataclass(frozen=True)
class ControlledPermutation:
    """|y> -> |images[y]> on a pair of target spins, applied when `control` is |1>."""

    control: int
    targets: tuple[int, int]
    images: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        targets = tuple(self.targets)
        if len(targets) != 2:
            raise ValueError(f"controlled permutation needs two target spins, got {targets}")
        _check_distinct(self.control, *targets)
        object.__setattr__(self, "targets", targets)
        images = self.images
        if not (isinstance(images, tuple) and all(type(v) is int for v in images)
                and sorted(images) == [0, 1, 2, 3]):
            raise ValueError(f"images must be a tuple of ints forming a bijection of 0..3, got {images!r}")


GateOp = Hadamard | NotGate | ConditionalZRotation | ControlledNot | ControlledPermutation
Circuit = tuple[GateOp, ...]  # the first op acts first in time


def _phase(angle_deg: float, dagger: bool) -> complex:
    sign = -1.0 if dagger else 1.0
    return np.exp(1j * sign * np.deg2rad(angle_deg))


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
def _gather_index(spins: tuple[int, ...], rows: int) -> np.ndarray:
    """Flat positions in a (rows, 32) array, one row per basis state of `spins` (first = most significant).

    Row i lists the positions whose listed spins read i: the (rows, 2, ..., 2)
    array with `spins` transposed to the front, then the row, then the other
    spins in order.
    """
    _check_distinct(*spins)
    order = (*spins, 0, *(q for q in range(1, N_SPINS + 1) if q not in spins))
    positions = np.arange(rows * DIM).reshape((rows,) + (2,) * N_SPINS)
    index = positions.transpose(order).reshape(2 ** len(spins), -1)
    index.setflags(write=False)
    return index


def apply_unitary(amps: np.ndarray, spins: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """Apply `u` to `spins` (first listed = most significant) of every length-32 row of `amps`.

    `amps` has shape (32,) or (k, 32); the result has the same shape.  The
    listed spins' amplitudes are gathered into the rows of one matrix, `u`
    multiplies it, and the product is scattered back to the same positions.
    """
    rows = np.asarray(amps, dtype=complex).reshape(-1, DIM)
    index = _gather_index(tuple(spins), len(rows))
    flat = rows.reshape(-1)
    out = np.empty_like(flat)
    out[index] = u @ flat[index]
    return out.reshape(np.shape(amps))


@lru_cache(maxsize=_MEMO_SIZE)
def _memo_operands(op: GateOp) -> tuple[tuple[int, ...], np.ndarray] | np.ndarray:
    """`op` lowered: a source index s, new[b] = old[s[b]], or (controls + targets, diag(I, m))."""
    if isinstance(op, ControlledPermutation):
        rows = _gather_index((op.control, *op.targets), 1)[4:]  # control |1>; row t: the positions where the targets read t
        source = np.arange(DIM)
        source[rows[list(op.images)]] = rows  # the positions reading images[t] take their amplitudes from those reading t
        source.setflags(write=False)
        return source
    if isinstance(op, Hadamard):
        controls, targets, m = (), (op.spin,), _H
    elif isinstance(op, NotGate):
        controls, targets, m = (), (op.spin,), _X
    elif isinstance(op, ConditionalZRotation):
        controls, targets, m = (op.control,), (op.target,), np.diag([1.0, _phase(op.angle_deg, op.dagger)])
    elif isinstance(op, ControlledNot):
        controls, targets, m = (op.control,), (op.target,), _X
    else:
        raise TypeError(f"not a gate op: {op!r}")
    u = np.eye(2 ** len(controls) * len(m), dtype=complex)
    u[-len(m):, -len(m):] = m
    u.setflags(write=False)
    return controls + targets, u


def _apply_op(amps: np.ndarray, op: GateOp) -> np.ndarray:
    lowered = _memo_operands(op)
    if isinstance(lowered, np.ndarray):
        return np.asarray(amps, dtype=complex)[..., lowered]
    return apply_unitary(amps, *lowered)


def run_circuits(circuits: Sequence[Circuit], amps: np.ndarray) -> np.ndarray:
    """Run `circuits[i]` on row i of `amps` (k, 32); return the final (k, 32) amplitudes.

    The circuits must have equal lengths.  A step of controlled permutations
    is one gather, a step that holds one op on every row one call, and any
    other (mixed) step one call per distinct circuit object, on the rows that
    run it; no order-finding circuit has a mixed step.  Each row's norm is
    checked once, at the end: a row that is not a unit vector raises
    ValueError naming it.
    """
    rows = np.array(amps, dtype=complex)
    if rows.shape != (len(circuits), DIM):
        raise ValueError(f"{len(circuits)} circuits need amplitudes of shape ({len(circuits)}, {DIM}), got {rows.shape}")
    lengths = sorted({len(c) for c in circuits})
    if len(lengths) > 1:
        raise ValueError(f"circuits of unequal lengths {lengths}")
    distinct = list({id(c): c for c in circuits}.values())  # rows that share a circuit object share its ops
    slot = {id(c): i for i, c in enumerate(distinct)}
    which = np.array([slot[id(c)] for c in circuits], dtype=np.intp)  # row i runs distinct[which[i]]
    for step in zip(*distinct):
        if all(isinstance(op, ControlledPermutation) for op in step):
            sources = np.array([_memo_operands(op) for op in step])
            rows = np.take_along_axis(rows, sources[which], axis=1)
        elif step.count(step[0]) == len(step):
            rows = _apply_op(rows, step[0])
        else:
            for i, op in enumerate(step):
                rows[which == i] = _apply_op(rows[which == i], op)
    norms = np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
    if bad.size:
        raise ValueError(f"row {bad[0]}: state norm {norms[bad[0]]} is not 1")
    return rows


def gate_unitary(op: GateOp) -> np.ndarray:
    """Full 32x32 unitary of one gate: the kernel applied to the identity's rows (basis states)."""
    return _apply_op(np.eye(DIM, dtype=complex), op).T


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product of the gate unitaries in time order (first op rightmost)."""
    u = np.eye(DIM, dtype=complex)
    for op in circuit:
        u = gate_unitary(op) @ u
    return u


# _IZ_SIGNS[i - 1, b] = +1 if spin i of basis label b is |0>, else -1.
_IZ_SIGNS = np.array([[1.0 if bit_of(b, spin) == 0 else -1.0 for b in range(DIM)]
                      for spin in range(1, N_SPINS + 1)])


def expectation_Iz(diagonals: np.ndarray) -> np.ndarray:
    """O_1..O_5, O_i = 2 Tr(rho I_zi) with I_z eigenvalue +1/2 on |0>, for each density diagonal.

    `diagonals` holds the complex diagonal of rho, shape (32,) or (k, 32),
    e.g. a * conj(a) for a pure state a; the result has shape (5,) or (k, 5).
    For a deviation operator the result is in the same arbitrary units as
    the operator itself.
    """
    return np.real(np.sum(_IZ_SIGNS * np.asarray(diagonals)[..., None, :], axis=-1))
