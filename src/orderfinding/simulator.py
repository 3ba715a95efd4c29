"""Dense state-vector simulation of the five-spin register.

The basis convention and the gate values are those of module `gates`.  A
state has one form: a complex amplitude array of shape (32,) or (k, 32),
one state per row; |b> is row b of the identity.  The readout spectra read
a final state's row too, so no density matrix is formed.

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
checked once, at the end.  A circuit's unitary is its 32 basis-state runs:
row b of the identity is |b>, so `run_circuits([c] * 32, identity)` holds
the unitary's columns as its rows.

`run_instances` simulates order-finding instances, one or many, as one
(k, 32) amplitude array through `run_circuits`: row i starts as the basis
state |000>|y_i> and ends as instance i's final state.  The circuit
(`circuits.build_orderfinding`) depends only on the permutation, so each
permutation's circuit is built once per process and kept, a cache of at
most 24 circuits.  The Hadamard front and the QFT hold the same op on every
row, so each of their steps is one kernel call on the whole batch.  The
oracle's three stages are controlled permutations, so each stage is one
exact index gather, every row through its own permutation's source index.

Lowering rejects anything that is not a gate.  Each op value is lowered
once, when first applied: `_memo_operands` is an LRU memo of at most
`_MEMO_SIZE` entries keyed by op value.  The kernel is a gather, one matmul
and a scatter: a flat index per (spins, rows), memoized in a memo of the
same size, brings the listed spins' amplitudes to the rows of one
contiguous matrix and puts the product back; a source index is built from
the same flat index.  The memoized arrays are read-only.

All operations are pure functions; values are never mutated after
construction and are safe to share across threads.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import cache, lru_cache

import numpy as np

from .circuits import build_orderfinding
from .gates import (
    DIM,
    N_SPINS,
    Circuit,
    ConditionalZRotation,
    ControlledNot,
    ControlledPermutation,
    GateOp,
    Hadamard,
    NotGate,
    _check_distinct,
    bit_of,
)
from .permutations import OracleSpec, Permutation

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_MEMO_SIZE = 256


def _phase(angle_deg: float, dagger: bool) -> complex:
    sign = -1.0 if dagger else 1.0
    return np.exp(1j * sign * np.deg2rad(angle_deg))


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


@cache
def _orderfinding_circuit(pi: Permutation) -> Circuit:
    """`build_orderfinding(pi)`, built once per process and shared by every instance of pi."""
    return build_orderfinding(pi)


def run_instances(specs: Sequence[OracleSpec]) -> np.ndarray:
    """Final amplitudes of the order-finding circuit, one (32,) row per instance, as one batch.

    The circuit depends only on the permutation, so each permutation's
    circuit is built once per process, a cache of at most 24 circuits.
    """
    inputs = np.eye(DIM, dtype=complex)[[spec.y for spec in specs]]  # row i is |000>|y1 y0> of spec i
    return run_circuits([_orderfinding_circuit(spec.pi) for spec in specs], inputs)


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
