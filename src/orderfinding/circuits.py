"""Circuit builders and native-gate pulse-sequence verification.

Native sequences are written as whitespace-separated tokens, e.g.
"C24 P34 P54 C35 P54": C_ij is a controlled-NOT (flip spin j if spin i is
|1>), P_ij a conditional 90-degree z-rotation of spin j (P_ij' its inverse),
and N_i a NOT on spin i.

Two listing conventions are in use, resolved empirically during bring-up:

* preparation-sequence listings (see prodops) are chronological, the first
  token acting first; only under that reading does the nine-experiment set
  sum to the effective pure target;
* readout oracle listings are operator products, the rightmost token acting
  first; only under that reading do the order-2 and order-4 sequences
  implement their oracles (the order-4 listing fails for every permutation
  and start element when read chronologically).

Every builder and parser here returns a `gates.Circuit`, a plain tuple
of gate ops in time order (first op acts first); parse_readout_listing
applies the operator-product reversal.  A token that names one spin twice,
such as C11, is rejected with the token named.

The second register holds the permuted element y = y1 y0, y1 on spin 4 and
y0 on spin 5; the exponent register holds x = x2 x1 x0, x2 on spin 1 (most
significant), x1 on spin 2 and x0 on spin 3.

The order-finding circuit (`build_orderfinding`) is the Hadamard front,
the oracle's three controlled permutation stages (`oracle_stages`, read
from the permutation's trajectories) and the QFT; `simulator.run_instances`
runs it.  This module imports neither numpy nor `simulator`.

Oracle checks are exact: each native op sends a basis state to one basis
state times a power of i, so a listing is followed branch by branch as a
basis index and a phase counted in quarter turns, with no float arithmetic.
That one basis-map evaluator, `native_image`, serves both the oracle check
and the preparation cross-check (`prodops.apply_prep_dense`).
"""
from __future__ import annotations

import re

from .gates import (
    N_SPINS,
    Circuit,
    ConditionalZRotation,
    ControlledNot,
    ControlledPermutation,
    GateOp,
    Hadamard,
    NotGate,
    bit_of,
)
from .permutations import N_ELEMENTS, Permutation, power, trajectory

_TOKEN_RE = re.compile(r"([CPN])([1-5])([1-5]?)('?)")


def parse_native_sequence(text: str) -> Circuit:
    """Parse a native pulse-sequence listing into gate ops, in time order."""
    ops: list[GateOp] = []
    for token in text.split():
        m = _TOKEN_RE.fullmatch(token)
        kind, i, j, dagger = m.groups() if m else ("", "", "", "")
        if not kind or (kind == "N") == bool(j) or (dagger and kind != "P"):  # N names one spin; only P is primed
            raise ValueError(f"bad sequence token {token!r}")
        try:
            if kind == "N":
                ops.append(NotGate(int(i)))
            elif kind == "C":
                ops.append(ControlledNot(control=int(i), target=int(j)))
            else:
                ops.append(ConditionalZRotation(control=int(i), target=int(j), angle_deg=90.0, dagger=bool(dagger)))
        except ValueError as err:  # one spin twice, as in C11
            raise ValueError(f"bad sequence token {token!r}: {err}") from None
    return tuple(ops)


def build_qft3(include_final_swap: bool) -> Circuit:
    """Three-qubit QFT on spins 1-3 from Hadamards and 90/45-degree conditional rotations.

    Without the final swap the output bit order is reversed (spin 1 ends up
    holding the least significant bit of the transform index); appending the
    spin 1<->3 swap recovers the textbook 8-point DFT.
    """
    ops: list[GateOp] = [
        Hadamard(1),
        ConditionalZRotation(control=2, target=1, angle_deg=90.0),
        ConditionalZRotation(control=3, target=1, angle_deg=45.0),
        Hadamard(2),
        ConditionalZRotation(control=3, target=2, angle_deg=90.0),
        Hadamard(3),
    ]
    if include_final_swap:
        ops += [ControlledNot(1, 3), ControlledNot(3, 1), ControlledNot(1, 3)]
    return tuple(ops)


def oracle_stages(pi: Permutation) -> Circuit:
    """The oracle |x>|y> -> |x>|pi^x(y)> as three controlled permutation stages.

    pi^x factors as pi^{x0} pi^{2 x1} pi^{4 x2}, so the stages are pi^1
    controlled by spin 3, pi^2 controlled by spin 2 and pi^4 controlled by
    spin 1, each a `ControlledPermutation` on spins 4 and 5 by the power's
    images, read from the trajectory of each element.
    """
    powers = list(zip(*(trajectory(pi, y) for y in range(N_ELEMENTS))))  # powers[k] = the images of pi^k
    return tuple(ControlledPermutation(control, (4, 5), powers[exponent])
                 for control, exponent in ((3, 1), (2, 2), (1, 4)))


# The instance-independent parts of the order-finding circuit.
_HADAMARD_FRONT = (Hadamard(1), Hadamard(2), Hadamard(3))
_QFT_NO_SWAP = build_qft3(include_final_swap=False)


def build_orderfinding(pi: Permutation) -> Circuit:
    """The full order-finding circuit for pi, on any input |000>|y1 y0>.

    Hadamards on spins 1-3, the three controlled permutation stages, then
    the QFT without final swap (bit-reversed output).
    """
    return _HADAMARD_FRONT + oracle_stages(pi) + _QFT_NO_SWAP


def native_image(seq: Circuit, index: int) -> tuple[int, int]:
    """(index', k): the native ops of `seq` send basis state `index` to i^k |index'>, k in 0..3."""
    k = 0
    for op in seq:
        if isinstance(op, NotGate):
            index ^= 1 << (N_SPINS - op.spin)
        elif isinstance(op, ControlledNot):
            index ^= bit_of(index, op.control) << (N_SPINS - op.target)
        elif isinstance(op, ConditionalZRotation) and op.angle_deg == 90.0:
            k += bit_of(index, op.control) * bit_of(index, op.target) * (-1 if op.dagger else 1)
        else:
            raise ValueError(f"not a native op: {op!r}")
    return index, k % 4


def verify_oracle_sequence(seq: Circuit, pi: Permutation, y: int) -> bool:
    """Check that a native sequence implements the oracle on the physical input.

    The sequence must send (H H H |000>) (x) |y> = (1/sqrt(8)) sum_x |x>|y>
    to (1/sqrt(8)) sum_x |x>|pi^x(y)> up to one global phase.  It sends
    branch |x>|y> to i^k times one basis state, so that holds exactly when
    the eight branches land on the eight target states and share one k.
    Full-unitary equality is deliberately not required: the readout
    sequences only have to be correct on this subspace.  y is an int in 0..3.
    """
    if type(y) is not int or not 0 <= y < 4:
        raise ValueError(f"start element {y!r} is not an int in 0..3")
    images = [native_image(seq, 4 * x + y) for x in range(8)]
    return ({index for index, _ in images} == {4 * x + power(pi, x)(y) for x in range(8)}
            and len({k for _, k in images}) == 1)


def parse_readout_listing(text: str) -> Circuit:
    """Parse an operator-product listing (rightmost token acts first) into time order."""
    return tuple(reversed(parse_native_sequence(text)))


# Readout oracle listings used in the experiment, one per order, in
# operator-product form.  The r=3 listing is stated to implement its oracle
# for y = 2 only; as published it cannot implement any order-3 instance at
# all, since none of its gates ever flips spin 4 and an order-3 orbit needs
# three distinct register values (see tests for the exhaustive certificate).
READOUT_SEQUENCES = {
    1: "P54 C35 P54' C35 P34",
    2: "C35",
    3: "C32 C25 C32 C21 P14 C51 P14' C51 P54 C21 P15 C41 P15' C41 P45",
    4: "C24 P34 P54 C35 P54",
}
