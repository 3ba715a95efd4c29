"""Gate values and the basis convention of the five-spin register, in plain Python.

Basis convention, used everywhere in this package: a basis state is labeled
b1 b2 b3 b4 b5 with spin 1 the most significant bit, i.e. |b1..b5> lives at
index 16*b1 + 8*b2 + 4*b3 + 2*b4 + b5 (`bit_of`).  Gate angles are in
degrees.  A conditional z-rotation puts the phase on the |11> component of
the control/target pair, so it is symmetric in control and target.

Every gate is a frozen, hashable value that checks itself exactly when
built.  A circuit is a plain tuple of gate ops, the first acting first in
time.  This module imports no numpy, so the exact layers (`circuits`,
`prodops`) build and read circuits without it; `simulator` lowers the same
values to float arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

N_SPINS = 5
DIM = 2**N_SPINS


def bit_of(index: int, spin: int) -> int:
    """Bit of basis label `index` carried by `spin` (1 = most significant)."""
    return (index >> (N_SPINS - spin)) & 1


def _check_spin(q: int) -> None:
    # int before the Integral ABC (which admits numpy's integers): the ABC check alone takes 6x as long
    if isinstance(q, bool) or not isinstance(q, (int, Integral)) or not 1 <= q <= N_SPINS:
        raise ValueError(f"spin index {q!r} is not an integer in 1..{N_SPINS}")


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
