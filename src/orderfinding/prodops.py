"""Signed {I,Z}-string algebra for temporal-labeling state preparation.

A deviation density operator that is diagonal in the computational basis
decomposes over tensor strings of I and Z.  Conjugation by controlled-NOT
and NOT gates maps each signed string to exactly one signed string, so a
preparation experiment can be tracked exactly with integer coefficients:

    under C_ij (control i, target j):  Z_i -> Z_i,  Z_j -> Z_i Z_j,
                                       Z_i Z_j -> Z_j,  sign unchanged;
    under N_i: the sign flips iff the string has Z at position i.

Equivalently, writing a string as the bit vector of its Z positions, C_ij
adds bit j to bit i, and N_i reads bit i into the sign.  An experiment
(one preparation sequence applied to thermal equilibrium) therefore yields
the image of the n unit vectors under an invertible linear map over GF(2),
with freely choosable signs.  Each experiment thus contributes n signed
terms, which bounds every schedule from below (see schedule_prep).

Ops in a preparation sequence are applied in listed (time) order, the same
convention as module circuits.

apply_prep_dense cross-checks apply_prep exactly without these rules.  A sum
with Z-string coefficients c is the diagonal d = WHT(c), an integer
Walsh-Hadamard transform: d[a] = sum_b (-1)^popcount(a & b) c[b].  C and N ops
send basis state a to one basis state, read from `circuits.native_image` as in
the oracle check (its phase cancels on a diagonal), and d[a] moves there.  WHT
of the moved diagonal is 32 times the new coefficients, so each entry must
divide by 32 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import circuits
from .exactlp import CertificateError
from .simulator import DIM, N_SPINS, ControlledNot, NotGate


class SearchExhausted(RuntimeError):
    """No preparation schedule exists within the requested limits."""


@dataclass(frozen=True)
class ZTerm:
    """One signed tensor string over {I, Z}; pattern like "IZIZZ".

    Patterns are length 5 for the physical register; shorter ones appear in
    schedules on fewer spins.
    """

    pattern: str
    sign: int = 1

    def __post_init__(self) -> None:
        if not 1 <= len(self.pattern) <= N_SPINS or set(self.pattern) - {"I", "Z"}:
            raise ValueError(f"bad pattern {self.pattern!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


def pattern_to_mask(pattern: str) -> int:
    """Bit mask of Z positions; spin 1 is the most significant bit."""
    n = len(pattern)
    mask = 0
    for k, ch in enumerate(pattern):
        if ch == "Z":
            mask |= 1 << (n - 1 - k)
    return mask


def mask_to_pattern(mask: int, n: int = N_SPINS) -> str:
    return "".join("Z" if (mask >> (n - 1 - k)) & 1 else "I" for k in range(n))


class ZTermSum(dict):
    """Integer-coefficient sum of non-identity {I,Z}-strings, keyed by pattern."""

    def __init__(self, items: Iterable[tuple[str, int]] = ()):
        super().__init__()
        for pattern, coeff in items:
            self.add(pattern, coeff)

    def add(self, pattern: str, coeff: int) -> None:
        if pattern == "I" * len(pattern):
            raise ValueError("identity pattern carries no signal and is not stored")
        new = self.get(pattern, 0) + coeff
        if new:
            self[pattern] = new
        else:
            self.pop(pattern, None)

    def __add__(self, other: "ZTermSum") -> "ZTermSum":
        out = ZTermSum(self.items())
        for pattern, coeff in other.items():
            out.add(pattern, coeff)
        return out

    def __sub__(self, other: "ZTermSum") -> "ZTermSum":
        out = ZTermSum(self.items())
        for pattern, coeff in other.items():
            out.add(pattern, -coeff)
        return out


PrepSequence = circuits.NativeSequence  # restricted to ControlledNot and NotGate ops


def _check_prep_op(op) -> None:
    if not isinstance(op, (ControlledNot, NotGate)):
        raise ValueError(f"preparation sequences use only C and N ops, got {op!r}")


def conjugate(term: ZTerm, op) -> ZTerm:
    """Conjugate one signed Z-string by a C_ij or N_i gate whose spins lie within the string."""
    _check_prep_op(op)
    try:
        if isinstance(op, NotGate):
            flip = term.pattern[op.spin - 1] == "Z"
            return ZTerm(term.pattern, -term.sign if flip else term.sign)
        zi = term.pattern[op.control - 1] == "Z"
        zj = term.pattern[op.target - 1] == "Z"
    except IndexError:  # gate spins are >= 1, so only a spin above the string's length gets here
        raise ValueError(f"{op!r} acts on a spin above n={len(term.pattern)}") from None
    if not zj:
        return term
    chars = list(term.pattern)
    chars[op.control - 1] = "I" if zi else "Z"
    return ZTerm("".join(chars), term.sign)


def apply_prep(seq: PrepSequence, terms: ZTermSum) -> ZTermSum:
    """Conjugate every term by each op of the sequence, in time order."""
    for op in seq:
        _check_prep_op(op)
    out = ZTermSum()
    for pattern, coeff in terms.items():
        term = ZTerm(pattern, 1)
        for op in seq:
            term = conjugate(term, op)
        out.add(term.pattern, coeff * term.sign)
    return out


def equilibrium_zsum(n: int = N_SPINS) -> ZTermSum:
    """Thermal equilibrium deviation: the n single-Z strings, coefficient +1."""
    return ZTermSum((mask_to_pattern(1 << k, n), 1) for k in range(n))


def effective_pure_target(n: int = N_SPINS) -> ZTermSum:
    """All 2^n - 1 non-identity strings with coefficient +1."""
    return ZTermSum((mask_to_pattern(mask, n), 1) for mask in range(1, 2**n))


# The nine production preparation sequences (time order left to right).
PREP_SET_5SPIN: tuple[str, ...] = (
    "C51 C45 C24 N3",
    "C14 C31 C53 N2",
    "C54 C51 N2",
    "C31 C43 C23 N5",
    "C21 C52 C45 C34",
    "C53 C25 C12 N4",
    "C12 C15 C13 C41",
    "C32 C13 C25 N4",
    "C35 C23 N1",
)


@dataclass(frozen=True)
class PrepReport:
    """The summed experiments against the target; images[i] is experiment i, seqs[i] applied to equilibrium."""

    total_terms: int
    summed: ZTermSum
    is_effective_pure: bool
    residual: ZTermSum
    canceled_pairs: int
    images: tuple[ZTermSum, ...]


def verify_prep_set(seqs: Sequence[PrepSequence], n: int = N_SPINS) -> PrepReport:
    """Sum the experiments over the given sequences and compare with the target."""
    target = effective_pure_target(n)
    eq = equilibrium_zsum(n)
    images = tuple(apply_prep(seq, eq) for seq in seqs)
    total = ZTermSum()
    total_terms = 0
    for out in images:
        total_terms += sum(abs(c) for c in out.values())
        total = total + out
    residual = total - target
    is_pure = not residual
    canceled = (total_terms - len(target)) // 2 if is_pure else 0
    return PrepReport(total_terms, total, is_pure, residual, canceled, images)


def standard_prep_sequences() -> list[PrepSequence]:
    return [circuits.parse_native_sequence(text) for text in PREP_SET_5SPIN]


def _walsh_hadamard(values: list[int]) -> list[int]:
    """out[a] = sum_b (-1)^popcount(a & b) values[b] over the DIM basis states, in N_SPINS butterfly passes."""
    out = list(values)
    for half in (1 << k for k in range(N_SPINS)):
        for j in range(DIM):
            if not j & half:
                out[j], out[j | half] = out[j] + out[j | half], out[j] - out[j | half]
    return out


def apply_prep_dense(seq: PrepSequence, terms: ZTermSum) -> ZTermSum:
    """Conjugate 5-spin terms by the sequence through its basis map, independently of `conjugate`."""
    coeffs = [0] * DIM
    for pattern, coeff in terms.items():
        if len(pattern) != N_SPINS:
            raise ValueError(f"dense conjugation takes {N_SPINS}-spin patterns, got {pattern!r}")
        coeffs[pattern_to_mask(pattern)] = coeff
    moved = [0] * DIM
    for index, value in enumerate(_walsh_hadamard(coeffs)):
        moved[circuits.native_image(seq, index)[0]] = value
    out = ZTermSum()
    for mask, value in enumerate(_walsh_hadamard(moved)):
        if value % DIM:
            raise ValueError(f"coefficient {value}/{DIM} of mask {mask} is not an integer")
        if value:
            out.add(mask_to_pattern(mask), value // DIM)
    return out


# Minimal temporal-labeling plans (time order left to right), one per odd
# spin count; each plan starts with the bare equilibrium experiment.
OPTIMAL_SCHEDULES: dict[int, tuple[str, ...]] = {
    1: ("",),
    3: (
        "",
        "C13 C12 C31 C21 C12",
        "C23 C13 C32 C12 C23 C21 N1 N2",
    ),
    5: (
        "",
        "C45 C35 C54 C34 C14 C45 C53 C23 C13 C35 C52 C32 C23 C51 C41 C14",
        "C35 C25 C15 C24 C14 C53 C23 C35 C42 C41 C31 C13",
        "C25 C54 C14 C43 C23 C34 C52 C12 C25 C31 C21 C12",
        "C45 C35 C25 C54 C34 C53 C23 C35 C52 C42 C12 C24 C51 C31",
        "C45 C25 C15 C54 C34 C24 C45 C53 C23 C35 C52 C42 C12 C24 C51 C21",
        "C45 C25 C15 C54 C34 C24 C45 C53 C23 C35 C52 C42 C12 C24 C51 C31 C21 N2 N3",
    ),
}


def schedule_prep(n: int = N_SPINS, max_experiments: int = 9) -> list[PrepSequence]:
    """A minimal temporal-labeling schedule on an n-spin system.

    Returns the stored plan for n, whose summed experiments equal the n-spin
    effective pure target; verify_prep_set rechecks it exactly on every call,
    and a failed check raises CertificateError.  Every experiment contributes
    n signed terms and the target has 2^n - 1, so no plan has fewer than
    ceil((2^n - 1) / n) experiments; the stored plans meet that bound (1, 3
    and 7 for n = 1, 3, 5).  Raises SearchExhausted when max_experiments is
    below the bound, and for every even n: there the terms total an even
    number, but the target's coefficients sum to the odd 2^n - 1.
    `n` must be an int (not a bool) in 1..5, and `max_experiments` an int >= 1.
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= N_SPINS:
        raise ValueError(f"spin count {n!r} is not an int in 1..{N_SPINS}")
    if type(max_experiments) is not int or max_experiments < 1:
        raise ValueError(f"experiment budget {max_experiments!r} is not an int >= 1")
    if n % 2 == 0:
        raise SearchExhausted(
            f"no schedule exists for n={n}: experiments contribute n terms each, "
            f"so total coefficients are even, but the target sums to {2**n - 1}"
        )
    bound = -(-(2**n - 1) // n)
    if max_experiments < bound:
        raise SearchExhausted(
            f"no schedule exists for n={n} within {max_experiments} experiments: "
            f"each contributes {n} terms and the target has {2**n - 1}, so {bound} are needed"
        )
    seqs = [circuits.parse_native_sequence(text) for text in OPTIMAL_SCHEDULES[n]]
    if not verify_prep_set(seqs, n).is_effective_pure:
        raise CertificateError(f"stored {n}-spin schedule does not sum to the effective pure target")
    return seqs
