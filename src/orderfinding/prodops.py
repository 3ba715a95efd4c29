"""Signed {I,Z}-string algebra for temporal-labeling state preparation.

A deviation density operator that is diagonal in the computational basis
decomposes over tensor strings of I and Z.  A string on n spins is the bit
mask of its Z positions: spin i is bit n - i, so spin 1 is the most
significant bit, as in module gates.  Conjugation by controlled-NOT and
NOT gates maps each signed string to exactly one signed string, so a
preparation experiment can be tracked exactly with integer coefficients:

    under C_ij (control i, target j): if bit j is set, flip bit i;
                                      the sign is unchanged;
    under N_i: if bit i is set, negate the coefficient.

So C_ij adds bit j to bit i over GF(2), and N_i reads bit i into the sign.
An experiment (one preparation sequence applied to thermal equilibrium)
therefore yields the image of the n unit vectors under an invertible linear
map over GF(2), with freely choosable signs.  Each experiment thus
contributes n signed terms, which bounds every schedule from below (see
schedule_prep).  A sum on n spins is a coefficient vector, a tuple of 2^n
ints whose entry mask is the coefficient of that string; its length carries
n, and its identity entry 0 is left unchanged by every op.  Pattern text
like "IZIZZ" is only for reports (mask_to_pattern).

A preparation sequence is a `gates.Circuit` of ControlledNot and NotGate
ops, applied in listed (time) order, the same convention as module circuits.

apply_prep_dense cross-checks apply_prep exactly without these rules.  A
5-spin coefficient vector c is the diagonal d = WHT(c), an integer
Walsh-Hadamard transform: d[a] = sum_b (-1)^popcount(a & b) c[b].  C and N ops
send basis state a to one basis state, read from `circuits.native_image` as in
the oracle check (its phase cancels on a diagonal), and d[a] moves there.  WHT
of the moved diagonal is 32 times the new vector, so each entry must divide
by 32 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import CertificateError, circuits
from .gates import DIM, N_SPINS, Circuit, ControlledNot, NotGate


class SearchExhausted(RuntimeError):
    """No preparation schedule exists within the requested limits."""


def mask_to_pattern(mask: int, n: int = N_SPINS) -> str:
    """Pattern text of an n-spin mask, like "IZIZZ", for reports."""
    return "".join("Z" if (mask >> (n - 1 - k)) & 1 else "I" for k in range(n))


ZTermSum = tuple[int, ...]  # entry mask is the coefficient of that Z-string; 2^n entries on n spins


def _check_spin_count(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= N_SPINS:
        raise ValueError(f"spin count {n!r} is not an int in 1..{N_SPINS}")


def _spin_count(terms: ZTermSum) -> int:
    """n for a sum of 2^n entries, or ValueError naming the length."""
    n = len(terms).bit_length() - 1
    if not 1 <= n <= N_SPINS or len(terms) != 1 << n:
        raise ValueError(f"a Z-string sum has 2^n entries for n in 1..{N_SPINS}, got {len(terms)}")
    return n


def apply_prep(seq: Circuit, terms: ZTermSum) -> ZTermSum:
    """Conjugate every term by each op of the sequence, in time order."""
    n = _spin_count(terms)
    top = 1 << n
    rules = []  # (bit tested, bit flipped, sign factor) per op; spin i is bit top >> i
    for op in seq:
        if isinstance(op, ControlledNot):
            spins, rule = (op.control, op.target), (top >> op.target, top >> op.control, 1)
        elif isinstance(op, NotGate):
            spins, rule = (op.spin,), (top >> op.spin, 0, -1)
        else:
            raise ValueError(f"preparation sequences use only C and N ops, got {op!r}")
        if max(spins) > n:
            raise ValueError(f"{op!r} acts on a spin above n={n}")
        rules.append(rule)
    out = [0] * top
    for mask, coeff in enumerate(terms):
        if coeff:
            for tested, flipped, sign in rules:
                if mask & tested:
                    mask ^= flipped
                    coeff *= sign
            out[mask] += coeff
    return tuple(out)


def equilibrium_zsum(n: int = N_SPINS) -> ZTermSum:
    """Thermal equilibrium deviation: the n single-Z strings, coefficient +1."""
    _check_spin_count(n)
    return tuple(int(mask.bit_count() == 1) for mask in range(1 << n))


def effective_pure_target(n: int = N_SPINS) -> ZTermSum:
    """All 2^n - 1 non-identity strings with coefficient +1."""
    _check_spin_count(n)
    return (0,) + (1,) * ((1 << n) - 1)


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


def verify_prep_set(seqs: Sequence[Circuit], n: int = N_SPINS) -> PrepReport:
    """Sum the experiments over the given sequences and compare with the target."""
    target = effective_pure_target(n)
    eq = equilibrium_zsum(n)
    images = tuple(apply_prep(seq, eq) for seq in seqs)
    total_terms = sum(abs(c) for image in images for c in image)
    total = tuple(map(sum, zip((0,) * len(target), *images)))  # entrywise, all zero for no images
    residual = tuple(c - t for c, t in zip(total, target))
    is_pure = not any(residual)
    canceled = (total_terms - sum(target)) // 2 if is_pure else 0
    return PrepReport(total_terms, total, is_pure, residual, canceled, images)


def standard_prep_sequences() -> list[Circuit]:
    return [circuits.parse_native_sequence(text) for text in PREP_SET_5SPIN]


def _walsh_hadamard(values: Sequence[int]) -> list[int]:
    """out[a] = sum_b (-1)^popcount(a & b) values[b] over the DIM basis states, in N_SPINS butterfly passes."""
    out = list(values)
    for half in (1 << k for k in range(N_SPINS)):
        for j in range(DIM):
            if not j & half:
                out[j], out[j | half] = out[j] + out[j | half], out[j] - out[j | half]
    return out


def apply_prep_dense(seq: Circuit, terms: ZTermSum) -> ZTermSum:
    """Conjugate 5-spin terms by the sequence through its basis map, independently of apply_prep's rules."""
    n = _spin_count(terms)
    if n != N_SPINS:
        raise ValueError(f"dense conjugation takes {N_SPINS}-spin sums, got n={n}")
    moved = [0] * DIM
    for index, value in enumerate(_walsh_hadamard(terms)):
        moved[circuits.native_image(seq, index)[0]] = value
    out = _walsh_hadamard(moved)
    for mask, value in enumerate(out):
        if value % DIM:
            raise ValueError(f"coefficient {value}/{DIM} of mask {mask} is not an integer")
    return tuple(value // DIM for value in out)


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


def schedule_prep(n: int = N_SPINS, max_experiments: int = 9) -> list[Circuit]:
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
    _check_spin_count(n)
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
