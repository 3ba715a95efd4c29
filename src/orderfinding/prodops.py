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
with freely choosable signs; this is what the schedule search exploits.

Ops in a preparation sequence are applied in listed (time) order, the same
convention as module circuits.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuits import NativeSequence, parse_native_sequence
from .simulator import DIM, N_SPINS, Circuit, ControlledNot, NotGate, circuit_unitary


class SearchExhausted(RuntimeError):
    """No preparation schedule found within the requested limits."""


@dataclass(frozen=True)
class ZTerm:
    """One signed tensor string over {I, Z}; pattern like "IZIZZ".

    Patterns are length 5 for the physical register; shorter ones appear in
    schedule searches on fewer spins.
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


PrepSequence = NativeSequence  # restricted to ControlledNot and NotGate ops


def _check_prep_op(op) -> None:
    if not isinstance(op, (ControlledNot, NotGate)):
        raise ValueError(f"preparation sequences use only C and N ops, got {op!r}")


def conjugate(term: ZTerm, op) -> ZTerm:
    """Conjugate one signed Z-string by a C_ij or N_i gate."""
    _check_prep_op(op)
    if isinstance(op, NotGate):
        flip = term.pattern[op.spin - 1] == "Z"
        return ZTerm(term.pattern, -term.sign if flip else term.sign)
    zi = term.pattern[op.control - 1] == "Z"
    zj = term.pattern[op.target - 1] == "Z"
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
    total_terms: int
    summed: ZTermSum
    is_effective_pure: bool
    residual: ZTermSum
    canceled_pairs: int


def verify_prep_set(seqs: Sequence[PrepSequence], n: int = N_SPINS) -> PrepReport:
    """Sum the experiments over the given sequences and compare with the target."""
    target = effective_pure_target(n)
    eq = equilibrium_zsum(n)
    total = ZTermSum()
    total_terms = 0
    for seq in seqs:
        out = apply_prep(seq, eq)
        total_terms += sum(abs(c) for c in out.values())
        total = total + out
    residual = total - target
    is_pure = not residual
    canceled = (total_terms - len(target)) // 2 if is_pure else 0
    return PrepReport(total_terms, total, is_pure, residual, canceled)


def standard_prep_sequences() -> list[PrepSequence]:
    return [parse_native_sequence(text) for text in PREP_SET_5SPIN]


# Dense cross-check: the same conjugation computed with 32x32 matrices.

# _PARITY[a, b] = (-1)^popcount(a & b): the sign of Z-string b on basis state a.
_PARITY = np.array([[-1.0 if bin(a & b).count("1") & 1 else 1.0 for b in range(DIM)] for a in range(DIM)])


def zsum_to_matrix(terms: ZTermSum) -> np.ndarray:
    coeffs = np.zeros(DIM)
    for pattern, coeff in terms.items():
        coeffs[pattern_to_mask(pattern)] += coeff
    return np.diag(coeffs @ _PARITY).astype(complex)


def matrix_to_zsum(matrix: np.ndarray) -> ZTermSum:
    """Exact Z-string decomposition of a diagonal integer-coefficient operator."""
    if np.max(np.abs(matrix - np.diag(np.diag(matrix)))) > 1e-9:
        raise ValueError("operator is not diagonal in the computational basis")
    coeffs = _PARITY @ np.real(np.diag(matrix)) / DIM
    out = ZTermSum()
    for mask in range(1, DIM):
        coeff = float(coeffs[mask])
        rounded = round(coeff)
        if abs(coeff - rounded) > 1e-9:
            raise ValueError(f"non-integer coefficient {coeff} for mask {mask}")
        if rounded:
            out.add(mask_to_pattern(mask), rounded)
    return out


def apply_prep_dense(seq: PrepSequence, terms: ZTermSum) -> ZTermSum:
    u = circuit_unitary(Circuit(tuple(seq)))
    rho = zsum_to_matrix(terms)
    return matrix_to_zsum(u @ rho @ u.conj().T)


# Schedule search.  An experiment is characterized by (basis of GF(2)^n,
# signs): any invertible map is reachable with C ops (they generate GL(n,2))
# and any sign pattern on a basis is reachable with a trailing N layer.

def _span(vectors: Sequence[int]) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def _is_basis_set(vectors: Sequence[int]) -> bool:
    return len(_span(vectors)) == 2 ** len(vectors)


def _greedy_joint(pool: Sequence[int], k: int, contexts: Sequence[Sequence[int]]) -> list[int] | None:
    """Pick k pool vectors that stay independent when added to every context set."""
    chosen: list[int] = []
    if k == 0:
        return chosen
    spans = [_span(ctx) for ctx in contexts]
    for v in pool:
        if v in chosen or any(v in sp for sp in spans):
            continue
        chosen.append(v)
        spans = [sp | {s ^ v for s in sp} for sp in spans]
        if len(chosen) == k:
            return chosen
    return None


def synthesize_sequence(basis: Sequence[int], signs: Sequence[int], n: int = N_SPINS) -> PrepSequence:
    """Build a C/N sequence whose experiment equals the given signed basis.

    basis[k] is the desired image (as a Z-position mask, spin 1 = high bit)
    of the equilibrium term on spin k+1; signs[k] its desired sign.
    """
    cols = list(basis)
    if len(cols) != n:
        raise ValueError("need one image per spin")
    # Row-reduce the matrix with columns `cols` to the identity using only
    # row additions (row i += row j corresponds to conjugation by C_ij).
    m = [[(c >> (n - 1 - row)) & 1 for c in cols] for row in range(n)]
    elementary: list[tuple[int, int]] = []  # (i, j) meaning row i += row j

    def add_row(i: int, j: int) -> None:
        for col in range(n):
            m[i][col] ^= m[j][col]
        elementary.append((i, j))

    for col in range(n):
        if m[col][col] == 0:
            src = next(r for r in range(col + 1, n) if m[r][col])
            add_row(col, src)
        for row in range(n):
            if row != col and m[row][col]:
                add_row(row, col)
    # E_s ... E_1 A = I, so A = E_1 ... E_s; time order is the reversed list.
    ops: list = [ControlledNot(control=i + 1, target=j + 1) for i, j in reversed(elementary)]
    # The N layer flips the sign of image k iff <t, basis[k]> = 1, so t solves
    # A^T t = beta: t = E_1^T ... E_s^T beta, each E being its own inverse,
    # and E^T for (i, j) adds entry i to entry j.
    t = [0 if s == 1 else 1 for s in signs]
    for i, j in reversed(elementary):
        t[j] ^= t[i]
    ops.extend(NotGate(row + 1) for row in range(n) if t[row])
    return tuple(ops)


def _endgame(remaining: list[int], covered: list[int], n: int) -> list[tuple[list[int], list[int]]] | None:
    """Close out the last uncovered vectors with one, two or three experiments.

    Fillers are already-covered vectors inserted in +/- pairs spanning two
    experiments, so their net coefficient is unchanged.
    """
    r = len(remaining)
    if r == 0:
        return []
    if r == n and _is_basis_set(remaining):
        return [(list(remaining), [1] * n)]
    if r % 2 == 0 and 0 < r <= 2 * n:
        half = r // 2
        r1, r2 = remaining[:half], remaining[half:]
        if not (_is_basis_set(r1) and _is_basis_set(r2)):
            return None
        fillers = _greedy_joint(covered, n - half, contexts=[r1, r2])
        if fillers is None:
            return None
        e1 = (r1 + fillers, [1] * half + [1] * (n - half))
        e2 = (r2 + fillers, [1] * half + [-1] * (n - half))
        return [e1, e2]
    if r % 2 == 1 and r <= n and (n - r) % 2 == 0 and _is_basis_set(remaining):
        # Three experiments; filler pair counts x (between 1,2), y (1,3),
        # z (2,3) solve x+y = n-r, x+z = n, y+z = n.
        x = (n - r) // 2
        z = n - x
        ab = _greedy_joint(covered, 2 * x, contexts=[remaining])
        if ab is None:
            return None
        a_f, b_f = ab[:x], ab[x:]
        rest = [v for v in covered if v not in ab]
        c_f = _greedy_joint(rest, z, contexts=[a_f, b_f])
        if c_f is None:
            return None
        e1 = (remaining + a_f + b_f, [1] * r + [1] * (2 * x))
        e2 = (a_f + c_f, [-1] * x + [1] * z)
        e3 = (b_f + c_f, [-1] * x + [-1] * z)
        if all(_is_basis_set(e[0]) for e in (e1, e2, e3)):
            return [e1, e2, e3]
    return None


def schedule_prep(n: int = N_SPINS, max_experiments: int = 9) -> list[PrepSequence]:
    """Search for a temporal-labeling schedule on an n-spin system.

    One search serves every odd n: a greedy cover of the 2^n - 1 target
    strings by independent sets plus a pairing endgame, with seeded restarts.
    Returns preparation sequences whose summed experiments equal the n-spin
    effective pure target, verified before returning.  Raises
    SearchExhausted when no schedule is found within max_experiments, as
    below the counting bound ceil((2^n - 1) / n), since every experiment
    contributes n signed terms; for even n no schedule exists at all,
    because those terms total an even number while the target's
    coefficients sum to the odd number 2^n - 1.

    Best effort: the experiment count is not claimed minimal, though the
    search reaches the counting bound for n = 3 (3 experiments) and n = 5 (7).
    """
    if not 1 <= n <= N_SPINS:
        raise ValueError(f"spin count {n} out of range 1..{N_SPINS}")
    if max_experiments < 1:
        raise SearchExhausted("max_experiments must be at least 1")
    if n % 2 == 0:
        raise SearchExhausted(
            f"no schedule exists for n={n}: experiments contribute n terms each, "
            f"so total coefficients are even, but the target sums to {2**n - 1}"
        )
    plan = _schedule_greedy(n, max_experiments)
    if plan is None or len(plan) > max_experiments:
        raise SearchExhausted(f"no schedule found for n={n} within {max_experiments} experiments")

    seqs = [synthesize_sequence(basis, signs, n) for basis, signs in plan]
    report = verify_prep_set(seqs, n)
    if not report.is_effective_pure:
        raise SearchExhausted(f"schedule search produced an invalid plan for n={n}")
    return seqs


def _schedule_greedy(n: int, max_experiments: int, attempts: int = 64) -> list[tuple[list[int], list[int]]] | None:
    """Greedy cover by independent sets plus a pairing endgame, with seeded restarts.

    Each experiment covers at most n of the 2^n - 1 target terms, so a plan
    of ceil((2^n - 1) / n) experiments cannot be beaten; the search returns
    the first such plan, since later restarts could only tie it.
    """
    bound = -(-(2**n - 1) // n)
    rng = random.Random(20210405)
    base_order = sorted(range(1, 2**n))
    best: list[tuple[list[int], list[int]]] | None = None
    for attempt in range(attempts):
        order = list(base_order)
        if attempt:
            rng.shuffle(order)
        units = [1 << k for k in range(n - 1, -1, -1)]
        plan = [(units, [1] * n)]
        covered = set(units)
        while True:
            uncovered = [v for v in order if v not in covered]
            if len(uncovered) <= 2 * n:
                break
            pick = _greedy_joint(uncovered, n, contexts=[()])
            if pick is None:
                break
            plan.append((pick, [1] * n))
            covered.update(pick)
        uncovered = [v for v in order if v not in covered]
        tail = _endgame(uncovered, [v for v in order if v in covered], n)
        if tail is None:
            continue
        plan = plan + tail
        if len(plan) <= max_experiments and (best is None or len(plan) < len(best)):
            best = plan
            if len(plan) == bound:
                break
    return best
