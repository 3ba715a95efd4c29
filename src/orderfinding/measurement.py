"""Outcome distributions, ensemble observables, and the certified optimal guess strategy.

The measured three-bit outcome is assembled as m = 4*m3 + 2*m2 + m1, where
m_i is the bit read from spin i: the QFT is run without its final swap, so
spin 1 ends up holding the least significant bit of m.  The ensemble
observables are O_i = 1 - 2<m_i> = 2 Tr(rho I_zi).

Simulated states arrive in one form, a (k, 32) array of final amplitudes
such as `simulator.run_instances(specs)`, one instance per row, and a single
instance is the one-row case.  `outcome_probabilities` turns the rows into
a (k, 8) array, each row checked to be a probability vector, and
`simulator.expectation_Iz` reads O_1..O_5 from the rows' a * conj(a).  An
outcome distribution is an (8,) float array of Pr[m], m = 0..7, and a guess
strategy an (8, 4) array of Pr[guess ORDERS[k] | m]; the ones built here are
read-only.

The outcome distributions exist once, exactly, in Z[zeta_8], zeta =
exp(2 pi i / 8): each coset sum S_a(m) is four ints, and |S_a(m)|^2 is an
integer pair p + q sqrt 2, so Pr[m] is the pair (a, b) meaning
(a + b sqrt 2) / 64.  `analytic_distribution` is the floats of these pairs.
The guess game's optimal vertex is stored as literals and certified on every
`solve_guess_game()` call, in integers, on the same pairs: the sums are
ordered by the sign of a + b sqrt 2 (`sqrt2_sign`, after McConnell et al.,
"Certifying algorithms", Comput. Sci. Rev. 5, 2011), and the per-order
successes it reports are the floats of the certificate's own sums.  The
pairs depend on nothing stored and are built once per process; the literals
are read on every call.  By weak duality the value is exactly 60/109, a
`QSqrt2` that is only built, read and printed.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import CertificateError

ORDERS = (1, 2, 3, 4)

# The optimal vertex of the guess game, in units of 1/GUESS_DENOMINATOR: GUESS_STRATEGY[m][k]
# is the probability of guessing ORDERS[k] on outcome m, GUESS_PRIOR[k] the hardest prior's mass
# on ORDERS[k].  Row m = 0 mixes; rows m = 1..7 guess r = 3, 4, 3, 2, 3, 4, 3.
GUESS_DENOMINATOR = 109
GUESS_STRATEGY = ((60, 11, 16, 22), (0, 0, 109, 0), (0, 0, 0, 109), (0, 0, 109, 0),
                  (0, 109, 0, 0), (0, 0, 109, 0), (0, 0, 0, 109), (0, 0, 109, 0))
GUESS_PRIOR = (11, 22, 32, 44)


def sqrt2_sign(a: int, b: int) -> int:
    """The sign (-1, 0 or 1) of a + b sqrt 2 for ints a, b."""
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: a + b sqrt 2 = (a^2 - 2 b^2) / (a - b sqrt 2), and a - b sqrt 2 has the sign of a
    return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)


@dataclass(frozen=True)
class QSqrt2:
    """An element a + b*sqrt(2) of Q(sqrt 2) with Fraction parts: a value read as a float or printed."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __float__(self):
        return float(self.a) + float(self.b) * 2**0.5

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a} + {self.b}*sqrt(2)"


class InfeasibleInput(ValueError):
    """A supplied distribution is not a probability vector."""


def _check_probability_rows(p: np.ndarray) -> None:
    """InfeasibleInput naming the first row of `p` (k, n) that is not a probability vector."""
    for row, (low, total) in enumerate(zip(p.min(axis=1).tolist(), p.sum(axis=1).tolist())):
        if not (low >= -1e-12 and abs(total - 1.0) <= 1e-12):
            raise InfeasibleInput(f"row {row} is not a probability vector: {p[row]}")


@functools.cache
def _exact_closed_form(r: int) -> tuple[tuple[int, int], ...]:
    """Pr[m] = sum over the cosets a of |S_a(m)|^2 / 64, with S_a(m) = sum over x = a mod r of zeta^(m x).

    S = c0 + c1 zeta + c2 zeta^2 + c3 zeta^3 as ints, since zeta^4 = -1; then
    |S|^2 = sum c_j^2 + (c0 c1 + c1 c2 + c2 c3 - c0 c3) sqrt 2.  Returns the eight pairs
    (a, b) meaning Pr[m] = (a + b sqrt 2) / 64, built once per process.
    """
    probs = []
    for m in range(8):
        p = q = 0
        for a in range(r):
            c = [0] * 4
            for x in range(a, 8, r):
                k = m * x % 8
                c[k % 4] += 1 if k < 4 else -1
            p += sum(v * v for v in c)
            q += c[0] * c[1] + c[1] * c[2] + c[2] * c[3] - c[0] * c[3]
        probs.append((p, q))
    return tuple(probs)


def analytic_distribution(r: int) -> np.ndarray:
    """Exact outcome distribution for an 8-point function of period r, a read-only (8,) array.

    The floats of `_exact_closed_form(r)`'s pairs, (a + b sqrt 2) / 64; the
    test suite checks those pairs against the closed forms once typed there
    and against an exact evaluation of the circuit in Z[zeta_8].  Each
    order's distribution is built once per process and shared by every
    caller.  `r` must be an int (not a bool) in 1..4.
    """
    if isinstance(r, bool) or not isinstance(r, int) or r not in ORDERS:
        raise ValueError(f"order {r} out of range 1..4")
    return _analytic_distribution(r)


@functools.cache
def _analytic_distribution(r: int) -> np.ndarray:
    a, b = np.array(_exact_closed_form(r)).T
    probs = (a + b * np.sqrt(2.0)) / 64.0
    probs.flags.writeable = False
    return probs


def m_from_register_index(b: int) -> int:
    """Outcome m for register basis index b = b1 b2 b3 (bit-reversed readout)."""
    b1, b2, b3 = (b >> 2) & 1, (b >> 1) & 1, b & 1
    return 4 * b3 + 2 * b2 + b1


def outcome_probabilities(amps: np.ndarray) -> np.ndarray:
    """Pr[m] for m = 0..7 from each row of final amplitudes (k, 32), each row checked: shape (k, 8)."""
    register = (np.abs(amps) ** 2).reshape(-1, 8, 4).sum(axis=2)  # spins 1-3, indexed b1b2b3
    probs = np.empty_like(register)
    probs[:, [m_from_register_index(b) for b in range(8)]] = register
    _check_probability_rows(probs)
    return probs


def infer_order(probs: np.ndarray) -> int:
    """The order whose analytic distribution is closest in L1 distance to `probs`, Pr[m] for m = 0..7."""
    dists = {r: np.abs(probs - analytic_distribution(r)).sum() for r in ORDERS}
    return min(dists, key=dists.get)


@dataclass(frozen=True)
class GuessGameSolution:
    """strategy[m, k] = Pr[guess ORDERS[k] | m], a read-only (8, 4) array; the value is its worst success."""

    strategy: np.ndarray
    value: float
    exact_value: QSqrt2
    prior: tuple[QSqrt2, ...]
    per_order_success: tuple[float, float, float, float]


def _certified_value(table, strategy, prior) -> tuple[QSqrt2, tuple[QSqrt2, ...]]:
    """The guess-game value pinned by a strategy and a prior, with the strategy's success on each order.

    Pr[m | order ORDERS[k]] = (a + b sqrt 2) / 64 for (a, b) = table[k][m], as `_exact_closed_form`
    gives it; strategy and prior count units of 1/GUESS_DENOMINATOR.  The strategy's worst success
    bounds the value from below, the prior's best-response value sum_m max_k prior[k] Pr[m | ORDERS[k]]
    from above.  Both are integer pairs (a, b) meaning (a + b sqrt 2) / (64 * GUESS_DENOMINATOR).
    A failed check raises CertificateError naming it.
    """
    if len(strategy) != 8:
        raise CertificateError(f"guess strategy has {len(strategy)} rows, expected one per outcome m = 0..7")
    for m, row in enumerate(strategy):
        if len(row) != len(ORDERS) or min(row) < 0 or sum(row) != GUESS_DENOMINATOR:
            raise CertificateError(f"guess strategy row m={m} is not a distribution over the orders")
    if len(prior) != len(ORDERS) or min(prior) < 0 or sum(prior) != GUESS_DENOMINATOR:
        raise CertificateError("hardest guess prior is not a distribution over the orders")
    by_value = functools.cmp_to_key(lambda u, v: sqrt2_sign(u[0] - v[0], u[1] - v[1]))
    successes = [(sum(table[k][m][0] * row[k] for m, row in enumerate(strategy)),
                  sum(table[k][m][1] * row[k] for m, row in enumerate(strategy))) for k in range(len(ORDERS))]
    worst = min(successes, key=by_value)
    tops = [max(((table[k][m][0] * p, table[k][m][1] * p) for k, p in enumerate(prior)), key=by_value)
            for m in range(8)]
    best = (sum(a for a, _ in tops), sum(b for _, b in tops))
    scale = 64 * GUESS_DENOMINATOR

    def value(pair: tuple[int, int]) -> QSqrt2:
        return QSqrt2(Fraction(pair[0], scale), Fraction(pair[1], scale))

    if worst != best:
        raise CertificateError(f"guess-game certificate failed: strategy {value(worst)!r} != prior {value(best)!r}")
    return value(worst), tuple(map(value, successes))


def solve_guess_game() -> GuessGameSolution:
    """The maximin guess strategy and the hardest prior over r: the stored vertex, certified on every call."""
    value, successes = _certified_value([_exact_closed_form(r) for r in ORDERS], GUESS_STRATEGY, GUESS_PRIOR)
    strategy = np.array(GUESS_STRATEGY) / GUESS_DENOMINATOR
    strategy.flags.writeable = False
    return GuessGameSolution(
        strategy=strategy,
        value=float(value),
        exact_value=value,
        prior=tuple(QSqrt2(Fraction(p, GUESS_DENOMINATOR)) for p in GUESS_PRIOR),
        per_order_success=tuple(map(float, successes)),
    )
