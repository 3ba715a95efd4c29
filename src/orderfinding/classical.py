"""Exact analysis of the classical oracle-query game.

A classical algorithm may only ask "which room is pi^x(y)?" for exponents x
of its choice.  With the start fixed at y = 0 (the game value is the same
for every y, by relabeling; the implementation checks this), the one-query
game is a finite zero-sum game: the guesser randomizes over the exponent x
in 1..12 (pi^12 is the identity, so larger exponents add nothing), sees
z = pi^x(0), and guesses r'; the adversary picks one of the 24 permutations.
Everything a query can see is the trajectory pi^0(y), ..., pi^12(y) of
`permutations.trajectory`, so one table per start y, each trajectory with
its order, evaluates strategies.  The game is an LP, but its optimal vertex
at y = 0 is stored as exact literals (ONE_QUERY_WITNESS, HARDEST_PRIOR) and
certified on every call instead of searched for: the witness is a
strategy, the prior a distribution, and the witness's worst-case payoff
equals the prior's best-response value, so by weak duality both equal the
game value, exactly 1/2.  Relabeling carries the certificate to y = 1..3:
the witness's integer table by relabeling the seen z, the prior through an
index map of each permutation to its conjugate.  A failed check raises
CertificateError.  The checks sum integer numerators over one denominator
(weight times guess probability, or prior mass), so each result is one
Fraction(total, den).  The two-query witness is checked on the same tables.
The tables depend only on the permutations and are built once per process;
the stored literals are read and every check runs on every call.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm, prod
from types import MappingProxyType

from . import CertificateError
from .permutations import ALL_PERMUTATIONS, MAX_EXPONENT, N_ELEMENTS, permutation_names, trajectory

# The optimal vertex of the one-query LP at y = 0.  The witness maps each
# exponent x it queries to its weight and the deterministic guess r' made on
# seeing z = pi^x(0) for z = 0, 1, 2, 3; the adversary's hardest prior is
# keyed by cycle notation.  one_query_value() checks both on every call.
ONE_QUERY_WITNESS = {
    1: (Fraction(1, 4), (1, 2, 3, 3)),
    2: (Fraction(1, 4), (2, 4, 4, 4)),
    3: (Fraction(1, 4), (3, 4, 4, 4)),
    7: (Fraction(1, 4), (1, 3, 2, 2)),
}
HARDEST_PRIOR = {
    "(1 3)": Fraction(1, 4),
    **{text: Fraction(1, 12) for text in ("(0 1)", "(0 1 2)", "(0 1 3 2)", "(0 2 3)", "(0 2)(1 3)",
                                          "(0 2 1 3)", "(0 3 2 1)", "(0 3 1)", "(0 3)(1 2)")},
}


@cache
def _cases(y: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(trajectory, order) of start y under each permutation, in ALL_PERMUTATIONS order, built once per process.

    The order is the cycle length of y: the trajectory's first return to y.
    """
    paths = (trajectory(pi, y) for pi in ALL_PERMUTATIONS)
    return tuple((path, path.index(y, 1)) for path in paths)


@cache
def _relabeling(y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(tau, conjugates) for the transposition tau = (0 y), built once per process.

    tau[v] is the image of room v, and conjugates maps i to the j with ALL_PERMUTATIONS[j] = tau pi_i tau.
    """
    t = list(range(N_ELEMENTS))
    t[0], t[y] = y, 0  # tau, its own inverse
    index = {pi.images: j for j, pi in enumerate(ALL_PERMUTATIONS)}
    return tuple(t), tuple(index[tuple(t[pi.images[t[v]]] for v in range(N_ELEMENTS))] for pi in ALL_PERMUTATIONS)


def _worst_scaled_payoff(columns: tuple, cases: Sequence[tuple[tuple[int, ...], int]]) -> int:
    """The least integer payoff of a strategy's columns (x, cells[z][r - 1]) over (trajectory, order) cases."""
    return min(sum(cells[path[x]][r - 1] for x, cells in columns) for path, r in cases)


@dataclass(frozen=True)
class OneQueryStrategy:
    """Randomized single-query strategy: weights over x, then a guess per (x, z)."""

    x_weights: dict[int, Fraction]
    guesses: dict[tuple[int, int], tuple[Fraction, Fraction, Fraction, Fraction]]

    def __post_init__(self) -> None:
        # read-only copies, so the integer table cached from them cannot go stale
        object.__setattr__(self, "x_weights", MappingProxyType(dict(self.x_weights)))
        object.__setattr__(self, "guesses", MappingProxyType(dict(self.guesses)))

    def min_payoff(self, y: int = 0) -> Fraction:
        den, columns = self._table
        return Fraction(_worst_scaled_payoff(columns, _cases(y)), den)

    @cached_property
    def _table(self) -> tuple[int, tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]]:
        """(den, columns): per live x, (x, cells), cells[z][r - 1] = weight(x) * Pr[guess r | x, z] in units of 1/den.

        den is the lcm of the weights' denominators times the lcm of the live guess rows' denominators.
        Weights that are not a distribution over the exponents 1..12, or a guess row at a live x
        that is missing or not a distribution over the orders 1..4, raise CertificateError.
        """
        weights = self.x_weights
        den_w = lcm(*(w.denominator for w in weights.values()))
        if (any(type(x) is not int or not 1 <= x <= MAX_EXPONENT or w < 0 for x, w in weights.items())
                or sum(w.numerator * (den_w // w.denominator) for w in weights.values()) != den_w):
            raise CertificateError(f"witness weights are not a distribution over exponents 1..{MAX_EXPONENT}")
        xs = tuple(x for x, w in weights.items() if w)
        rows = [[self.guesses.get((x, z), ()) for z in range(N_ELEMENTS)] for x in xs]
        den_g = lcm(*(g.denominator for by_z in rows for row in by_z for g in row))
        columns = []
        for x, by_z in zip(xs, rows):
            wx = weights[x].numerator * (den_w // weights[x].denominator)  # weight(x) in units of 1/den_w
            cells = tuple(tuple([wx * g.numerator * (den_g // g.denominator) for g in row]) for row in by_z)
            for z, cell in enumerate(cells):  # the row sums to 1 iff its cell sums to wx * den_g
                if len(cell) != N_ELEMENTS or min(cell) < 0 or sum(cell) != wx * den_g:
                    raise CertificateError(f"guess row at x={x}, z={z} is not a distribution over the orders 1..4")
            columns.append((x, cells))
        return den_w * den_g, tuple(columns)


@dataclass(frozen=True)
class TwoQueryStrategy:
    """Non-adaptive pair of queries x >= 0, ints (not bools), with a deterministic decision table."""

    queries: tuple[int, int]
    table: dict[tuple[bool, bool], int]

    def __post_init__(self) -> None:
        for x in self.queries:
            if type(x) is not int or x < 0:
                raise ValueError(f"query exponent {x!r} is not a nonnegative int")

    def decide(self, path: tuple[int, ...]) -> int:
        """The guess on a trajectory: query x sees whether pi^x(y) = y, and pi^12 is the identity."""
        return self.table[tuple([path[x % MAX_EXPONENT] == path[0] for x in self.queries])]


def paper_one_query_witness() -> OneQueryStrategy:
    """Query x=3; on z = y guess 1 or 3 evenly, otherwise guess 2 or 4 evenly."""
    half = Fraction(1, 2)
    zero = Fraction(0)
    guesses = {}
    for z in range(4):
        if z == 0:
            guesses[(3, z)] = (half, zero, half, zero)
        else:
            guesses[(3, z)] = (zero, half, zero, half)
    return OneQueryStrategy(x_weights={3: Fraction(1)}, guesses=guesses)


def two_query_witness() -> TwoQueryStrategy:
    """Check pi^2(y) = y and pi^3(y) = y; the divisibility pattern pins down r."""
    return TwoQueryStrategy(
        queries=(2, 3),
        table={(True, True): 1, (True, False): 2, (False, True): 3, (False, False): 4},
    )


@dataclass(frozen=True)
class OneQueryReport:
    value: Fraction
    witness: OneQueryStrategy
    prior: dict[str, Fraction]
    prior_best_response: Fraction
    paper_witness_value: Fraction
    values_per_y: tuple[Fraction, Fraction, Fraction, Fraction]


def prior_best_response_value(prior: list[Fraction], y: int = 0) -> Fraction:
    """Value of the best deterministic single-query reply to a prior, one mass per ALL_PERMUTATIONS entry."""
    cases = _cases(y)
    if len(prior) != len(cases):
        raise ValueError(f"prior has {len(prior)} masses, expected {len(cases)} (one per permutation)")
    den = lcm(*(p.denominator for p in prior))
    live = [(p.numerator * (den // p.denominator), path, r - 1) for p, (path, r) in zip(prior, cases) if p]
    best = 0
    for x in range(1, MAX_EXPONENT + 1):
        mass = [0] * 16  # mass[4 z + r - 1], in units of 1/den
        for p, path, k in live:
            mass[4 * path[x] + k] += p
        best = max(best, max(mass[0:4]) + max(mass[4:8]) + max(mass[8:12]) + max(mass[12:16]))
    return Fraction(best, den)


def _value_at_y(y: int, witness: OneQueryStrategy, prior: list[Fraction]) -> Fraction:
    """Exact game value at start y, via certificates transported from y = 0.

    Relabeling rooms by the transposition tau = (0 y) carries the y = 0 game
    onto the y game: the transported witness bounds the value from below and
    the transported prior from above; the bounds coincide, pinning the value.
    The witness is transported as its integer table, whose rows are checked
    already, and the prior through the index map pi -> tau pi tau.
    """
    tau, conjugates = _relabeling(y)
    den, columns = witness._table
    columns_y = tuple((x, tuple(cells[tau[z]] for z in range(N_ELEMENTS))) for x, cells in columns)
    lower = Fraction(_worst_scaled_payoff(columns_y, _cases(y)), den)
    upper = prior_best_response_value([prior[j] for j in conjugates], y)
    if lower != upper:
        raise CertificateError(f"certificate transport failed at y={y}: {lower} != {upper}")
    return lower


def _stored_witness() -> OneQueryStrategy:
    """ONE_QUERY_WITNESS as a strategy; each guess becomes a one-hot int row, and the strategy checks its weights."""
    weights = {x: w for x, (w, _) in ONE_QUERY_WITNESS.items()}
    guesses = {}
    for x, (_, row) in ONE_QUERY_WITNESS.items():
        if len(row) != N_ELEMENTS or any(guess not in (1, 2, 3, 4) for guess in row):
            raise CertificateError(f"witness guesses at x={x} are not one order in 1..4 per seen z")
        for z, guess in enumerate(row):
            guesses[(x, z)] = tuple(int(guess == r) for r in range(1, 5))
    return OneQueryStrategy(weights, guesses)


def _prior_vector(prior: dict[str, Fraction]) -> list[Fraction]:
    """The stored masses in ALL_PERMUTATIONS order, 0 where none is stored, checked to be a distribution."""
    names = permutation_names()
    unknown = sorted(set(prior) - set(names))
    if unknown:
        raise CertificateError(f"hardest prior names {unknown[0]!r}, not a permutation of 0..3")
    vector = [prior.get(name, 0) for name in names]
    den = lcm(*(p.denominator for p in vector))
    if min(vector) < 0 or sum(p.numerator * (den // p.denominator) for p in vector) != den:
        raise CertificateError("hardest prior is not a distribution over the 24 permutations")
    return vector


def one_query_value() -> OneQueryReport:
    """Exact value of the one-query game, certified from its stored optimal vertex.

    The witness's worst-case payoff bounds the value from below and the
    prior's best-response value bounds it from above; they must be equal.
    The same pair, relabeled, pins the value at y = 1..3.  Every check runs
    on every call, and a failed one raises CertificateError.
    """
    witness = _stored_witness()
    prior = _prior_vector(HARDEST_PRIOR)
    value = witness.min_payoff(0)
    upper = prior_best_response_value(prior, 0)
    if value != upper:
        raise CertificateError(f"one-query certificate failed at y=0: witness {value} != prior {upper}")
    values = [value]
    for y in range(1, 4):
        values.append(_value_at_y(y, witness, prior))
    return OneQueryReport(
        value=value,
        witness=witness,
        prior={name: p for name, p in zip(permutation_names(), prior) if p},
        prior_best_response=upper,
        paper_witness_value=paper_one_query_witness().min_payoff(),
        values_per_y=tuple(values),
    )


@dataclass(frozen=True)
class TwoQueryReport:
    achievable: bool
    witness: TwoQueryStrategy
    cases_checked: int
    single_query_strategies_checked: int
    single_query_perfect: int


def _single_query_deterministic_perfect_count(y: int = 0) -> tuple[int, int]:
    """Count the perfect pairs of x in 1..12 and guess function {0..3} -> {1..4}, out of all 12 * 4^4.

    At a fixed x, each seen z multiplies the count of perfect guess tables by
    4 if no trajectory shows z, by 1 if all that do share one order, else by 0.
    """
    cases = _cases(y)
    perfect = 0
    for x in range(1, MAX_EXPONENT + 1):
        seen = [0] * N_ELEMENTS  # seen[z]: bit r is set when a trajectory of order r shows z
        for path, r in cases:
            seen[path[x]] |= 1 << r
        perfect += prod(N_ELEMENTS if not bits else int(bits & (bits - 1) == 0) for bits in seen)
    return N_ELEMENTS**N_ELEMENTS * MAX_EXPONENT, perfect


def two_query_certainty() -> TwoQueryReport:
    """Certify that two queries determine the order on all 96 cases, one query cannot."""
    witness = two_query_witness()
    cases = 0
    for y in range(N_ELEMENTS):
        for i, (path, r) in enumerate(_cases(y)):
            if witness.decide(path) != r:
                raise CertificateError(f"two-query witness failed on {permutation_names()[i]}, y={y}")
            cases += 1
    checked, perfect = _single_query_deterministic_perfect_count()
    return TwoQueryReport(
        achievable=True,
        witness=witness,
        cases_checked=cases,
        single_query_strategies_checked=checked,
        single_query_perfect=perfect,
    )
