"""Outcome distributions, ensemble observables, and the optimal guess strategy.

The measured three-bit outcome is assembled as m = 4*m3 + 2*m2 + m1, where
m_i is the bit read from spin i: the QFT is run without its final swap, so
spin 1 ends up holding the least significant bit of m.  The ensemble
observables are O_i = 1 - 2<m_i> = 2 Tr(rho I_zi).

`simulated_distribution`, `simulated_observables` and `final_density` read
the circuit's final `QuantumState`, so one `circuits.run_orderfinding(spec)`
serves all three for an instance.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactlp import QSqrt2, solve_maximin_assignment
from .simulator import DensityOperator, QuantumState, expectation_Iz, register_probabilities

ORDERS = (1, 2, 3, 4)


class InfeasibleInput(ValueError):
    """A supplied distribution is not a probability vector."""


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of m = 0..7; optionally with exact field entries attached."""

    probs: np.ndarray
    exact: tuple | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float).reshape(8)
        if not (p.min() >= -1e-12 and abs(p.sum() - 1.0) <= 1e-12):
            raise InfeasibleInput(f"not a probability vector: {p}")
        object.__setattr__(self, "probs", p)
        if self.exact is not None:
            if len(self.exact) != 8:
                raise InfeasibleInput("exact entries must have length 8")
            object.__setattr__(self, "exact", tuple(self.exact))

    def exact_entries(self) -> tuple:
        """Exact entries; floats are promoted to the Fractions they denote."""
        if self.exact is not None:
            return self.exact
        return tuple(Fraction(float(p)) for p in self.probs)


@dataclass(frozen=True)
class GuessStrategy:
    """g[m][k] = probability of guessing order ORDERS[k] on outcome m."""

    g: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float).reshape(8, 4)
        if not (g.min() >= -1e-12 and np.max(np.abs(g.sum(axis=1) - 1.0)) <= 1e-12):
            raise InfeasibleInput("strategy rows must be probability vectors")
        object.__setattr__(self, "g", g)


def _exact_closed_form(r: int) -> tuple[QSqrt2, ...]:
    f = Fraction
    if r == 1:
        probs = [QSqrt2(f(1) if m == 0 else f(0)) for m in range(8)]
    elif r == 2:
        probs = [QSqrt2(f(1, 2) if m in (0, 4) else f(0)) for m in range(8)]
    elif r == 3:
        num = {0: (22, 0), 1: (8, -5), 2: (4, 0), 3: (8, 5), 4: (2, 0), 5: (8, 5), 6: (4, 0), 7: (8, -5)}
        probs = [QSqrt2(f(num[m][0], 64), f(num[m][1], 64)) for m in range(8)]
    elif r == 4:
        probs = [QSqrt2(f(1, 4) if m % 2 == 0 else f(0)) for m in range(8)]
    else:
        raise ValueError(f"order {r} out of range 1..4")
    return tuple(probs)


def analytic_distribution(r: int) -> OutcomeDistribution:
    """Exact outcome distribution for an 8-point function of period r.

    Computed by collapsing the second register and Fourier-transforming each
    residue coset of {0..7} mod r; the attached exact entries are the closed
    forms, which the test suite cross-checks against this sum and against
    full circuit simulation.  Each order's distribution is built once per
    process and shared by every caller, so its `probs` is read-only.
    """
    if r not in ORDERS:
        raise ValueError(f"order {r} out of range 1..4")
    return _analytic_distribution(r)


@functools.cache
def _analytic_distribution(r: int) -> OutcomeDistribution:
    probs = np.zeros(8)
    for a in range(r):
        xs = np.arange(a, 8, r)
        for m in range(8):
            probs[m] += abs(np.exp(2j * np.pi * m * xs / 8).sum()) ** 2
    dist = OutcomeDistribution(probs / 64.0, exact=_exact_closed_form(r))
    dist.probs.flags.writeable = False
    return dist


def m_from_register_index(b: int) -> int:
    """Outcome m for register basis index b = b1 b2 b3 (bit-reversed readout)."""
    b1, b2, b3 = (b >> 2) & 1, (b >> 1) & 1, b & 1
    return 4 * b3 + 2 * b2 + b1


def simulated_distribution(state: QuantumState) -> OutcomeDistribution:
    """Outcome distribution of the circuit's final state, e.g. `run_orderfinding(spec)`."""
    reg = register_probabilities(state)
    probs = np.zeros(8)
    for b in range(8):
        probs[m_from_register_index(b)] = reg[b]
    return OutcomeDistribution(probs)


def simulated_observables(state: QuantumState) -> tuple[float, float, float, float, float]:
    """O_1..O_5 of the circuit's final state, via 2 Tr(rho I_zi)."""
    rho = state.density()
    return tuple(expectation_Iz(rho, i) for i in range(1, 6))


def final_density(state: QuantumState) -> DensityOperator:
    """Density operator of the circuit's final state."""
    return state.density()


def observables_from_distribution(dist: OutcomeDistribution) -> tuple[float, float, float]:
    """(O_1, O_2, O_3) with O_i = 1 - 2 sum_{m: bit_i(m)=1} p(m); bit 1 is the LSB."""
    p = dist.probs
    out = []
    for i in range(3):
        mean_bit = sum(p[m] for m in range(8) if (m >> i) & 1)
        out.append(1.0 - 2.0 * mean_bit)
    return tuple(out)


def infer_order(dist: OutcomeDistribution) -> int:
    """The order whose analytic distribution is closest in L1 distance."""
    dists = {r: np.abs(dist.probs - analytic_distribution(r).probs).sum() for r in ORDERS}
    return min(dists, key=dists.get)


@dataclass(frozen=True)
class GuessGameSolution:
    strategy: GuessStrategy
    value: float
    exact_value: object
    exact_strategy: tuple
    prior: tuple
    per_order_success: tuple[float, float, float, float]


def solve_guess_game(dists: tuple[OutcomeDistribution, ...] | None = None) -> GuessGameSolution:
    """Maximin guess strategy: maximize the worst-case (over r) success probability.

    Solved as an LP with an exactly certified solution; for the four
    order-finding distributions the data lie in Q(sqrt(2)) and the optimum
    comes out rational.  The dual solution is the hardest prior over r and
    certifies optimality.
    """
    if dists is None:
        dists = tuple(analytic_distribution(r) for r in ORDERS)
    if len(dists) != 4:
        raise InfeasibleInput("need one distribution per order 1..4")
    exact = [d.exact_entries() for d in dists]
    payoffs = [[exact[k][m] for k in range(4)] for m in range(8)]
    value, g, prior = solve_maximin_assignment(payoffs)
    strategy = GuessStrategy(np.array([[float(g[m][k]) for k in range(4)] for m in range(8)]))
    per = guess_success_per_r(strategy, dists)
    return GuessGameSolution(
        strategy=strategy,
        value=float(value),
        exact_value=value,
        exact_strategy=tuple(tuple(row) for row in g),
        prior=tuple(prior),
        per_order_success=per,
    )


def guess_success_per_r(strategy: GuessStrategy, dists: tuple[OutcomeDistribution, ...] | None = None):
    """Pr[r' = r | r] for each order r under the given strategy."""
    if dists is None:
        dists = tuple(analytic_distribution(r) for r in ORDERS)
    return tuple(float(np.dot(dists[k].probs, strategy.g[:, k])) for k in range(4))
