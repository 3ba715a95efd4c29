import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orderfinding import measurement
from orderfinding.circuits import run_orderfinding
from orderfinding.measurement import (
    ORDERS,
    GuessStrategy,
    InfeasibleInput,
    OutcomeDistribution,
    analytic_distribution,
    guess_success_per_r,
    infer_order,
    m_from_register_index,
    observables_from_distribution,
    simulated_distribution,
    simulated_observables,
    solve_guess_game,
)
from orderfinding.permutations import IDENTITY, OracleSpec, all_permutations, order_of, parse_permutation
from orderfinding.simulator import DIM, QuantumState

SQRT2 = math.sqrt(2.0)
PERMS = all_permutations()

# frozen closed forms; the r=3 row was re-derived by Fourier-transforming the
# cosets {0,3,6}, {1,4,7}, {2,5} by hand and is cross-checked against both
# the coset sum and full circuit simulation below
CLOSED_FORMS = {
    1: [1, 0, 0, 0, 0, 0, 0, 0],
    2: [0.5, 0, 0, 0, 0.5, 0, 0, 0],
    3: [v / 64 for v in (22, 8 - 5 * SQRT2, 4, 8 + 5 * SQRT2, 2, 8 + 5 * SQRT2, 4, 8 - 5 * SQRT2)],
    4: [0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0],
}


@pytest.mark.parametrize("r", ORDERS)
def test_analytic_distribution_matches_closed_forms(r):
    dist = analytic_distribution(r)
    assert dist.probs == pytest.approx(CLOSED_FORMS[r], abs=1e-14)
    assert [float(e) for e in dist.exact] == pytest.approx(CLOSED_FORMS[r], abs=1e-14)


def test_analytic_distribution_rejects_bad_order():
    with pytest.raises(ValueError):
        analytic_distribution(5)


@pytest.mark.parametrize("r", ORDERS)
def test_analytic_distribution_is_built_once_and_read_only(r):
    dist = analytic_distribution(r)
    assert analytic_distribution(r) is dist
    assert np.array_equal(dist.probs, measurement._analytic_distribution.__wrapped__(r).probs)
    with pytest.raises(ValueError):
        dist.probs[0] = 0.5


@pytest.mark.parametrize("r", [1, 2, 4])
def test_supports_on_multiples_of_eight_over_r(r):
    probs = analytic_distribution(r).probs
    step = 8 // r
    for m in range(8):
        if m % step == 0:
            assert probs[m] == pytest.approx(1 / r, abs=1e-12)
        else:
            assert probs[m] == pytest.approx(0.0, abs=1e-12)


def test_simulated_identity_is_delta_at_zero():
    dist = simulated_distribution(run_orderfinding(OracleSpec(IDENTITY, 0)))
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)


def test_simulated_matches_analytic_for_order_two():
    dist = simulated_distribution(run_orderfinding(OracleSpec(parse_permutation("(0 1)(2 3)"), 0)))
    assert np.max(np.abs(dist.probs - analytic_distribution(2).probs)) < 1e-12


def test_simulated_matches_analytic_exhaustively():
    for pi in PERMS:
        for y in range(4):
            dist = simulated_distribution(run_orderfinding(OracleSpec(pi, y)))
            r = order_of(pi, y)
            assert np.max(np.abs(dist.probs - analytic_distribution(r).probs)) < 1e-10


def test_observable_anchors_per_order():
    assert observables_from_distribution(analytic_distribution(1)) == pytest.approx((1, 1, 1), abs=1e-12)
    assert observables_from_distribution(analytic_distribution(2)) == pytest.approx((1, 1, 0), abs=1e-12)
    assert observables_from_distribution(analytic_distribution(3)) == pytest.approx(
        (0, 0.25, 0.3125), abs=1e-12
    )
    assert observables_from_distribution(analytic_distribution(4)) == pytest.approx((1, 0, 0), abs=1e-12)


def test_full_observable_anchors_for_y_zero_instances():
    cases = {
        "()": (1, 1, 1, 1, 1),
        "(0 1)(2 3)": (1, 1, 0, 1, 0),
        "(0 1 2 3)": (1, 0, 0, 0, 0),
    }
    for text, expected in cases.items():
        observed = simulated_observables(run_orderfinding(OracleSpec(parse_permutation(text), 0)))
        assert observed == pytest.approx(expected, abs=1e-9)


def test_order_three_register_two_observables_range():
    # for order-3 instances O_4 and O_5 depend on y but stay in {0, +-1/4, +-1/2}
    allowed = {0.0, 0.25, -0.25, 0.5, -0.5}
    for pi in PERMS:
        for y in range(4):
            if order_of(pi, y) != 3:
                continue
            _, _, _, o4, o5 = simulated_observables(run_orderfinding(OracleSpec(pi, y)))
            assert min(abs(o4 - a) for a in allowed) < 1e-9
            assert min(abs(o5 - a) for a in allowed) < 1e-9


def test_bit_mapping_consistency_between_distribution_and_spins():
    from orderfinding.measurement import final_density
    from orderfinding.simulator import expectation_Iz

    for pi in PERMS[::5]:
        for y in range(4):
            spec = OracleSpec(pi, y)
            from_dist = observables_from_distribution(simulated_distribution(run_orderfinding(spec)))
            rho = final_density(run_orderfinding(spec))
            from_spins = tuple(expectation_Iz(rho, i) for i in (1, 2, 3))
            assert from_dist == pytest.approx(from_spins, abs=1e-10)


def test_m_from_register_index_is_bit_reversal():
    assert [m_from_register_index(b) for b in range(8)] == [0, 4, 2, 6, 1, 5, 3, 7]


def test_guess_game_value_is_60_over_109():
    sol = solve_guess_game()
    assert sol.exact_value.as_fraction() == Fraction(60, 109)
    assert sol.value == pytest.approx(0.5504587155963303, abs=1e-12)
    assert all(s >= sol.value - 1e-9 for s in sol.per_order_success)
    # dual certificate: the hardest prior's best response equals the value
    dists = tuple(analytic_distribution(r) for r in ORDERS)
    payoffs = [[dist.exact_entries()[m] for dist in dists] for m in range(8)]
    best = sum(max(sol.prior[k] * payoffs[m][k] for k in range(4)) for m in range(8))
    assert best == sol.exact_value


def test_guess_game_hardest_prior_is_pinned():
    # guess_report.json prints this prior; another optimal dual vertex must fail here
    assert solve_guess_game().prior == tuple(Fraction(k, 109) for k in (11, 22, 32, 44))


def test_solve_guess_game_strategy_and_value():
    sol = solve_guess_game()
    assert 0.545 <= sol.value <= 0.560
    assert sol.strategy.g.shape == (8, 4)


def test_identical_distributions_give_quarter():
    uniform = OutcomeDistribution(np.full(8, 1 / 8))
    value = solve_guess_game((uniform,) * 4).value
    assert value == pytest.approx(0.25, abs=1e-12)


def test_disjoint_supports_give_certainty():
    dists = []
    for r in range(4):
        p = np.zeros(8)
        p[2 * r] = p[2 * r + 1] = 0.5
        dists.append(OutcomeDistribution(p))
    value = solve_guess_game(tuple(dists)).value
    assert value == pytest.approx(1.0, abs=1e-12)


def test_value_invariant_under_order_relabeling():
    base = tuple(analytic_distribution(r) for r in ORDERS)
    value = solve_guess_game(base).value
    for relabeling in ((3, 2, 1, 0), (1, 0, 3, 2), (2, 0, 3, 1)):
        shuffled = solve_guess_game(tuple(base[k] for k in relabeling)).value
        assert shuffled == pytest.approx(value, abs=1e-12)


def test_guess_success_per_r_examples():
    always_one = GuessStrategy(np.column_stack([np.ones(8), np.zeros(8), np.zeros(8), np.zeros(8)]))
    assert guess_success_per_r(always_one) == pytest.approx((1, 0, 0, 0), abs=1e-12)
    uniform = GuessStrategy(np.full((8, 4), 0.25))
    assert guess_success_per_r(uniform) == pytest.approx((0.25,) * 4, abs=1e-12)


def test_infer_order_from_distributions():
    for pi in PERMS[::3]:
        for y in range(4):
            dist = simulated_distribution(run_orderfinding(OracleSpec(pi, y)))
            assert infer_order(dist) == order_of(pi, y)


def test_invalid_distribution_rejected():
    with pytest.raises(InfeasibleInput):
        OutcomeDistribution(np.full(8, 0.2))
    with pytest.raises(InfeasibleInput):
        OutcomeDistribution(np.array([1.5, -0.5, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(InfeasibleInput):
        GuessStrategy(np.full((8, 4), 0.3))


@given(st.integers(0, 23), st.integers(0, 3))
def test_distribution_normalization_property(k, y):
    dist = simulated_distribution(run_orderfinding(OracleSpec(PERMS[k], y)))
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.probs.min() >= -1e-12


def _with_entry(valid: np.ndarray, value: float) -> np.ndarray:
    out = np.array(valid, dtype=complex if np.iscomplexobj(valid) else float)
    out.flat[3] = value
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [
    lambda v: QuantumState(np.full(DIM, v)),
    lambda v: QuantumState(_with_entry(np.eye(DIM, dtype=complex)[0], v)),
    lambda v: OutcomeDistribution(np.full(8, v)),
    lambda v: OutcomeDistribution(_with_entry(np.full(8, 1 / 8), v)),
    lambda v: GuessStrategy(np.full((8, 4), v)),
    lambda v: GuessStrategy(_with_entry(np.full((8, 4), 0.25), v)),
], ids=["state", "state-entry", "distribution", "distribution-entry", "strategy", "strategy-entry"])
def test_validated_types_reject_non_finite_entries(make, value):
    with pytest.raises(ValueError):
        make(value)
