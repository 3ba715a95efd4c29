from fractions import Fraction

import pytest

from orderfinding import classical
from orderfinding.classical import (
    MAX_EXPONENT,
    OneQueryStrategy,
    one_query_value,
    paper_one_query_witness,
    prior_best_response_value,
    two_query_certainty,
    two_query_witness,
)
from orderfinding.permutations import all_permutations, order_of, power

PERMS = all_permutations()


def test_one_query_value_is_exactly_half(one_query_report):
    assert one_query_report.value == Fraction(1, 2)


def test_one_query_value_independent_of_start_element(one_query_report):
    assert one_query_report.values_per_y == (Fraction(1, 2),) * 4


def test_lp_witness_achieves_the_value(one_query_report):
    assert one_query_report.witness.min_payoff() == Fraction(1, 2)


def test_weak_duality_certificate(one_query_report):
    # prior best response equals the primal value: optimality on both sides
    assert one_query_report.prior_best_response == one_query_report.value
    assert sum(one_query_report.prior.values()) == 1


def test_paper_x3_witness_achieves_half_for_every_permutation():
    witness = paper_one_query_witness()
    payoffs = [witness.payoff(pi) for pi in PERMS]
    assert all(p == Fraction(1, 2) for p in payoffs)


def test_always_guess_one_has_zero_worst_case():
    guesses = {(1, z): (Fraction(1), Fraction(0), Fraction(0), Fraction(0)) for z in range(4)}
    strategy = OneQueryStrategy({1: Fraction(1)}, guesses)
    assert strategy.min_payoff() == 0


def test_exponent_reduction_soundness():
    # pi^(x+12) = pi^x for every x in 1..12 and every permutation
    for pi in PERMS:
        for x in range(1, MAX_EXPONENT + 1):
            assert power(pi, x) == power(pi, x + 12)


def test_two_query_witness_succeeds_on_all_96_cases():
    witness = two_query_witness()
    for pi in PERMS:
        for y in range(4):
            assert witness.guess(pi, y) == order_of(pi, y)


def test_two_query_report(one_query_report):
    report = two_query_certainty()
    assert report.achievable
    assert report.cases_checked == 96
    assert report.single_query_strategies_checked == 12 * 4**4
    assert report.single_query_perfect == 0


def test_single_query_count_matches_enumeration_on_a_smaller_adversary(monkeypatch):
    # Against only the identity and (0 1), any odd x tells the two apart, so
    # perfect deterministic strategies exist; the vectorized count must find
    # exactly those a direct enumeration with `power` finds.
    perms = [PERMS[0], next(pi for pi in PERMS if pi.images == (1, 0, 2, 3))]
    monkeypatch.setattr(classical, "_trajectories", lambda y: tuple(classical._trajectory(pi, y) for pi in perms))
    expected = 0
    for x in range(1, MAX_EXPONENT + 1):
        for code in range(4**4):
            guess = [(code >> (2 * z)) % 4 + 1 for z in range(4)]
            expected += all(guess[power(pi, x)(0)] == order_of(pi, 0) for pi in perms)
    assert expected == 6 * 4**2
    assert classical._single_query_deterministic_perfect_count(0) == (12 * 4**4, expected)


def test_queries_four_and_eight_cannot_give_certainty():
    # orders 1, 2 and 4 all satisfy pi^4(y) = y and pi^8(y) = y, so the
    # observation pair is identical for instances of different order
    id_obs = (power(PERMS[0], 4)(0), power(PERMS[0], 8)(0))
    for pi in PERMS:
        if order_of(pi, 0) in (2, 4):
            obs = (power(pi, 4)(0), power(pi, 8)(0))
            assert obs == id_obs
            return
    raise AssertionError("no order-2/4 instance found")


def test_hardest_prior_supported_on_every_order(one_query_report):
    orders = set()
    for text in one_query_report.prior:
        from orderfinding.permutations import parse_permutation

        orders.add(order_of(parse_permutation(text), 0))
    assert orders == {1, 2, 3, 4}


def test_lp_vertex_is_pinned(one_query_report):
    # the CLI report prints this vertex; a search that lands on another optimal one must fail here
    twelfth = ["(0 1 2)", "(0 1 3 2)", "(0 1)", "(0 2 1 3)", "(0 2 3)", "(0 2)(1 3)", "(0 3 1)",
               "(0 3 2 1)", "(0 3)(1 2)"]
    assert one_query_report.prior == {**{p: Fraction(1, 12) for p in twelfth}, "(1 3)": Fraction(1, 4)}
    weights = {x: w for x, w in one_query_report.witness.x_weights.items() if w}
    assert weights == {1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 4), 7: Fraction(1, 4)}
