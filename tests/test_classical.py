from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orderfinding import CertificateError, classical, permutations
from orderfinding.classical import (
    HARDEST_PRIOR,
    MAX_EXPONENT,
    ONE_QUERY_WITNESS,
    OneQueryStrategy,
    TwoQueryStrategy,
    one_query_value,
    paper_one_query_witness,
    prior_best_response_value,
    two_query_certainty,
    two_query_witness,
)
from orderfinding.permutations import ALL_PERMUTATIONS, Permutation, order_of, power, trajectory

PERMS = ALL_PERMUTATIONS


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
    payoffs = [reference_payoff(witness, pi, 0) for pi in PERMS]
    assert all(p == Fraction(1, 2) for p in payoffs)


def test_always_guess_one_has_zero_worst_case():
    guesses = {(1, z): (Fraction(1), Fraction(0), Fraction(0), Fraction(0)) for z in range(4)}
    strategy = OneQueryStrategy({1: Fraction(1)}, guesses)
    assert strategy.min_payoff() == 0


def test_strategy_keeps_a_read_only_copy_of_its_input():
    weights, guesses = {3: Fraction(1)}, dict(paper_one_query_witness().guesses)
    strategy = OneQueryStrategy(weights, guesses)
    assert strategy.min_payoff() == Fraction(1, 2)
    weights[3] = Fraction(2)
    guesses[(3, 0)] = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert strategy.min_payoff() == Fraction(1, 2)
    with pytest.raises(TypeError):
        strategy.x_weights[3] = Fraction(0)


def test_exponent_reduction_soundness():
    # pi^(x+12) = pi^x for every x in 1..12 and every permutation
    for pi in PERMS:
        for x in range(1, MAX_EXPONENT + 1):
            assert power(pi, x) == power(pi, x + 12)


def test_two_query_witness_succeeds_on_all_96_cases():
    witness = two_query_witness()
    for pi in PERMS:
        for y in range(4):
            assert witness.decide(trajectory(pi, y)) == order_of(pi, y)


@given(st.tuples(st.integers(0, 40), st.integers(0, 40)),
       st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_two_query_decision_on_trajectories_equals_the_power_reference(queries, guesses):
    # the decision reads path[x % 12]; the reference evaluates pi^x(y) = y with `power`
    keys = [(True, True), (True, False), (False, True), (False, False)]
    strategy = TwoQueryStrategy(queries, dict(zip(keys, guesses)))
    for pi in PERMS:
        for y in range(4):
            expected = strategy.table[tuple(power(pi, x)(y) == y for x in queries)]
            assert strategy.decide(trajectory(pi, y)) == expected
            assert strategy.decide(classical._cases(y)[PERMS.index(pi)][0]) == expected


@pytest.mark.parametrize("bad", [-1, True, 1.5], ids=["negative", "bool", "float"])
def test_two_query_strategy_rejects_a_query_that_is_not_a_nonnegative_int(bad):
    table = two_query_witness().table
    with pytest.raises(ValueError, match=f"query exponent {bad!r} is not a nonnegative int"):
        TwoQueryStrategy((2, bad), table)


def test_certificates_build_no_permutation_and_call_no_power(monkeypatch):
    # both certificates read the cached trajectory tables; count every Permutation built and every power call
    counts = {"Permutation": 0, "power": 0}
    post_init, real_power = Permutation.__post_init__, permutations.power

    def counted_post_init(self):
        counts["Permutation"] += 1
        post_init(self)

    def counted_power(pi, k):
        counts["power"] += 1
        return real_power(pi, k)

    monkeypatch.setattr(Permutation, "__post_init__", counted_post_init)
    for module in (permutations, classical):
        if hasattr(module, "power"):
            monkeypatch.setattr(module, "power", counted_power)
    classical._cases.cache_clear()
    classical._relabeling.cache_clear()
    permutations.permutation_names.cache_clear()
    assert one_query_value().value == Fraction(1, 2)
    assert two_query_certainty().cases_checked == 96
    assert counts == {"Permutation": 0, "power": 0}


@pytest.mark.parametrize("y", range(4))
def test_case_and_relabeling_tables_are_tuples_read_from_the_permutations(y):
    cases, (tau, conjugates) = classical._cases(y), classical._relabeling(y)
    assert type(cases) is tuple and all(type(case) is tuple and type(case[0]) is tuple for case in cases)
    assert cases == tuple((trajectory(pi, y), order_of(pi, y)) for pi in PERMS)
    assert type(tau) is tuple and tau == tuple(y if v == 0 else 0 if v == y else v for v in range(4))  # (0 y)
    assert type(conjugates) is tuple
    assert [PERMS[j] for j in conjugates] == [Permutation(tuple(tau[pi(tau[v])] for v in range(4))) for pi in PERMS]


def test_two_query_report(one_query_report):
    report = two_query_certainty()
    assert report.achievable
    assert report.cases_checked == 96
    assert report.single_query_strategies_checked == 12 * 4**4
    assert report.single_query_perfect == 0


def test_single_query_count_matches_enumeration_on_a_smaller_adversary(monkeypatch):
    # Against only the identity and (0 1), any odd x tells the two apart, so
    # perfect deterministic strategies exist; the per-z product count must
    # find exactly those a direct enumeration with `power` finds.
    perms = [PERMS[0], next(pi for pi in PERMS if pi.images == (1, 0, 2, 3))]
    monkeypatch.setattr(classical, "_cases", lambda y: tuple((trajectory(pi, y), order_of(pi, y)) for pi in perms))
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


@pytest.mark.parametrize("name, stored, match", [
    ("ONE_QUERY_WITNESS", {**ONE_QUERY_WITNESS, 7: (Fraction(1, 4), (1, 3, 2, 3))}, "certificate failed at y=0"),
    ("ONE_QUERY_WITNESS", {**ONE_QUERY_WITNESS, 1: (Fraction(-1, 4), (1, 2, 3, 3)),
                           2: (Fraction(3, 4), (2, 4, 4, 4))}, "weights are not a distribution"),
    ("ONE_QUERY_WITNESS", {**ONE_QUERY_WITNESS, 13: (Fraction(0), (1, 1, 1, 1))}, "exponents 1..12"),
    ("ONE_QUERY_WITNESS", {**ONE_QUERY_WITNESS, 3: (Fraction(1, 4), (3, 4, 4, 5))}, "guesses at x=3"),
    ("ONE_QUERY_WITNESS", {**ONE_QUERY_WITNESS, 3: (Fraction(1, 4), (3, 4, 4))}, "guesses at x=3"),
    ("HARDEST_PRIOR", {"()": Fraction(1)}, "certificate failed at y=0"),
    ("HARDEST_PRIOR", {**HARDEST_PRIOR, "(1 3)": Fraction(1, 3)}, "not a distribution"),
    ("HARDEST_PRIOR", {**HARDEST_PRIOR, "(1 3)": Fraction(1, 2), "(0 1)": Fraction(-1, 6)}, "not a distribution"),
    ("HARDEST_PRIOR", {**HARDEST_PRIOR, "(0 4)": Fraction(0)}, r"'\(0 4\)', not a permutation"),
], ids=["moved_guess", "negative_weight", "exponent_13", "guess_5", "missing_guess", "identity_mass",
        "prior_sum_13_12", "negative_prior", "unknown_permutation"])
def test_perturbed_stored_vertex_raises_certificate_error(monkeypatch, name, stored, match):
    monkeypatch.setattr(classical, name, stored)
    with pytest.raises(CertificateError, match=match):
        one_query_value()


@pytest.mark.parametrize("weights", [
    {3: Fraction(2)},
    {3: Fraction(1, 2)},
    {3: Fraction(3, 2), 1: Fraction(-1, 2)},
    {0: Fraction(1)},
    {13: Fraction(1)},
    {True: Fraction(1)},
    {3.0: Fraction(1)},
    {},
], ids=["sum_2", "sum_1_2", "negative_weight", "exponent_0", "exponent_13", "bool_exponent", "float_exponent", "empty"])
def test_strategy_weights_that_are_not_a_distribution_raise_certificate_error(weights):
    # {3: 2} with the paper's rows would pay 1, twice the game value, without the weight check
    guesses = {**paper_one_query_witness().guesses,
               **{(x, z): (Fraction(1), Fraction(0), Fraction(0), Fraction(0)) for x in (0, 1, 13) for z in range(4)}}
    with pytest.raises(CertificateError, match="witness weights are not a distribution over exponents 1..12"):
        OneQueryStrategy(weights, guesses).min_payoff()


def test_strategy_accepts_the_end_exponents_and_zero_weights():
    # exponents 1 and 12 bound the accepted range, and a zero weight is a valid mass
    guess_one = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    weights = {1: Fraction(1, 2), 12: Fraction(1, 2), 5: Fraction(0)}
    strategy = OneQueryStrategy(weights, {(x, z): guess_one for x in weights for z in range(4)})
    assert strategy.min_payoff() == 0
    assert reference_payoff(strategy, PERMS[0], 0) == 1


def test_doubled_paper_weight_raises_certificate_error():
    with pytest.raises(CertificateError, match="weights are not a distribution"):
        OneQueryStrategy({3: Fraction(2)}, paper_one_query_witness().guesses).min_payoff()


def _witness_with_rows(make_row) -> OneQueryStrategy:
    """ONE_QUERY_WITNESS with each deterministic guess turned into the row make_row(guess)."""
    weights = {x: w for x, (w, _) in ONE_QUERY_WITNESS.items()}
    guesses = {(x, z): make_row(guess) for x, (_, row) in ONE_QUERY_WITNESS.items() for z, guess in enumerate(row)}
    return OneQueryStrategy(weights, guesses)


def test_complement_guess_rows_are_rejected():
    # int(guess != r) in place of int(guess == r): every row holds three ones, and the witness
    # would still pay exactly 1/2 on every permutation, so only the row check can tell
    complement = _witness_with_rows(lambda guess: tuple(Fraction(int(guess != r)) for r in range(1, 5)))
    with pytest.raises(CertificateError, match="guess row at x=1, z=0 is not a distribution"):
        complement.min_payoff()


@pytest.mark.parametrize("row, where", [
    ((Fraction(3, 2), Fraction(-1, 2), Fraction(0), Fraction(0)), "x=1, z=0"),
    ((Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(0)), "x=1, z=0"),
    ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), "x=1, z=0"),
], ids=["negative_mass", "sum_3_4", "three_orders"])
def test_guess_row_that_is_not_a_distribution_names_x_and_z(row, where):
    strategy = _witness_with_rows(lambda guess: tuple(Fraction(int(guess == r)) for r in range(1, 5)))
    guesses = {**strategy.guesses, (1, 0): row}
    with pytest.raises(CertificateError, match=f"guess row at {where} is not a distribution"):
        OneQueryStrategy(strategy.x_weights, guesses).min_payoff()


def test_missing_guess_row_at_a_queried_exponent_is_rejected():
    guesses = dict(paper_one_query_witness().guesses)
    del guesses[(3, 2)]
    with pytest.raises(CertificateError, match="guess row at x=3, z=2 is not a distribution"):
        OneQueryStrategy({3: Fraction(1)}, guesses).min_payoff()


def test_guess_rows_at_unqueried_exponents_are_not_read():
    strategy = _witness_with_rows(lambda guess: tuple(Fraction(int(guess == r)) for r in range(1, 5)))
    weights = {**strategy.x_weights, 5: Fraction(0)}
    guesses = {**strategy.guesses, **{(5, z): (Fraction(2), Fraction(0), Fraction(0), Fraction(0)) for z in range(4)}}
    assert OneQueryStrategy(weights, guesses).min_payoff() == Fraction(1, 2)


def reference_payoff(strategy: OneQueryStrategy, pi: Permutation, y: int) -> Fraction:
    """The Fraction loop classical used before its integer table: the reference for one permutation's payoff."""
    total = Fraction(0)
    path, r = trajectory(pi, y), order_of(pi, y)
    for x, qx in strategy.x_weights.items():
        if qx:
            total += qx * strategy.guesses[(x, path[x])][r - 1]
    return total


def reference_best_response(prior: list[Fraction], y: int) -> Fraction:
    """The Fraction loop classical used before scaling the prior to ints: the reference."""
    best = Fraction(0)
    for x in range(1, MAX_EXPONENT + 1):
        mass = [[Fraction(0)] * 4 for _ in range(4)]  # mass[z][r - 1]
        for p, pi in zip(prior, PERMS):
            if p:
                mass[power(pi, x)(y)][order_of(pi, y) - 1] += p
        best = max(best, sum((max(m) for m in mass), Fraction(0)))
    return best


masses = st.builds(Fraction, st.integers(0, 9), st.sampled_from([1, 2, 3, 5, 7, 12, 35]))


def _distribution(draw, size: int) -> list[Fraction]:
    """size masses of mixed denominators summing to 1; some are zero, and all are when none was drawn."""
    raw = draw(st.lists(masses, min_size=size, max_size=size))
    total = sum(raw)
    return [p / total for p in raw] if total else [Fraction(1)] + [Fraction(0)] * (size - 1)


@st.composite
def one_query_strategies(draw) -> OneQueryStrategy:
    xs = draw(st.lists(st.integers(1, MAX_EXPONENT), min_size=1, max_size=5, unique=True))
    weights = dict(zip(xs, _distribution(draw, len(xs))))
    guesses = {(x, z): tuple(_distribution(draw, 4)) for x in xs for z in range(4)}
    return OneQueryStrategy(weights, guesses)


@st.composite
def priors(draw) -> list[Fraction]:
    return _distribution(draw, len(PERMS))


@given(one_query_strategies(), priors())
def test_integer_checks_equal_the_fraction_reference(strategy, prior):
    for y in range(4):
        payoffs = [reference_payoff(strategy, pi, y) for pi in PERMS]
        den, columns = strategy._table
        got = [Fraction(classical._worst_scaled_payoff(columns, [case]), den) for case in classical._cases(y)]
        assert got == payoffs and all(type(p) is Fraction for p in got)
        assert strategy.min_payoff(y) == min(payoffs)
        best = prior_best_response_value(prior, y)
        assert best == reference_best_response(prior, y) and type(best) is Fraction


@pytest.mark.parametrize("size", [0, 1, 23, 25, 30])
def test_prior_of_wrong_length_raises_value_error(size):
    with pytest.raises(ValueError, match=f"prior has {size} masses, expected 24"):
        prior_best_response_value([Fraction(1, 24)] * size, 0)
