import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dense_reference import observables_from_distribution
from exact_reference import QSqrt2Field, as_complex, exact_distribution, exact_state
from orderfinding import CertificateError, measurement
from orderfinding.circuits import build_orderfinding
from orderfinding.gates import DIM
from orderfinding.measurement import (
    GUESS_DENOMINATOR,
    GUESS_PRIOR,
    GUESS_STRATEGY,
    ORDERS,
    InfeasibleInput,
    QSqrt2,
    analytic_distribution,
    infer_order,
    m_from_register_index,
    outcome_probabilities,
    solve_guess_game,
)
from orderfinding.permutations import ALL_PERMUTATIONS, IDENTITY, OracleSpec, order_of, parse_permutation
from orderfinding.simulator import DensityOperator, expectation_Iz, run_circuits, run_instances

SQRT2 = math.sqrt(2.0)
PERMS = ALL_PERMUTATIONS

# frozen closed forms; the r=3 row was re-derived by Fourier-transforming the
# cosets {0,3,6}, {1,4,7}, {2,5} by hand and is cross-checked against the
# exact coset sums and full circuit simulation below
CLOSED_FORMS = {
    1: [1, 0, 0, 0, 0, 0, 0, 0],
    2: [0.5, 0, 0, 0, 0.5, 0, 0, 0],
    3: [v / 64 for v in (22, 8 - 5 * SQRT2, 4, 8 + 5 * SQRT2, 2, 8 + 5 * SQRT2, 4, 8 - 5 * SQRT2)],
    4: [0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0],
}


# the exact closed forms as they were typed before they were derived in Z[zeta_8]: the reference
# for the derived pairs of `_exact_closed_form`, (a, b) meaning (a + b sqrt 2) / 64
TYPED_EXACT = {
    1: [(64, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
    2: [(32, 0), (0, 0), (0, 0), (0, 0), (32, 0), (0, 0), (0, 0), (0, 0)],
    3: [(22, 0), (8, -5), (4, 0), (8, 5), (2, 0), (8, 5), (4, 0), (8, -5)],
    4: [(16, 0), (0, 0), (16, 0), (0, 0), (16, 0), (0, 0), (16, 0), (0, 0)],
}


@pytest.mark.parametrize("r", ORDERS)
def test_derived_exact_entries_equal_the_typed_closed_forms(r):
    exact = measurement._exact_closed_form(r)
    assert exact == tuple(TYPED_EXACT[r])
    assert type(exact) is tuple and all(type(a) is int and type(b) is int for a, b in exact)
    assert measurement._exact_closed_form(r) is exact  # built once per process


def test_exact_circuit_distributions_equal_the_exact_closed_forms():
    # the link from the circuit to the distribution, with no tolerance: each instance's circuit run in
    # Z[zeta_8] gives Pr[m] as pairs over 64 equal to its order's pairs, and the float runner is within
    # 1e-15 of the exact amplitudes
    specs = [OracleSpec(pi, y) for pi in PERMS for y in range(4)]
    for spec, amps in zip(specs, run_instances(specs)):
        state, hadamards = exact_state(build_orderfinding(spec.pi), spec.y)
        assert exact_distribution(state, hadamards) == (measurement._exact_closed_form(order_of(spec.pi, spec.y)), 64)
        assert max(abs(as_complex(c, hadamards) - a) for c, a in zip(state, amps.tolist())) <= 1e-15, spec


@pytest.mark.parametrize("r", ORDERS)
def test_analytic_distribution_is_the_floats_of_the_exact_pairs(r):
    exact = measurement._exact_closed_form(r)
    assert analytic_distribution(r).tolist() == [(a + b * SQRT2) / 64 for a, b in exact]
    assert [analytic_distribution(r)[m] for m in range(1, 8)] == [analytic_distribution(r)[8 - m] for m in range(1, 8)]


@pytest.mark.parametrize("r", ORDERS)
def test_analytic_distribution_matches_closed_forms(r):
    dist = analytic_distribution(r)
    assert dist == pytest.approx(CLOSED_FORMS[r], abs=1e-14)


def test_analytic_distribution_rejects_bad_order():
    with pytest.raises(ValueError):
        analytic_distribution(5)


@pytest.mark.parametrize("r", [True, 2.0, 0, 5])
def test_analytic_distribution_rejects_non_int_or_out_of_range_order(r):
    with pytest.raises(ValueError, match="order"):
        analytic_distribution(r)


def test_guess_solution_strategy_is_read_only():
    strategy = solve_guess_game().strategy
    assert strategy.tobytes() == (np.array(GUESS_STRATEGY) / GUESS_DENOMINATOR).tobytes()
    with pytest.raises(ValueError):
        strategy[0, 0] = 0.5


@pytest.mark.parametrize("r", ORDERS)
def test_analytic_distribution_is_built_once_and_read_only(r):
    dist = analytic_distribution(r)
    assert analytic_distribution(r) is dist
    assert np.array_equal(dist, measurement._analytic_distribution.__wrapped__(r))
    with pytest.raises(ValueError):
        dist[0] = 0.5


@pytest.mark.parametrize("r", [1, 2, 4])
def test_supports_on_multiples_of_eight_over_r(r):
    probs = analytic_distribution(r)
    step = 8 // r
    for m in range(8):
        if m % step == 0:
            assert probs[m] == pytest.approx(1 / r, abs=1e-12)
        else:
            assert probs[m] == pytest.approx(0.0, abs=1e-12)


def simulated(specs: list[OracleSpec]) -> np.ndarray:
    """Each instance's outcome distribution, one row each, as `run` builds it, from one batch."""
    return outcome_probabilities(run_instances(specs))


def observables_of(specs: list[OracleSpec]) -> np.ndarray:
    """O_1..O_5 of each instance's final state, one row each, as `run` and `sweep` read them."""
    amps = run_instances(specs)
    return expectation_Iz(amps * amps.conj())


def test_simulated_identity_is_delta_at_zero():
    (dist,) = simulated([OracleSpec(IDENTITY, 0)])
    assert dist[0] == pytest.approx(1.0, abs=1e-12)


def test_simulated_matches_analytic_for_order_two():
    (dist,) = simulated([OracleSpec(parse_permutation("(0 1)(2 3)"), 0)])
    assert np.max(np.abs(dist - analytic_distribution(2))) < 1e-12


def test_simulated_matches_analytic_exhaustively():
    specs = [OracleSpec(pi, y) for pi in PERMS for y in range(4)]
    for spec, dist in zip(specs, simulated(specs)):
        r = order_of(spec.pi, spec.y)
        assert np.max(np.abs(dist - analytic_distribution(r))) < 1e-10


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
    observed = observables_of([OracleSpec(parse_permutation(text), 0) for text in cases])
    for expected, row in zip(cases.values(), observed.tolist()):
        assert tuple(row) == pytest.approx(expected, abs=1e-9)


def test_order_three_register_two_observables_range():
    # for order-3 instances O_4 and O_5 depend on y but stay in {0, +-1/4, +-1/2}
    allowed = {0.0, 0.25, -0.25, 0.5, -0.5}
    specs = [OracleSpec(pi, y) for pi in PERMS for y in range(4) if order_of(pi, y) == 3]
    for _, _, _, o4, o5 in observables_of(specs).tolist():
        assert min(abs(o4 - a) for a in allowed) < 1e-9
        assert min(abs(o5 - a) for a in allowed) < 1e-9


def test_bit_mapping_consistency_between_distribution_and_spins():
    specs = [OracleSpec(pi, y) for pi in PERMS[::5] for y in range(4)]
    for dist, observables in zip(simulated(specs), observables_of(specs)):
        from_dist = observables_from_distribution(dist)
        from_spins = tuple(observables[:3])
        assert from_dist == pytest.approx(from_spins, abs=1e-10)


def test_m_from_register_index_is_bit_reversal():
    assert [m_from_register_index(b) for b in range(8)] == [0, 4, 2, 6, 1, 5, 3, 7]


def test_guess_game_value_is_60_over_109():
    sol = solve_guess_game()
    assert sol.exact_value == QSqrt2(Fraction(60, 109))
    assert sol.value == pytest.approx(0.5504587155963303, abs=1e-12)
    assert sol.per_order_success == (sol.value,) * 4
    # dual certificate: the hardest prior's best response equals the value
    exact = [measurement._exact_closed_form(r) for r in ORDERS]
    payoffs = [[QSqrt2Field(Fraction(a, 64), Fraction(b, 64)) for a, b in (row[m] for row in exact)] for m in range(8)]
    prior = [QSqrt2Field(p.a, p.b) for p in sol.prior]
    best = sum(max(prior[k] * payoffs[m][k] for k in range(4)) for m in range(8))
    assert best == sol.exact_value


def test_guess_game_hardest_prior_is_pinned():
    # guess_report.json prints this prior; another optimal dual vertex must fail here
    assert solve_guess_game().prior == tuple(QSqrt2(Fraction(k, 109)) for k in (11, 22, 32, 44))


def test_solve_guess_game_strategy_and_value():
    sol = solve_guess_game()
    assert 0.545 <= sol.value <= 0.560
    assert sol.strategy.shape == (8, 4)


def test_guess_game_vertex_is_pinned():
    # guess_strategy.csv and guess_report.json print this vertex; another optimal vertex must fail here
    assert GUESS_STRATEGY[0] == (60, 11, 16, 22)
    assert [row.index(109) + 1 for row in GUESS_STRATEGY[1:]] == [3, 4, 3, 2, 3, 4, 3]
    assert GUESS_PRIOR == (11, 22, 32, 44)


@pytest.mark.parametrize("relabeling", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2), (2, 0, 3, 1)])
def test_certificate_transports_under_order_relabeling(relabeling):
    # relabeling the orders consistently in the payoffs, the strategy and the prior keeps the value;
    # relabeling the payoffs alone breaks the certificate
    exact = [measurement._exact_closed_form(ORDERS[k]) for k in relabeling]
    strategy = [[row[k] for k in relabeling] for row in GUESS_STRATEGY]
    prior = [GUESS_PRIOR[k] for k in relabeling]
    assert measurement._certified_value(exact, strategy, prior)[0] == QSqrt2(Fraction(60, 109))
    if relabeling != (0, 1, 2, 3):
        with pytest.raises(CertificateError, match="certificate failed"):
            measurement._certified_value(exact, GUESS_STRATEGY, GUESS_PRIOR)


@pytest.mark.parametrize("m, text", [
    (1, "strategy 371/872 + 5/64*sqrt(2) != prior 60/109"),
    (3, "strategy 371/872 + -5/64*sqrt(2) != prior 60/109"),
], ids=["m1", "m3"])
def test_certificate_error_prints_a_side_with_a_sqrt2_part_in_full(monkeypatch, m, text):
    # guessing r = 2 on an odd outcome drops one of order 3's (8 -+ 5 sqrt 2)/64 from its success
    monkeypatch.setattr(measurement, "GUESS_STRATEGY", (*GUESS_STRATEGY[:m], (0, 109, 0, 0), *GUESS_STRATEGY[m + 1:]))
    with pytest.raises(CertificateError) as error:
        solve_guess_game()
    assert str(error.value) == f"guess-game certificate failed: {text}"




def test_certified_value_accepts_a_prior_with_zero_masses():
    # four orders told apart by outcomes m = 0..3: guessing r = m + 1 always wins, so the value is 1,
    # and a prior on any one order alone, zero on the other three, pins it from above
    exact = [[(64, 0) if m == k else (0, 0) for m in range(8)] for k in range(len(ORDERS))]
    strategy = [tuple(GUESS_DENOMINATOR * (k == (m if m < 4 else 0)) for k in range(4)) for m in range(8)]
    for k in range(4):
        prior = tuple(GUESS_DENOMINATOR * (j == k) for j in range(4))
        assert measurement._certified_value(exact, strategy, prior)[0] == QSqrt2(Fraction(1))


def _reference_certified_value(exact, strategy, prior) -> tuple[QSqrt2Field, tuple[QSqrt2Field, ...]]:
    """The field sums the certificate made before it moved to integer pairs: the reference."""
    exact = [[QSqrt2Field(Fraction(a, 64), Fraction(b, 64)) for a, b in entries] for entries in exact]
    zero, unit = QSqrt2Field(), Fraction(1, GUESS_DENOMINATOR)
    successes = [sum((exact[k][m] * row[k] for m, row in enumerate(strategy)), zero) for k in range(len(ORDERS))]
    worst = min(successes)
    best = sum((max(exact[k][m] * p for k, p in enumerate(prior)) for m in range(8)), zero)
    if worst != best:
        raise CertificateError(f"guess-game certificate failed: strategy {worst * unit!r} != prior {best * unit!r}")
    return worst * unit, tuple(s * unit for s in successes)


def _split(draw, total: int, size: int) -> tuple[int, ...]:
    """size nonnegative ints summing to total."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=size - 1, max_size=size - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


@st.composite
def guess_vertices(draw):
    """A strategy and a prior over 109 near the stored vertex, and the exact rows under a relabeling."""
    relabeling = draw(st.permutations(range(4)))
    exact = [measurement._exact_closed_form(ORDERS[k]) for k in relabeling]
    if draw(st.booleans()):
        strategy = [draw(st.sampled_from([row, _split(draw, GUESS_DENOMINATOR, 4)])) for row in GUESS_STRATEGY]
        prior = draw(st.sampled_from([GUESS_PRIOR, _split(draw, GUESS_DENOMINATOR, 4)]))
    else:
        strategy = [[row[k] for k in relabeling] for row in GUESS_STRATEGY]
        prior = [GUESS_PRIOR[k] for k in relabeling]
    return exact, strategy, prior


@given(guess_vertices())
def test_integer_certificate_equals_the_qsqrt2_reference(vertex):
    # the integer pairs must reach the same verdict, the same value and the same failure text
    exact, strategy, prior = vertex
    try:
        expected = _reference_certified_value(exact, strategy, prior)
    except CertificateError as error:
        with pytest.raises(CertificateError) as got:
            measurement._certified_value(exact, strategy, prior)
        assert str(got.value) == str(error)
    else:
        value, successes = measurement._certified_value(exact, strategy, prior)
        assert value == expected[0] and repr(value) == repr(expected[0])
        assert successes == expected[1]


def _moved(cells, source, target):
    out = list(cells)
    out[source] -= 1
    out[target] += 1
    return tuple(out)


ONE_UNIT_MOVES = [
    *(pytest.param("GUESS_STRATEGY", (*GUESS_STRATEGY[:m], _moved(row, i, j), *GUESS_STRATEGY[m + 1:]),
                   id=f"strategy-m{m}-{i}to{j}")
      for m, row in enumerate(GUESS_STRATEGY) for i in range(4) for j in range(4) if i != j and row[i]),
    *(pytest.param("GUESS_PRIOR", _moved(GUESS_PRIOR, i, j), id=f"prior-{i}to{j}")
      for i in range(4) for j in range(4) if i != j),
]


def test_one_unit_moves_are_all_listed():
    assert len(ONE_UNIT_MOVES) == 45  # 12 in row m = 0, 3 in each of rows 1..7, 12 in the prior


@pytest.mark.parametrize("name, stored", ONE_UNIT_MOVES)
def test_one_unit_move_of_a_stored_literal_raises_certificate_error(monkeypatch, name, stored):
    monkeypatch.setattr(measurement, name, stored)
    with pytest.raises(CertificateError, match="guess-game certificate failed"):
        solve_guess_game()


@pytest.mark.parametrize("name, stored, match", [
    ("GUESS_STRATEGY", (*GUESS_STRATEGY[:3], (0, 0, 108, 0), *GUESS_STRATEGY[4:]), "row m=3 is not a distribution"),
    ("GUESS_STRATEGY", ((61, 11, 16, 22), *GUESS_STRATEGY[1:]), "row m=0 is not a distribution"),
    ("GUESS_STRATEGY", (*GUESS_STRATEGY[:6], (0, 0, -1, 110), GUESS_STRATEGY[7]), "row m=6 is not a distribution"),
    ("GUESS_STRATEGY", (*GUESS_STRATEGY[:5], (0, 0, 109), *GUESS_STRATEGY[6:]), "row m=5 is not a distribution"),
    ("GUESS_STRATEGY", GUESS_STRATEGY[:7], "7 rows, expected one per outcome"),
    ("GUESS_PRIOR", (11, 22, 32, 45), "prior is not a distribution"),
    ("GUESS_PRIOR", (-1, 34, 32, 44), "prior is not a distribution"),
    ("GUESS_PRIOR", (33, 32, 44), "prior is not a distribution"),
], ids=["row_sum_m3", "row_sum_m0", "negative_cell_m6", "short_row_m5", "seven_rows", "prior_sum", "negative_prior",
        "short_prior"])
def test_broken_stored_literal_names_the_failed_check(monkeypatch, name, stored, match):
    monkeypatch.setattr(measurement, name, stored)
    with pytest.raises(CertificateError, match=match):
        solve_guess_game()


def test_per_order_success_is_the_floats_of_the_exact_sums():
    # Pr[guess r | r] = sum_m Pr[m | r] strategy[m][r], summed in Q(sqrt 2) and only then read as a float
    exact = [[QSqrt2Field(Fraction(a, 64), Fraction(b, 64)) for a, b in measurement._exact_closed_form(r)]
             for r in ORDERS]
    sums = [sum((exact[k][m] * Fraction(row[k], GUESS_DENOMINATOR) for m, row in enumerate(GUESS_STRATEGY)),
                QSqrt2Field()) for k in range(len(ORDERS))]
    assert sums == [QSqrt2Field(Fraction(60, 109))] * 4
    assert solve_guess_game().per_order_success == tuple(map(float, sums)) == (0.5504587155963303,) * 4


def test_infer_order_from_distributions():
    specs = [OracleSpec(pi, y) for pi in PERMS[::3] for y in range(4)]
    for spec, dist in zip(specs, simulated(specs)):
        assert infer_order(dist) == order_of(spec.pi, spec.y)


def test_invalid_distribution_rejected():
    with pytest.raises(InfeasibleInput):
        outcome_probabilities(np.full((1, DIM), np.sqrt(0.2 / 4)))  # Pr[m] = 0.2 each
    heavy = np.zeros(DIM, dtype=complex)
    heavy[0], heavy[4] = np.sqrt(1.5), 1j * np.sqrt(0.5)  # 1.5 on m = 0, 0.5 on m = 4
    with pytest.raises(InfeasibleInput):
        outcome_probabilities(heavy[None])


@given(st.integers(0, 23), st.integers(0, 3))
def test_distribution_normalization_property(k, y):
    (dist,) = simulated([OracleSpec(PERMS[k], y)])
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.min() >= -1e-12


def test_outcome_probabilities_rows_equal_the_one_row_distributions():
    specs = [OracleSpec(pi, y) for pi in PERMS[::3] for y in range(4)]
    probs = outcome_probabilities(run_instances(specs))
    assert probs.shape == (len(specs), 8)
    for spec, row in zip(specs, probs):
        assert row.tobytes() == simulated([spec])[0].tobytes()


@pytest.mark.parametrize("bad", [np.zeros(DIM), np.full(DIM, np.nan), np.full(DIM, 1.0)], ids=["zero", "nan", "heavy"])
def test_outcome_probabilities_name_the_row_that_is_not_a_probability_vector(bad):
    amps = np.array([np.eye(DIM)[0], np.eye(DIM)[7], bad])
    with pytest.raises(InfeasibleInput, match=r"^row 2 is not a probability vector"):
        outcome_probabilities(amps)


def _with_entry(valid: np.ndarray, value: float) -> np.ndarray:
    out = np.array(valid, dtype=complex if np.iscomplexobj(valid) else float)
    out.flat[3] = value
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [  # a state is checked where it enters the runner
    lambda v: run_circuits([()], np.full((1, DIM), v)),
    lambda v: run_circuits([()], _with_entry(np.eye(DIM, dtype=complex)[:1], v)),
    lambda v: outcome_probabilities(np.full((1, DIM), v)),
    lambda v: outcome_probabilities(_with_entry(np.eye(DIM, dtype=complex)[:1], v)),
    lambda v: DensityOperator(np.full((DIM, DIM), v)),
    lambda v: DensityOperator(_with_entry(np.eye(DIM, dtype=complex) / DIM, v)),
], ids=["state", "state-entry", "distribution", "distribution-entry", "density", "density-entry"])
def test_validated_types_reject_non_finite_entries(make, value):
    with pytest.raises(ValueError):
        make(value)
