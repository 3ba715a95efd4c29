import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import unitary
from exact_reference import power
from orderfinding import classical
from orderfinding.circuits import oracle_stages, parse_native_sequence, verify_oracle_sequence
from orderfinding.permutations import (
    ALL_PERMUTATIONS,
    IDENTITY,
    OracleSpec,
    Permutation,
    format_cycles,
    order_of,
    parse_permutation,
    permutation_names,
    trajectory,
)
from orderfinding.spectra import FrequencyGrid

PERMS = ALL_PERMUTATIONS
perm_strategy = st.sampled_from(PERMS)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: (p*q)(y) = p(q(y))."""
    return Permutation(tuple(p.images[q.images[y]] for y in range(4)))


def test_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1, 2))
    with pytest.raises(ValueError):
        OracleSpec(IDENTITY, 4)


@pytest.mark.parametrize(("cls", "args", "bad"), [
    (Permutation, ((0, 1, 2, 3.7),), 3.7),
    (Permutation, ((0, 1, 2, "3"),), "3"),
    (Permutation, ((0, True, 2, 3),), True),
    (OracleSpec, (IDENTITY, 1.5), 1.5),
    (OracleSpec, (IDENTITY, True), True),
    (FrequencyGrid, (-60.0, 60.0, 4001.5), 4001.5),
    (FrequencyGrid, (-60.0, 60.0, True), True),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_validated_types_reject_non_integers_naming_the_value(cls, args, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        cls(*args)


@pytest.mark.parametrize("bad", [True, 1.5, "2", None, -1], ids=repr)
def test_power_exponent_is_an_int_in_range(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        power(IDENTITY, bad)


@pytest.mark.parametrize("y", [1.5, True, "1", None, -1, 4])
@pytest.mark.parametrize("read_y", [
    order_of,
    lambda pi, y: verify_oracle_sequence(parse_native_sequence("C35"), pi, y),
    trajectory,
    lambda pi, y: classical.paper_one_query_witness().min_payoff(y),
    lambda pi, y: classical.prior_best_response_value([Fraction(1, 24)] * 24, y),
    lambda pi, y: classical.two_query_witness().decide(trajectory(pi, y)),
], ids=["order_of", "verify_oracle_sequence", "trajectory", "min_payoff", "prior_best_response_value",
        "two_query_decide"])
def test_start_element_is_an_int_in_range_where_it_is_read(read_y, y):
    with pytest.raises(ValueError, match=re.escape(repr(y))):
        read_y(IDENTITY, y)


_ELEMENT_TEXT = st.sampled_from(["0", "1", "2", "3", "4", "9", "03", " 1", "x", ""])
PERMUTATION_TEXT = st.one_of(
    st.text(),
    st.text(alphabet="()0123456789, \t"),
    st.lists(_ELEMENT_TEXT, min_size=1, max_size=5).map(",".join),
    st.lists(st.lists(_ELEMENT_TEXT, max_size=4).map(" ".join).map("({})".format), min_size=1, max_size=3).map("".join),
)


@settings(max_examples=300)
@given(PERMUTATION_TEXT)
def test_permutation_text_parses_to_a_bijection_or_a_value_error(text):
    try:
        pi = parse_permutation(text)
    except ValueError:
        return
    assert sorted(pi.images) == [0, 1, 2, 3]
    assert parse_permutation(format_cycles(pi)) == pi


def test_order_examples():
    assert order_of(IDENTITY, 0) == 1
    assert order_of(parse_permutation("(0 1)(2 3)"), 2) == 2
    three_cycle = parse_permutation("(0 1 2)")
    assert order_of(three_cycle, 3) == 1
    assert order_of(three_cycle, 0) == 3


def test_power_examples():
    assert power(parse_permutation("(0 1 2 3)"), 0) == IDENTITY
    assert power(parse_permutation("(0 1 2 3)"), 2) == parse_permutation("(0 2)(1 3)")
    for pi in PERMS:
        assert power(pi, 12) == IDENTITY  # orders divide lcm(1,2,3,4)


@given(perm_strategy, st.integers(0, 12), st.integers(0, 12))
def test_power_additivity(pi, a, b):
    assert power(pi, a + b) == compose(power(pi, a), power(pi, b))


@given(perm_strategy, st.integers(0, 3))
def test_cycle_mates_share_order(pi, y):
    assert order_of(pi, y) == order_of(pi, pi.images[y])


def test_trajectory_and_oracle_stages_equal_the_power_reference():
    for pi in PERMS:
        for y in range(4):
            assert trajectory(pi, y) == tuple(power(pi, x).images[y] for x in range(13))
        assert [op.images for op in oracle_stages(pi)] == [power(pi, k).images for k in (1, 2, 4)]


def test_oracle_identity_is_identity():
    assert np.allclose(unitary(oracle_stages(IDENTITY)), np.eye(32), atol=1e-12)


def test_oracle_unitary_is_permutation_matrix_for_all():
    for pi in PERMS:
        u = unitary(oracle_stages(pi))
        assert np.allclose(u.conj().T @ u, np.eye(32), atol=1e-12)
        assert np.all((np.abs(u) < 1e-12) | (np.abs(u - 1) < 1e-12))


def _brute_force_oracle(pi: Permutation) -> np.ndarray:
    # independent route: powers by repeated composition, matrix assembled
    # entry by entry from |x>|y> -> |x>|pi^x(y)>
    u = np.zeros((32, 32))
    for x in range(8):
        sigma = IDENTITY
        for _ in range(x):
            sigma = compose(pi, sigma)
        for y in range(4):
            u[4 * x + sigma.images[y], 4 * x + y] = 1.0
    return u


def test_oracle_matches_brute_force_for_four_cycle():
    pi = parse_permutation("(0 1 2 3)")
    assert np.array_equal(unitary(oracle_stages(pi)).real, _brute_force_oracle(pi))


def test_oracle_action_exhaustive():
    for pi in PERMS:
        u = unitary(oracle_stages(pi))
        for x in range(8):
            for y in range(4):
                col = u[:, 4 * x + y]
                expected = np.zeros(32)
                expected[4 * x + power(pi, x).images[y]] = 1.0
                assert np.allclose(col, expected, atol=1e-12)


def _block(pi: Permutation) -> np.ndarray:
    """4x4 matrix sending |y> to |pi(y)>, written here so the test stays independent of the simulator."""
    m = np.zeros((4, 4))
    for y in range(4):
        m[pi.images[y], y] = 1.0
    return m


def test_stage_product_equals_direct_sum_construction():
    for pi in PERMS:
        direct = np.zeros((32, 32), dtype=complex)
        for x in range(8):
            block = _block(power(pi, x))
            direct[4 * x : 4 * x + 4, 4 * x : 4 * x + 4] = block
        assert np.allclose(unitary(oracle_stages(pi)), direct, atol=1e-12)


def test_cycle_notation_round_trip():
    for pi in PERMS:
        assert parse_permutation(format_cycles(pi)) == pi


def test_permutation_names_are_the_cycle_notations_in_table_order():
    # the texts sweep.csv and classical_report.json print: each cycle from its smallest element,
    # cycles in ascending order of that element, fixed points left out
    assert permutation_names() == (
        "()", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)",
        "(0 1)", "(0 1)(2 3)", "(0 1 2)", "(0 1 2 3)", "(0 1 3 2)", "(0 1 3)",
        "(0 2 1)", "(0 2 3 1)", "(0 2)", "(0 2 3)", "(0 2)(1 3)", "(0 2 1 3)",
        "(0 3 2 1)", "(0 3 1)", "(0 3 2)", "(0 3)", "(0 3 1 2)", "(0 3)(1 2)",
    )
    assert permutation_names() == tuple(format_cycles(pi) for pi in ALL_PERMUTATIONS)
    assert permutation_names() is permutation_names()


def test_parse_image_list_and_errors():
    assert parse_permutation("1,0,3,2") == parse_permutation("(0 1)(2 3)")
    assert parse_permutation("()") == IDENTITY
    for bad in ("(0 1", "(0 5)", "(0 1)(1 2)", "0,1,2", "(0 0)"):
        with pytest.raises(ValueError):
            parse_permutation(bad)


@pytest.mark.parametrize("text", ["\u00b2,0,1,3", "1,0,3,\u00b9", "0,1,2,\u2463"])
def test_image_list_digits_int_cannot_read_are_a_bad_image_list(text):
    # str.isdigit passes superscripts and circled digits, but int() rejects them
    with pytest.raises(ValueError, match=f"^bad image list: {re.escape(repr(text))}$"):
        parse_permutation(text)


def test_image_list_accepts_the_decimal_digits_int_reads():
    assert parse_permutation("\u0661,\u0660,\u0663,\u0662") == parse_permutation("1,0,3,2")  # Arabic-Indic
