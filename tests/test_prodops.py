import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import zsum_to_matrix
from orderfinding import CertificateError, circuits
from orderfinding.circuits import parse_native_sequence
from orderfinding.gates import ControlledNot, NotGate
from orderfinding.prodops import (
    OPTIMAL_SCHEDULES,
    SearchExhausted,
    apply_prep,
    apply_prep_dense,
    effective_pure_target,
    equilibrium_zsum,
    schedule_prep,
    standard_prep_sequences,
    verify_prep_set,
)
from orderfinding.simulator import circuit_unitary

ALL_MASKS = range(1, 32)  # the non-identity 5-spin strings; spin 1 is the most significant bit
C_OPS = [ControlledNot(i, j) for i in range(1, 6) for j in range(1, 6) if i != j]
N_OPS = [NotGate(i) for i in range(1, 6)]


def _terms(vector):
    """The nonzero entries of a coefficient vector, {mask: coefficient}."""
    return {mask: coeff for mask, coeff in enumerate(vector) if coeff}


def _vector(terms, n=5):
    """The coefficient vector on n spins with the given {mask: coefficient} entries."""
    return tuple(terms.get(mask, 0) for mask in range(1 << n))


def _conjugated(op, mask, sign=1):
    """The one signed term that conjugating the term (mask, sign) by op gives."""
    (term,) = _terms(apply_prep((op,), _vector({mask: sign}))).items()
    return term


def test_conjugation_rule_examples():
    assert _conjugated(ControlledNot(1, 2), 0b01000) == (0b11000, 1)
    assert _conjugated(ControlledNot(1, 2), 0b10000) == (0b10000, 1)
    assert _conjugated(ControlledNot(1, 2), 0b11000) == (0b01000, 1)
    assert _conjugated(NotGate(3), 0b00100) == (0b00100, -1)
    assert _conjugated(NotGate(3), 0b00100, -1) == (0b00100, 1)


def test_closure_every_pattern_and_op():
    for mask in ALL_MASKS:
        for op in C_OPS + N_OPS:
            out_mask, sign = _conjugated(op, mask)
            assert sign in (1, -1)
            assert 0 <= out_mask < 32
            assert out_mask != 0


def test_conjugation_involution():
    for mask in ALL_MASKS:
        for op in C_OPS:
            twice = _conjugated(op, *_conjugated(op, mask))
            assert twice == (mask, 1)


def test_equilibrium_and_target_contents():
    eq = _terms(equilibrium_zsum())
    assert len(eq) == 5
    assert all(eq[m] == 1 and bin(m).count("1") == 1 for m in eq)
    target = _terms(effective_pure_target())
    assert len(target) == 31
    assert target[0b11111] == 1
    assert all(c == 1 for c in target.values())


def test_zterm_sums_on_different_spin_counts_are_unequal():
    three, five = equilibrium_zsum(3), _vector(_terms(equilibrium_zsum(3)), 5)
    assert _terms(three) == _terms(five)
    assert not three == five and three != five
    assert three == equilibrium_zsum(3) and not three != equilibrium_zsum(3)


@pytest.mark.parametrize("length", [31, 33, 64])
@pytest.mark.parametrize("conjugate", [apply_prep, apply_prep_dense])
def test_conjugations_reject_a_vector_of_the_wrong_length(conjugate, length):
    with pytest.raises(ValueError, match=re.escape(f"a Z-string sum has 2^n entries for n in 1..5, got {length}")):
        conjugate((), (0, 1) + (0,) * (length - 2))


def test_apply_prep_empty_sequence():
    eq = equilibrium_zsum()
    assert apply_prep((), eq) == eq


def test_apply_prep_first_production_sequence():
    seq = parse_native_sequence("C51 C45 C24 N3")
    out = apply_prep(seq, equilibrium_zsum())
    assert sum(abs(c) for c in out) == 5
    assert out == apply_prep_dense(seq, equilibrium_zsum())


@st.composite
def prep_sequence_strategy(draw):
    n_ops = draw(st.integers(0, 6))
    return tuple(draw(st.sampled_from(C_OPS + N_OPS)) for _ in range(n_ops))


zterm_sums = st.one_of(  # full 32-entry vectors, the identity entry nonzero
    st.just(equilibrium_zsum()),
    st.builds(lambda identity, rest: (identity, *rest), st.integers(-9, 9).filter(bool),
              st.lists(st.integers(-9, 9), min_size=31, max_size=31)),
)


@given(prep_sequence_strategy(), zterm_sums)
@settings(max_examples=40)
def test_apply_prep_matches_dense_conjugation(seq, terms):
    out = apply_prep_dense(seq, terms)
    assert apply_prep(seq, terms) == out
    assert out[0] == terms[0]  # the identity commutes with every op
    u = circuit_unitary(seq)
    assert np.allclose(zsum_to_matrix(out), u @ zsum_to_matrix(terms) @ u.conj().T, atol=1e-9)


@given(prep_sequence_strategy())
def test_experiments_always_give_five_distinct_signed_strings(seq):
    out = _terms(apply_prep(seq, equilibrium_zsum()))
    assert len(out) == 5
    assert all(c in (1, -1) for c in out.values())


def test_production_prep_set_sums_to_effective_pure_target():
    report = verify_prep_set(standard_prep_sequences())
    assert report.total_terms == 45
    assert report.is_effective_pure
    assert report.canceled_pairs == 7
    assert not any(report.residual)
    assert report.summed == effective_pure_target()


def test_prep_report_images_are_tuples():
    # a sum is an immutable coefficient vector: no setter can store an unchecked mask
    report = verify_prep_set(standard_prep_sequences())
    assert len(report.images) == 9
    assert all(type(image) is tuple and len(image) == 32 for image in report.images)
    assert type(report.summed) is tuple and type(report.residual) is tuple


def test_production_prep_set_dense_cross_check():
    total = np.zeros((32, 32), dtype=complex)
    for seq in standard_prep_sequences():
        u = circuit_unitary(seq)
        total += u @ zsum_to_matrix(equilibrium_zsum()) @ u.conj().T
    assert np.allclose(total, zsum_to_matrix(effective_pure_target()), atol=1e-9)


def test_effective_pure_matrix_is_ground_state_projector_scaled():
    m = zsum_to_matrix(effective_pure_target())
    expected = np.zeros((32, 32))
    expected[0, 0] = 32.0
    assert np.allclose(m, expected - np.eye(32), atol=1e-12)


def test_empty_and_single_sequence_sets_are_not_pure():
    assert not verify_prep_set([]).is_effective_pure
    single = verify_prep_set([parse_native_sequence("C51 C45 C24 N3")])
    assert single.total_terms == 5
    assert not single.is_effective_pure


def test_impure_sets_report_no_canceled_pairs():
    # canceled_pairs counts the terms that cancel in a pure sum; an impure set reports none
    standard = standard_prep_sequences()
    for seqs in ([], [parse_native_sequence("C51 C45 C24 N3")], standard[:-1], standard + standard[:1]):
        report = verify_prep_set(seqs)
        assert not report.is_effective_pure
        assert report.canceled_pairs == 0


def test_schedule_prep_single_spin():
    seqs = schedule_prep(1, 1)
    assert seqs == [()]


def test_schedule_prep_three_spins_hits_counting_bound():
    seqs = schedule_prep(3, 3)
    assert len(seqs) == 3
    assert verify_prep_set(seqs, 3).is_effective_pure


def test_schedule_prep_five_spins_within_nine():
    seqs = schedule_prep(5, 9)
    assert len(seqs) <= 9
    assert verify_prep_set(seqs, 5).is_effective_pure


def test_schedule_prep_five_spins_reaches_seven_experiments():
    # ceil(31/5) = 7 experiments suffice for the five-spin register
    seqs = schedule_prep(5, 7)
    assert len(seqs) == 7
    assert verify_prep_set(seqs, 5).is_effective_pure


@pytest.mark.parametrize(("n", "max_experiments"), [(3, 2), (5, 6)])
def test_schedule_prep_below_counting_bound_is_exhausted(n, max_experiments):
    # each experiment contributes n signed terms and the target has 2^n - 1
    assert max_experiments == math.ceil((2**n - 1) / n) - 1
    with pytest.raises(SearchExhausted, match=f"within {max_experiments} experiments"):
        schedule_prep(n, max_experiments)


def test_schedule_prep_even_spin_counts_are_infeasible():
    for n in (2, 4):
        with pytest.raises(SearchExhausted):
            schedule_prep(n, 50)


@pytest.mark.parametrize("n", [3, 5])
def test_perturbed_stored_schedule_raises_certificate_error(n, monkeypatch):
    # every plan that drops one token, and one whose last token becomes N1
    plan = OPTIMAL_SCHEDULES[n]
    perturbed = [plan[:-1] + (plan[-1].rsplit(" ", 1)[0] + " N1",)]
    for i, text in enumerate(plan):
        tokens = text.split()
        perturbed += [plan[:i] + (" ".join(tokens[:j] + tokens[j + 1:]),) + plan[i + 1:] for j in range(len(tokens))]
    for bad in perturbed:
        monkeypatch.setitem(OPTIMAL_SCHEDULES, n, bad)
        with pytest.raises(CertificateError, match=f"stored {n}-spin schedule"):
            schedule_prep(n, 9)


@pytest.mark.parametrize("n", [True, False, 3.0, "3", None, 0, 6])
def test_schedule_prep_rejects_a_spin_count_that_is_not_an_int_in_range(n):
    with pytest.raises(ValueError, match="spin count"):
        schedule_prep(n, 9)


def _verify_on_three_spins(text):
    return verify_prep_set([parse_native_sequence(text)], 3)


@pytest.mark.parametrize("call, message", [
    (lambda: _verify_on_three_spins("C45"), "ControlledNot(control=4, target=5) acts on a spin above n=3"),
    (lambda: _verify_on_three_spins("N4"), "NotGate(spin=4) acts on a spin above n=3"),
    (lambda: apply_prep((NotGate(3),), equilibrium_zsum(2)), "NotGate(spin=3) acts on a spin above n=2"),
    (lambda: apply_prep((ControlledNot(1, 3),), (0, 0, 0, 1)),
     "ControlledNot(control=1, target=3) acts on a spin above n=2"),
    (lambda: apply_prep_dense(parse_native_sequence("C12"), equilibrium_zsum(3)),
     "dense conjugation takes 5-spin sums, got n=3"),
    (lambda: verify_prep_set([], 6), "spin count 6 is not an int in 1..5"),
    (lambda: equilibrium_zsum(0), "spin count 0 is not an int in 1..5"),
    *((lambda n=n, call=call: call(n), f"spin count {n!r} is not an int in 1..5")
      for n in (3.0, True, "3")
      for call in (equilibrium_zsum, effective_pure_target, lambda n: verify_prep_set([], n),
                   lambda n: schedule_prep(n, 9))),
    (lambda: schedule_prep(3, 3.5), "experiment budget 3.5 is not an int >= 1"),
    (lambda: schedule_prep(3, True), "experiment budget True is not an int >= 1"),
    (lambda: schedule_prep(3, "9"), "experiment budget '9' is not an int >= 1"),
    (lambda: schedule_prep(3, None), "experiment budget None is not an int >= 1"),
    (lambda: schedule_prep(3, 0), "experiment budget 0 is not an int >= 1"),
], ids=["verify_C45", "verify_N4", "apply_prep", "conjugate", "apply_prep_dense", "verify_n6", "equilibrium_n0",
        *(f"{name}_{n!r}" for n in (3.0, True, "3") for name in ("equilibrium", "target", "verify", "schedule")),
        "budget_3.5", "budget_True", "budget_str", "budget_None", "budget_0"])
def test_prep_input_errors_name_the_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_dense_conjugation_refuses_a_basis_map_that_is_not_affine(monkeypatch):
    # swapping the images of |00000> and |00001> moves diagonal entries 5 and 3 of equilibrium,
    # so the mask-1 coefficient reads (32 - 4)/32
    real = circuits.native_image
    monkeypatch.setattr(circuits, "native_image", lambda seq, index: real(seq, index ^ 1 if index < 2 else index))
    with pytest.raises(ValueError, match=re.escape("coefficient 28/32 of mask 1 is not an integer")):
        apply_prep_dense((), equilibrium_zsum())


def test_two_spin_schedules_are_impossible_for_any_experiment_count():
    """Exhaustive certificate on two spins.

    Any experiment is a signed basis of GF(2)^2: 3 unordered bases x 4 sign
    patterns = 12 distinct experiments, each contributing 2 signed terms.
    Every multiset of up to 6 experiments is checked; none sums to the
    3-term target (its coefficient total is odd, experiment sums are even).
    """
    vectors = [1, 2, 3]
    bases = [c for c in itertools.combinations(vectors, 2) if c[0] ^ c[1] != 0]
    experiments = []
    for basis in bases:
        for signs in itertools.product((1, -1), repeat=2):
            experiments.append(tuple(zip(basis, signs)))
    target = {1: 1, 2: 1, 3: 1}
    for count in range(1, 7):
        for combo in itertools.combinations_with_replacement(experiments, count):
            total = {}
            for exp in combo:
                for v, s in exp:
                    total[v] = total.get(v, 0) + s
            assert {k: v for k, v in total.items() if v} != target


def test_prep_sequence_rejects_non_cn_ops():
    from orderfinding.gates import Hadamard

    with pytest.raises(ValueError):
        apply_prep((Hadamard(1),), equilibrium_zsum())
