from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exact_reference import QSqrt2Field
from orderfinding import cli
from orderfinding.measurement import QSqrt2, sqrt2_sign


def q(a, b=0):
    return QSqrt2Field(Fraction(a), Fraction(b))


def test_field_arithmetic():
    x = q(1, 1)  # 1 + sqrt(2)
    y = q(3, -2)  # 3 - 2 sqrt(2)
    assert x + y == q(4, -1)
    assert x * y == q(3 - 4, 3 - 2)  # (1+s)(3-2s) = 3 - 2s + 3s - 4 = -1 + s
    assert x - x == q(0)
    assert (x / x) == q(1)
    one = (x * y) / (x * y)
    assert one == q(1)
    assert float(q(0, 1)) == pytest.approx(2**0.5)


@pytest.mark.parametrize("a, b", [(Fraction(-3, 7), Fraction(5, 11)), (Fraction(60, 109), Fraction(0)),
                                  (Fraction(371, 872), Fraction(-5, 64)), (Fraction(0), Fraction(1))], ids=str)
def test_float_is_the_float_of_a_plus_the_float_of_b_times_sqrt2(a, b):
    assert float(QSqrt2(a, b)) == float(a) + float(b) * 2**0.5


def test_field_division_by_conjugate_pairs():
    # a^2 - 2 b^2 can vanish only at zero since sqrt(2) is irrational
    x = q(2, 1)
    inv = 1 / x
    assert x * inv == q(1)
    with pytest.raises(ZeroDivisionError):
        _ = q(1) / q(0)


def test_ordering_close_calls():
    assert q(3, -2) > 0       # 3 > 2*sqrt(2) since 9 > 8
    assert q(7, -5) < 0       # 7 < 5*sqrt(2) since 49 < 50
    assert q(-3, 2) < 0
    assert q(-7, 5) > 0
    assert q(0, 1) > q(1, 0)  # sqrt(2) > 1
    assert q(1414213562373095, -10**15) < 0  # tight rational approximation from below
    assert not (q(0) > 0) and not (q(0) < 0)


@pytest.mark.parametrize("a, b", [(3, -2), (-17, 12), (99, -70), (577, -408), (0, 0), (0, 5), (-4, 0)])
def test_integer_sign_agrees_with_the_field_on_near_sqrt2_pairs(a, b):
    # a / b near -sqrt 2 (Pell convergents): a^2 - 2 b^2 = 1, so a + b sqrt 2 is tiny but nonzero
    expected = q(a, b)._sign()
    assert sqrt2_sign(a, b) == expected
    assert sqrt2_sign(-a, -b) == -expected


big = st.integers(-10**12, 10**12)
# pairs within 2 of the line a = -b sqrt 2, where a + b sqrt 2 is closest to zero
near_zero = st.builds(lambda b, d: (d - (1 if b > 0 else -1) * isqrt(2 * b * b), b), big, st.integers(-2, 2))


@given(st.one_of(st.tuples(big, big), near_zero))
def test_integer_sign_agrees_with_the_field(pair):
    a, b = pair
    assert sqrt2_sign(a, b) == q(a, b)._sign()


def test_as_fraction():
    assert q(3, 0).as_fraction() == Fraction(3)
    assert q(3, 1).as_fraction() is None


def test_fraction_parts_are_kept_and_other_parts_become_fractions():
    a, b = Fraction(3, 7), Fraction(-5, 2)
    x = QSqrt2Field(a, b)
    assert x.a is a and x.b is b
    for part in (2, 0.5, True):
        y = QSqrt2Field(part, part)
        assert type(y.a) is Fraction and type(y.b) is Fraction
        assert y.a == Fraction(part) and y.b == Fraction(part)


rationals = st.fractions(max_denominator=60)
sqrt2_parts = st.one_of(st.just(Fraction(0)), rationals)  # zero b parts often, to reach the rational fast path


@given(rationals, sqrt2_parts, rationals, sqrt2_parts)
def test_rational_fast_path_matches_the_general_formula(a1, b1, a2, b2):
    x, y = QSqrt2Field(a1, b1), QSqrt2Field(a2, b2)
    expected = [
        (x * y, (a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2)),
        (x + y, (a1 + a2, b1 + b2)),
        (x - y, (a1 - a2, b1 - b2)),
        (x * a2, (a1 * a2, b1 * a2)),
        (a2 * x, (a1 * a2, b1 * a2)),
    ]
    for result, parts in expected:
        assert (result.a, result.b) == parts
        assert type(result.a) is Fraction and type(result.b) is Fraction


def _wrap_every_part(self, a=0, b=0):
    object.__setattr__(self, "a", Fraction(a))
    object.__setattr__(self, "b", Fraction(b))


@pytest.mark.parametrize("command", ["guess-table", "classical"])
def test_keeping_fraction_parts_leaves_the_outputs_byte_identical(command, tmp_path, monkeypatch, capsys):
    def outputs(out):
        assert cli.main([command, "--out", str(out)]) == 0
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return files, capsys.readouterr()

    kept = outputs(tmp_path / "kept")
    monkeypatch.setattr(QSqrt2, "__init__", _wrap_every_part)
    assert outputs(tmp_path / "wrapped") == kept
