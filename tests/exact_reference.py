"""Exact references for the tests: the field Q(sqrt 2) with its arithmetic and ordering.

Production keeps `measurement.QSqrt2` as a plain two-Fraction value: the guess-game certificate
sums integer pairs and orders them with `measurement.sqrt2_sign`.  `QSqrt2Field` is the full
field that value once carried, kept here as the independent oracle for `sqrt2_sign` and for
the certified value.
"""
from fractions import Fraction

from orderfinding.measurement import QSqrt2


class QSqrt2Field:
    """An element a + b*sqrt(2) with rational a, b: an exactly ordered field.

    Operands may be ints, Fractions, `QSqrt2Field`s or production `QSqrt2` values.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is Fraction else Fraction(a)  # arithmetic results are Fractions already
        self.b = b if type(b) is Fraction else Fraction(b)

    @staticmethod
    def _coerce(value) -> "QSqrt2Field":
        if isinstance(value, QSqrt2Field):
            return value
        if isinstance(value, QSqrt2):
            return QSqrt2Field(value.a, value.b)
        if isinstance(value, (int, Fraction)):
            return QSqrt2Field(value, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2Field(self.a + o.a, self.b + o.b if o.b else self.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2Field(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2Field(self.a - o.a, self.b - o.b if o.b else self.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2Field(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.b:  # a rational factor: no sqrt(2) cross terms
            return QSqrt2Field(self.a * o.a, self.b * o.a)
        if not self.b:
            return QSqrt2Field(self.a * o.a, self.a * o.b)
        return QSqrt2Field(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        den = o.a * o.a - 2 * o.b * o.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return QSqrt2Field((self.a * o.a - 2 * self.b * o.b) / den, (self.b * o.a - self.a * o.b) / den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2, the sign follows the larger part
        big_a = a * a > 2 * b * b
        return (1 if a > 0 else -1) if big_a else (1 if b > 0 else -1)

    def __bool__(self):
        return not (self.a == 0 and self.b == 0)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        return (self - other)._sign() < 0

    def __le__(self, other):
        return (self - other)._sign() <= 0

    def __gt__(self, other):
        return (self - other)._sign() > 0

    def __ge__(self, other):
        return (self - other)._sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * 2**0.5

    def as_fraction(self) -> Fraction | None:
        """The value as a Fraction when the sqrt(2) part vanishes, else None."""
        return self.a if self.b == 0 else None

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a} + {self.b}*sqrt(2)"
