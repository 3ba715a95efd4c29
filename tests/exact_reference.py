"""Exact references for the tests: the field Q(sqrt 2), and the order-finding circuit in Z[zeta_8].

Production keeps `measurement.QSqrt2` as a plain two-Fraction value: the guess-game certificate
sums integer pairs and orders them with `measurement.sqrt2_sign`.  `QSqrt2Field` is the full
field that value once carried, kept here as the independent oracle for `sqrt2_sign` and for
the certified value.

Every gate of the order-finding circuit has its entries in Z[1/sqrt 2, zeta_8], zeta =
exp(2 pi i / 8): Hadamards, basis moves (NOT, CNOT, controlled permutations) and conditional
rotations by multiples of 45 degrees.  `exact_state` runs a circuit on a basis state with
unnormalized Hadamards, (u, v) -> (u + v, u - v), so every amplitude stays an element
c0 + c1 zeta + c2 zeta^2 + c3 zeta^3 of Z[zeta_8] (zeta^4 = -1), a 4-tuple of ints, and the
true amplitude is that element over sqrt(2)^h for h Hadamards.  `exact_distribution` reads
Pr[m] from that state as integer pairs in Z[sqrt 2], with no float anywhere.
"""
import cmath
from fractions import Fraction

from orderfinding.measurement import QSqrt2, m_from_register_index
from orderfinding.gates import ConditionalZRotation, ControlledNot, ControlledPermutation, Hadamard, NotGate

N_SPINS = 5
DIM = 2**N_SPINS
ZETA = cmath.exp(2j * cmath.pi / 8)

ZetaInt = tuple[int, int, int, int]  # c0 + c1 zeta + c2 zeta^2 + c3 zeta^3


def _bit(index: int, spin: int) -> int:
    return (index >> (N_SPINS - spin)) & 1


def zeta_times(c: ZetaInt, k: int) -> ZetaInt:
    """c * zeta^k: one factor of zeta shifts the coefficients up, and zeta^4 = -1 wraps the top one."""
    for _ in range(k % 8):
        c = (-c[3], c[0], c[1], c[2])
    return c


def _moved(op, index: int) -> int:
    """The basis state a basis move sends `index` to."""
    if isinstance(op, NotGate):
        return index ^ 1 << (N_SPINS - op.spin)
    if isinstance(op, ControlledNot):
        return index ^ _bit(index, op.control) << (N_SPINS - op.target)
    if isinstance(op, ControlledPermutation):
        if not _bit(index, op.control):
            return index
        high, low = op.targets  # the first target spin is the more significant bit of the pair's value
        image = op.images[2 * _bit(index, high) + _bit(index, low)]
        index &= ~(1 << (N_SPINS - high) | 1 << (N_SPINS - low))
        return index | (image >> 1) << (N_SPINS - high) | (image & 1) << (N_SPINS - low)
    raise TypeError(f"not a gate op: {op!r}")


def exact_state(circuit, index: int) -> tuple[list[ZetaInt], int]:
    """(amplitudes, h): `circuit` run on |index>, each final amplitude times sqrt(2)^h, h its Hadamard count."""
    state: list[ZetaInt] = [(0, 0, 0, 0)] * DIM
    state[index] = (1, 0, 0, 0)
    hadamards = 0
    for op in circuit:
        if isinstance(op, Hadamard):
            hadamards += 1
            bit = 1 << (N_SPINS - op.spin)
            new = list(state)
            for b in range(DIM):
                if not b & bit:
                    u, v = state[b], state[b | bit]
                    new[b] = tuple(p + q for p, q in zip(u, v))
                    new[b | bit] = tuple(p - q for p, q in zip(u, v))
            state = new
        elif isinstance(op, ConditionalZRotation):
            eighths, rest = divmod(op.angle_deg, 45.0)
            if rest:
                raise ValueError(f"{op!r} is not a rotation by a multiple of 45 degrees")
            k = -int(eighths) if op.dagger else int(eighths)
            state = [zeta_times(c, k) if _bit(b, op.control) and _bit(b, op.target) else c
                     for b, c in enumerate(state)]
        else:
            new = [(0, 0, 0, 0)] * DIM
            for b, c in enumerate(state):
                new[_moved(op, b)] = c
            state = new
    return state, hadamards


def as_complex(c: ZetaInt, hadamards: int) -> complex:
    """The amplitude c / sqrt(2)^hadamards as a complex float."""
    return sum(cj * ZETA**j for j, cj in enumerate(c)) / 2 ** (hadamards / 2)


def norm_squared(c: ZetaInt) -> tuple[int, int]:
    """|c|^2 = p + q sqrt 2 as the int pair (p, q), from the product c * conj(c) in Z[zeta_8].

    conj(zeta^j) = zeta^(8 - j) = -zeta^(4 - j), so conj(c) = (c0, -c3, -c2, -c1).  A real element
    p0 + p1 zeta + p2 zeta^2 + p3 zeta^3 has p2 = 0 and p3 = -p1, and equals p0 + p1 sqrt 2.
    """
    conj = (c[0], -c[3], -c[2], -c[1])
    product = [0] * 4
    for j in range(4):
        for k in range(4):
            product[(j + k) % 4] += (-1 if j + k >= 4 else 1) * c[j] * conj[k]  # zeta^4 = -1
    p0, p1, p2, p3 = product
    assert p2 == 0 and p3 == -p1, f"|c|^2 of {c} is not real: {product}"
    return p0, p1


def exact_distribution(state: list[ZetaInt], hadamards: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """(pairs, denominator) of an `exact_state` result: Pr[m] = (a + b sqrt 2) / denominator, (a, b) = pairs[m].

    |amplitude|^2 summed over spins 4-5 for each register index b1 b2 b3 of spins 1-3, which
    `m_from_register_index` maps to the outcome m = 0..7; the denominator is 2^h for h Hadamards.
    """
    pairs = [[0, 0] for _ in range(8)]
    for b, c in enumerate(state):
        p, q = norm_squared(c)
        m = m_from_register_index(b >> 2)
        pairs[m][0] += p
        pairs[m][1] += q
    return tuple(map(tuple, pairs)), 2**hadamards


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
