"""Exact values for the certificates: elements of Q(sqrt 2), their integer sign rule, and the certificate error.

Neither game LP is solved at run time: each stores its optimal vertex and checks it exactly on
every call, in integers (McConnell, Mehlhorn, Näher & Schweitzer, "Certifying algorithms",
Comput. Sci. Rev. 5, 2011).  The classical game sums integer numerators over one denominator;
the guess game, whose order-3 outcome probabilities lie in Q(sqrt 2), sums integer pairs
(a, b) meaning a + b sqrt 2 over one denominator and orders them with `sqrt2_sign`.  Its
exact distributions and its value are `QSqrt2` values, which production only builds, reads
and prints; the field arithmetic and ordering live in the tests' reference,
`tests/exact_reference.py`, the oracle for `sqrt2_sign`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def sqrt2_sign(a: int, b: int) -> int:
    """The sign (-1, 0 or 1) of a + b sqrt 2 for ints a, b."""
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: a + b sqrt 2 = (a^2 - 2 b^2) / (a - b sqrt 2), and a - b sqrt 2 has the sign of a
    return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)


@dataclass(frozen=True)
class QSqrt2:
    """An element a + b*sqrt(2) of Q(sqrt 2) with Fraction parts: a value read as a float or printed."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __float__(self):
        return float(self.a) + float(self.b) * 2**0.5

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a} + {self.b}*sqrt(2)"


class CertificateError(RuntimeError):
    """A stored or computed certificate fails an exact check."""

