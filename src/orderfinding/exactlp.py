"""Exact linear programming over ordered fields: float search, exact certificate.

The guessing game reduces to a small zero-sum game solved as a linear
program, and its answer ("the value is exactly 60/109") must be exact.  The
data are Fractions, or elements of the quadratic field Q(sqrt(2)) for the
order-3 outcome distribution, whose entries involve sqrt(2).  (The
classical one-query game is an LP too, but classical stores its optimal
vertex and only checks it; the tests keep that LP as its reference.)

`simplex_maximize` solves the LPs of one contract, which both of those meet:
b >= 0, A of full row rank, feasible and bounded.  It does not pivot in
exact arithmetic.  A float64 two-phase simplex picks a basis, and
`_exact_solve` rounds its float64 primal and dual solutions to fractions
with denominators up to ROUND_DENOMINATOR.  Exact checks certify them:
A x = b on every row, x >= 0, and no column with a positive reduced cost.
Input outside the contract, and any failed check, raises CertificateError
naming the case; nothing falls back to exact elimination or pivoting.  This
follows Applegate, Cook, Dash & Espinoza, "Exact solutions to linear
programming problems" (Oper. Res. Lett. 2007), and Dhiflaoui et al.,
"Certifying and repairing solutions to large LPs" (SODA 2003).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

TOL = 1e-9  # float search on rows scaled to largest |entry| 1: values within TOL count as equal
ROUND_DENOMINATOR = 10**6  # float solutions round to fractions with denominators up to this


class QSqrt2:
    """An element a + b*sqrt(2) with rational a, b: an exactly ordered field."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is Fraction else Fraction(a)  # arithmetic results are Fractions already
        self.b = b if type(b) is Fraction else Fraction(b)

    @staticmethod
    def _coerce(value) -> "QSqrt2":
        if isinstance(value, QSqrt2):
            return value
        if isinstance(value, (int, Fraction)):
            return QSqrt2(value, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a + o.a, self.b + o.b if o.b else self.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b if o.b else self.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.b:  # a rational factor: no sqrt(2) cross terms
            return QSqrt2(self.a * o.a, self.b * o.a)
        if not self.b:
            return QSqrt2(self.a * o.a, self.a * o.b)
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        den = o.a * o.a - 2 * o.b * o.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return QSqrt2((self.a * o.a - 2 * self.b * o.b) / den, (self.b * o.a - self.a * o.b) / den)

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


class CertificateError(RuntimeError):
    """A stored or computed certificate fails an exact check."""


def _exact_data(A, b, c):
    """Sparse rows and columns of A, with b and c, all in one exact field.

    The field is Q(sqrt 2) if any entry is a QSqrt2, else the rationals:
    int (or float) entries become Fractions, so no result is ever a float.
    """
    rows = [{j: v for j, v in enumerate(row) if v} for row in A]
    entries = [v for row in rows for v in row.values()] + list(b) + list(c)
    if any(isinstance(v, QSqrt2) for v in entries):
        def field(v):
            return v if isinstance(v, QSqrt2) else QSqrt2(v)
    else:
        def field(v):
            return v if type(v) is Fraction else Fraction(v)
    rows = [{j: field(v) for j, v in row.items()} for row in rows]
    cols = [{} for _ in c]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return rows, cols, [field(v) for v in b], [field(v) for v in c], field(0)


def _pivot(T, basis, pr, pc):
    T[pr] /= T[pr, pc]
    col = T[:, pc].copy()
    col[pr] = 0.0
    T -= np.outer(col, T[pr])
    basis[pr] = pc


def _float_simplex(T, basis):
    """Pivot the float tableau T to an optimum; return None there, or an unbounded column.

    T's last row holds the reduced costs (positive = improving) and its last
    column the right-hand side.  The rule is Dantzig's, switching to Bland's
    (which cannot cycle) after 3(rows + columns) + 100 pivots; ratio ties go
    to the lowest basic index.  Values within TOL count as equal.
    """
    m = T.shape[0] - 1
    bland_after = 3 * (m + T.shape[1] - 1) + 100
    pivots = 0
    while True:
        rc = T[m, :-1]
        if pivots < bland_after:
            top = rc.max(initial=0.0)
            if top <= TOL:
                return None
            pc = int(np.argmax(rc >= top - TOL))
        else:
            improving = np.flatnonzero(rc > TOL)
            if improving.size == 0:
                return None
            pc = int(improving[0])
        rising = np.flatnonzero(T[:m, pc] > TOL)
        if rising.size == 0:
            return pc
        ratios = T[rising, -1] / T[rising, pc]
        ties = rising[ratios <= ratios.min() + TOL]
        _pivot(T, basis, min(ties, key=basis.__getitem__), pc)
        pivots += 1


def _rounded_solution(M, r):
    """The float64 solution of M z = r, each coordinate rounded to a nearby fraction; None if singular.

    In Q(sqrt 2) an entry p + q sqrt(2) becomes the real block [[p, 2q], [q, p]]
    acting on (rational part, sqrt(2) part), so k equations become 2k.
    """
    k = len(M)
    q2 = bool(r) and isinstance(r[0], QSqrt2)
    s = 2 if q2 else 1
    F, g = np.zeros((s * k, s * k)), np.zeros(s * k)
    for i, (row, ri) in enumerate(zip(M, r)):
        g[i::k] = [float(ri.a), float(ri.b)] if q2 else float(ri)
        for j, v in row.items():
            if q2:
                F[i, j] = F[k + i, k + j] = float(v.a)
                F[i, k + j], F[k + i, j] = 2 * float(v.b), float(v.b)
            else:
                F[i, j] = float(v)
    try:
        z = [Fraction(v).limit_denominator(ROUND_DENOMINATOR) for v in np.linalg.solve(F, g).tolist()]
    except (np.linalg.LinAlgError, ValueError, OverflowError):  # singular, or a NaN or infinite coordinate
        return None
    return [QSqrt2(z[j], z[k + j]) for j in range(k)] if q2 else z


def _dot(pairs, vec, zero):
    """sum of value * vec[index] over (index, value) pairs, exactly."""
    return sum((v * vec[k] for k, v in pairs), zero)


def _exact_solve(M, r, kind, labels):
    """Solve M z = r exactly by the rounded float solution; CertificateError names equation i as `kind labels[i]`."""
    z = _rounded_solution(M, r)
    if z is None:
        raise CertificateError("the basis system is singular, or overflows, in float64")
    for row, ri, label in zip(M, r, labels):
        if _dot(row.items(), z, 0) != ri:
            raise CertificateError(f"the rounded basis solution misses {kind} {label} exactly")
    return z


def simplex_maximize(A: Sequence[Sequence], b: Sequence, c: Sequence):
    """Maximize c.x subject to A x = b, x >= 0, for an LP that meets the contract; exact, certified.

    The contract: b >= 0, A of full row rank, the LP feasible and bounded.
    Entries may be int, Fraction or QSqrt2: ints count as Fractions, and one
    QSqrt2 entry puts the whole LP in Q(sqrt(2)).  Returns (value, x, duals)
    in that field, duals y being the optimal basis's dual solution: y.b =
    value and y.A >= c.  A float two-phase simplex, its tableau rows scaled
    to largest |entry| 1, picks the basis; x and y are its float solutions
    rounded to fractions and checked exactly (`_exact_solve`, then x >= 0 and
    the reduced costs).  Input outside the contract and every failed check
    raise CertificateError naming the case and its row or column.
    """
    m, n = len(A), len(c)
    rows, cols, b, c, zero = _exact_data(A, b, c)
    for i, v in enumerate(b):
        if v < 0:
            raise CertificateError(f"row {i} has a negative right-hand side")

    # Phase 1: artificial basis, maximize -(sum of artificials); each row scaled to largest |entry| 1.
    T = np.zeros((m + 1, n + m + 1))
    for i, row in enumerate(rows):
        scale = max((abs(float(v)) for v in row.values()), default=1.0)
        for j, v in row.items():
            T[i, j] = float(v) / scale
        T[i, n + i] = 1.0
        T[i, -1] = float(b[i]) / scale
    T[m, :n] = T[:m, :n].sum(axis=0)
    T[m, -1] = T[:m, -1].sum()
    basis = list(range(n, n + m))
    _float_simplex(T, basis)
    if T[m, -1] > TOL:
        raise CertificateError(f"the LP is infeasible: phase 1 ends with artificial sum {T[m, -1]:.3g}")
    # Drive degenerate artificials out; one with no real column left marks a dependent row.
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(np.abs(T[i, :n]) > TOL)
            if not nonzero.size:
                raise CertificateError(f"row {basis[i] - n} depends on the other rows: A lacks full row rank")
            _pivot(T, basis, i, int(nonzero[0]))

    # Phase 2, with reduced costs for the current basis.
    T = np.vstack([T[:m, list(range(n)) + [-1]], np.zeros(n + 1)])
    cf = np.array([float(v) for v in c])
    T[-1, :n] = cf - cf[basis] @ T[:-1, :n]
    T[-1, -1] = -cf[basis] @ T[:-1, -1]
    entering = _float_simplex(T, basis)
    if entering is not None:
        raise CertificateError(f"the LP is unbounded: column {entering} improves without limit")

    # Exact solves on the basis B (the columns `basis` of A): B x_B = b and B^T y = c_B.
    at = {j: k for k, j in enumerate(basis)}
    B = [{at[j]: v for j, v in row.items() if j in at} for row in rows]
    x = [zero] * n
    for j, v in zip(basis, _exact_solve(B, b, "row", range(m))):
        if v < 0:
            raise CertificateError(f"the basic solution is negative in column {j}")
        x[j] = v
    y = _exact_solve([cols[j] for j in basis], [c[j] for j in basis], "column", basis)
    for j, col in enumerate(cols):  # basic columns: B^T y = c_B was checked in _exact_solve
        if j not in at and c[j] - _dot(col.items(), y, zero) > 0:
            raise CertificateError(f"column {j} has a positive reduced cost")
    value = _dot(((j, c[j]) for j in basis), x, zero)
    return value, x, y


def solve_maximin_assignment(payoffs: Sequence[Sequence]):
    """Solve max_g min_col sum_row payoff[row][col] * g[row][col].

    g assigns to each row a probability vector over columns (rows of g sum
    to 1).  This is the guesser's side of the zero-sum game "observe the
    row, guess the column".  Returns (value, g, prior) with prior the dual
    optimal distribution over columns (the hardest column mixture).
    """
    n_rows = len(payoffs)
    n_cols = len(payoffs[0])
    n_g = n_rows * n_cols
    zero = 0 * payoffs[0][0]
    one = zero + 1

    def gvar(r, c):
        return r * n_cols + c

    v_var = n_g
    slack0 = n_g + 1
    n_vars = n_g + 1 + n_cols

    A = []
    b = []
    for col in range(n_cols):
        row = [0] * n_vars
        for r in range(n_rows):
            row[gvar(r, col)] = payoffs[r][col]
        row[v_var] = -one
        row[slack0 + col] = -one
        A.append(row)
        b.append(zero)
    for r in range(n_rows):
        row = [0] * n_vars
        for col in range(n_cols):
            row[gvar(r, col)] = one
        A.append(row)
        b.append(one)
    c = [zero] * n_vars
    c[v_var] = one

    value, x, duals = simplex_maximize(A, b, c)
    g = [[x[gvar(r, col)] for col in range(n_cols)] for r in range(n_rows)]
    prior = [-duals[col] for col in range(n_cols)]
    total = sum(prior, zero)  # at least 1: y.A >= c on the v column
    prior = [p / total for p in prior]
    return value, g, prior
