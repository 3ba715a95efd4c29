from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfinding import cli, exactlp, measurement
from orderfinding.exactlp import (
    CertificateError,
    QSqrt2,
    simplex_maximize,
    solve_maximin_assignment,
)
from test_classical import one_query_lp


def q(a, b=0):
    return QSqrt2(Fraction(a), Fraction(b))


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


def test_as_fraction():
    assert q(3, 0).as_fraction() == Fraction(3)
    assert q(3, 1).as_fraction() is None


def test_fraction_parts_are_kept_and_other_parts_become_fractions():
    a, b = Fraction(3, 7), Fraction(-5, 2)
    x = QSqrt2(a, b)
    assert x.a is a and x.b is b
    for part in (2, 0.5, True):
        y = QSqrt2(part, part)
        assert type(y.a) is Fraction and type(y.b) is Fraction
        assert y.a == Fraction(part) and y.b == Fraction(part)


rationals = st.fractions(max_denominator=60)
sqrt2_parts = st.one_of(st.just(Fraction(0)), rationals)  # zero b parts often, to reach the rational fast path


@given(rationals, sqrt2_parts, rationals, sqrt2_parts)
def test_rational_fast_path_matches_the_general_formula(a1, b1, a2, b2):
    x, y = QSqrt2(a1, b1), QSqrt2(a2, b2)
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
    self.a = Fraction(a)
    self.b = Fraction(b)


@pytest.mark.parametrize("command", ["guess-table", "classical"])
def test_keeping_fraction_parts_leaves_the_outputs_byte_identical(command, tmp_path, monkeypatch, capsys):
    def outputs(out):
        assert cli.main([command, "--out", str(out)]) == 0
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return files, capsys.readouterr()

    kept = outputs(tmp_path / "kept")
    monkeypatch.setattr(QSqrt2, "__init__", _wrap_every_part)
    assert outputs(tmp_path / "wrapped") == kept


def test_simplex_small_known_lp():
    # max x1 + 2 x2 s.t. x1 + x2 + s1 = 4, x2 + s2 = 3, x >= 0  -> 3 + 2*... = 10? x1=1,x2=3: 7
    A = [[1, 1, 1, 0], [0, 1, 0, 1]]
    b = [Fraction(4), Fraction(3)]
    c = [Fraction(1), Fraction(2), Fraction(0), Fraction(0)]
    value, x, duals = simplex_maximize(A, b, c)
    assert value == Fraction(7)
    assert type(value) is Fraction
    assert x[0] == 1 and x[1] == 3
    # duals: y1 = 1 (binding on row 1), y2 = 1
    assert duals == [Fraction(1), Fraction(1)]


def test_simplex_detects_infeasible():
    # -x1 = 1 with x1 >= 0
    with pytest.raises(CertificateError, match="the LP is infeasible"):
        simplex_maximize([[-1]], [Fraction(1)], [Fraction(0)])


def test_simplex_detects_unbounded():
    # max x2 with x1 - x2 = 1: x2 grows along (1, 1)
    with pytest.raises(CertificateError, match="the LP is unbounded: column 1"):
        simplex_maximize([[1, -1]], [Fraction(1)], [Fraction(0), Fraction(1)])


def test_simplex_handles_redundant_rows():
    # row 1 is twice row 0: outside the full-row-rank contract, and named
    A = [[1, 1], [2, 2]]
    b = [Fraction(1), Fraction(2)]
    c = [Fraction(1), Fraction(0)]
    with pytest.raises(CertificateError, match="row 1 depends on the other rows"):
        simplex_maximize(A, b, c)


def test_tiny_rows_are_scaled_for_the_float_search():
    # unscaled, the entry 1e-12 falls below TOL and the float search takes the row for zero
    tiny = Fraction(1, 10**12)
    assert simplex_maximize([[tiny]], [tiny], [1]) == (1, [1], [10**12])


def test_maximin_identical_columns():
    payoffs = [[Fraction(1, 2)] * 3 for _ in range(2)]
    value, g, prior = solve_maximin_assignment(payoffs)
    assert value == Fraction(1, 3)
    assert sum(prior) == 1


def test_maximin_diagonal_game():
    payoffs = [[Fraction(1) if r == m else Fraction(0) for r in range(3)] for m in range(3)]
    value, g, prior = solve_maximin_assignment(payoffs)
    assert value == Fraction(1)
    for m in range(3):
        assert g[m][m] == 1


def test_maximin_in_quadratic_field():
    # one outcome, two columns with payoffs 1 and sqrt(2) - 1: guesser must mix
    payoffs = [[q(1), q(-1, 1)]]
    value, g, prior = solve_maximin_assignment(payoffs)
    # equalize: g*1 = (1-g)(sqrt2-1) -> g = (s-1)/s = 1 - 1/s... value = g
    expected = q(1) - q(0, Fraction(1, 2))  # 1 - sqrt(2)/2
    assert value == expected
    assert g[0][0] == expected


def test_simplex_int_data_gives_exact_fractions():
    value, x, duals = simplex_maximize([[3, 1]], [1], [1, 0])
    assert value == Fraction(1, 3)
    assert type(value) is Fraction
    assert all(type(v) is Fraction for v in x + duals)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _columns(A, n):
    return [[row[j] for row in A] for j in range(n)]


def _assert_optimal(A, b, c, value, x, duals):
    """x is feasible with c.x = value, and the duals certify it: y.b = value, y.A >= c."""
    assert all(v >= 0 for v in x)
    assert [_dot(row, x) for row in A] == list(b)
    assert _dot(c, x) == value
    assert _dot(duals, b) == value
    assert all(_dot(duals, col) >= cj for col, cj in zip(_columns(A, len(c)), c))


# Brute-force reference: every basic feasible solution, found by trying every
# support of independent columns.  Exact, and independent of the solver.

def _support_solution(cols, b):
    """x with sum_k x_k cols[k] = b if the columns are independent and b in their span, else None."""
    k = len(cols)
    M = [[col[i] for col in cols] + [b[i]] for i in range(len(b))]
    r = 0
    for j in range(k + 1):
        sel = next((i for i in range(r, len(M)) if M[i][j] != 0), None)
        if sel is None:
            if j < k:
                return None  # dependent columns
            continue
        if j == k:
            return None  # b outside the span
        M[r], M[sel] = M[sel], M[r]
        M[r] = [v / M[r][j] for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][j] != 0:
                f = M[i][j]
                M[i] = [v - f * w for v, w in zip(M[i], M[r])]
        r += 1
    return [M[i][k] for i in range(k)]


def _vertices(A, b, n):
    cols = _columns(A, n)
    out = []
    for size in range(min(len(A), n) + 1):
        for support in combinations(range(n), size):
            sol = _support_solution([cols[j] for j in support], b)
            if sol is not None and all(v >= 0 for v in sol):
                x = [Fraction(0)] * n
                for j, v in zip(support, sol):
                    x[j] = v
                out.append(x)
    return out


def _brute_force(A, b, c):
    """'infeasible', 'unbounded', or the optimal value of max c.x, A x = b, x >= 0."""
    vertices = _vertices(A, b, len(c))
    if not vertices:
        return "infeasible"
    # extreme rays of {d >= 0, A d = 0} are the vertices of its slice sum(d) = 1
    rays = _vertices(A + [[1] * len(c)], [0] * len(A) + [1], len(c))
    if any(_dot(c, d) > 0 for d in rays):
        return "unbounded"
    return max(_dot(c, x) for x in vertices)


def _contract_form(A, b):
    """The same feasible set with rows negated to b >= 0 and dependent rows dropped, when A x = b is consistent."""
    rows, rhs = [], []
    for row, bi in zip(A, b):
        sign = -1 if bi < 0 else 1
        if _support_solution(rows + [row], [0] * len(row)) is not None:  # row is independent of those kept
            rows.append([sign * v for v in row])
            rhs.append(sign * bi)
    return rows, rhs


def _certified_value(A, b, c):
    """The solver's value, with its primal and dual solutions checked exactly."""
    value, x, duals = simplex_maximize(A, b, c)
    assert type(value) is Fraction
    _assert_optimal(A, b, c, value, x, duals)
    return value


@pytest.mark.parametrize("A, b, c, match", [
    ([[-1, -1]], [-1], [1, 0], "row 0 has a negative right-hand side"),
    ([[1, 1], [2, 2]], [1, 2], [1, 0], "row 1 depends on the other rows"),
    ([[1, 1], [-2, -2]], [1, -2], [0, 1], "row 1 has a negative right-hand side"),
], ids=["negative_rhs", "redundant_rows", "redundant_negative_row"])
def test_simplex_duals_certify_the_value(A, b, c, match):
    # outside the contract the error names the row; in contract form the duals certify the value
    with pytest.raises(CertificateError, match=match):
        simplex_maximize(A, b, c)
    A, b = _contract_form(A, b)
    value, x, duals = simplex_maximize(A, b, c)
    assert value == 1
    _assert_optimal(A, b, c, value, x, duals)


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonneg = st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))


@st.composite
def shapes(draw):
    m = draw(st.integers(1, 3))
    return m, draw(st.integers(1, 6))


def _vector(draw, size, entries=small):
    return draw(st.lists(entries, min_size=size, max_size=size))


def _matrix(draw, m, n):
    return [_vector(draw, n) for _ in range(m)]


@st.composite
def bounded_lps(draw):
    """Feasible (b = A x0, x0 >= 0) and bounded (c = y0.A - s, s >= 0) by construction."""
    m, n = draw(shapes())
    A = _matrix(draw, m, n)
    x0 = _vector(draw, n, nonneg)
    y0 = _vector(draw, m)
    s = _vector(draw, n, nonneg)
    b = [_dot(row, x0) for row in A]
    c = [_dot(y0, col) - sj for col, sj in zip(_columns(A, n), s)]
    return A, b, c


@st.composite
def infeasible_lps(draw):
    """One row has entries of one sign and a rhs of the other, so no x >= 0 meets it."""
    m, n = draw(shapes())
    A = _matrix(draw, m - 1, n)
    b = _vector(draw, m - 1)
    sign = draw(st.sampled_from([1, -1]))
    row = [sign * v for v in _vector(draw, n, nonneg)]
    rhs = -sign * draw(st.builds(Fraction, st.integers(1, 3), st.integers(1, 3)))
    at = draw(st.integers(0, m - 1))
    return A[:at] + [row] + A[at:], b[:at] + [rhs] + b[at:], _vector(draw, n)


@st.composite
def unbounded_lps(draw):
    """Feasible by construction, with a ray d >= 0, A d = 0 and c.d > 0."""
    m, n = draw(shapes())
    A = _matrix(draw, m, n)
    k = draw(st.integers(0, n - 1))
    d = _vector(draw, n, nonneg)
    d[k] = Fraction(1)
    for row in A:  # make column k cancel the rest of d
        row[k] = -sum((row[j] * d[j] for j in range(n) if j != k), Fraction(0))
    c = _vector(draw, n)
    c[k] += 1 - _dot(c, d)  # now c.d = 1
    x0 = _vector(draw, n, nonneg)
    return A, [_dot(row, x0) for row in A], c


@settings(max_examples=100)
@given(bounded_lps())
def test_simplex_matches_brute_force_on_bounded_lps(lp):
    # in contract form a feasible, bounded LP meets the whole contract, so the solver must return
    A, b, c = lp
    A, b = _contract_form(A, b)
    assert _certified_value(A, b, c) == _brute_force(A, b, c)


@settings(max_examples=100)
@given(st.one_of(infeasible_lps(), unbounded_lps()))
def test_simplex_verdicts_carry_exact_certificates(lp):
    # no verdict is returned: the LP raises CertificateError, and in contract form the message names the verdict
    A, b, c = lp
    verdict = _brute_force(A, b, c)
    assert verdict in ("infeasible", "unbounded")
    with pytest.raises(CertificateError):
        simplex_maximize(A, b, c)
    A, b = _contract_form(A, b)
    if _brute_force(A, b, c) == verdict:  # dropping an inconsistent row can change the verdict
        with pytest.raises(CertificateError, match=f"the LP is {verdict}"):
            simplex_maximize(A, b, c)


@st.composite
def any_lps(draw):
    m, n = draw(shapes())
    return _matrix(draw, m, n), _vector(draw, m), _vector(draw, n)


@settings(max_examples=200)
@given(st.one_of(any_lps(), infeasible_lps(), unbounded_lps()))
def test_simplex_matches_brute_force_on_any_small_lp(lp):
    # either the exactly certified optimum or CertificateError; never a wrong value or another exception
    A, b, c = lp
    try:
        value = _certified_value(A, b, c)
    except CertificateError:
        return
    assert value == _brute_force(A, b, c)


@pytest.mark.parametrize("chosen, match", [
    # x2 = 4 from row 0 leaves s2 = 3 - 4 in row 1
    ([1, 3], "the basic solution is negative in column 3"),
    # the slack basis x = 0 is feasible but leaves column 0 improving
    ([2, 3], "column 0 has a positive reduced cost"),
], ids=["infeasible_basis", "suboptimal_basis"])
def test_wrong_float_basis_raises_certificate_error(monkeypatch, chosen, match):
    float_simplex = exactlp._float_simplex

    def stopped(T, basis):  # the float search ends phase 2 on the basis `chosen`
        if T.shape[1] == 5:  # the phase-2 tableau of the 2 x 4 LP below: 4 columns and the rhs
            basis[:] = chosen
            return None
        return float_simplex(T, basis)
    monkeypatch.setattr(exactlp, "_float_simplex", stopped)
    with pytest.raises(CertificateError, match=match):
        simplex_maximize([[1, 1, 1, 0], [0, 1, 0, 1]], [4, 3], [1, 2, 0, 0])


# The exact solve: a rounded float solution, kept only if it checks exactly;
# there is no exact-elimination fallback.

def test_production_lps_take_the_rounded_path():
    # the one-query LP is the reference model classical stores its vertex from; it keeps a full-size
    # Fraction LP (73 rows, 229 columns) on the rounded path
    assert one_query_lp(0)[0] == Fraction(1, 2)
    assert measurement.solve_guess_game().exact_value == Fraction(60, 109)


def test_denominator_above_the_rounding_bound_raises_certificate_error():
    k = 10**7 + 19
    assert k > exactlp.ROUND_DENOMINATOR
    with pytest.raises(CertificateError, match="misses row 0"):
        simplex_maximize([[k, 1]], [1], [1, 0])


@pytest.mark.parametrize("M, r, z", [
    ([{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(3)}], [Fraction(1), Fraction(2)],
     [Fraction(1, 5), Fraction(3, 5)]),
    ([{0: q(1, 1), 1: q(2)}, {1: q(0, 1)}], [q(3, 1), q(2)], [q(-5, 4), q(0, 1)]),
], ids=["Q", "Q_sqrt2"])
def test_perturbed_candidate_is_rejected(monkeypatch, M, r, z):
    rounded = exactlp._rounded_solution
    assert rounded(M, r) == z

    def perturbed(M, r):
        out = rounded(M, r)
        out[0] += Fraction(1, 10**6)
        return out
    monkeypatch.setattr(exactlp, "_rounded_solution", perturbed)
    with pytest.raises(CertificateError, match="misses row 0"):
        exactlp._exact_solve(M, r, "row", range(len(M)))


def test_perturbed_candidates_never_reach_the_lp_result(monkeypatch):
    rounded = exactlp._rounded_solution

    def perturbed(M, r):
        out = rounded(M, r)
        out[0] += Fraction(1, 10**6)
        return out
    monkeypatch.setattr(exactlp, "_rounded_solution", perturbed)
    with pytest.raises(CertificateError, match="misses row 0"):
        simplex_maximize([[1, 1, 1, 0], [0, 1, 0, 1]], [4, 3], [1, 2, 0, 0])


def test_singular_system_raises_certificate_error():
    with pytest.raises(CertificateError, match="singular"):
        exactlp._exact_solve([{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}],
                             [Fraction(1), Fraction(2)], "row", range(2))
