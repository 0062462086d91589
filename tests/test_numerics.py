"""Unit and property tests for the exact arithmetic kernel.

Derived expectations are checked against independent oracles: sympy for
Smith normal forms, Descartes' rule on the characteristic polynomial for
signatures, and exhaustive enumeration for small GF(2) systems.
"""

import operator
import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit import numerics
from steinkit.families import (
    BorromeanCoeffs,
    SeifertData,
    brieskorn,
    decide_borromean,
    seifert_normalize,
)
from steinkit.numerics import (
    INF,
    ZERO,
    ContinuedFraction,
    ExtRational,
    Gf2Solution,
    MobiusMap,
    NumericsError,
    first_asymmetry,
    floor_frac,
    inertia,
    invariant_factors,
    mat_vec,
    neg_continued_fraction,
    parse_int,
    parse_rational,
    rat,
    signature,
    slope_less,
    smith_normal_form,
    solve_gf2_affine,
    solve_rational,
)
from steinkit.invariants import SteinPresentation, theta
from steinkit.presentation import SurgeryPresentation, linking_form, rolfsen_twist, slam_dunk

rationals = st.builds(
    lambda p, q: ExtRational(p, q),
    st.integers(min_value=-(10**4), max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)

nonzero_rationals = rationals.filter(lambda r: r != ZERO)


# ---------------------------------------------------------------------------
# extended rationals


def test_canonical_form():
    assert rat(6, -4) == rat(-3, 2)
    assert str(rat(6, -4)) == "-3/2"
    assert rat(0, 7) == ZERO
    assert rat(-5, 0) == INF
    assert str(INF) == "inf"
    with pytest.raises(NumericsError):
        ExtRational(0, 0)


def test_hash_agrees_with_equality():
    for n in (-7, -1, 0, 1, 3, 10**30):
        assert rat(n) == n and hash(rat(n)) == hash(n)
        assert n in {rat(n)} and rat(n) in {n}
        assert {n: "int"}[rat(n)] == "int" and {rat(n): "rat"}[n] == "rat"
        assert rat(2 * n, 2) in {n} and rat(n) in {rat(-n, -1)}
    for x in (INF, rat(3, 2), rat(-1, 3)):
        assert x in {x} and {x: 1}[ExtRational(x.num, x.den)] == 1
        assert x not in {x.num, x.den} and x.num not in {x}
    assert len({rat(3), 3, rat(6, 2), rat(3, 2), INF, rat(-2, 0)}) == 3


def test_parse_and_str_round_trip():
    for text in ["-7/2", "0", "inf", "13", "-1"]:
        assert str(parse_rational(text)) == text


def test_number_tokens_are_ascii_digits_only():
    assert parse_int("-042") == -42
    # int() would read these as 10, 3, 3 and 3
    for bad in ["1_0", "\u0663", "+3", " 3", "", "-", "3.0"]:
        with pytest.raises(NumericsError, match="bad integer"):
            parse_int(bad)
    for bad in ["1_0", "\u0663", "1/1_0", "\u0663/2", "1/", "/2", "0/0", " 1/2", "1/2\n", "1 /2", " inf"]:
        with pytest.raises(NumericsError, match="bad rational"):
            parse_rational(bad)


def test_infinity_arithmetic():
    assert INF + 3 == INF
    assert rat(5) / 0 == INF
    assert INF.reciprocal() == ZERO
    assert rat(2) - INF.reciprocal() == rat(2)
    with pytest.raises(NumericsError):
        INF + INF
    with pytest.raises(NumericsError):
        INF * ZERO
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for lhs, rhs in ((INF, rat(1)), (rat(1), INF), (INF, 1), (1, INF), (INF, INF)):
            with pytest.raises(NumericsError, match="infinity is not ordered"):
                op(lhs, rhs)


def _fraction(x: ExtRational) -> Fraction:
    return Fraction(x.num, x.den)


@given(rationals, rationals, st.integers(min_value=-(10**4), max_value=10**4))
def test_field_ops_match_fraction(a, b, n):
    fa, fb = _fraction(a), _fraction(b)
    assert _fraction(a + b) == fa + fb
    assert _fraction(a - b) == fa - fb
    assert _fraction(a * b) == fa * fb
    if b != ZERO:
        assert _fraction(a / b) == fa / fb
    floor = a.num // a.den  # an int operand equal to a when a is an integer
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
        for rhs, f_rhs in ((b, fb), (a, fa), (n, n), (floor, floor)):
            assert op(a, rhs) == op(fa, f_rhs)
            assert op(rhs, a) == op(f_rhs, fa)


@given(rationals)
def test_floor_frac_decomposition(r):
    fl, f = floor_frac(r)
    assert rat(fl) + f == r
    assert ZERO <= f < rat(1)


def test_slope_less_puts_infinity_at_the_bottom():
    for r in (rat(-5), rat(-1), rat(-3, 2), ZERO, rat(7, 3)):
        assert slope_less(INF, r)
        assert not slope_less(r, INF)
    assert not slope_less(INF, INF)
    assert slope_less(rat(-2), rat(-1))
    assert not slope_less(rat(-1), rat(-1))
    assert not slope_less(ZERO, rat(-1))


class _NoFraction:
    def __init__(self, *args):
        raise AssertionError("the scalar layer built a Fraction")


def test_scalar_layer_builds_no_fraction(monkeypatch):
    # every triple: YES, each of A0, A2 and A3, and infinite coefficients
    census = [INF, ZERO, rat(-7), rat(-1), rat(1), rat(3), rat(-1, 3), rat(-1, 4), rat(-2, 3),
              rat(5, 2), rat(-7, 2), rat(-13, 5)]
    triples = [BorromeanCoeffs(a, b, c) for a in census for b in census for c in census]
    seifert = [
        SeifertData(orientable=True, genus=0, coefficients=[rat(-2), rat(-3, 2), rat(-5, 4)]),
        SeifertData(orientable=True, genus=1, coefficients=[rat(-7, 3), INF, rat(5)]),
        SeifertData(orientable=False, genus=2, coefficients=[rat(-11, 4), rat(2, 9)]),
    ]
    multiplicities = [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5)]
    hopf = SurgeryPresentation(coeffs=[rat(2), rat(-7, 3)], lk=[[0, 1], [1, 0]], unknot=[True, True])
    rewrites = [
        lambda: slam_dunk(hopf, 1, 2),
        lambda: rolfsen_twist(hopf, 2, 3),
        lambda: rolfsen_twist(hopf, 1, -2),
    ]
    chains = [rat(-1, 70), rat(13, 8), rat(-101, 37), rat(6)]

    def run():
        return (
            [decide_borromean(t) for t in triples],
            [seifert_normalize(s) for s in seifert],
            [(brieskorn(*p, o), seifert_normalize(brieskorn(*p, o))) for p in multiplicities for o in (1, -1)],
            [f() for f in rewrites],
            [neg_continued_fraction(r) for r in chains],
        )

    want = run()
    monkeypatch.setattr(numerics, "Fraction", _NoFraction)
    assert run() == want


# ---------------------------------------------------------------------------
# Moebius maps


def test_mobius_requires_det_one():
    with pytest.raises(NumericsError):
        MobiusMap(1, 0, 0, 2)


def test_mobius_action_and_infinity():
    a = MobiusMap(1, 0, -2, 1)  # r -> r - 2
    assert a.apply(rat(5)) == rat(3)
    assert a.apply(INF) == INF
    w = MobiusMap(0, 1, -1, 0)  # r -> -1/r
    assert w.apply(rat(2)) == rat(-1, 2)
    assert w.apply(ZERO) == INF
    assert w.apply(INF) == ZERO


def test_mobius_sign_canonicalisation():
    assert MobiusMap(-1, 0, 0, -1) == MobiusMap.identity()


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def mobius_maps(draw):
    # build a determinant-one map from elementary generators
    m = MobiusMap.identity()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if draw(st.booleans()):
            m = m * MobiusMap(1, 0, draw(small_ints), 1)
        else:
            m = m * MobiusMap(0, 1, -1, 0)
    return m


@given(mobius_maps(), mobius_maps(), rationals | st.just(INF))
def test_mobius_composition_law(a, b, r):
    assert (a * b).apply(r) == a.apply(b.apply(r))


@given(mobius_maps(), rationals | st.just(INF))
def test_mobius_maps_are_bijections(m, r):
    inv = MobiusMap(m.d, -m.b, -m.c, m.a)
    assert inv.apply(m.apply(r)) == r


# ---------------------------------------------------------------------------
# continued fractions


def test_continued_fraction_fixtures():
    assert neg_continued_fraction(rat(-7, 2)).terms == (-4, -2)
    assert neg_continued_fraction(rat(3, 2)).terms == (1, -2)
    assert neg_continued_fraction(rat(5)).terms == (5,)
    assert neg_continued_fraction(rat(-1, 3)).terms == (-1, -2, -2)
    assert neg_continued_fraction(rat(-1, 200)).terms == (-1,) + (-2,) * 199
    assert ContinuedFraction((-4, -2)).evaluate() == rat(-7, 2)
    assert ContinuedFraction((0, -3, -2, -2)).evaluate() == rat(3, 7)
    assert ContinuedFraction((7,)).evaluate() == rat(7)


def test_continued_fraction_normal_form_enforced():
    with pytest.raises(NumericsError):
        ContinuedFraction((3, -1))


@given(rationals)
def test_continued_fraction_round_trip(r):
    cf = neg_continued_fraction(r)
    assert all(t <= -2 for t in cf.terms[1:])
    assert cf.evaluate() == r


# ---------------------------------------------------------------------------
# Smith normal form

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


def _det(mat) -> Fraction:
    return Fraction(sympy.Matrix(mat).det())


def test_smith_fixtures():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert smith_normal_form([[0, 4], [4, 0]]).diagonal == (4, 4)
    assert smith_normal_form([[0]]).diagonal == (0,)
    assert smith_normal_form([[6, 4], [4, 6]]).diagonal == (2, 10)


def test_smith_canonical_coordinates_prefer_column_transport():
    # the hyperbolic form: the left witness must stay trivial so cokernel
    # coordinates of (p, 0) come out as (p, 0), not (0, p)
    snf = smith_normal_form([[0, 4], [4, 0]])
    assert snf.left == ((1, 0), (0, 1))


@settings(max_examples=60)
@given(matrices)
def test_smith_witnesses_and_divisibility(rows):
    snf = smith_normal_form(rows)
    product = mat_mul(mat_mul(snf.left, rows), snf.right)
    n, m = len(rows), len(rows[0])
    for i in range(n):
        for j in range(m):
            expect = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
            assert product[i][j] == expect
    assert abs(_det(snf.left)) == 1
    assert abs(_det(snf.right)) == 1
    diag = [d for d in snf.diagonal if d]
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


@settings(max_examples=60)
@given(matrices)
def test_smith_matches_sympy_invariant_factors(rows):
    ours = [d for d in smith_normal_form(rows).diagonal if d not in (0, 1)]
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ref = sympy_snf(sympy.Matrix(rows))
    theirs = [
        abs(int(ref[i, i]))
        for i in range(min(ref.rows, ref.cols))
        if ref[i, i] not in (0, 1, -1)
    ]
    assert ours == theirs


# every shape from 0x0 up to 7x7, with repeated rows (singular) and
# negative entries; rows are left empty when there are no columns
any_matrices = st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).flatmap(
        lambda rows: st.lists(st.sampled_from(rows), max_size=3).map(lambda extra: rows + extra)
        if rows
        else st.just(rows)
    )
)


@settings(max_examples=300)
@given(any_matrices)
def test_invariant_factors_are_the_smith_diagonal(rows):
    assert invariant_factors(rows) == smith_normal_form(rows).diagonal


def test_invariant_factors_fixtures():
    assert invariant_factors([]) == smith_normal_form([]).diagonal == ()
    assert invariant_factors([[]]) == smith_normal_form([[]]).diagonal == ()
    assert invariant_factors([[], []]) == ()
    assert invariant_factors([[0, 0], [0, 0], [0, 0]]) == (0, 0)
    assert invariant_factors([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == (1, 2, 12)
    assert invariant_factors([[-6]]) == (6,)
    with pytest.raises(NumericsError, match="ragged"):
        invariant_factors([[1, 2], [3]])


def _bareiss_det(rows) -> int:
    """Fraction-free Gaussian elimination: every division is exact."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def test_invariant_factors_of_a_dense_64x64_matrix():
    # the largest size the witnessed form admits, where its witnesses reach
    # thousands of bits; the factors multiply to |det|
    rng = random.Random(64)
    n = 64
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-9, 9)
    factors = invariant_factors(rows)
    assert len(factors) == n and all(b % a == 0 for a, b in zip(factors, factors[1:]))
    det = _bareiss_det(rows)
    assert det != 0
    assert prod(factors) == abs(det)


def mat_mul(a, b):
    """Product of two integer matrices given as sequences of rows."""
    bT = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bT] for row in a]


# ---------------------------------------------------------------------------
# linear systems over Q


def _fraction_solve(matrix, *rhs):
    """Oracle: Gauss-Jordan elimination over Fractions, pivots taken column
    by column from the first row with a nonzero entry, free variables 0."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b[i]) for b in rhs] for i, row in enumerate(matrix)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
    solutions = []
    for k in range(n, n + len(rhs)):
        if any(row[k] != 0 for row in aug[len(pivots):]):
            solutions.append(None)
            continue
        x = [Fraction(0)] * n
        for row, col in enumerate(pivots):
            x[col] = aug[row][k]
        solutions.append(x)
    return tuple(solutions)


@st.composite
def square_systems(draw):
    """(kind, rows, rhs): 1-3 right-hand sides of an n x n system, n <= 6.

    nonsingular: a diagonally dominant matrix.  singular: the last row is a
    combination of two others (zero when n = 1) and every right-hand side
    is A x.  inconsistent: the same rows, and the first right-hand side is
    A x plus 1 in the last entry.
    """
    kind = draw(st.sampled_from(("nonsingular", "singular", "inconsistent")))
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    vec = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    rows = draw(st.lists(vec, min_size=n, max_size=n))
    if kind == "nonsingular":
        for i, row in enumerate(rows):
            row[i] = sum(abs(v) for j, v in enumerate(row) if j != i) + draw(st.integers(1, 3))
        return kind, rows, draw(st.lists(vec, min_size=k, max_size=k))
    i, j = draw(st.integers(0, max(n - 2, 0))), draw(st.integers(0, max(n - 2, 0)))
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    rows[-1] = [a * x + b * y for x, y in zip(rows[i], rows[j])] if n > 1 else [0] * n
    rhs = [mat_vec(rows, x) for x in draw(st.lists(vec, min_size=k, max_size=k))]
    if kind == "inconsistent":
        rhs[0][-1] += 1
    return kind, rows, rhs


@settings(max_examples=400)
@given(square_systems())
def test_solve_rational_matches_the_fraction_elimination(system):
    kind, rows, rhs = system
    got = solve_rational(rows, *rhs)
    assert got == _fraction_solve(rows, *rhs)
    assert all(x is None or all(type(v) is Fraction for v in x) for x in got)
    if kind == "inconsistent":
        assert got[0] is None
    else:
        assert None not in got


def test_solve_rational_fixtures():
    # rank 1: the free variable is 0, and the second system is inconsistent
    assert solve_rational([[2, 4], [1, 2]], [2, 1], [1, 0]) == ([Fraction(1), Fraction(0)], None)
    assert solve_rational([[0, 3], [2, 0]], [1, 1]) == ([Fraction(1, 2), Fraction(1, 3)],)
    assert solve_rational([[0]], [0]) == ([Fraction(0)],)
    assert solve_rational([], []) == ([],)
    with pytest.raises(NumericsError, match="integer entries"):
        solve_rational([[Fraction(1, 2)]], [1])


# ---------------------------------------------------------------------------
# signature

# entries up to +-50, and half of them with the diagonal cleared, so that
# the off-diagonal pull runs too
sym_matrices = st.tuples(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-25, max_value=25), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.booleans(),
).map(
    lambda t: [
        [0 if t[1] and i == j else t[0][i][j] + t[0][j][i] for j in range(len(t[0]))]
        for i in range(len(t[0]))
    ]
)


def _inertia_by_descartes(rows):
    """Oracle: Descartes' rule is exact on real-rooted polynomials."""
    lam = sympy.symbols("lam")
    poly = sympy.Poly(sympy.Matrix(rows).charpoly(lam).as_expr(), lam)
    coeffs = poly.all_coeffs()
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def variations(cs):
        signs = [sympy.sign(c) for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    pos = variations(coeffs)
    neg = variations([c * (-1) ** i for i, c in enumerate(coeffs)])
    return pos, zero, neg


def _fraction_inertia(rows):
    """Oracle: congruence diagonalisation over Fractions, each trailing
    block replaced by its Schur complement."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    pos = neg = zero = 0
    s = 0
    while s < n:
        if m[s][s] == 0:
            swap = next((i for i in range(s + 1, n) if m[i][i] != 0), None)
            if swap is not None:
                m[s], m[swap] = m[swap], m[s]
                for row in m:
                    row[s], row[swap] = row[swap], row[s]
            else:
                pair = next(((i, j) for i in range(s, n) for j in range(i + 1, n) if m[i][j]), None)
                if pair is None:
                    zero += n - s
                    break
                i, j = pair
                for row in m:
                    row[i] += row[j]
                m[i] = [x + y for x, y in zip(m[i], m[j])]
                if i != s:
                    m[s], m[i] = m[i], m[s]
                    for row in m:
                        row[s], row[i] = row[i], row[s]
        d = m[s][s]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(s + 1, n):
            if m[i][s] != 0:
                f = m[i][s] / d
                m[i] = [x - f * y for x, y in zip(m[i], m[s])]
                for row in m:
                    row[i] -= f * row[s]
        s += 1
    return pos, zero, neg


def test_signature_fixtures():
    assert signature([[1, 0], [0, -1]]) == 0
    assert signature([[0, 1], [1, 0]]) == 0
    assert signature([[2, 1], [1, 2]]) == 2
    assert signature([[0]]) == 0
    assert inertia([[0, 2], [2, 0]]) == (1, 0, 1)
    assert signature([[Fraction(1, 2)]]) == 1


def test_first_asymmetry_scans_rows_in_order():
    assert first_asymmetry([]) is None
    assert first_asymmetry([[1, 2], [2, 5]]) is None
    assert first_asymmetry([[0, 1, 0], [1, 0, 4], [9, 3, 0]]) == (2, 0)
    assert first_asymmetry([[0, 1, 0], [2, 0, 4], [9, 3, 0]]) == (1, 0)
    with pytest.raises(NumericsError, match="inertia needs a symmetric matrix"):
        inertia([[0, 1], [2, 0]])


def test_e8_form_has_signature_eight():
    e8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]:
        e8[i][j] = e8[j][i] = 1
    assert signature(e8) == 8
    assert inertia(e8) == (8, 0, 0)


@settings(max_examples=80, deadline=None)
@given(sym_matrices)
def test_inertia_matches_charpoly_oracle(rows):
    assert inertia(rows) == _inertia_by_descartes(rows) == _fraction_inertia(rows)
    # a positive rational scale keeps the inertia
    assert inertia([[Fraction(v, 7) for v in row] for row in rows]) == inertia(rows)


@settings(max_examples=40)
@given(sym_matrices)
def test_inertia_is_congruence_invariant(rows):
    n = len(rows)
    # a fixed shear is unimodular, so inertia must not move
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        p[0][1] = 3
    sheared = mat_mul(mat_mul([list(r) for r in zip(*p)], rows), p)
    assert inertia(sheared) == inertia(rows) == _fraction_inertia(sheared)


# ---------------------------------------------------------------------------
# GF(2) affine systems

gf2_systems = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ),
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
    )
)


def _brute_force_gf2(matrix, rhs):
    n = len(matrix[0])
    sols = []
    for mask in range(1 << n):
        x = [(mask >> j) & 1 for j in range(n)]
        if all(sum(a * v for a, v in zip(row, x)) % 2 == b % 2 for row, b in zip(matrix, rhs)):
            sols.append(tuple(x))
    return set(sols)


@settings(max_examples=80)
@given(gf2_systems)
def test_gf2_solutions_match_brute_force(system):
    matrix, rhs = system
    expected = _brute_force_gf2(matrix, rhs)
    got = solve_gf2_affine(matrix, rhs)
    if got is None:
        assert expected == set()
    else:
        assert set(got.enumerate()) == expected
        assert got.count() == len(expected)


def test_gf2_inconsistent_system():
    assert solve_gf2_affine([[0, 0]], [1]) is None


def test_gf2_deterministic_enumeration():
    sol = solve_gf2_affine([[1, 1, 0], [0, 0, 0]], [0, 0])
    assert isinstance(sol, Gf2Solution)
    assert list(sol.enumerate()) == list(sol.enumerate())


# ---------------------------------------------------------------------------
# small helpers


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]


# ---------------------------------------------------------------------------
# the exact solvers build no Fraction while they eliminate


def test_integer_kernels_build_no_fraction(monkeypatch):
    rng = random.Random(8)
    n = 8
    sym = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = rng.randint(-9, 9)
    singular = [row[:] for row in sym]
    singular[-1] = [a + b for a, b in zip(sym[0], sym[1])]
    b1, b2 = ([rng.randint(-5, 5) for _ in range(n)] for _ in range(2))
    # the linking form of the lens space L(23, ...) and theta of a knot with a 1-handle
    lens = SurgeryPresentation(coeffs=[rat(4), rat(6)], lk=[[0, 1], [1, 0]])
    stein = SteinPresentation(q=[[-3, 1], [1, -2]], runs=[[1, 1]], rot=[1, 0])
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    want = [inertia(sym), solve_rational(sym, b1, b2), solve_rational(singular, b1),
            linking_form(lens, [1, 0], [0, 1]), theta(stein)]
    monkeypatch.setattr(Fraction, "__new__", counting)

    def count(call):
        built.clear()
        out = call()
        return out, len(built)

    assert count(lambda: inertia(sym)) == (want[0], 0)
    out, made = count(lambda: solve_rational(sym, b1, b2))
    assert out == want[1] and None not in out and made <= 2 * n  # its results, no more
    out, made = count(lambda: solve_rational(singular, b1))
    assert out == want[2] and made <= n
    out, made = count(lambda: linking_form(lens, [1, 0], [0, 1]))
    assert out == want[3] and made <= 2 * 2 + 2
    out, made = count(lambda: theta(stein))
    assert out == want[4] and made <= 3 + 2
