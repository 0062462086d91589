"""Unit and property tests for the exact arithmetic kernel.

Derived expectations are checked against independent oracles: sympy for
Smith normal forms, Descartes' rule on the characteristic polynomial for
signatures, and exhaustive enumeration for small GF(2) systems.
"""

import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mat_mul,
    mat_vec,
    neg_continued_fraction,
    parse_int,
    parse_rational,
    rat,
    signature,
    slope_less,
    smith_normal_form,
    solve_gf2_affine,
)

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
    with pytest.raises(NumericsError):
        INF < rat(1)


@given(rationals, rationals)
def test_field_ops_match_fraction(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a * b).as_fraction() == fa * fb
    if b != ZERO:
        assert (a / b).as_fraction() == fa / fb


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


# ---------------------------------------------------------------------------
# signature

sym_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)])
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


@settings(max_examples=60)
@given(sym_matrices)
def test_inertia_matches_charpoly_oracle(rows):
    assert inertia(rows) == _inertia_by_descartes(rows)


@settings(max_examples=40)
@given(sym_matrices)
def test_inertia_is_congruence_invariant(rows):
    n = len(rows)
    # a fixed shear is unimodular, so inertia must not move
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        p[0][1] = 3
    sheared = mat_mul(mat_mul([list(r) for r in zip(*p)], rows), p)
    assert inertia(sheared) == inertia(rows)


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
