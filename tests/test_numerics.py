"""Unit and property tests for the exact arithmetic kernel.

Derived expectations are checked against independent oracles: sympy for
Smith normal forms, Descartes' rule on the characteristic polynomial for
signatures, and exhaustive enumeration for small GF(2) systems.
"""

import operator
import random
import re
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from random_presentations import presentations
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
    MAX_SNF_DIM,
    Gf2Solution,
    MobiusMap,
    NumericsError,
    SmithForm,
    first_asymmetry,
    inertia,
    int_entries,
    invariant_factors,
    mat_vec,
    neg_continued_fraction,
    parse_int,
    parse_rational,
    rat,
    signature,
    smith_normal_form,
    solve_gf2_affine,
)
from steinkit.invariants import SteinPresentation, theta
from steinkit.presentation import (
    SurgeryPresentation,
    cokernel,
    expand_rational,
    linking_form,
    rolfsen_twist,
    slam_dunk,
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


def test_bool_parts_are_stored_as_ints():
    # bool is an int; stored as the int it equals, it prints as 1 or 0
    cases = ((ExtRational(True), "1"), (ExtRational(False, True), "0"), (ExtRational(True, False), "inf"))
    for x, want in cases:
        assert {type(x.num), type(x.den)} == {int}
        assert str(x) == want and parse_rational(str(x)) == x


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


def _no_fraction(cls, *args, **kwargs):
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
    monkeypatch.setattr(Fraction, "__new__", _no_fraction)
    assert run() == want


# ---------------------------------------------------------------------------
# Moebius maps


def test_mobius_requires_det_one():
    with pytest.raises(NumericsError):
        MobiusMap(1, 0, 0, 2)


def test_mobius_entries_must_be_ints():
    m = MobiusMap(True, False, False, True)
    assert str(m) == "[1 0; 0 1]" and {type(v) for v in (m.a, m.b, m.c, m.d)} == {int}
    assert m == MobiusMap(1, 0, 0, 1)
    for bad in ((1.0, 0, 0, 1.0), (1, 0, Fraction(0), 1), (1, 0, 0, "1")):
        with pytest.raises(NumericsError, match="^MobiusMap needs int entries, got "):
            MobiusMap(*bad)


def test_mobius_sign_canonicalisation():
    assert MobiusMap(-1, 0, 0, -1) == MobiusMap(1, 0, 0, 1)
    assert MobiusMap(0, -1, 1, -3) == MobiusMap(0, 1, -1, 3)


# ---------------------------------------------------------------------------
# continued fractions


def _cf_value(cf: ContinuedFraction) -> ExtRational:
    """a0 - 1/(a1 - 1/(... - 1/ak)), folded from the last term."""
    num, den = cf.terms[-1], 1
    for term in reversed(cf.terms[:-1]):
        # a tail value num/den is <= -1, so term - den/num is finite
        num, den = term * num - den, num
    return ExtRational(num, den)


def test_continued_fraction_fixtures():
    assert neg_continued_fraction(rat(-7, 2)).terms == (-4, -2)
    assert neg_continued_fraction(rat(3, 2)).terms == (1, -2)
    assert neg_continued_fraction(rat(5)).terms == (5,)
    assert neg_continued_fraction(rat(-1, 3)).terms == (-1, -2, -2)
    assert neg_continued_fraction(rat(-1, 200)).terms == (-1,) + (-2,) * 199
    assert _cf_value(ContinuedFraction((-4, -2))) == rat(-7, 2)
    assert _cf_value(ContinuedFraction((0, -3, -2, -2))) == rat(3, 7)
    assert _cf_value(ContinuedFraction((7,))) == rat(7)


def test_continued_fraction_normal_form_enforced():
    with pytest.raises(NumericsError):
        ContinuedFraction((3, -1))


def test_continued_fraction_stores_bool_terms_as_ints():
    cf = ContinuedFraction((True, -2))
    assert [type(t) for t in cf.terms] == [int, int]
    assert str(cf) == "ContinuedFraction(terms=(1, -2))"
    assert cf == ContinuedFraction((1, -2)) and _cf_value(cf) == rat(3, 2)
    with pytest.raises(NumericsError, match="must be ints"):
        ContinuedFraction((1, -2.0))


def test_continued_fraction_refuses_a_non_rational():
    for r in (3, 3.0, "3", (3, 1)):
        with pytest.raises(NumericsError, match="^neg_continued_fraction needs an ExtRational, got "):
            neg_continued_fraction(r)


@given(rationals)
def test_continued_fraction_round_trip(r):
    cf = neg_continued_fraction(r)
    assert all(t <= -2 for t in cf.terms[1:])
    assert _cf_value(cf) == r


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


# The witnessed form as it was before one block matrix carried its
# witnesses; smith_normal_form must return the same SmithForm.


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _reference_smith_normal_form(matrix) -> SmithForm:
    """Smith normal form of an integer matrix, with transformation witnesses:
    the three-matrix version that smith_normal_form replaced, kept verbatim
    as its oracle.

    Returns diag(d1..dr, 0..) with nonnegative d_i and d_i | d_{i+1},
    together with the unimodular row and column operations that realise it.
    Deterministic: pivots are chosen by minimal absolute value, first in
    row-major order, and are moved into place by a column swap before a row
    swap.  That pivot discipline is what makes cokernel coordinates
    reproducible, so do not change it casually.
    """
    m = [[int(v) for v in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    for row in m:
        if len(row) != ncols:
            raise NumericsError("ragged matrix")
    if nrows > MAX_SNF_DIM or ncols > MAX_SNF_DIM:
        raise NumericsError(f"smith_normal_form caps dimensions at {MAX_SNF_DIM}")

    left = _identity(nrows)
    right = _identity(ncols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        # row_dst += k * row_src
        m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]
        left[dst] = [x + k * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, k):
        for row in m:
            row[dst] += k * row[src]
        for row in right:
            row[dst] += k * row[src]

    def scale_row(i, k):
        m[i] = [k * x for x in m[i]]
        left[i] = [k * x for x in left[i]]

    def find_pivot(s):
        best = None
        for i in range(s, nrows):
            for j in range(s, ncols):
                v = abs(m[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    s = 0
    while s < min(nrows, ncols):
        found = find_pivot(s)
        if found is None:
            break
        _, pi, pj = found
        if pj != s:
            swap_cols(pj, s)
        if pi != s:
            swap_rows(pi, s)

        dirty = False
        for i in range(s + 1, nrows):
            if m[i][s]:
                q = m[i][s] // m[s][s]
                add_row(i, s, -q)
                if m[i][s]:
                    dirty = True
        for j in range(s + 1, ncols):
            if m[s][j]:
                q = m[s][j] // m[s][s]
                add_col(j, s, -q)
                if m[s][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller pivot candidates

        # enforce divisibility of the remaining block by the pivot
        p = m[s][s]
        offender = None
        for i in range(s + 1, nrows):
            for j in range(s + 1, ncols):
                if m[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(s, offender, 1)
            continue

        if p < 0:
            scale_row(s, -1)
        s += 1

    diag = tuple(m[i][i] for i in range(min(nrows, ncols)))
    return SmithForm(
        diagonal=diag,
        left=tuple(tuple(row) for row in left),
        right=tuple(tuple(row) for row in right),
    )


@st.composite
def smith_matrices(draw):
    """0-12 rows and 0-12 columns of mixed-sign entries, dense or banded,
    with up to two zero rows and two zero columns."""
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    flat = draw(st.lists(st.integers(-30, 30), min_size=nrows * ncols, max_size=nrows * ncols))
    band = draw(st.sampled_from((None, 0, 1, 2)))
    zero_rows = draw(st.sets(st.integers(0, 11), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 11), max_size=2))
    return [
        [
            0 if i in zero_rows or j in zero_cols or (band is not None and abs(i - j) > band)
            else flat[i * ncols + j]
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


@settings(max_examples=150, deadline=None)
@given(smith_matrices())
@example([])
@example([[]])
@example([[0, 0], [0, 0], [0, 0]])
def test_smith_form_matches_the_three_matrix_reference(rows):
    assert smith_normal_form(rows) == _reference_smith_normal_form(rows)


def test_smith_form_matches_the_reference_on_sparse_64x64_matrices():
    rng = random.Random(64)
    n = MAX_SNF_DIM
    for density in (0.03, 0.06):
        rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        assert smith_normal_form(rows) == _reference_smith_normal_form(rows)


def _block_smith_normal_form(matrix) -> SmithForm:
    """smith_normal_form as it was when its identity blocks were built by a
    generator per row, frozen as an oracle for the pivots and witnesses."""
    a = numerics._int_rows(matrix)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    for i, row in enumerate(a):
        row += (int(i == k) for k in range(nrows))
    a += ([int(i == j) for j in range(ncols)] for i in range(ncols))
    s = 0
    while s < min(nrows, ncols):
        best = None
        for i in range(s, nrows):
            for j in range(s, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pj != s:
            for row in a:
                row[s], row[pj] = row[pj], row[s]
        a[s], a[pi] = a[pi], a[s]
        top = a[s]
        p = top[s]
        dirty = False
        for i in range(s + 1, nrows):
            if a[i][s]:
                q = a[i][s] // p
                a[i] = [x - q * y for x, y in zip(a[i], top)]
                dirty = dirty or a[i][s] != 0
        support = [row for row in a if row[s]]
        for j in range(s + 1, ncols):
            if top[j]:
                q = top[j] // p
                for row in support:
                    row[j] -= q * row[s]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        offender = None if p in (1, -1) else next(
            (i for i in range(s + 1, nrows) if any(a[i][j] % p for j in range(s + 1, ncols))),
            None,
        )
        if offender is not None:
            a[s] = [x + y for x, y in zip(top, a[offender])]
            continue
        if p < 0:
            a[s] = [-x for x in top]
        s += 1
    return SmithForm(
        diagonal=tuple(a[i][i] for i in range(min(nrows, ncols))),
        left=tuple(tuple(row[ncols:]) for row in a[:nrows]),
        right=tuple(map(tuple, a[nrows:])),
    )


def test_smith_form_matches_the_block_form_it_replaced():
    # 3,000 seeded matrices of every shape up to 12 x 12, dense to sparse;
    # the pivots, and so every witness, must stay the same
    rng = random.Random(3000)
    for _ in range(3000):
        nrows, ncols = rng.randint(0, 12), rng.randint(0, 12)
        density, bound = rng.choice((0.2, 0.5, 1.0)), rng.choice((2, 9, 30))
        rows = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        got = smith_normal_form(rows)
        assert got == _block_smith_normal_form(rows), rows
        assert all(type(t) is tuple for t in (got.diagonal, got.left, got.right, *got.left, *got.right))


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


def _nearest_quotient(a: int, b: int) -> int:
    """The integer nearest a/b, so a - q*b lies within |b|/2 of 0."""
    return (2 * a + b) // (2 * b)


def _reference_invariant_factors(matrix) -> tuple[int, ...]:
    """The invariant_factors kernel as it was before its live-column
    bookkeeping, kept verbatim as the oracle: it pops the last entry of
    every row after each column and swaps two columns in every row when a
    remainder moves the pivot."""
    rows = numerics._int_rows(matrix)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    blocks = []
    while rows and rows[0]:
        c = len(rows[0]) - 1  # the current column is always the last one
        while True:
            live = [r for r in rows if r[c]]
            if not live:
                break  # a zero column contributes a zero factor
            while len(live) > 1:
                piv = min(live, key=lambda r: abs(r[c]))
                p, left = piv[c], [piv]
                support = [(j, y) for j, y in enumerate(piv) if y]
                for r in live:
                    if r is not piv:
                        q = _nearest_quotient(r[c], p)
                        for j, y in support:
                            r[j] -= q * y
                        if r[c]:
                            left.append(r)
                live = left
            piv = live[0]
            ap = abs(piv[c])
            rem = None
            if ap > 1:  # a unit pivot reduces its whole row to zero mod 1
                for j in range(c):
                    if piv[j]:
                        piv[j] -= ap * _nearest_quotient(piv[j], ap)
                rem = min((j for j in range(c) if piv[j]), key=lambda j: abs(piv[j]), default=None)
            if rem is None:
                rows = [r for r in rows if r is not piv]
                blocks.append(ap)
                break
            for r in rows:
                r[rem], r[c] = r[c], r[rem]
        for r in rows:
            r.pop()
    factors = sorted(d for d in blocks if d > 1)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    ones = len(blocks) - len(factors)
    return (1,) * ones + tuple(factors) + (0,) * (min(nrows, ncols) - len(blocks))


@st.composite
def kernel_matrices(draw):
    """Dense or tridiagonal matrices up to 10 x 10, some with a zero row or
    a zero column."""
    nrows, ncols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    kind = draw(st.sampled_from(("dense", "banded", "zero row", "zero column")))
    entry = st.integers(-40, 40)
    rows = [[draw(entry) if kind != "banded" or abs(i - j) <= 1 else 0 for j in range(ncols)] for i in range(nrows)]
    if kind == "zero row" and nrows:
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if kind == "zero column" and ncols:
        k = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[k] = 0
    return rows


@settings(max_examples=150, deadline=None)
@given(kernel_matrices())
def test_invariant_factors_match_the_reference_kernel(rows):
    want = _reference_invariant_factors(rows)
    assert invariant_factors(rows) == want
    assert numerics._invariant_factors([list(row) for row in rows]) == want


@settings(max_examples=25, deadline=None)
@given(presentations())
def test_invariant_factors_match_the_reference_kernel_on_relation_matrices(p):
    # the expansions of some of these pass 64 components
    for rows in (p.relation_matrix(), expand_rational(p).relation_matrix()):
        assert invariant_factors(rows) == _reference_invariant_factors(rows)


def test_invariant_factors_match_the_reference_kernel_on_larger_matrices():
    rng = random.Random(24)
    for n in (24, 40, 79):
        banded = [[rng.randint(-9, 9) if abs(i - j) <= 2 else 0 for j in range(n)] for i in range(n)]
        sparse = [[rng.randint(-3, 3) if rng.random() < 3 / n else 0 for j in range(n)] for i in range(n)]
        for rows in (banded, sparse):
            assert invariant_factors(rows) == _reference_invariant_factors(rows)
    dense = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
    assert invariant_factors(dense) == _reference_invariant_factors(dense)


# every kernel behind the shared integer-matrix intake, and cokernel on top
INTEGER_KERNELS = {
    "smith_normal_form": smith_normal_form,
    "invariant_factors": invariant_factors,
    "cokernel": cokernel,
    "solve_gf2_affine": lambda rows: solve_gf2_affine(rows, [1] * len(rows)),
}


@pytest.mark.parametrize("name", INTEGER_KERNELS)
def test_integer_kernels_refuse_non_int_entries(name):
    kernel = INTEGER_KERNELS[name]
    # int() would truncate these to [[2, 1], [1, 3]] and [[2]]
    for bad, got in (([[2.5, 1], [1, 3.9]], "2.5"), ([[2.5]], "2.5"), ([[1, "2"], [2, 1]], "'2'"),
                     ([[1, 0], [0, Fraction(4)]], "Fraction(4, 1)")):
        with pytest.raises(NumericsError, match=rf"^matrix entries must be ints, got {re.escape(got)}$"):
            kernel(bad)
    with pytest.raises(NumericsError, match="^ragged matrix$"):
        kernel([[1, 2], [3]])
    # a bool is the int it equals
    assert kernel([[True, 2], [False, 3]]) == kernel([[1, 2], [0, 3]])


def test_gf2_right_hand_side_must_be_ints():
    with pytest.raises(NumericsError, match=r"^matrix entries must be ints, got 1\.5$"):
        solve_gf2_affine([[1]], [1.5])
    assert solve_gf2_affine([[1, 1]], [True]) == solve_gf2_affine([[1, 1]], [1])


def test_inertia_refuses_entries_other_than_int_and_fraction():
    for bad in (0.5, "1", 2.0):
        with pytest.raises(NumericsError, match="^inertia needs int or Fraction entries, got "):
            inertia([[1, bad], [bad, 1]])
    with pytest.raises(NumericsError, match="^inertia needs int or Fraction entries"):
        signature([[1.5]])
    assert inertia([[True, 0], [0, -2]]) == inertia([[1, 0], [0, -2]]) == (1, 0, 1)
    assert inertia([[Fraction(1, 2), 1], [1, True]]) == inertia([[1, 2], [2, 2]])


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


@settings(max_examples=200)
@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
), st.booleans())
def test_first_asymmetry_matches_the_scan_on_int_matrices(rows, symmetrize):
    if symmetrize:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(len(rows))] for i in range(len(rows))]
    scan = next(
        ((i, j) for i in range(len(rows)) for j in range(i) if rows[i][j] != rows[j][i]), None
    )
    for matrix in (rows, tuple(map(tuple, rows))):
        assert first_asymmetry(matrix) == scan


def test_scalar_edges():
    half = ExtRational(1, 2)
    assert -INF is INF and rat(half) is half
    for call, message in (
        (lambda: INF / INF, "inf / inf is undefined"),
        (lambda: ExtRational(1) + 1.5, "cannot combine ExtRational with 1.5"),
        (lambda: ContinuedFraction(()), "a continued fraction needs at least one term"),
        # an empty one-shot iterable is refused after it is read, None before
        (lambda: ContinuedFraction(iter(())), "a continued fraction needs at least one term"),
        (lambda: ContinuedFraction([]), "a continued fraction needs at least one term"),
        (lambda: ContinuedFraction(None), "a continued fraction needs at least one term"),
        (lambda: neg_continued_fraction(INF), "infinity has no continued fraction expansion"),
        (lambda: inertia([[1, 0]]), "inertia needs a square matrix"),
        (lambda: smith_normal_form([[0]] * (MAX_SNF_DIM + 1)),
         f"smith_normal_form caps dimensions at {MAX_SNF_DIM}"),
    ):
        with pytest.raises(NumericsError) as refused:
            call()
        assert str(refused.value) == message


def test_int_entries_stores_plain_ints_and_names_the_first_other_entry():
    def error(i, v):
        return NumericsError(f"entry {i}: {v!r}")

    ints = (3, -1, 0)
    assert int_entries(ints, error) is ints  # a tuple of plain ints is kept as it is
    assert int_entries([True, 2, False], error) == (1, 2, 0)
    assert all(type(v) is int for v in int_entries([True, 2, False], error))
    assert int_entries(iter([4, 5]), error) == (4, 5) and int_entries([], error) == ()
    # so a value class reads a one-shot iterable once, and keeps what it read
    assert ContinuedFraction(iter([1, -2])).terms == (1, -2)
    for values, message in (
        ([1, 1.0, "x"], "entry 1: 1.0"),
        ((True, None), "entry 1: None"),
        ([Fraction(2, 1)], "entry 0: Fraction(2, 1)"),
    ):
        with pytest.raises(NumericsError) as refused:
            int_entries(values, error)
        assert str(refused.value) == message


def test_first_asymmetry_leaves_entries_other_than_ints_to_the_scan():
    nan = float("nan")
    # nan is one object in both places, so the rows equal the columns as
    # tuples, but nan != nan: the scan decides
    assert first_asymmetry([[0, nan], [nan, 0]]) == (1, 0)
    assert first_asymmetry(((0, nan), (nan, 0))) == (1, 0)
    assert first_asymmetry([[nan, 1], [1, 0]]) is None  # the diagonal is not compared
    assert first_asymmetry([[0, True], [1, 0]]) is None  # True == 1
    assert first_asymmetry([[0, Fraction(1, 2)], [Fraction(2, 4), 0]]) is None
    assert first_asymmetry([[0, 1.5], [1, 0]]) == (1, 0)
    with pytest.raises(NumericsError, match="inertia needs a symmetric matrix"):
        inertia([[0, Fraction(1, 2)], [Fraction(1, 3), 0]])
    assert inertia([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]) == (1, 0, 1)


@pytest.mark.parametrize("matrix", [
    [[1, 2], [2]], [[1, 2, 3]], [[0, 1, 5], [1, 0]], [[1], [1, 2]], [[1, 2], [2, 5], [0, 0]],
    ((0, 1), (1,)), [[0, float("nan")], [float("nan")]],
])
def test_first_asymmetry_refuses_a_matrix_that_is_not_square(matrix):
    # a ragged or non-square matrix has no transpose to compare with
    with pytest.raises(NumericsError, match="^first_asymmetry needs a square matrix$"):
        first_asymmetry(matrix)


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


@st.composite
def bordered_systems(draw):
    """(kind, q, x, y): a symmetric n x n matrix, n <= 6, and two borders.

    A random symmetric S has its diagonal cleared half the time.
    nonsingular: q = S when det S != 0, x and y random.  singular: q is
    P^T S P for the (n-1) x n matrix P = [I | w], whose kernel holds
    k = (-w, 1), and x, y lie in its column space.  inconsistent: the same
    q, and x or y gets 1 added in its last entry, so it pairs to 1 with k.
    Half the time x = y, as in theta.
    """
    kind = draw(st.sampled_from(("nonsingular", "singular", "inconsistent")))
    n = draw(st.integers(1, 6))
    size = n if kind == "nonsingular" else n - 1
    vec = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    upper = draw(st.lists(st.lists(st.integers(-9, 9), min_size=size, max_size=size),
                          min_size=size, max_size=size))
    cleared = draw(st.booleans())
    s = [[0 if cleared and i == j else upper[min(i, j)][max(i, j)] for j in range(size)]
         for i in range(size)]
    if kind == "nonsingular":
        assume(_fraction_inertia(s)[1] == 0)
        q, x, y = s, draw(vec), draw(vec)
    else:
        w = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        cols = [[int(i == j) for i in range(size)] for j in range(size)] + [w]  # of P
        q = [[sum(map(operator.mul, ci, mat_vec(s, cj))) for cj in cols] for ci in cols]
        x, y = mat_vec(q, draw(vec)), mat_vec(q, draw(vec))
    if draw(st.booleans()):
        x = y
    if kind == "inconsistent":
        (y if draw(st.booleans()) else x)[-1] += 1
    return kind, q, x, y


# The rational solve x^T Q^+ y is the bordered congruence's corner; the
# tests keep the names they had when a separate solve_rational did it.
@settings(max_examples=400, deadline=None)
@given(bordered_systems())
@example(("nonsingular", [], [], []))
@example(("singular", [[0]], [0], [0]))
@example(("nonsingular", [[0, 3], [3, 0]], [1, 1], [1, 2]))
@example(("inconsistent", [[2, 4], [4, 8]], [1, 2], [1, 0]))
def test_solve_rational_matches_the_fraction_elimination(system):
    kind, q, x, y = system
    before = repr((q, x, y))
    pos, zero, neg, value = numerics._bordered_congruence(q, x, y)
    assert repr((q, x, y)) == before  # the inputs are copied, not rewritten
    assert (pos, zero, neg) == _fraction_inertia(q)
    zx, zy = _fraction_solve(q, x, y)
    assert (value is None) == (zx is None or zy is None) == (kind == "inconsistent")
    if value is not None:
        num, den = value
        assert type(num) is int and type(den) is int and den != 0
        assert Fraction(num, den) == sum(a * b for a, b in zip(x, zy))


def test_solve_rational_fixtures():
    def solve(q, x, y):
        pos, zero, neg, value = numerics._bordered_congruence(q, x, y)
        return (pos, zero, neg), value and Fraction(*value)

    assert solve([], [], []) == ((0, 0, 0), 0)
    assert solve([[0]], [0], [0]) == ((0, 1, 0), 0)
    # a zero diagonal: the row-and-column add supplies the pivot
    assert solve([[0, 3], [3, 0]], [1, 1], [1, 2]) == ((1, 0, 1), 1)
    # rank 1: (1, 2) is in the column space, (1, 0) is not
    assert solve([[2, 4], [4, 8]], [1, 2], [1, 2]) == ((1, 1, 0), Fraction(1, 2))
    assert solve([[2, 4], [4, 8]], [1, 2], [1, 0]) == ((1, 1, 0), None)
    assert solve([[2, 4], [4, 8]], [1, 0], [1, 2]) == ((1, 1, 0), None)


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


@pytest.mark.parametrize("matrix, rhs", [([[1, 0]], [1, 0]), ([[1], [0]], [1]), ([], [1])])
def test_gf2_right_hand_side_needs_one_entry_per_row(matrix, rhs):
    with pytest.raises(NumericsError, match=(
        rf"^the matrix's row count {len(matrix)} and the right-hand side's length {len(rhs)} differ$"
    )):
        solve_gf2_affine(matrix, rhs)


def _mask_loop_solutions(sol):
    """Gf2Solution.enumerate as it was before the Gray order: one XOR
    loop over the basis per solution, in mask order."""
    for mask in range(sol.count()):
        v = list(sol.particular)
        for bit, basis in enumerate(sol.kernel_basis):
            if (mask >> bit) & 1:
                v = [a ^ b for a, b in zip(v, basis)]
        yield tuple(v)


@settings(max_examples=150)
@given(gf2_systems)
@example(([[0] * 9] * 2, [0, 0]))  # 2^9 solutions
@example(([[]], [0]))
def test_gf2_gray_order_yields_each_solution_of_the_mask_loop_once(system):
    sol = solve_gf2_affine(*system)
    if sol is not None:
        got = list(sol.enumerate())
        assert len(got) == len(set(got)) == sol.count()
        assert sorted(got) == sorted(_mask_loop_solutions(sol))
        assert all(type(v) is tuple and set(map(type, v)) <= {int} for v in got)
        # consecutive solutions differ by one kernel basis vector
        basis = set(sol.kernel_basis)
        assert all(tuple(a ^ b for a, b in zip(u, v)) in basis for u, v in zip(got, got[1:]))


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
    # index n-1 replaced by the sum of indices 0 and 1, on both sides
    singular = [row[:-1] + [row[0] + row[1]] for row in sym]
    singular[-1] = [a + b for a, b in zip(singular[0], singular[1])]
    b1, b2 = ([rng.randint(-5, 5) for _ in range(n)] for _ in range(2))
    consistent = mat_vec(singular, b2)
    # the linking form of the lens space L(23, ...) and theta of a knot with a 1-handle
    lens = SurgeryPresentation(coeffs=[rat(4), rat(6)], lk=[[0, 1], [1, 0]])
    stein = SteinPresentation(q=[[-3, 1], [1, -2]], runs=[[1, 1]], rot=[1, 0])
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    kernel = numerics._bordered_congruence
    want = [inertia(sym), kernel(sym, b1, b2), kernel(singular, consistent, consistent),
            kernel(singular, b1, b2), linking_form(lens, [1, 0], [0, 1]), theta(stein)]
    assert want[1][1] == 0 and want[2][1] == 1
    assert None not in want[1] + want[2] and want[3][3] is None
    monkeypatch.setattr(Fraction, "__new__", counting)

    def count(call):
        built.clear()
        out = call()
        return out, len(built)

    assert count(lambda: inertia(sym)) == (want[0], 0)
    assert count(lambda: kernel(sym, b1, b2)) == (want[1], 0)
    assert count(lambda: kernel(singular, consistent, consistent)) == (want[2], 0)
    assert count(lambda: kernel(singular, b1, b2)) == (want[3], 0)
    out, made = count(lambda: linking_form(lens, [1, 0], [0, 1]))
    assert out == want[4] and made <= 1  # its result, no more
    assert count(lambda: theta(stein)) == (want[5], 0)
