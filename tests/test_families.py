"""Tests for the family deciders: Seifert, Brieskorn, Borromean."""

import os
import re
import subprocess
import sys
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import permutations, product
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from steinkit import families
from steinkit.families import (
    BorromeanCoeffs,
    BorromeanDecision,
    FamilyError,
    NFunctionResult,
    SeifertData,
    SeifertDecision,
    SeifertNormal,
    _check_search_bound,
    _check_slope,
    _check_witness,
    _farey_rows,
    _hinge,
    borromean_membership,
    borromean_presentation,
    brieskorn,
    decide_borromean,
    decide_seifert,
    n_function,
    seifert_from_invariants,
    seifert_normalize,
    twist_knot_surgery,
    two_component_surgery,
)
from steinkit.numerics import (
    INF,
    ZERO,
    ExtRational,
    InternalError,
    MobiusMap,
    NumericsError,
    rat,
)
from steinkit.presentation import AbelianGroup, SurgeryPresentation, cokernel, h1

MINUS_ONE = rat(-1)


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, by Euclid's recursion."""
    if b == 0:
        return abs(a), (a > 0) - (a < 0), 0
    g, x, y = _bezout(b, a % b)
    return g, y, x - a // b * y


def sphere(*coeffs):
    return SeifertData(orientable=True, genus=0, coefficients=[rat(*c) for c in coeffs])


def seifert_chain_presentation(sd: SeifertData) -> SurgeryPresentation:
    # sphere-base Seifert space as surgery on a star: a central 0-framed
    # unknot linked once with one unknot per fiber coefficient
    k = len(sd.coefficients)
    m = k + 1
    lk = [[0] * m for _ in range(m)]
    for i in range(k):
        lk[i][k] = lk[k][i] = 1
    return SurgeryPresentation(
        coeffs=list(sd.coefficients) + [rat(0)],
        lk=lk,
        unknot=[True] * m,
    )


def orientation_constant(sd: SeifertData) -> int:
    """q1*p2*p3 + p1*q2*p3 + p1*p2*q3 recovered from canonical rationals."""
    ps = [abs(r.num) for r in sd.coefficients]
    total = 0
    prod = ps[0] * ps[1] * ps[2]
    for r, p in zip(sd.coefficients, ps):
        q = r.den if r.num > 0 else -r.den
        total += q * (prod // p)
    return total


nonzero = st.tuples(
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.integers(min_value=1, max_value=9),
)


# ---------------------------------------------------------------------------
# the ExtRational versions that the (num, den) integer kernels replaced,
# kept verbatim as their oracles, with the ExtRational helpers they use


def floor_frac(r: ExtRational) -> tuple[int, ExtRational]:
    """Split a finite r as r = floor(r) + f with f in [0, 1)."""
    if r.is_infinite:
        raise NumericsError("floor_frac needs a finite rational")
    fl = r.num // r.den
    return fl, r - fl


def slope_less(x: ExtRational, bound: ExtRational) -> bool:
    """x < bound on the slope line, where infinity sits at the bottom."""
    if x.is_infinite:
        return not bound.is_infinite
    if bound.is_infinite:
        return False
    return x < bound


def mobius_apply(w: MobiusMap, r: ExtRational) -> ExtRational:
    """The image (c + d r) / (a + b r) of r under w, with inf -> d/b."""
    if r.is_infinite:
        return ExtRational(w.d, w.b)
    return ExtRational(w.c * r.den + w.d * r.num, w.a * r.den + w.b * r.num)


def _floor(r: ExtRational) -> int:
    return floor_frac(r)[0]


def _reference_seifert_normalize(s: SeifertData) -> SeifertNormal:
    e = rat(0)
    e0 = 0
    rprime = []
    k0 = 0
    for r in s.coefficients:
        v = -r.reciprocal()
        fl, fr = floor_frac(v)
        e = e + v
        e0 += fl
        rprime.append(INF if fr == ZERO else -fr.reciprocal())
        if not r.reciprocal().is_integer:
            k0 += 1
    if not s.orientable:
        e = e - rat(2 * s.genus)
    return SeifertNormal(e=e, e0=e0, rprime=tuple(rprime), k0=k0)


def _reference_hinge(r1p: ExtRational) -> ExtRational:
    # s in (-inf,-1] with 1/s = -1 - 1/r1p; the reciprocal never vanishes
    inv = ZERO if r1p.is_infinite else r1p.reciprocal()
    return (MINUS_ONE - inv).reciprocal()


def _reference_closed_form_level(r1p: ExtRational) -> int:
    # largest integer below the hinge of r1p
    s = _reference_hinge(r1p)
    return -_floor(-s) - 1


def _reference_decide_seifert(s: SeifertData, search_bound: int = 100) -> SeifertDecision:
    """decide_seifert with the reference normalization and closed-form rules;
    the pair search is families.n_function, whose oracle is below."""
    _check_search_bound(search_bound)
    norm = _reference_seifert_normalize(s)
    if not s.sphere_base:
        return SeifertDecision(verdict="YES", reason="a", detail="base is not a sphere")
    if norm.e0 != -1:
        return SeifertDecision(verdict="YES", reason="b", detail=f"e0 = {norm.e0} differs from -1")
    rp = norm.rprime
    k = len(rp)
    if k <= 2:
        return SeifertDecision(
            verdict="YES", reason="c", detail=f"only {k} normalized coefficients"
        )
    if all(slope_less(r, rat(-2)) for r in rp):
        return SeifertDecision(
            verdict="YES", reason="c", detail="all normalized coefficients below -2"
        )
    for i in range(k):
        level = _reference_closed_form_level(rp[i])
        if all(slope_less(rp[j], rat(level)) for j in range(k) if j != i):
            return SeifertDecision(
                verdict="YES",
                reason="c",
                detail=f"coefficient {i + 1} gives integer level {level}",
            )
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            res = families.n_function(rp[i], rp[j], search_bound)
            if res.kind == "sentinel":
                return SeifertDecision(
                    verdict="YES",
                    reason="c",
                    detail=f"pair ({i + 1}, {j + 1}) hits the sentinel",
                    pair=(i + 1, j + 1),
                    n_result=res,
                )
            others = [rp[t] for t in range(k) if t not in (i, j)]
            if res.witness is not None and all(_reference_exceeds(res, r) for r in others):
                return SeifertDecision(
                    verdict="YES",
                    reason="c",
                    detail=f"pair ({i + 1}, {j + 1}) bounds the rest",
                    pair=(i + 1, j + 1),
                    n_result=res,
                )
    return SeifertDecision(verdict="UNKNOWN", detail="no sufficient condition applied")


def _reference_exceeds(res: NFunctionResult, r: ExtRational) -> bool:
    """Does the certified bound lie strictly above the slope r?"""
    if res.kind == "sentinel":
        return True
    if res.infinite:
        return True
    if res.value is None:
        return False
    if r.is_infinite:
        return True
    return r < rat(res.value)


_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _reference_borromean_membership(c: BorromeanCoeffs) -> tuple[bool, bool, bool]:
    """Exact membership in the three exceptional coefficient regions."""
    rs = c.as_tuple()
    for r in rs:
        if r.is_infinite:
            raise FamilyError("membership needs finite coefficients, got infinity")
    one, four = rat(1), rat(4)
    in_a0 = all(one <= r < four for r in rs)

    third = rat(-1, 3)
    six = rat(-6)
    in_a2 = False
    for p in _PERMS:
        first, second, last = rs[p[0]], rs[p[1]], rs[p[2]]
        if first < ZERO or not (third <= second < ZERO):
            continue
        low = rat(-2 * _floor(-second.reciprocal()) - 1)
        if low <= last < six:
            in_a2 = True
            break

    in_a3 = all(r < ZERO for r in rs)
    if in_a3:
        for k in range(3):
            i, j = [t for t in range(3) if t != k]
            low = -2 * (_floor(-rs[i].reciprocal()) + _floor(-rs[j].reciprocal()) + 1)
            if not rat(low) <= rs[k] < ZERO:
                in_a3 = False
                break
    if in_a3:
        minus_one = rat(-1)
        if all(six <= r < ZERO for r in rs):
            small = sum(1 for r in rs if minus_one <= r < ZERO)
            if small >= 2:
                in_a3 = False
    return in_a0, in_a2, in_a3


# ---------------------------------------------------------------------------
# normalization


def test_seifert_data_rejects_zero_coefficient():
    with pytest.raises(FamilyError, match="zero"):
        sphere((2,), (0,))


@pytest.mark.parametrize("bad", [0, 2, True, False, Fraction(1, 2), 0.5, 0.0])
def test_family_data_refuses_coefficients_that_are_not_extrationals(bad):
    # checked before the zero test, so an int or float zero is refused by type
    with pytest.raises(FamilyError, match=r"^fiber coefficient 2 is not an ExtRational$"):
        SeifertData(True, 0, [rat(2), bad, rat(3)])
    for i in range(3):
        coeffs = [rat(1), rat(1), rat(1)]
        coeffs[i] = bad
        with pytest.raises(FamilyError, match=rf"^coefficient {i + 1} is not an ExtRational$"):
            BorromeanCoeffs(*coeffs)
    with pytest.raises(FamilyError, match=r"^coefficient 3 is not an ExtRational$"):
        twist_knot_surgery(1, 1, bad)


def test_seifert_data_genus_ranges():
    with pytest.raises(FamilyError, match="genus"):
        SeifertData(orientable=True, genus=-1, coefficients=[rat(2)])
    with pytest.raises(FamilyError, match="genus"):
        SeifertData(orientable=False, genus=0, coefficients=[rat(2)])
    SeifertData(orientable=False, genus=1, coefficients=[rat(2)])


@pytest.mark.parametrize(
    "orientable, genus, message",
    [
        (True, 1.5, r"^genus must be an int, got 1\.5$"),
        (True, Fraction(1), r"^genus must be an int, got Fraction\(1, 1\)$"),
        (False, "2", r"^genus must be an int, got '2'$"),
        ("yes", 0, r"^orientable must be a bool, got 'yes'$"),
        (1, 0, r"^orientable must be a bool, got 1$"),
        (None, 1, r"^orientable must be a bool, got None$"),
    ],
)
def test_seifert_data_checks_the_base_types(orientable, genus, message):
    with pytest.raises(FamilyError, match=message):
        SeifertData(orientable, genus, [rat(-2)])


def test_seifert_data_stores_a_bool_genus_as_an_int():
    sd = SeifertData(False, True, [rat(-2)])
    assert type(sd.genus) is int and sd == SeifertData(False, 1, [rat(-2)])
    assert type(SeifertData(True, False, []).genus) is int


def test_seifert_data_is_frozen():
    # a validated value stays valid: neither its fields nor its coefficients change
    coeffs = [rat(-2), rat(-3, 2), rat(-5, 4)]
    sd = SeifertData(orientable=True, genus=0, coefficients=coeffs)
    coeffs.append(rat(0))
    assert sd.coefficients == (rat(-2), rat(-3, 2), rat(-5, 4))
    with pytest.raises(AttributeError):
        sd.coefficients.append(rat(3))
    with pytest.raises(FrozenInstanceError):
        sd.genus = -5
    assert sd == SeifertData(True, 0, coeffs[:3]) and sd.genus == 0


def test_decide_seifert_refuses_a_non_seifert_data():
    for s in ([rat(1)], (True, 0, [rat(2)]), None):
        with pytest.raises(FamilyError, match="^decide_seifert needs a SeifertData, got "):
            decide_seifert(s, 5)


def test_classical_invariants_floor_sum():
    s = seifert_from_invariants(0, [(2, 1), (3, 1), (5, 1)])
    assert seifert_normalize(s).e0 == -3


def test_circle_bundle_integer_part():
    for e in (-3, -2, -1, 1, 2, 3):
        norm = seifert_normalize(sphere((-1, e)))
        assert norm.e0 == e
        assert norm.rprime == (INF,)
        assert norm.k0 == 0


def test_normalized_coefficients_land_in_range():
    norm = seifert_normalize(sphere((2,), (-3, 2), (5, 6)))
    for r in norm.rprime:
        assert r.is_infinite or r < rat(-1)


def test_nonorientable_euler_number():
    s = SeifertData(orientable=False, genus=2, coefficients=[rat(-2)])
    assert seifert_normalize(s).e == rat(-7, 2)


@given(st.lists(nonzero, min_size=1, max_size=5))
def test_reversal_relation(pairs):
    coeffs = [rat(p, q) for p, q in pairs]
    m = SeifertData(orientable=True, genus=0, coefficients=coeffs)
    rev = SeifertData(orientable=True, genus=0, coefficients=[-r for r in coeffs])
    a, b = seifert_normalize(m), seifert_normalize(rev)
    assert a.e0 + b.e0 == -a.k0
    assert a.k0 == b.k0


# ---------------------------------------------------------------------------
# the pair function


def test_pair_function_integer_gap():
    res = n_function(rat(-2), rat(-7, 2), 30)
    assert res.kind == "bound"
    assert res.value == -3
    assert str(res.witness) == "[1 0; 2 1]"
    assert res.exceeds(rat(-4)) and not res.exceeds(rat(-3))


def test_pair_function_sentinel():
    res = n_function(rat(-2), rat(-2), 10)
    assert res.kind == "sentinel"
    assert res.exceeds(rat(100))


def test_pair_function_rejects_out_of_range():
    with pytest.raises(FamilyError, match="first"):
        n_function(rat(-1), rat(-2))
    with pytest.raises(FamilyError, match="second"):
        n_function(rat(-2), rat(1, 2))
    with pytest.raises(FamilyError, match="bound"):
        n_function(rat(-2), rat(-3), 0)


def test_pair_function_infinite_arguments():
    res = n_function(INF, INF, 10)
    assert res.kind == "bound"
    assert res.value is not None and res.value >= -2


def test_pair_function_main_family_witness():
    # normalized pair of the smallest Brieskorn heads: bound -p1 - p2
    res = n_function(rat(-3), rat(-2), 20)
    assert res.value == -5
    assert str(res.witness) == "[2 1; 3 2]"
    assert res.exceeds(rat(-7))


slopes = st.one_of(
    st.just(INF),
    st.tuples(
        st.integers(min_value=-40, max_value=-5), st.integers(min_value=1, max_value=4)
    ).map(lambda t: rat(t[0], t[1])).filter(lambda r: r < rat(-1)),
)


@given(slopes, slopes)
@settings(max_examples=30, deadline=None)
def test_pair_function_monotone_in_bound(r1p, r2p):
    lo = n_function(r1p, r2p, 4)
    hi = n_function(r1p, r2p, 9)
    if lo.kind == "sentinel":
        assert hi.kind == "sentinel"
        return
    if lo.infinite:
        assert hi.infinite
        return
    if lo.value is not None:
        assert hi.infinite or (hi.value is not None and hi.value >= lo.value)


# ---------------------------------------------------------------------------
# the integer search against the object-based reference


def _reference_n_function(r1p, r2p, search_bound=100):
    """The object-based search that n_function replaced, kept as its oracle."""
    _check_slope(r1p, "first coefficient")
    _check_slope(r2p, "second coefficient")
    if search_bound < 1:
        raise FamilyError(f"search bound must be positive, got {search_bound}")
    s = _reference_hinge(r1p)
    if s == r2p:
        return NFunctionResult(kind="sentinel")

    best: tuple[int, int] | None = None  # (finite value) ordering helper
    best_infinite = False
    best_witness: MobiusMap | None = None
    best_key: tuple[int, int, int, int] | None = None

    for a in range(0, search_bound + 1):
        b_range = (1,) if a == 0 else range(-search_bound, search_bound + 1)
        for b in b_range:
            if gcd(a, b) != 1:
                continue
            g, x, y = _bezout(a, b)
            # a*d0 - b*c0 = 1
            d0, c0 = x, -y
            base = MobiusMap(a, b, c0, d0)
            vs = mobius_apply(base, s)
            if vs.is_infinite:
                continue
            k = _floor(-vs)
            c, d = c0 + k * a, d0 + k * b
            if max(abs(a), abs(b), abs(c), abs(d)) > search_bound:
                continue
            cand = MobiusMap(a, b, c, d)
            v2 = mobius_apply(cand, r2p)
            if not (v2.is_infinite or v2 < MINUS_ONE):
                continue
            a0 = ExtRational(c, a)
            if a0.is_infinite or a0 >= ZERO:
                t = ZERO
            elif a0 >= MINUS_ONE:
                t = (vs + rat(k)).reciprocal()
            else:
                t = v2
            big = max(abs(a), abs(c))
            small = min(abs(a), abs(c))
            if t.is_infinite:
                infinite = small >= 1
                value = None if infinite else -big
            else:
                infinite = False
                value = -small * (_floor(t) + 1) - big
            key = (cand.a, cand.b, cand.c, cand.d)
            better = False
            if infinite and not best_infinite:
                better = True
            elif infinite == best_infinite:
                if not infinite:
                    if best is None or (value is not None and value > best[0]):
                        better = True
                    elif value is not None and value == best[0] and key < best_key:
                        better = True
                elif key < best_key:
                    better = True
            if better:
                best = None if value is None else (value, 0)
                best_infinite = infinite
                best_witness = cand
                best_key = key
    if best_witness is None:
        return NFunctionResult(kind="bound")
    out = NFunctionResult(
        kind="bound",
        value=None if best_infinite else best[0],
        infinite=best_infinite,
        witness=best_witness,
    )
    _check_witness(out, s.num, s.den, r2p.num, r2p.den)
    return out


def _box_n_function(r1p, r2p, search_bound=100):
    """The integer box scan that the Farey walk replaced, kept as its oracle.

    Rows (a, b) run in lexicographic order over a <= min(search_bound,
    max(|sn|, |pn|)) and |b| <= min(search_bound, max(sd, pd)), and a row
    with |vd| + |w2d| > |delta| is skipped: with delta = sn*pd - pn*sd,
    A s - A r2p = delta / (vd*w2d), and a passing row puts -1 between two
    slopes of denominators |vd| and |w2d|.
    """
    _check_slope(r1p, "first coefficient")
    _check_slope(r2p, "second coefficient")
    _check_search_bound(search_bound)
    sn, sd = _hinge(r1p.num, r1p.den)
    pn, pd = r2p.num, r2p.den
    if (sn, sd) == (pn, pd):
        return NFunctionResult(kind="sentinel")
    delta = abs(sn * pd - pn * sd)
    a_max = min(search_bound, max(abs(sn), abs(pn)))
    b_max = min(search_bound, max(sd, pd))
    best_value, best_infinite, best_row = None, False, None
    for a in range(0, a_max + 1):
        for b in (1,) if a == 0 else range(-b_max, b_max + 1):
            vd, w2d = a * sd + b * sn, a * pd + b * pn
            if abs(vd) + abs(w2d) > delta or gcd(a, b) != 1 or vd == 0:
                continue
            _, x, y = _bezout(a, b)
            vn = -y * sd + x * sn
            if vd < 0:
                vn, vd = -vn, -vd
            k = -vn // vd
            c, d = k * a - y, k * b + x
            if abs(c) > search_bound or abs(d) > search_bound:
                continue
            w2n = c * pd + d * pn
            if w2d != 0 and (w2n + w2d) * w2d >= 0:
                continue
            if c >= 0 or a == 0:
                t_num, t_den = 0, 1
            elif c >= -a:
                t_num, t_den = vd, vn + k * vd
            else:
                t_num, t_den = w2n, w2d
            big, small = max(a, abs(c)), min(a, abs(c))
            if t_den == 0:
                if small >= 1:
                    best_infinite, best_value, best_row = True, None, (a, b, c, d)
                    break
                value = -big
            else:
                value = -small * (t_num // t_den + 1) - big
            if best_value is None or value > best_value:
                best_value, best_row = value, (a, b, c, d)
        if best_infinite:
            break
    if best_row is None:
        return NFunctionResult(kind="bound")
    out = NFunctionResult(
        kind="bound", value=best_value, infinite=best_infinite, witness=MobiusMap(*best_row)
    )
    _check_witness(out, sn, sd, pn, pd)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FamilyError as e:
        return ("error", str(e))


# INF, integer and fractional slopes, some in (-2, -1) where infinite
# bounds live, and some at or above -1 so errors are compared too
any_slope = st.one_of(
    st.just(INF),
    st.integers(min_value=-12, max_value=-2).map(rat),
    st.integers(min_value=2, max_value=9).flatmap(
        lambda q: st.integers(min_value=q + 1, max_value=2 * q - 1).map(lambda p: rat(-p, q))
    ),
    st.tuples(
        st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=40)
    ).map(lambda t: rat(-t[0] - t[1], t[0])),
    st.tuples(
        st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
    ).map(lambda t: rat(t[0], t[1])),
    # heights past the drawn bound, so both sides of each height clip run
    st.integers(min_value=-400, max_value=-41).map(rat),
    st.tuples(
        st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300)
    ).map(lambda t: rat(-t[0] - t[1], t[0])),
)


@given(any_slope, any_slope, st.integers(min_value=0, max_value=60))
@example(rat(-2), rat(-3, 2), 10)  # infinite bound
@example(rat(-2), rat(-2), 5)  # sentinel
@example(INF, INF, 60)
@example(rat(-2), rat(-3), 0)  # bad search bound
@settings(max_examples=60, deadline=None)
def test_pair_function_matches_reference(r1p, r2p, bound):
    assert _outcome(n_function, r1p, r2p, bound) == _outcome(
        _reference_n_function, r1p, r2p, bound
    )


@pytest.mark.parametrize("bound", [50, 100])
def test_pair_function_open_case_matches_reference(bound):
    rp = seifert_normalize(brieskorn(2, 3, 5, -1)).rprime
    for i, j in permutations(range(3), 2):
        want = _reference_n_function(rp[i], rp[j], bound)
        assert n_function(rp[i], rp[j], bound) == want
        assert _box_n_function(rp[i], rp[j], bound) == want


# INF and every slope in (-6, -1) with denominator at most 4 (900 pairs),
# or at most 7 (8,100 pairs)
def _grid(max_den):
    return [INF] + [
        rat(-p, q) for q in range(1, max_den + 1) for p in range(q + 1, 6 * q) if gcd(p, q) == 1
    ]


_GRID = _grid(4)


@pytest.mark.parametrize("bound", [1, 2, 3, 5])
def test_pair_function_matches_reference_on_a_grid(bound):
    assert len(_GRID) ** 2 == 900
    for r1p, r2p in product(_GRID, repeat=2):
        assert n_function(r1p, r2p, bound) == _reference_n_function(r1p, r2p, bound)


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 8])
def test_pair_function_matches_the_box_on_the_wide_grid(bound):
    grid = _grid(7)
    assert len(grid) ** 2 == 8100
    for r1p, r2p in product(grid, repeat=2):
        assert n_function(r1p, r2p, bound) == _box_n_function(r1p, r2p, bound)


# slopes of height up to 10**4, including long partial quotients
tall_slope = st.one_of(
    st.just(INF),
    st.integers(min_value=-10**4, max_value=-2).map(rat),
    st.tuples(
        st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000)
    ).map(lambda t: rat(-t[0] - t[1], t[0])),
    st.tuples(
        st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=9)
    ).map(lambda t: rat(-t[0] * t[1] - 1, t[0])),
)


@given(tall_slope, tall_slope, st.integers(min_value=1, max_value=60))
@example(rat(-2001, 2000), rat(-3001, 2000), 60)
@example(rat(-2), rat(-10**4), 60)
@settings(max_examples=150, deadline=None)
def test_pair_function_matches_the_box_on_tall_slopes(r1p, r2p, bound):
    assert _outcome(n_function, r1p, r2p, bound) == _outcome(_box_n_function, r1p, r2p, bound)


def test_pair_function_matches_the_box_at_a_huge_bound():
    # the box stops at the heights, at most 400 here, whatever the bound
    rng = random.Random(17)
    pairs = [(rat(-(h + 1), h), rat(-(3 * h // 2 + 1), h)) for h in (2, 7, 40, 150, 400)]
    while len(pairs) < 12:
        p, q = rng.randint(1, 400), rng.randint(1, 400)
        pairs.append((rat(-p - q, p), rat(-rng.randint(2, 400), rng.randint(1, 40))))
    for r1p, r2p in pairs:
        for a, b in ((r1p, r2p), (r2p, r1p)):
            assert _outcome(n_function, a, b, 10**9) == _outcome(_box_n_function, a, b, 10**9)


def _stern_brocot_steps(r1p, r2p):
    """Mediants the Stern-Brocot descent visits on its way from
    [floor(t), floor(t) + 1] to t = g(r2p), and t's partial quotients."""
    s = rat(*_hinge(r1p.num, r1p.den))
    _, x, y = _bezout(s.num, s.den)
    t = mobius_apply(MobiusMap(s.num, -s.den, y, x), r2p)  # r -> (y + x r) / (sn - sd r) = g(r)
    quotients = []
    frac = floor_frac(t)[1]
    while frac != ZERO:
        q, frac = floor_frac(frac.reciprocal())
        quotients.append(q)
    return max(sum(quotients) - 1, 0), len(quotients)


def test_pair_function_rows_follow_the_farey_path(monkeypatch):
    # n_function tries each row the walk yields, and finds g by one modular inverse
    calls = Counter()
    real_rows = families._farey_rows

    def counting_rows(*args):
        for row in real_rows(*args):
            calls["rows"] += 1
            yield row

    def counting_pow(*args):
        calls["pow"] += 1
        return pow(*args)

    monkeypatch.setattr(families, "_farey_rows", counting_rows)
    monkeypatch.setattr(families, "pow", counting_pow, raising=False)
    rp = seifert_normalize(brieskorn(2, 3, 5, -1)).rprime
    pairs = [(rp[i], rp[j]) for i, j in permutations(range(3), 2)]
    pairs += [(rat(-2001, 2000), rat(-3001, 2000)), (rat(-2), rat(-10**9)),
              (rat(-7, 2), rat(-11, 3)), (rat(-89, 55), rat(-10**6 - 1, 10**6))]
    for r1p, r2p in pairs:
        steps, quotients = _stern_brocot_steps(r1p, r2p)
        for bound in (50, 10**6, 10**30):
            calls.clear()
            n_function(r1p, r2p, bound)
            assert calls["pow"] == 1
            assert 0 < calls["rows"] <= 2 * (steps + 2)
            assert calls["rows"] <= 4 * (quotients + 1)
    for i, j in permutations(range(3), 2):
        assert n_function(rp[i], rp[j], 10**6) == n_function(rp[i], rp[j], 50)


def _reference_row(a, b, sn, sd, pn, pd):
    """The per-row derivation that reading (c, d) off the walk replaced,
    kept as its oracle: the map with first row (a, b) that sends the hinge
    sn/sd into (-1, 0], or None when it sends pn/pd outside [-inf, -1)."""
    # A = [a b; c d] sends s to (c sd + d sn) / vd and r2p to w2n / w2d;
    # ad - bc = 1 fixes (c, d) up to a multiple of (a, b)
    vd, w2d = a * sd + b * sn, a * pd + b * pn
    _, x, y = _bezout(a, b)
    vn = -y * sd + x * sn
    if vd < 0:
        vn, vd = -vn, -vd
    k = -vn // vd  # floor(-vs): the shift that puts A s in (-1, 0]
    c, d = k * a - y, k * b + x
    # A r2p = w2n / w2d must lie in [-inf, -1)
    w2n = c * pd + d * pn
    if w2d != 0 and (w2n + w2d) * w2d >= 0:
        return None
    return a, b, c, d


@given(tall_slope, tall_slope)
@example(rat(-2001, 2000), rat(-3001, 2000))
@example(rat(-2), INF)
@example(INF, rat(-10**4))
@settings(max_examples=300, deadline=None)
def test_every_walk_row_is_the_reference_row(r1p, r2p):
    sn, sd = _hinge(r1p.num, r1p.den)
    pn, pd = r2p.num, r2p.den
    assume((sn, sd) != (pn, pd))
    rows = list(_farey_rows(sn, sd, pn, pd))
    assert rows
    for a, b, c, d in rows:
        # equal to the reference, so A r2p lies in [-inf, -1) too
        assert _reference_row(a, b, sn, sd, pn, pd) == (a, b, c, d)
        assert abs(b) <= a and 1 <= abs(c) and abs(d) <= abs(c)


def test_the_tall_pair_answers_with_value_three():
    # the box scan of this pair at B = 10**9 had 3002 * 4001 rows
    res = n_function(rat(-2001, 2000), rat(-3001, 2000), 10**9)
    assert (res.kind, res.value, res.infinite) == ("bound", 3, False)
    assert res.witness == MobiusMap(2, 1, -3, -1)


@st.composite
def sphere_e0_minus_one(draw):
    """Sphere-base data with e0 = -1, so the decider reaches its later rules."""
    k = draw(st.integers(min_value=3, max_value=4))
    floors = [draw(st.integers(min_value=-1, max_value=1)) for _ in range(k - 1)]
    floors.append(-1 - sum(floors))
    coeffs = []
    for f in floors:
        p = draw(st.integers(min_value=2, max_value=9))
        q = draw(st.integers(min_value=1, max_value=p - 1).filter(lambda q: gcd(p, q) == 1))
        coeffs.append(-(rat(f) + rat(q, p)).reciprocal())
    return SeifertData(orientable=True, genus=0, coefficients=coeffs)


@given(sphere_e0_minus_one(), st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_decide_seifert_same_with_reference(sd, bound):
    fast = decide_seifert(sd, bound)
    calls = Counter()

    def reference_core(hn, hd, pn, pd, search_bound):
        # the hinge hn/hd is that of r1p = -hn/(hn + hd), and of inf for (-1, 1)
        calls["core"] += 1
        r1p = INF if (hn, hd) == (-1, 1) else rat(-hn, hn + hd)
        return _reference_n_function(r1p, ExtRational(pn, pd), search_bound)

    with patch.object(families, "_n_core", reference_core):
        assert decide_seifert(sd, bound) == fast
    # the reference search ran on every example that reaches the pair rule
    assert (calls["core"] > 0) == (fast.pair is not None or fast.verdict == "UNKNOWN")


def test_pair_function_builds_constant_objects(monkeypatch):
    counts = Counter()
    for cls in (families.MobiusMap, families.ExtRational):
        real = cls.__post_init__

        def counting(obj, real=real, name=cls.__name__):
            counts[name] += 1
            real(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
    rp = seifert_normalize(brieskorn(2, 3, 5, -1)).rprime
    for i, j in permutations(range(3), 2):
        seen = []
        for bound in (50, 100):
            counts.clear()
            res = n_function(rp[i], rp[j], bound)
            assert res.witness is not None
            # the witness alone, whatever the bound: _check_witness runs on ints
            assert counts["MobiusMap"] == 1 and counts["ExtRational"] == 0
            seen.append(dict(counts))
        assert seen[0] == seen[1]


def test_check_witness_rejects_corrupted_results():
    for r1p, r2p in [(rat(-2), rat(-7, 2)), (rat(-2), rat(-3, 2))]:
        sn, sd = _hinge(r1p.num, r1p.den)
        res = n_function(r1p, r2p, 30)
        _check_witness(res, sn, sd, r2p.num, r2p.den)
        kind, w = res.kind, res.witness
        if res.infinite:
            bad = [NFunctionResult(kind, -3, False, w)]
        else:
            bad = [NFunctionResult(kind, res.value - 1, res.infinite, w),
                   NFunctionResult(kind, res.value + 1, res.infinite, w),
                   NFunctionResult(kind, None, True, w)]
        # sends s to s <= -1
        bad.append(NFunctionResult(kind, res.value, res.infinite, MobiusMap(1, 0, 0, 1)))
        for b in bad:
            with pytest.raises(InternalError, match="internal"):
                _check_witness(b, sn, sd, r2p.num, r2p.den)


def _reference_witness_bound(w, s, r2p):
    """(infinite, value) that the witness w certifies, on ExtRational
    arithmetic; an internal error when w misses the ranges."""
    ws = mobius_apply(w, s)
    if ws.is_infinite or not MINUS_ONE < ws <= ZERO:
        raise InternalError(f"internal: witness {w} sends the hinge {s} to {ws}, outside (-1, 0]")
    w2 = mobius_apply(w, r2p)
    if not slope_less(w2, MINUS_ONE):
        raise InternalError(f"internal: witness {w} sends {r2p} to {w2}, outside [-inf, -1)")
    a0 = ExtRational(w.c, w.a)
    if a0.is_infinite or a0 >= ZERO:
        t = ZERO
    elif a0 >= MINUS_ONE:
        t = ws.reciprocal()
    else:
        t = w2
    big, small = max(abs(w.a), abs(w.c)), min(abs(w.a), abs(w.c))
    if t.is_infinite:
        infinite = small >= 1
        return infinite, None if infinite else -big
    return False, -small * (floor_frac(t)[0] + 1) - big


def _reference_check_witness(res, s, r2p):
    """The ExtRational certificate check that the int one replaced, kept as its oracle."""
    infinite, value = _reference_witness_bound(res.witness, s, r2p)
    if (res.infinite, res.value) != (infinite, value):
        raise InternalError(
            f"internal: witness {res.witness} certifies value={value} infinite={infinite}, "
            f"the search reported value={res.value} infinite={res.infinite}"
        )


def _check_outcome(check, *args):
    try:
        check(*args)
    except InternalError as e:
        return str(e)
    return "pass"


small_slope = st.one_of(
    st.just(INF),
    st.tuples(st.integers(-60, 60), st.integers(1, 20)).map(lambda t: rat(*t)),
)


@st.composite
def witness_cases(draw):
    """A det-1 map A with entries at most 20, a hinge s and r2p, and a result.

    s and r2p are drawn at random or as preimages under A of points of
    (-1, 0] and [-inf, -1), so that both the range tests and the value
    comparison are reached.  The reported result is the value the oracle
    certifies, or that value perturbed.
    """
    a, b = draw(st.integers(0, 20)), draw(st.integers(-20, 20))
    g = gcd(a, b)
    a, b = (a // g, b // g) if g else (0, 1)
    _, x, y = _bezout(a, b)
    # ad - bc = ax + by = 1 for every shift k; at least two of these
    # seven keep c and d within 20
    base = y // a if a else 0
    rows = [(k * a - y, k * b + x) for k in range(base - 3, base + 4)]
    c, d = draw(st.sampled_from([(c, d) for c, d in rows if max(abs(c), abs(d)) <= 20]))
    w, inverse = MobiusMap(a, b, c, d), MobiusMap(d, -b, -c, a)
    if draw(st.booleans()):
        ud = draw(st.integers(1, 20))
        s = mobius_apply(inverse, rat(draw(st.integers(-ud + 1, 0)), ud))
    else:
        s = draw(small_slope)
    if draw(st.booleans()):
        vd = draw(st.integers(0, 20))
        v = INF if vd == 0 else rat(draw(st.integers(-3 * vd - 3, -vd - 1)), vd)
        r2p = mobius_apply(inverse, v)
    else:
        r2p = draw(small_slope)
    try:
        infinite, value = _reference_witness_bound(w, s, r2p)
    except InternalError:
        infinite, value = False, None
    shift = draw(st.sampled_from(["none", "none", "up", "down", "flip"]))
    if shift == "flip":
        infinite = not infinite
        value = None if infinite else draw(st.integers(-50, 0))
    elif shift != "none":
        step = draw(st.integers(1, 3))
        value = -3 if value is None else value + (step if shift == "up" else -step)
        infinite = False
    return NFunctionResult(kind="bound", value=value, infinite=infinite, witness=w), s, r2p


@given(witness_cases())
# the tall pair's result, at its hinge -2001
@example((NFunctionResult("bound", 3, False, MobiusMap(2, 1, -3, -1)), rat(-2001), rat(-3001, 2000)))
@settings(max_examples=600, deadline=None)
def test_int_check_witness_matches_the_reference(case):
    res, s, r2p = case
    want = _check_outcome(_reference_check_witness, res, s, r2p)
    assert _check_outcome(_check_witness, res, s.num, s.den, r2p.num, r2p.den) == want


def test_certificate_checks_survive_optimize_flag():
    code = (
        "from steinkit.families import NFunctionResult, _check_witness, _hinge, n_function\n"
        "from steinkit.numerics import InternalError, rat\n"
        "res = n_function(rat(-2), rat(-7, 2), 30)\n"
        "bad = NFunctionResult(res.kind, res.value - 1, res.infinite, res.witness)\n"
        "try:\n"
        "    _check_witness(bad, *_hinge(-2, 1), -7, 2)\n"
        "except InternalError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(families.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("internal: witness")


def test_brieskorn_checks_its_solution(monkeypatch):
    # a wrong inverse leaves no integer q3: internal error, not a silent answer
    monkeypatch.setattr(families, "pow", lambda *args: 0, raising=False)
    with pytest.raises(InternalError, match="internal"):
        brieskorn(2, 3, 5, -1)


# ---------------------------------------------------------------------------
# the Seifert decider


def test_decide_positive_genus_base():
    d = decide_seifert(SeifertData(orientable=True, genus=1, coefficients=[rat(-2)]))
    assert (d.verdict, d.reason) == ("YES", "a")


def test_decide_nonorientable_base():
    d = decide_seifert(SeifertData(orientable=False, genus=1, coefficients=[rat(-2)]))
    assert (d.verdict, d.reason) == ("YES", "a")


def test_decide_integer_part_off_minus_one():
    d = decide_seifert(sphere((2,), (3,), (5,)))
    assert (d.verdict, d.reason) == ("YES", "b")


def test_decide_two_coefficients():
    s = sphere((2,), (-2,))
    assert seifert_normalize(s).e0 == -1
    assert (decide_seifert(s).verdict, decide_seifert(s).reason) == ("YES", "c")


def test_decide_all_below_minus_two():
    s = sphere((3, 2), (-3,), (-4,))
    norm = seifert_normalize(s)
    assert norm.e0 == -1
    assert all(r < rat(-2) for r in norm.rprime)
    d = decide_seifert(s)
    assert (d.verdict, d.reason) == ("YES", "c")


def test_decide_closed_form_level():
    s = sphere((2,), (-4,), (-4,))
    norm = seifert_normalize(s)
    assert norm.e0 == -1 and norm.rprime == (rat(-2), rat(-4), rat(-4))
    d = decide_seifert(s)
    assert (d.verdict, d.reason) == ("YES", "c")
    assert "level" in d.detail


def test_decide_pair_search():
    d = decide_seifert(brieskorn(2, 3, 7, 1))
    assert (d.verdict, d.reason) == ("YES", "c")
    assert d.pair is not None and d.n_result is not None
    assert d.n_result.witness is not None


def test_decide_small_poincare_positive_euler():
    sd = brieskorn(2, 3, 5, -1)
    assert seifert_normalize(sd).e > rat(0)
    assert decide_seifert(sd).verdict == "UNKNOWN"


def test_decide_checks_the_search_bound_before_any_rule():
    cases = [
        SeifertData(orientable=False, genus=1, coefficients=[rat(2)]),  # rule a
        sphere((2,), (3,), (5,)),  # rule b
        sphere((2,)),  # rule c, one coefficient
        brieskorn(2, 3, 5, -1),  # the pair search
    ]
    for sd in cases:
        decide_seifert(sd, 1)
        for bound in (0, -7):
            with pytest.raises(FamilyError, match=f"search bound must be positive, got {bound}"):
                decide_seifert(sd, bound)


@pytest.mark.parametrize("bound", [2.5, 7.5, 100.0, "100", None, Fraction(7)])
def test_a_non_int_search_bound_is_refused(bound):
    message = rf"^search_bound must be an int, got {re.escape(repr(bound))}$"
    with pytest.raises(FamilyError, match=message):
        n_function(rat(-2), rat(-7, 2), bound)
    for sd in (brieskorn(2, 3, 5, -1), sphere((2,))):
        with pytest.raises(FamilyError, match=message):
            decide_seifert(sd, bound)


def test_decide_small_poincare_usual_orientation():
    sd = brieskorn(2, 3, 5, 1)
    assert seifert_normalize(sd).e < rat(0)
    assert (decide_seifert(sd).verdict, decide_seifert(sd).reason) == ("YES", "b")


def _fiber_with_floor(draw, floor):
    # -1/(floor + b/a) with 0 < b < a, so floor(-1/r) = floor
    a = draw(st.integers(min_value=2, max_value=12))
    b = draw(st.integers(min_value=1, max_value=a - 1).filter(lambda b: gcd(a, b) == 1))
    return -(rat(floor) + rat(b, a)).reciprocal()


wide_fiber = st.one_of(
    st.just(INF),
    nonzero.map(lambda t: rat(*t)),
    st.tuples(
        st.integers(min_value=-60, max_value=60).filter(bool), st.integers(min_value=1, max_value=30)
    ).map(lambda t: rat(*t)),
)


@st.composite
def seifert_data(draw):
    """Orientable and non-orientable bases with 0-5 coefficients, inf among
    them; half of the draws have e0 = -1, so the later rules run."""
    orientable, genus = draw(
        st.sampled_from([(True, 0)] * 4 + [(True, 1), (True, 2), (False, 1), (False, 3)])
    )
    k = draw(st.integers(min_value=0, max_value=5))
    if k and draw(st.booleans()):
        n_inf = draw(st.integers(min_value=0, max_value=k - 1))
        floors = [draw(st.integers(min_value=-1, max_value=1)) for _ in range(k - n_inf - 1)]
        coeffs = [_fiber_with_floor(draw, f) for f in floors + [-1 - sum(floors)]]
        coeffs = draw(st.permutations(coeffs + [INF] * n_inf))
    else:
        coeffs = draw(st.lists(wide_fiber, min_size=k, max_size=k))
    return SeifertData(orientable=orientable, genus=genus, coefficients=coeffs)


@given(seifert_data(), st.integers(min_value=1, max_value=60))
@example(SeifertData(True, 0, [rat(2), rat(-4), rat(-4)]), 5)  # the level rule
@example(SeifertData(True, 0, [rat(3, 2), rat(-3), rat(-4)]), 5)  # all below -2
@example(SeifertData(False, 2, [INF, rat(-2)]), 1)
@settings(max_examples=200, deadline=None)
def test_seifert_kernels_match_the_reference(sd, bound):
    assert seifert_normalize(sd) == _reference_seifert_normalize(sd)
    assert decide_seifert(sd, bound) == _reference_decide_seifert(sd, bound)


@pytest.mark.parametrize("bound", [50, 100])
def test_open_case_decision_matches_the_reference(bound):
    sd = brieskorn(2, 3, 5, -1)
    assert decide_seifert(sd, bound) == _reference_decide_seifert(sd, bound)


@given(
    st.one_of(st.none(), st.integers(min_value=-40, max_value=5)),
    st.sampled_from(["bound", "infinite", "sentinel"]),
    any_slope,
)
@settings(max_examples=200)
def test_exceeds_matches_the_reference(value, kind, r):
    if kind == "sentinel":
        res = NFunctionResult(kind="sentinel")
    else:
        res = NFunctionResult(kind="bound", value=value, infinite=kind == "infinite")
    assert res.exceeds(r) == _reference_exceeds(res, r)


def test_rules_settled_in_closed_form_build_only_the_normal_form(monkeypatch):
    # rules a, b and c before the pair search build no ExtRational: they
    # read e0 and the r'_i as int pairs from the normalization's int pass
    rng = random.Random(7)
    cases = []
    for n in range(600):
        base = rng.choice([(True, 0)] * 5 + [(True, 1), (False, 1)])
        k = rng.randint(0, 5)
        coeffs = [rat(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 9))
                  if rng.random() < 0.9 else INF for _ in range(k)]
        if n % 2 and k:
            # floors of -1/r summing to -1, so rule c is reached
            floors = [rng.randint(-1, 1) for _ in range(k - 1)]
            coeffs = [-(rat(f) + rat(1, rng.randint(2, 9))).reciprocal()
                      for f in floors + [-1 - sum(floors)]]
        sd = SeifertData(*base, coeffs)
        d = decide_seifert(sd, 5)
        if d.verdict == "YES" and d.pair is None:
            cases.append(sd)
    counts = Counter()
    real = ExtRational.__post_init__

    def counting(obj):
        counts["ExtRational"] += 1
        real(obj)

    monkeypatch.setattr(ExtRational, "__post_init__", counting)
    details = Counter()
    for sd in cases:
        counts.clear()
        d = decide_seifert(sd, 5)
        assert d.verdict == "YES" and d.pair is None
        assert counts["ExtRational"] == 0
        details[d.detail.split()[0] if d.reason == "c" else d.reason] += 1
    # rule a, rule b, and each closed form of rule c
    assert set(details) == {"a", "b", "only", "all", "coefficient"}


def test_decide_seifert_builds_no_extrational_and_one_map_per_searched_pair(monkeypatch):
    # one case for each path: rules a and b, the three closed forms, the
    # sentinel, a pair's finite and infinite bounds and UNKNOWN; then
    # random sphere-base data with e0 = -1, inf among the r'_i, so the
    # pair search runs often
    cases = [SeifertData(True, 1, [rat(-2)]), sphere((2,), (3,), (5,)), sphere((2,), (-2,)),
             sphere((3, 2), (-3,), (-4,)), sphere((2,), (-4,), (-4,)),
             sphere((-2,), (-2,), (5, 3)), brieskorn(2, 3, 7, 1), brieskorn(2, 3, 5, -1),
             sphere((-2,), (3, 2), (-3, 2))]
    rng = random.Random(36)
    for _ in range(300):
        k = rng.randint(3, 5)
        floors = [rng.randint(-1, 1) for _ in range(k - 1)]
        dens = [rng.randint(2, 9) for _ in range(k)]
        coeffs = [-(rat(f) + rat(rng.randint(1, a - 1), a)).reciprocal()
                  for f, a in zip(floors + [-1 - sum(floors)], dens)]
        cases.append(SeifertData(True, 0, coeffs + [INF] * (rng.random() < 0.2)))
    counts = Counter()
    for cls in (ExtRational, MobiusMap):
        real = cls.__post_init__

        def counting(obj, real=real, name=cls.__name__):
            counts[name] += 1
            real(obj)

        monkeypatch.setattr(cls, "__post_init__", counting)
    real_core = families._n_core

    def counting_core(*args):
        res = real_core(*args)
        counts["pairs"] += 1
        counts["witnesses"] += res.witness is not None
        return res

    monkeypatch.setattr(families, "_n_core", counting_core)
    paths = Counter()
    for n, sd in enumerate(cases):
        for bound in (3, 50):
            counts.clear()
            d = decide_seifert(sd, bound)
            assert counts["ExtRational"] == 0
            # the witness of each searched pair, none for a sentinel or an empty search
            assert counts["MobiusMap"] == counts["witnesses"] <= counts["pairs"]
            if n == 7:  # the open case: every one of its six pairs has a witness
                assert counts["MobiusMap"] == counts["pairs"] == 6
            kind = d.n_result and ("inf" if d.n_result.infinite else d.n_result.kind)
            paths[d.reason, d.detail.split()[0], kind] += 1
    assert set(paths) == {
        ("a", "base", None), ("b", "e0", None), ("c", "only", None), ("c", "all", None),
        ("c", "coefficient", None), ("c", "pair", "sentinel"), ("c", "pair", "bound"),
        ("c", "pair", "inf"), (None, "no", None),
    }


# ---------------------------------------------------------------------------
# Brieskorn data


def test_brieskorn_orientation_sign():
    for ori in (1, -1):
        sd = brieskorn(2, 3, 5, ori)
        assert orientation_constant(sd) == ori
        for r, p in zip(sd.coefficients, (2, 3, 5)):
            assert abs(r.num) == p


def test_brieskorn_canonical_denominators():
    calls = 0
    for ps in product(range(2, 20), repeat=3):
        if any(gcd(ps[u], ps[v]) != 1 for u, v in ((0, 1), (0, 2), (1, 2))):
            continue
        for orientation in (1, -1):
            sd = brieskorn(*ps, orientation)
            calls += 1
            assert [abs(r.num) for r in sd.coefficients] == list(ps)
            assert orientation_constant(sd) == orientation
            for r, p in zip(sd.coefficients[:2], ps):
                q = r.den if r.num > 0 else -r.den
                assert -p < q < 0
    assert calls == 3324


def test_brieskorn_rejects_bad_input():
    with pytest.raises(FamilyError, match="coprime"):
        brieskorn(2, 4, 5)
    with pytest.raises(FamilyError, match="at least 2"):
        brieskorn(1, 2, 3)
    with pytest.raises(FamilyError, match="orientation"):
        brieskorn(2, 3, 5, 0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2.0, 3, 5), "multiplicity p1 must be an int, got 2.0"),
        ((2, "3", 5), "multiplicity p2 must be an int, got '3'"),
        ((2, 3, Fraction(5)), "multiplicity p3 must be an int, got Fraction(5, 1)"),
        ((2, 3, 5, 1.0), "orientation must be +1 or -1, got 1.0"),
        ((2, 3, 5, None), "orientation must be +1 or -1, got None"),
    ],
)
def test_brieskorn_refuses_non_int_arguments(args, message):
    with pytest.raises(FamilyError, match=f"^{re.escape(message)}$"):
        brieskorn(*args)


def test_brieskorn_integer_part_relation():
    for p1, p2, p3 in [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 5, 9), (3, 5, 7)]:
        a = seifert_normalize(brieskorn(p1, p2, p3, 1))
        b = seifert_normalize(brieskorn(p1, p2, p3, -1))
        assert a.e0 + b.e0 == -3
        assert a.k0 == b.k0 == 3


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.sampled_from([1, -1]),
)
@settings(max_examples=60, deadline=None)
def test_brieskorn_homology_sphere(p1, p2, p3, ori):
    if gcd(p1, p2) != 1 or gcd(p1, p3) != 1 or gcd(p2, p3) != 1:
        with pytest.raises(FamilyError):
            brieskorn(p1, p2, p3, ori)
        return
    sd = brieskorn(p1, p2, p3, ori)
    assert orientation_constant(sd) == ori
    assert h1(seifert_chain_presentation(sd)) == AbelianGroup(())


def test_table_row_two_seven():
    # multiplicities (2, 7, 14m +/- 3) with denominators (1, -5m -/+ 1, -1)
    for m in (1, 2, 3):
        for sign in (1, -1):
            p2, q2 = 14 * m + 3 * sign, -5 * m - sign
            sd = SeifertData(
                orientable=True,
                genus=0,
                coefficients=[rat(2, 1), rat(p2, q2), rat(7, -1)],
            )
            assert abs(orientation_constant(sd)) == 1
            assert seifert_normalize(sd).e0 == -1
            assert decide_seifert(sd).verdict == "YES"


# ---------------------------------------------------------------------------
# Borromean surgeries


def bc(a, b, c):
    def conv(x):
        return x if hasattr(x, "is_infinite") else rat(x)

    return BorromeanCoeffs(conv(a), conv(b), conv(c))


def test_membership_fixtures():
    assert borromean_membership(bc(1, 1, 1)) == (True, False, False)
    assert borromean_membership(bc(-2, -2, -2)) == (False, False, True)
    assert borromean_membership(bc(5, 1, 1)) == (False, False, False)
    assert borromean_membership(bc(1, rat(-1, 4), -8)) == (False, True, False)


def test_membership_rejects_infinity():
    with pytest.raises(FamilyError, match="finite"):
        borromean_membership(bc(INF, 1, 1))


def test_decide_borromean_fixtures():
    assert decide_borromean(bc(0, 0, 0)).verdict == "YES"
    assert decide_borromean(bc(INF, -2, -2)).verdict == "YES"
    assert decide_borromean(bc(-1, -2, -2)).verdict == "UNKNOWN"
    assert decide_borromean(bc(-1, -1, -1)).verdict == "YES"
    d = decide_borromean(bc(1, 1, 1))
    assert d.verdict == "UNKNOWN" and d.in_a0


def test_integer_census_small_window():
    # on [-5, 5]^3 the undecided integer points are the three known families
    expect = set(product((1, 2, 3), repeat=3))
    for a, b in product((-2, -3, -4), repeat=2):
        expect |= {
            (-1, a, b), (-1, b, a), (a, -1, b), (b, -1, a), (a, b, -1), (b, a, -1)
        }
    expect.add((-2, -2, -2))
    got = set()
    for t in product(range(-5, 6), repeat=3):
        if decide_borromean(bc(*t)).verdict == "UNKNOWN":
            got.add(t)
    assert got == expect


finite_coeff = st.one_of(
    st.integers(min_value=-8, max_value=8).map(rat),
    st.tuples(
        st.integers(min_value=-24, max_value=24), st.integers(min_value=1, max_value=5)
    ).map(lambda t: rat(t[0], t[1])),
)
maybe_inf = st.one_of(st.just(INF), finite_coeff)


@given(maybe_inf, maybe_inf, maybe_inf, st.permutations([0, 1, 2]))
@settings(max_examples=150)
def test_decide_borromean_permutation_invariant(r1, r2, r3, perm):
    rs = (r1, r2, r3)
    a = decide_borromean(BorromeanCoeffs(*rs))
    b = decide_borromean(BorromeanCoeffs(*(rs[p] for p in perm)))
    assert (a.verdict, a.in_a0, a.in_a2, a.in_a3) == (b.verdict, b.in_a0, b.in_a2, b.in_a3)


# the region boundaries and the floor breaks of -1/r, at r = -1/n
_EDGES = [rat(-1, 3), rat(-1), rat(1), rat(4), rat(-6), ZERO] + [rat(-1, n) for n in range(2, 7)]
_NEAR_EDGES = sorted({e + rat(t, 6) for e in _EDGES for t in (-1, 0, 1)}, key=lambda r: (r.num, r.den))


def test_membership_matches_the_reference_near_every_edge():
    for t in product(_NEAR_EDGES, repeat=3):
        c = BorromeanCoeffs(*t)
        assert borromean_membership(c) == _reference_borromean_membership(c), t


near_edge = st.tuples(
    st.sampled_from(_EDGES), st.integers(min_value=-1, max_value=1), st.integers(min_value=1, max_value=12)
).map(lambda t: t[0] + rat(t[1], t[2]))
any_coeff = st.one_of(near_edge, maybe_inf)


def _reference_decide_borromean(c: BorromeanCoeffs) -> BorromeanDecision:
    if any(r.is_infinite for r in c.as_tuple()):
        return BorromeanDecision(verdict="YES", detail="infinite coefficient")
    in_a0, in_a2, in_a3 = _reference_borromean_membership(c)
    if in_a0 or in_a2 or in_a3:
        return BorromeanDecision(
            verdict="UNKNOWN", in_a0=in_a0, in_a2=in_a2, in_a3=in_a3,
            detail="coefficients lie in an exceptional region",
        )
    return BorromeanDecision(verdict="YES", detail="outside all exceptional regions")


@given(any_coeff, any_coeff, any_coeff)
@example(INF, rat(1), rat(1))
@settings(max_examples=300)
def test_borromean_decision_matches_the_reference(r1, r2, r3):
    c = BorromeanCoeffs(r1, r2, r3)
    assert _outcome(borromean_membership, c) == _outcome(_reference_borromean_membership, c)
    assert decide_borromean(c) == _reference_decide_borromean(c)


def test_a_yes_decision_builds_no_decision_object(monkeypatch):
    # the two YES answers are shared frozen values; only UNKNOWN builds one
    triples = [BorromeanCoeffs(*t) for t in product(_NEAR_EDGES[::3] + [INF], repeat=3)]
    built = Counter()

    def counting(*args, **kwargs):
        built["decision"] += 1
        return BorromeanDecision(*args, **kwargs)

    monkeypatch.setattr(families, "BorromeanDecision", counting)
    verdicts = Counter()
    for c in triples:
        dec = decide_borromean(c)
        assert dec == _reference_decide_borromean(c)
        verdicts[dec.verdict] += 1
    assert verdicts["YES"] and verdicts["UNKNOWN"]
    assert built["decision"] == verdicts["UNKNOWN"]


def test_decide_borromean_builds_no_extrational(monkeypatch):
    triples = [BorromeanCoeffs(*t) for t in product(_NEAR_EDGES[::3] + [INF], repeat=3)]
    want = [decide_borromean(c) for c in triples]
    assert {d.verdict for d in want} == {"YES", "UNKNOWN"}
    built = Counter()
    real = ExtRational.__post_init__

    def counting(obj):
        built["ExtRational"] += 1
        real(obj)

    monkeypatch.setattr(ExtRational, "__post_init__", counting)
    assert [decide_borromean(c) for c in triples] == want
    assert built["ExtRational"] == 0



@given(
    st.tuples(st.integers(min_value=4, max_value=15), st.integers(min_value=1, max_value=4)),
    st.tuples(st.integers(min_value=4, max_value=15), st.integers(min_value=1, max_value=4)),
    st.tuples(st.integers(min_value=4, max_value=15), st.integers(min_value=1, max_value=4)),
)
@settings(max_examples=60)
def test_region_zero_points_have_no_negative_coordinates(a, b, c):
    rs = [rat(p, q) for p, q in (a, b, c)]
    if not all(rat(1) <= r < rat(4) for r in rs):
        return
    assert borromean_membership(BorromeanCoeffs(*rs)) == (True, False, False)
    assert sum(1 for r in rs if r < rat(0)) == 0


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60)
def test_region_two_points_have_two_negative_coordinates(num, k, bump):
    # second slot -1/k lies in [-1/3, 0); third slot starts at -2k - 1
    rs = [rat(num, 2), rat(-1, k), rat(-(2 * k + 1) * 4 + bump, 4)]
    inside = rs[2] < rat(-6)
    got = borromean_membership(BorromeanCoeffs(*rs))
    assert got[1] == inside
    if inside:
        assert sum(1 for r in rs if r < rat(0)) == 2


@given(
    st.integers(min_value=-8, max_value=-5),
    st.integers(min_value=-8, max_value=-5),
    st.integers(min_value=-8, max_value=-5),
)
@settings(max_examples=60)
def test_region_three_points_have_three_negative_coordinates(a, b, c):
    # the cube [-2, -1)^3 sits inside the mutual bounds and survives the
    # deletion clause (no coordinate reaches [-1, 0))
    rs = [rat(v, 4) for v in (a, b, c)]
    assert borromean_membership(BorromeanCoeffs(*rs))[2]
    assert sum(1 for r in rs if r < rat(0)) == 3


@given(finite_coeff, finite_coeff, finite_coeff)
@settings(max_examples=200)
def test_membership_fixes_negative_coordinate_count(r1, r2, r3):
    rs = (r1, r2, r3)
    in_a0, in_a2, in_a3 = borromean_membership(BorromeanCoeffs(*rs))
    negatives = sum(1 for r in rs if r < rat(0))
    if in_a0:
        assert negatives == 0
    if in_a2:
        assert negatives == 2
    if in_a3:
        assert negatives == 3


def test_borromean_homology():
    pres = borromean_presentation(bc((5), rat(12, 7), rat(-9, 2)))
    assert h1(pres) == cokernel([[5, 0, 0], [0, 12, 0], [0, 0, 9]])


def test_borromean_homology_sphere_iff_integer_reciprocals():
    assert h1(borromean_presentation(bc(1, rat(1, 3), rat(-1, 2)))) == AbelianGroup(())
    assert h1(borromean_presentation(bc(2, 1, 1))) != AbelianGroup(())


# ---------------------------------------------------------------------------
# derived surgeries


def test_twist_knot_exceptions():
    coeffs, d = twist_knot_surgery(-1, -1, rat(2))
    assert coeffs.as_tuple() == (rat(1), rat(1), rat(2))
    assert d.verdict == "UNKNOWN" and d.in_a0

    _, d = twist_knot_surgery(1, 1, rat(-10))
    assert d.verdict == "YES"

    _, d = twist_knot_surgery(0, 3, rat(5))
    assert d.verdict == "YES"


def test_twist_knot_integer_scan():
    # positive clasps: undecided exactly on -2(l + m + 1) <= r < -6
    for l in (1, 2, 3):
        for m in (1, 2, 3):
            for r in range(-30, 9):
                _, d = twist_knot_surgery(l, m, rat(r))
                expect = -2 * (l + m + 1) <= r < -6
                assert (d.verdict == "UNKNOWN") == expect, (l, m, r)


def test_twist_knot_mixed_sign_scan():
    # one negative clasp: undecided exactly on -2m - 1 <= r < -6 once m >= 3
    for l in (-1, -2, -3):
        for m in (2, 3, 4):
            for r in range(-30, 9):
                _, d = twist_knot_surgery(l, m, rat(r))
                expect = m >= 3 and -2 * m - 1 <= r < -6
                assert (d.verdict == "UNKNOWN") == expect, (l, m, r)


def test_twist_knot_small_parameters_always_realizable():
    # l, m, l + m <= 2 and not both -1: every integer surgery works
    small = [(1, 1), (2, -1), (-1, 2), (-2, 1), (1, -2), (-3, -1), (-1, -3), (-2, -2)]
    for l, m in small:
        for r in range(-30, 9):
            _, d = twist_knot_surgery(l, m, rat(r))
            assert d.verdict == "YES", (l, m, r)


def test_two_component_exceptions():
    _, d = two_component_surgery(-1, rat(2), rat(3))
    assert d.verdict == "UNKNOWN" and d.in_a0

    _, d = two_component_surgery(3, rat(1), rat(-7))
    assert d.verdict == "UNKNOWN" and d.in_a2

    _, d = two_component_surgery(3, rat(1), rat(-9))
    assert d.verdict == "YES"

    # outside the mutual bound: -8 < -2(floor(1/2) + 1 + 1) = -4
    _, d = two_component_surgery(1, rat(-8), rat(-2))
    assert d.verdict == "YES"


def test_two_component_integer_scan():
    # m = 1: undecided integer pairs need both negative, one below -6 or
    # both below -1, within the mutual bounds r_i >= -2(floor(-1/r_j) + m + 1)
    m = 1
    for r1 in range(-12, 7):
        for r2 in range(-12, 7):
            _, d = two_component_surgery(m, rat(r1), rat(r2))
            if r1 >= 0 or r2 >= 0:
                expect = False
            else:
                f1 = 1 if r1 == -1 else 0
                f2 = 1 if r2 == -1 else 0
                inside = r1 >= -2 * (f2 + m + 1) and r2 >= -2 * (f1 + m + 1)
                survives = (r1 < -6 or r2 < -6) or (r1 < -1 and r2 < -1)
                expect = inside and survives
            assert (d.verdict == "UNKNOWN") == expect, (r1, r2)


def test_two_component_negative_clasp_all_integers_realizable():
    for m in (-2, -3):
        for r1 in range(-12, 7):
            for r2 in range(-12, 7):
                _, d = two_component_surgery(m, rat(r1), rat(r2))
                assert d.verdict == "YES", (m, r1, r2)
