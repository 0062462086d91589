import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit import invariants, numerics
from steinkit.front import (
    STEIN,
    Event,
    FrontDiagram,
    n_components,
    stabilize,
    surger_handles,
)
from steinkit.invariants import (
    CokernelClass,
    InvariantError,
    SpinStructure,
    SteinPresentation,
    _cokernel_class,
    characteristic_sublink_count,
    characteristic_sublinks,
    chern_cocycle,
    gamma,
    theta,
    theta_f0_and_d,
)
from steinkit.numerics import InternalError, mat_vec, rat, signature, smith_normal_form
from steinkit.presentation import PresentationError, SurgeryPresentation, linking_form

from random_fronts import random_front


def random_stein(rng, max_m=4, max_n1=2, bound=3, parity=False):
    m = rng.randint(0, max_m)
    n1 = rng.randint(0, max_n1)
    q = [[0] * m for _ in range(m)]
    for i in range(m):
        q[i][i] = rng.randint(-bound, bound)
        for j in range(i):
            q[i][j] = q[j][i] = rng.randint(-bound, bound)
    runs = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n1)]
    rot = []
    for i in range(m):
        r = rng.randint(-bound, bound)
        if parity:
            # rotation number parity locked to framing plus run count
            want = (q[i][i] + sum(runs[h][i] for h in range(n1))) % 2
            if r % 2 != want:
                r += 1
        rot.append(r)
    return SteinPresentation(q=q, runs=runs, rot=rot)


def restricted_signature_reference(x):
    """The handlebody signature the long way: the Gram matrix of q on a
    rational basis of the kernel of runs, the basis taken from sympy so
    that it shares no elimination code with steinkit."""
    import sympy

    flat = [v for row in x.runs for v in row]
    basis = sympy.Matrix(x.n1, x.m, flat).nullspace()
    q = sympy.Matrix(x.m, x.m, [v for row in x.q for v in row])
    form = [[(bi.T * q * bj)[0, 0] for bj in basis] for bi in basis]
    return signature([[Fraction(int(v.p), int(v.q)) for v in row] for row in form])


def sublink_count_by_snf(x):
    qs = x.q_star()
    if not qs:
        return 1
    diag = smith_normal_form(qs).diagonal
    b1 = sum(1 for d in diag if d == 0)
    even = sum(1 for d in diag if d != 0 and d % 2 == 0)
    return 2 ** (b1 + even)


# ---------------------------------------------------------------------------
# construction


def test_validation_errors():
    with pytest.raises(InvariantError, match="symmetric"):
        SteinPresentation(q=[[0, 1], [2, 0]], runs=[], rot=[0, 0])
    with pytest.raises(InvariantError, match="rotation numbers"):
        SteinPresentation(q=[[1]], runs=[], rot=[])
    with pytest.raises(InvariantError, match="run row"):
        SteinPresentation(q=[[1]], runs=[[1, 2]], rot=[0])
    with pytest.raises(InvariantError, match=r"^framing matrix row 2 has length 1, want 2$"):
        SteinPresentation(q=[[1, 0], [0]], runs=[], rot=[0, 0])


def test_entries_must_be_ints():
    cases = [
        (dict(q=[[2.5]], runs=[], rot=[0]), r"^q entry \(1, 1\) must be an int, got 2\.5$"),
        (dict(q=[[1, 0], [0, "2"]], runs=[], rot=[0, 0]), r"^q entry \(2, 2\) must be an int, got '2'$"),
        (dict(q=[[1]], runs=[[0], [1.0]], rot=[0]), r"^runs entry \(2, 1\) must be an int, got 1\.0$"),
        (dict(q=[[1, 0], [0, 1]], runs=[], rot=[0, 0.5]), r"^rot entry 2 must be an int, got 0\.5$"),
        (dict(q=[[1]], runs=[], rot=[Fraction(1)]), r"^rot entry 1 must be an int, got Fraction\(1, 1\)$"),
    ]
    for kwargs, message in cases:
        with pytest.raises(InvariantError, match=message):
            SteinPresentation(**kwargs)
    # a bool is stored as the int it equals, and gives the same answers
    x = SteinPresentation(q=[[True, False], [False, -2]], runs=[[True, True]], rot=[False, True])
    y = SteinPresentation(q=[[1, 0], [0, -2]], runs=[[1, 1]], rot=[0, 1])
    assert x == y and {type(v) for v in (*x.q[0], *x.runs[0], *x.rot)} == {int}
    assert theta(x) == theta(y)
    assert [gamma(x, s) for s in characteristic_sublinks(x)] == [
        gamma(y, s) for s in characteristic_sublinks(y)
    ]


def test_from_presentation_reads_surgered_front():
    p = SurgeryPresentation(
        coeffs=[rat(-3), rat(0)],
        lk=[[0, 1], [1, 0]],
        unknot=[False, True],
        l0=[False, True],
        rot=[0, 0],
    )
    x = SteinPresentation.from_presentation(p)
    assert x.q == ((-3,),) and x.runs == ((1,),) and x.rot == (0,)
    assert x.q_star() == [[-3, 1], [1, 0]]


def test_stein_presentations_are_frozen():
    x = SteinPresentation(q=[[2, 1], [1, 0]], runs=[[1, 0]], rot=[0, 1])
    for name in ("q", "runs", "rot"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, getattr(x, name))
    for seq, value in ((x.q, (0, 0)), (x.q[0], 3), (x.rot, 2)):
        with pytest.raises(TypeError):
            seq[0] = value
    qs = x.q_star()
    qs[0][0] = 7  # a copy: the presentation keeps its own Q*
    assert x.q_star() == [[2, 1, 1], [1, 0, 0], [1, 0, 0]]


def test_from_presentation_errors():
    base = dict(unknot=[True, False], l0=[True, False], rot=[0, 0])
    p = SurgeryPresentation(coeffs=[rat(0), rat(2)], lk=[[0, 0], [0, 0]], **base)
    with pytest.raises(InvariantError, match="come after"):
        SteinPresentation.from_presentation(p)
    p2 = SurgeryPresentation(coeffs=[rat(1, 2)], lk=[[0]], rot=[0])
    with pytest.raises(InvariantError, match="expand first"):
        SteinPresentation.from_presentation(p2)
    p3 = SurgeryPresentation(coeffs=[rat(2)], lk=[[0]])
    with pytest.raises(InvariantError, match="no rotation number"):
        SteinPresentation.from_presentation(p3)
    p4 = SurgeryPresentation(
        coeffs=[rat(0), rat(0)],
        lk=[[0, 1], [1, 0]],
        unknot=[True, True],
        l0=[True, True],
    )
    with pytest.raises(InvariantError, match="may not link"):
        SteinPresentation.from_presentation(p4)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_q_star_is_the_relation_matrix(seed):
    rng = random.Random(seed)
    m, n1 = rng.randint(0, 4), rng.randint(0, 3)
    size = m + n1
    lk = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(min(i, m)):
            lk[i][j] = lk[j][i] = rng.randint(-3, 3)
    p = SurgeryPresentation(
        coeffs=[rat(rng.randint(-5, 5)) for _ in range(m)] + [rat(0)] * n1,
        lk=lk,
        unknot=[False] * m + [True] * n1,
        l0=[False] * m + [True] * n1,
        rot=[rng.randint(-3, 3) for _ in range(m)] + [None] * n1,
    )
    x = SteinPresentation.from_presentation(p)
    assert x.q_star() == p.relation_matrix()
    assert (x.m, x.n1) == (m, n1)


# ---------------------------------------------------------------------------
# characteristic sublinks


def test_sublinks_of_single_unknots():
    zero = SteinPresentation(q=[[0]], runs=[], rot=[0])
    assert [s.sublink for s in characteristic_sublinks(zero)] == [(0,), (1,)]
    one = SteinPresentation(q=[[1]], runs=[], rot=[0])
    assert [s.sublink for s in characteristic_sublinks(one)] == [(1,)]


def test_sublinks_of_even_exchange_matrix():
    # framing-0 circle running 2p times over one handle: everything is even
    x = SteinPresentation(q=[[0]], runs=[[4]], rot=[0])
    assert len(characteristic_sublinks(x)) == 4


def test_empty_presentation_has_one_spin_structure():
    x = SteinPresentation(q=[], runs=[], rot=[])
    assert [s.sublink for s in characteristic_sublinks(x)] == [()]
    assert gamma(x, SpinStructure(sublink=())) == CokernelClass(coords=(), orders=())


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_sublink_count_matches_invariant_factors(seed):
    rng = random.Random(seed)
    x = random_stein(rng, max_m=5, max_n1=3)
    assert len(characteristic_sublinks(x)) == characteristic_sublink_count(x) == sublink_count_by_snf(x)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_of_exchange_matrix_family():
    for p in (1, 2, 3):
        x = SteinPresentation(q=[[0]], runs=[[2 * p]], rot=[0])
        empty = SpinStructure(sublink=(0, 0))
        g = gamma(x, empty)
        assert g.representative == (p, 0)
        assert g.coords == (p, 0) and g.orders == (2 * p, 2 * p)
        # the two generators of the cokernel stay distinct
        swapped = _cokernel_class(x.smith_form, [0, p])
        assert g != swapped


def test_gamma_of_zero_framed_knot():
    for k in (1, 2, 3):
        x = SteinPresentation(q=[[0]], runs=[], rot=[2 * k])
        for s in characteristic_sublinks(x):
            assert gamma(x, s).representative == (k,)


def test_gamma_of_circle_bundle():
    # framing-e circle passing algebraically zero times over 2g handles
    for g_, e, r in ((1, -2, 0), (2, 3, 1), (3, -4, 2)):
        x = SteinPresentation(q=[[e]], runs=[[0]] * (2 * g_), rot=[r])
        s = SpinStructure(sublink=(1,) + (0,) * (2 * g_))
        assert gamma(x, s).representative[0] == (r + e) // 2


def test_characteristic_sublinks_checks_its_certificate(monkeypatch):
    monkeypatch.setattr(invariants, "solve_gf2_affine", lambda matrix, rhs: None)
    with pytest.raises(InternalError, match="internal: "):
        characteristic_sublinks(SteinPresentation(q=[[1]], runs=[], rot=[0]))
    with pytest.raises(InternalError, match="internal: "):
        characteristic_sublink_count(SteinPresentation(q=[[1]], runs=[], rot=[0]))


def test_gamma_rejects_bad_sublinks():
    x = SteinPresentation(q=[[1]], runs=[], rot=[0])
    with pytest.raises(InvariantError, match="not characteristic"):
        gamma(x, SpinStructure(sublink=(0,)))
    with pytest.raises(InvariantError, match="length"):
        gamma(x, SpinStructure(sublink=(1, 0)))


def test_gamma_rejects_parity_violation():
    # odd rotation number on an even 0-framed unknot
    x = SteinPresentation(q=[[0]], runs=[], rot=[1])
    with pytest.raises(InvariantError, match="half-integral"):
        gamma(x, SpinStructure(sublink=(0,)))


def cokernel_class_reference(q_star, vec):
    """(coords, orders) of vec from a fresh Smith form of q_star."""
    snf = smith_normal_form(q_star)
    coords = mat_vec(snf.left, vec)
    return tuple(c % d if d else c for c, d in zip(coords, snf.diagonal)), snf.diagonal


# Q* = [[2, 2, 2, 0], [2, -2, -2, 0], [2, -2, 0, 0], [0, 0, 0, 0]]: 16
# characteristic sublinks, 8 distinct classes, orders (2, 2, 4, 0)
GAMMA_LISTING = [
    ((), (0, 0, 3, 0)),
    ((4,), (0, 0, 3, 0)),
    ((3,), (1, 1, 3, 0)),
    ((3, 4), (1, 1, 3, 0)),
    ((2,), (1, 0, 1, 0)),
    ((2, 4), (1, 0, 1, 0)),
    ((2, 3), (0, 1, 1, 0)),
    ((2, 3, 4), (0, 1, 1, 0)),
    ((1,), (1, 0, 3, 0)),
    ((1, 4), (1, 0, 3, 0)),
    ((1, 3), (0, 1, 3, 0)),
    ((1, 3, 4), (0, 1, 3, 0)),
    ((1, 2), (0, 0, 1, 0)),
    ((1, 2, 4), (0, 0, 1, 0)),
    ((1, 2, 3), (1, 1, 1, 0)),
    ((1, 2, 3, 4), (1, 1, 1, 0)),
]


def test_gamma_listing_takes_one_smith_form(monkeypatch):
    x = SteinPresentation(q=[[2, 2], [2, -2]], runs=[[2, -2], [0, 0]], rot=[-2, 0])
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return smith_normal_form(matrix)

    monkeypatch.setattr(invariants, "smith_normal_form", counting)
    theta(x)  # needs no Smith form
    assert calls == []
    listing = [(s.members(), gamma(x, s)) for s in characteristic_sublinks(x)]
    theta_f0_and_d(x)
    assert len(calls) == 1
    assert [(members, g.coords) for members, g in listing] == GAMMA_LISTING
    for _, g in listing:
        assert (g.coords, g.orders) == cokernel_class_reference(x.q_star(), g.representative)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_gamma_matches_a_fresh_smith_form(seed):
    x = random_stein(random.Random(seed), parity=True)
    for s in characteristic_sublinks(x):
        g = gamma(x, s)
        assert (g.coords, g.orders) == cokernel_class_reference(x.q_star(), g.representative)


def gamma_reference(x, s):
    """Oracle: gamma by the per-sublink formula, which visits every entry
    of each row of Q* for the sublink and again for the 0-framed sublink."""
    qs = x.q_star()
    size = len(qs)
    if len(s.sublink) != size:
        raise InvariantError(f"spin structure has length {len(s.sublink)}, want {size}")
    lk_sub = [sum(qs[i][j] for j in range(size) if s.sublink[j]) for i in range(size)]
    if any((lk_sub[i] - qs[i][i]) % 2 for i in range(size)):
        raise InvariantError(f"sublink {s.members()} is not characteristic")
    rot_full = chern_cocycle(x)
    rho = []
    for i in range(size):
        lk_l0 = sum(qs[i][j] for j in range(x.m, size))
        twice = rot_full[i] + lk_l0 + lk_sub[i]
        if twice % 2:
            raise InvariantError(
                f"rotation parity violated on component {i + 1}: the class is half-integral"
            )
        rho.append(twice // 2)
    return _cokernel_class(smith_normal_form(qs), rho)


def outcome(f, *args):
    try:
        g = f(*args)
    except InvariantError as exc:
        return "error", str(exc)
    return g.coords, g.orders, g.representative


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=120, deadline=None)
def test_gamma_matches_the_per_sublink_formula(seed, parity):
    # every 0/1 vector, characteristic or not, with and without rotation parity
    x = random_stein(random.Random(seed), max_m=4, max_n1=2, parity=parity)
    size = x.m + x.n1
    for mask in range(1 << size):
        s = SpinStructure(sublink=tuple((mask >> i) & 1 for i in range(size)))
        assert outcome(gamma, x, s) == outcome(gamma_reference, x, s)


def test_gamma_reports_the_same_errors_as_the_per_sublink_formula():
    # component 2 is odd against the empty sublink; the rotation number 1 on
    # the even 0-framed unknot 1 makes its class half-integral
    x = SteinPresentation(q=[[0, 0], [0, 1]], runs=[], rot=[1, 1])
    for bits, message in (
        ((0, 0), "sublink () is not characteristic"),
        ((1, 0), "sublink (1,) is not characteristic"),
        ((0, 1), "rotation parity violated on component 1: the class is half-integral"),
        ((1, 1), "rotation parity violated on component 1: the class is half-integral"),
    ):
        s = SpinStructure(sublink=bits)
        assert outcome(gamma, x, s) == outcome(gamma_reference, x, s) == ("error", message)


def gamma_by_row_loops(x, s):
    """gamma as it was before its sums and parity tests ran at C speed,
    frozen as an oracle: one Python sum per row of Q*, one parity test
    per component."""
    qs = x._qs
    size = len(qs)
    if len(s.sublink) != size:
        raise InvariantError(f"spin structure has length {len(s.sublink)}, want {size}")
    members = [j for j, bit in enumerate(s.sublink) if bit]
    lk_sub = [sum(map(row.__getitem__, members)) for row in qs]
    if any((lk - row[i]) % 2 for i, (lk, row) in enumerate(zip(lk_sub, qs))):
        raise InvariantError(f"sublink {s.members()} is not characteristic")
    rho = []
    for i, (base, lk) in enumerate(zip(x._rot_l0, lk_sub)):
        twice = base + lk
        if twice % 2:
            raise InvariantError(
                f"rotation parity violated on component {i + 1}: the class is half-integral"
            )
        rho.append(twice // 2)
    return _cokernel_class(x.smith_form, rho)


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_gamma_matches_the_row_loops_it_replaced(seed, parity):
    # every characteristic sublink, then random 0/1 vectors and a wrong
    # length: classes, representatives and error messages all agree
    rng = random.Random(seed)
    x = random_stein(rng, max_m=7, max_n1=3, parity=parity)
    size = x.m + x.n1
    subs = characteristic_sublinks(x)
    subs += [SpinStructure(sublink=[rng.randint(0, 1) for _ in range(size)]) for _ in range(8)]
    subs.append(SpinStructure(sublink=[1] * (size + 1)))
    for s in subs:
        got = outcome(gamma, x, s)
        assert got == outcome(gamma_by_row_loops, x, s)
        assert got[0] == "error" or all(type(v) is tuple for v in got)


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_twice_gamma_is_the_chern_class(seed):
    rng = random.Random(seed)
    x = random_stein(rng, parity=True)
    snf = x.smith_form
    c = chern_cocycle(x)
    for s in characteristic_sublinks(x):
        g = gamma(x, s)
        doubled = _cokernel_class(snf, [2 * v for v in g.representative])
        assert doubled == _cokernel_class(snf, c)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_gamma_integral_for_surgered_fronts(seed):
    # rotation parity of valid fronts guarantees integrality
    rng = random.Random(seed)
    d = random_front(rng)
    d = FrontDiagram(
        d.slots, d.events, d.orientations, {c: STEIN for c in range(1, n_components(d) + 1)}
    )
    x = SteinPresentation.from_presentation(surger_handles(d))
    subs = characteristic_sublinks(x)
    assert len(subs) == sublink_count_by_snf(x)
    for s in subs:
        gamma(x, s)


# ---------------------------------------------------------------------------
# theta


def test_theta_fixtures():
    assert str(theta(SteinPresentation(q=[[0]], runs=[[0]], rot=[0]))) == "-2"
    assert str(theta(SteinPresentation(q=[], runs=[], rot=[]))) == "-2"
    for p in (1, 2, 3):
        assert str(theta(SteinPresentation(q=[[0]], runs=[[2 * p]], rot=[0]))) == "-2"


def test_theta_single_knot_closed_form():
    for n in range(-12, 13):
        if n == 0:
            continue
        for r in range(-6, 7):
            got = theta(SteinPresentation(q=[[n]], runs=[], rot=[r]))
            want = Fraction(r * r, n) - 4 - (3 if n > 0 else -3)
            assert Fraction(got.num, got.den) == want


def test_theta_circle_bundle_closed_form():
    for g_ in range(0, 4):
        for e in (-3, -1, 2, 5):
            for r in range(-4, 5):
                x = SteinPresentation(q=[[e]], runs=[[0]] * (2 * g_), rot=[r])
                want = Fraction(r * r, e) - 2 * (2 - 2 * g_) - (3 if e > 0 else -3)
                got = theta(x)
                assert Fraction(got.num, got.den) == want


def test_theta_undefined_for_infinite_order_class():
    x = SteinPresentation(q=[[0]], runs=[], rot=[1])
    with pytest.raises(InvariantError, match="infinite order"):
        theta(x)


def test_theta_collisions_between_opposite_framings_are_obstructed():
    # theta alone can agree across opposite framings, but only when the
    # rotation numbers and the framing are all divisible by 3, and then
    # k^2 = -1 (mod |n|) is unsolvable, so the linking form still tells
    # the two boundaries apart
    collisions = 0
    for n in range(1, 21):
        for r1 in range(-8, 9):
            t1 = theta(SteinPresentation(q=[[n]], runs=[], rot=[r1]))
            for r2 in range(-8, 9):
                t2 = theta(SteinPresentation(q=[[-n]], runs=[], rot=[r2]))
                if t1 != t2:
                    continue
                collisions += 1
                assert r1 % 3 == 0 and r2 % 3 == 0 and n % 3 == 0
                assert all((k * k + 1) % n for k in range(n))
    assert collisions > 0


def square_by_sympy(x):
    """c^T y for a rational preimage y of the Chern cocycle under Q*,
    solved by sympy; None when there is none."""
    import sympy

    qs = x.q_star()
    c = chern_cocycle(x)
    if not qs:
        return Fraction(0)
    try:
        sol, params = sympy.Matrix(qs).gauss_jordan_solve(sympy.Matrix(c))
    except ValueError:
        return None
    sol = sol.subs({p: 0 for p in params})
    return sum(Fraction(int(a.p), int(a.q)) * b for a, b in zip(sol, c))


def check_theta_against_reference(x):
    base = -2 * (1 - x.n1 + x.m) - 3 * restricted_signature_reference(x)
    d, res = theta_f0_and_d(x)
    assert res == (base % (2 * d) if d else base)
    square = square_by_sympy(x)
    if square is None:
        with pytest.raises(InvariantError, match="infinite order"):
            theta(x)
    else:
        got = theta(x)
        # theta is independent of which rational preimage the solver picked
        assert Fraction(got.num, got.den) == square + base


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_theta_agrees_with_independent_solver(seed):
    check_theta_against_reference(random_stein(random.Random(seed), max_m=4, max_n1=2))


def theta_f0_and_d_reference(x):
    """The Smith-form route that theta_f0_and_d replaced, kept as its
    oracle for Q* up to 64: d is the gcd of the free coordinates of c."""
    cls = _cokernel_class(smith_normal_form(x.q_star()), chern_cocycle(x))
    d = 0
    for v, order in zip(cls.coords, cls.orders):
        if order == 0:
            d = gcd(d, abs(v))
    base = -2 * (1 - x.n1 + x.m) - 3 * signature(x.q_star())
    return d, (base % (2 * d) if d else base)


def test_theta_divisibility_matches_the_smith_form_route():
    infinite = 0
    for seed in range(400):
        # entries in [-1, 1] half the time, where c often has infinite order
        x = random_stein(random.Random(seed), max_m=5, max_n1=3, bound=(1, 1, 2, 3)[seed % 4])
        got = theta_f0_and_d(x)
        assert got == theta_f0_and_d_reference(x)
        infinite += got[0] > 0
    assert infinite >= 20
    # at the old cap: a 0-framed knot with rot 2 beside 63 unknots framed -2,
    # and the same knot linked once into a 63-chain
    for lk in (0, 1):
        q = [[0] * 64 for _ in range(64)]
        for i in range(1, 64):
            q[i][i] = -2
            if lk and i < 63:
                q[i][i + 1] = q[i + 1][i] = 1
        q[0][1] = q[1][0] = lk
        for rot0 in (2, 6):
            x = SteinPresentation(q=q, runs=[], rot=[rot0] + [0] * 63)
            assert theta_f0_and_d(x) == theta_f0_and_d_reference(x)


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_signature_of_q_star_is_the_restricted_signature(seed, bound):
    # In(Q*) = In(q on ker runs) + (r, n1 - r, r) for runs of rank r
    x = random_stein(random.Random(seed), max_m=7, max_n1=4, bound=bound)
    assert signature(x.q_star()) == restricted_signature_reference(x)


def test_signature_of_q_star_covers_degenerate_runs():
    import sympy

    seen = {"rank-deficient": 0, "n1 > m": 0, "m = 0": 0, "n1 = 0": 0}
    for seed in range(300):
        rng = random.Random(seed)
        x = random_stein(rng, max_m=7, max_n1=4, bound=rng.randint(1, 3))
        assert signature(x.q_star()) == restricted_signature_reference(x)
        rank = sympy.Matrix(x.n1, x.m, [v for row in x.runs for v in row]).rank()
        seen["rank-deficient"] += rank < min(x.n1, x.m)
        seen["n1 > m"] += x.n1 > x.m
        seen["m = 0"] += x.m == 0
        seen["n1 = 0"] += x.n1 == 0
    assert all(seen.values()), seen


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_theta_of_surgered_fronts_matches_the_reference(seed):
    rng = random.Random(seed)
    d = random_front(rng)
    d = FrontDiagram(d.slots, d.events, d.orientations, {c: STEIN for c in d.trace.ids})
    check_theta_against_reference(SteinPresentation.from_presentation(surger_handles(d)))


def linked_unknots(rng, n_unknots, n_clasps):
    """Events of n_unknots unknots opened at random heights beside the
    strand of a 1-slot handle, clasped by squared crossings X(p) X(p)
    at random heights and closed innermost first."""
    events = []
    strands = ["edge"]
    for k in range(n_unknots):
        p = rng.randint(1, len(strands) + 1)
        events.append(Event("L", p))
        strands[p - 1 : p - 1] = [k, k]
    for _ in range(n_clasps):
        p = rng.randint(1, len(strands) - 1)
        events += [Event("X", p), Event("X", p)]
    while len(strands) > 1:
        p = next(i for i in range(len(strands) - 1) if strands[i] == strands[i + 1] != "edge")
        events.append(Event("R", p + 1))
        del strands[p : p + 2]
    return tuple(events)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_theta_of_many_linked_unknots_matches_the_reference(seed):
    rng = random.Random(seed)
    d = FrontDiagram((1,), linked_unknots(rng, 12, 18))
    ids = d.trace.ids
    d = FrontDiagram(d.slots, d.events, {c: rng.choice((1, -1)) for c in ids}, {c: STEIN for c in ids})
    for c in rng.sample(ids, 5):  # zig-zags give nonzero rotation numbers
        d = stabilize(d, c, rng.choice(("up", "down")))
    x = SteinPresentation.from_presentation(surger_handles(d))
    assert x.m >= 9 and x.n1 == 1 and any(x.rot)
    assert any(x.q[i][j] for i in range(x.m) for j in range(i))
    check_theta_against_reference(x)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_theta_adds_over_disjoint_unions(seed):
    rng = random.Random(seed)
    a = random_stein(rng, max_m=3, max_n1=1)
    b = random_stein(rng, max_m=3, max_n1=1)
    ma, mb = a.m, b.m
    q = [list(row) + [0] * mb for row in a.q] + [[0] * ma + list(row) for row in b.q]
    runs = [list(row) + [0] * mb for row in a.runs] + [[0] * ma + list(row) for row in b.runs]
    both = SteinPresentation(q=q, runs=runs, rot=a.rot + b.rot)
    try:
        ta, tb_ = theta(a), theta(b)
    except InvariantError:
        with pytest.raises(InvariantError):
            theta(both)
        return
    assert theta(both) == ta + tb_ + rat(2)


def test_theta_makes_one_congruence_pass(monkeypatch):
    # sigma and c^T Q*^+ c come out of the same bordered elimination, which
    # the presentation keeps for theta_f0_and_d; inertia and signature run
    # through numerics._bordered_congruence, so a second elimination counts
    calls = []
    original = numerics._bordered_congruence

    def counting(q, x, y):
        calls.append((x, y))
        return original(q, x, y)

    for module in (invariants, numerics):
        monkeypatch.setattr(module, "_bordered_congruence", counting)
    x = SteinPresentation(q=[[-3, 1], [1, -2]], runs=[[1, 1]], rot=[1, 0])
    c = chern_cocycle(x)
    assert theta(x) == rat(-8, 7)
    assert calls == [(c, c)]
    # the fallback when theta is undefined reads the same elimination
    calls.clear()
    x = SteinPresentation(q=[[0]], runs=[], rot=[2])
    with pytest.raises(InvariantError, match="infinite order"):
        theta(x)
    assert theta_f0_and_d(x) == (2, 0)
    assert calls == [([2], [2])]


def test_characteristic_sublinks_solve_once(monkeypatch):
    # gamma counts the sublinks before it lists them
    calls = []
    original = invariants.solve_gf2_affine

    def counting(matrix, rhs):
        calls.append(rhs)
        return original(matrix, rhs)

    monkeypatch.setattr(invariants, "solve_gf2_affine", counting)
    x = SteinPresentation(q=[[2, 2], [2, -2]], runs=[[2, -2], [0, 0]], rot=[-2, 0])
    assert characteristic_sublink_count(x) == len(characteristic_sublinks(x)) == 16
    assert len(calls) == 1


def minus_two_chain(n):
    """n unknots framed -2, each linked once to the next, with rot 0 and tb -1."""
    lk = [[int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    return SurgeryPresentation(
        coeffs=[rat(-2)] * n, lk=lk, unknot=[True] * n, rot=[0] * n, tb=[-1] * n
    )


def test_theta_of_a_long_minus_two_chain():
    # c = 0, chi = n + 1 and sigma = -n, so theta = -2(n + 1) + 3n = n - 2
    n = 74
    assert theta(SteinPresentation.from_presentation(minus_two_chain(n))) == rat(n - 2)


@pytest.mark.parametrize("n", [74, 300])
def test_linking_form_of_a_long_minus_two_chain(n):
    # Q is minus the A_n Cartan matrix, whose inverse has n/(n+1) in its corner
    e1 = [1] + [0] * (n - 1)
    assert linking_form(minus_two_chain(n), e1, e1) == Fraction(n, n + 1)


# ---------------------------------------------------------------------------
# divisibility and the 0-framed residue


def test_theta_f0_fixtures():
    for k in (1, 2, 3):
        d, res = theta_f0_and_d(SteinPresentation(q=[[0]], runs=[], rot=[2 * k]))
        assert d == 2 * k
        assert (res - (-4)) % (4 * k) == 0
    for n in (-3, 2, 7):
        d, res = theta_f0_and_d(SteinPresentation(q=[[n]], runs=[], rot=[0]))
        assert d == 0
        assert res == -4 - (3 if n > 0 else -3)
    assert theta_f0_and_d(SteinPresentation(q=[], runs=[], rot=[])) == (0, -2)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_residue_difference_is_the_linking_square(seed):
    # on a torsion boundary the residue and theta differ by the linking
    # form evaluated on the Chern class
    rng = random.Random(seed)
    x = random_stein(rng, max_m=4, max_n1=2)
    qs = x.q_star()
    if not qs:
        return
    c = chern_cocycle(x)
    size = len(qs)
    p = SurgeryPresentation(
        coeffs=[rat(qs[i][i]) for i in range(size)],
        lk=[[qs[i][j] if i != j else 0 for j in range(size)] for i in range(size)],
    )
    try:
        q_form = linking_form(p, c, c)
    except PresentationError:
        return
    d, res = theta_f0_and_d(x)
    assert d == 0
    t = theta(x)
    diff = Fraction(res) - Fraction(t.num, t.den)
    assert diff % 1 == q_form % 1


def test_chern_cocycle_shapes():
    assert chern_cocycle(SteinPresentation(q=[[0]], runs=[[1]], rot=[0])) == [0, 0]
    x = SteinPresentation(
        q=[[1, 0], [0, -2]], runs=[[0, 0], [0, 0], [0, 0]], rot=[3, -1]
    )
    assert chern_cocycle(x) == [3, -1, 0, 0, 0]


def test_spin_structures_and_classes_store_tuples():
    s = SpinStructure([0, True, 1])
    assert s.sublink == (0, 1, 1) and [type(b) for b in s.sublink] == [int] * 3
    assert s == SpinStructure((0, 1, 1)) and hash(s) == hash(SpinStructure((0, 1, 1)))
    c = CokernelClass([1, 0], [3, 0], [4, 0])
    assert (c.coords, c.orders, c.representative) == ((1, 0), (3, 0), (4, 0))
    assert hash(c) == hash(CokernelClass((1, 0), (3, 0)))


def test_spin_structure_refuses_an_entry_other_than_0_or_1():
    for bits, pos in (((0.5, 0), 1), ((0, 2), 2), ((1, 0, -1), 3), ((1, 1.0), 2), ((0, "1"), 2)):
        with pytest.raises(InvariantError, match=f"^sublink entry {pos} must be 0 or 1, got "):
            SpinStructure(bits)
    x = SteinPresentation(q=[[1]], runs=[], rot=[1])
    assert gamma(x, SpinStructure((1,))).orders == (1,)
    with pytest.raises(InvariantError, match="^sublink entry 1 must be 0 or 1, got 0.5$"):
        gamma(x, SpinStructure((0.5,)))
