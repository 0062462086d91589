import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_fronts import random_front
from random_presentations import presentations
from steinkit import numerics, presentation, surgery
from steinkit.front import (
    STEIN, FrontDiagram, apply_move, parse_event_word, parse_front, stabilize, surger_handles,
)
from steinkit.invariants import SpinStructure, SteinPresentation, characteristic_sublinks
from steinkit.numerics import INF, ExtRational, Frozen, rat
from steinkit.presentation import (
    AbelianGroup,
    PresentationError,
    SurgeryPresentation,
    blow_down,
    cokernel,
    expand_rational,
    h1,
    linking_form,
    parse_surgery,
    rolfsen_twist,
    serialize_surgery,
    slam_dunk,
    slam_dunk_inverse,
    stein_plan,
)


def pres(coeffs, lk=None, **kw):
    coeffs = [rat(c) if not isinstance(c, ExtRational) else c for c in coeffs]
    m = len(coeffs)
    if lk is None:
        lk = [[0] * m for _ in range(m)]
    return SurgeryPresentation(coeffs=coeffs, lk=[list(r) for r in lk], **kw)


def random_presentation(rng, max_m=4, allow_inf=True):
    m = rng.randint(1, max_m)
    coeffs = []
    for _ in range(m):
        roll = rng.random()
        if allow_inf and roll < 0.1:
            coeffs.append(INF)
        else:
            coeffs.append(rat(rng.randint(-8, 8), rng.randint(1, 6)))
    lk = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            lk[i][j] = lk[j][i] = rng.randint(-2, 2)
    return pres(coeffs, lk)


def h1_by_expansion(p):
    """Independent route: the integer framing matrix of the chain expansion."""
    return cokernel(expand_rational(p).integer_matrix())


# ---------------------------------------------------------------------------
# structure and validation


def test_validation_errors():
    with pytest.raises(PresentationError, match="asymmetric"):
        SurgeryPresentation(coeffs=[rat(1), rat(1)], lk=[[0, 1], [2, 0]])
    with pytest.raises(PresentationError, match="diagonal"):
        SurgeryPresentation(coeffs=[rat(1)], lk=[[3]])
    with pytest.raises(PresentationError, match="marked l0"):
        SurgeryPresentation(coeffs=[rat(1)], lk=[[0]], l0=[True], unknot=[True])
    with pytest.raises(PresentationError, match="not unknot"):
        SurgeryPresentation(coeffs=[rat(0)], lk=[[0]], l0=[True], unknot=[False])
    # linking numbers that are not ints; bool is an int, so only as a
    # framing on the diagonal is True refused
    assert SurgeryPresentation(coeffs=[rat(1), rat(1)], lk=[[0, True], [True, 0]]).lk == ((0, 1), (1, 0))
    with pytest.raises(PresentationError, match="nonzero diagonal at component 1;"):
        SurgeryPresentation(coeffs=[rat(1), rat(1)], lk=[[True, 0], [0, 0]])
    for v in (1.0, Fraction(1), Fraction(1, 2)):
        with pytest.raises(PresentationError, match="^linking numbers must be integers$"):
            SurgeryPresentation(coeffs=[rat(1), rat(1)], lk=[[0, v], [v, 0]])
    # an asymmetry is reported before a non-int entry, at the first (i, j),
    # j < i, in row-major order; nan differs from itself even where the
    # same object sits on both sides
    nan = float("nan")
    for lk in (
        [[0, 1, 2], [3, 0, 0], [5, 0, 0]],
        [[0, True, 0], [2, 0, 0], [0, 0, 0]],
        [[0, 1.5, 0], [2, 0, 0], [0, 0, 0]],
        [[0, nan, 0], [nan, 0, 0], [0, 0, 0]],
    ):
        with pytest.raises(PresentationError, match=r"^linking matrix asymmetric at \(2, 1\)$"):
            SurgeryPresentation(coeffs=[rat(1)] * 3, lk=lk)
    with pytest.raises(PresentationError, match=r"asymmetric at \(3, 1\)$"):
        SurgeryPresentation(coeffs=[rat(1)] * 3, lk=[[0, 1, 2], [1, 0, 0], [5, 0, 0]])


def test_bool_entries_are_stored_as_ints_and_round_trip():
    # bool is an int; stored as the int it equals, it serializes as 1 or 0
    p = SurgeryPresentation(
        coeffs=[ExtRational(True), rat(1)], lk=[[0, True], [True, 0]], rot=[True, None], tb=[False, -1]
    )
    assert {type(v) for v in (*p.lk[0], *p.lk[1], p.rot[0], *p.tb, p.coeffs[0].num)} == {int}
    text = serialize_surgery(p)
    assert "coeff 1 1\n" in text
    assert "lk 1 2 1\n" in text and "rot 1 1\n" in text and "tb 1 0\n" in text
    assert parse_surgery(text) == p


def test_rot_and_tb_must_be_integers():
    for name in ("rot", "tb"):
        for v in (1.0, Fraction(1), rat(1), "1"):
            with pytest.raises(PresentationError, match=f"^{name} of component 2 must be an integer, got "):
                pres([1, 1], **{name: [0, v]})


def test_presentations_are_frozen():
    p = pres([rat(1), rat(-2)], [[0, 1], [1, 0]], unknot=[True, False], rot=[0, None])
    for name in ("coeffs", "lk", "unknot", "l0", "rot", "tb"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, getattr(p, name))
    for seq, value in ((p.lk, (0, 2)), (p.lk[0], 2), (p.coeffs, rat(2)), (p.rot, 1)):
        with pytest.raises(TypeError):
            seq[0] = value
    assert p.lk == ((0, 1), (1, 0)) and p.coeffs == (rat(1), rat(-2)) and p.rot == (0, None)


def test_each_rewrite_builds_one_presentation(monkeypatch):
    hopf = pres([rat(1), rat(-2)], [[0, 1], [1, 0]], unknot=[True, True], rot=[1, 0], tb=[2, -1])
    # rational and infinite coefficients: -7/2 and 5/3 expand into chains of 2 and 3
    mixed = pres(
        [rat(-7, 2), INF, rat(3), rat(5, 3)],
        [[0, 1, 2, 0], [1, 0, 0, 1], [2, 0, 0, 1], [0, 1, 1, 0]],
        unknot=[True, False, False, False],
    )
    text = serialize_surgery(mixed)
    # a knot through a 1-handle, linked by a second component
    front = parse_front(
        "front 1\nhandles 1\nhandle 1 slots 2\nevents X1 X1\norient 2 -\ncoeff 1 stein\ncoeff 2 0\n"
    )
    surgered = surger_handles(front)
    # Q* is 0 mod 2, so every one of the 4 sublinks is characteristic
    stein = SteinPresentation(q=[[-2, 0], [0, 0]], runs=[], rot=[0, 1])
    # fronts on which each move applies: an unknot through a ball, its
    # birth and its exit from the ball, and three crossings through a ball
    unknot = FrontDiagram((1,), parse_event_word("L2 X1 R2"), coefficients={1: STEIN})
    born = apply_move(unknot, 2, at=1, variant="birth-above")
    exited = apply_move(unknot, 4, at=1, variant="out", handle=1)
    braid = FrontDiagram((3,), parse_event_word("X1 X2 X1"))
    # a value is built either by a validating constructor or, when it is
    # derived from an already validated one, by the one unchecked builder
    # Frozen._unchecked, which every value class inherits
    built = []
    original = SurgeryPresentation.__post_init__
    original_unchecked = Frozen._unchecked.__func__
    stein_check = SteinPresentation.__post_init__
    spin_check, front_check = SpinStructure.__init__, FrontDiagram.__post_init__

    def counting(self):
        built.append(("checked", self))
        original(self)

    def counting_unchecked(cls, *fields):
        built.append(("unchecked", original_unchecked(cls, *fields)))
        return built[-1][1]

    def counting_stein_check(self):
        built.append(("checked", self))
        stein_check(self)

    def counting_spin_check(self, sublink):
        built.append(("checked", self))
        spin_check(self, sublink)

    def counting_front_check(self):
        built.append(("checked", self))
        front_check(self)

    monkeypatch.setattr(SurgeryPresentation, "__post_init__", counting)
    monkeypatch.setattr(Frozen, "_unchecked", classmethod(counting_unchecked))
    monkeypatch.setattr(SteinPresentation, "__post_init__", counting_stein_check)
    monkeypatch.setattr(SpinStructure, "__init__", counting_spin_check)
    monkeypatch.setattr(FrontDiagram, "__post_init__", counting_front_check)
    calls = {
        "rolfsen_twist": lambda: rolfsen_twist(hopf, 1, -2),
        "slam_dunk": lambda: slam_dunk(hopf, 2, 1),
        "slam_dunk_inverse": lambda: slam_dunk_inverse(hopf, 2, rat(1, 3)),
        "blow_down": lambda: blow_down(hopf, 1),
        "delete": lambda: mixed.delete(1),
        "expand_rational": lambda: expand_rational(mixed),
        "stein_plan": lambda: stein_plan(hopf).expanded,
        "surger_handles": lambda: surger_handles(front),
        "from_presentation": lambda: SteinPresentation.from_presentation(surgered),
    }
    for name, call in calls.items():
        built.clear()
        out = call()
        assert len(built) == 1 and built[0][0] == "unchecked" and built[0][1] is out, name
    built.clear()
    out = parse_surgery(text)
    assert len(built) == 1 and built[0][0] == "checked" and built[0][1] is out
    assert expand_rational(mixed).m == 6
    assert surgered.m == 3 and SteinPresentation.from_presentation(surgered).n1 == 1
    # the spin structures of a validated presentation are built unchecked
    built.clear()
    spins = characteristic_sublinks(stein)
    assert len(spins) == len(built) == 4
    for (kind, value), s in zip(built, spins):
        assert kind == "unchecked" and value is s and type(s) is SpinStructure
    # so is every rewrite of a validated front
    rewrites = {
        "move 1": lambda: apply_move(front, 1, at=1),
        "move 2 birth": lambda: apply_move(unknot, 2, at=1, variant="birth-above"),
        "move 2 death": lambda: apply_move(born, 2, at=1, variant="death-above"),
        "move 3": lambda: apply_move(braid, 3, at=1),
        "move 4 out": lambda: apply_move(unknot, 4, at=1, variant="out", handle=1),
        "move 4 in": lambda: apply_move(exited, 4, at=3, variant="in"),
        "move 5": lambda: apply_move(front, 5, at=2),
        "move 6": lambda: apply_move(front, 6, variant="top", handle=1),
        "stabilize": lambda: stabilize(front, 1, "up"),
    }
    for name, call in rewrites.items():
        built.clear()
        new = call()
        assert len(built) == 1 and built[0][0] == "unchecked" and built[0][1] is new, name
        assert type(new) is FrontDiagram, name


def assert_as_validated(out):
    """out is what the validating constructor builds from its fields,
    type for type, and the text format reproduces it."""
    again = SurgeryPresentation(**vars(out))
    assert again == out and repr(again) == repr(out)
    assert parse_surgery(serialize_surgery(out)) == out


@settings(max_examples=30, deadline=None)
@given(presentations(), st.data())
def test_every_rewrite_builds_what_the_validating_constructor_builds(p, data):
    group = h1(p)
    i = data.draw(st.integers(1, p.m), label="component")
    r = p.coeffs[i - 1]
    # a meridian coefficient c that leaves r + 1/c the integer k
    k = rat(data.draw(st.integers(-2, 2), label="k"))
    c = INF if r.is_infinite or r == k else (k - r).reciprocal()
    dunked = slam_dunk_inverse(p, i, c)
    same = [expand_rational(p), dunked, slam_dunk(dunked, i, dunked.m)]
    same += [
        rolfsen_twist(p, j + 1, data.draw(st.sampled_from((-2, -1, 1, 2)), label="twist"))
        for j in range(p.m)
        if p.unknot[j]
    ]
    same += [blow_down(p, j + 1) for j in range(p.m) if p.unknot[j] and p.coeffs[j] in (rat(1), rat(-1))]
    plan = stein_plan(p)
    if plan.ok:
        same.append(plan.expanded)
    for out in same:
        assert_as_validated(out)
        assert h1(out) == group
    assert_as_validated(p.delete(i - 1))


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_delete_builds_what_the_validating_constructor_builds(p):
    for i in range(p.m):
        out = p.delete(i)
        assert_as_validated(out)
        keep = [k for k in range(p.m) if k != i]
        assert out == SurgeryPresentation(
            coeffs=[p.coeffs[k] for k in keep],
            lk=[[p.lk[a][b] for b in keep] for a in keep],
            **{name: [getattr(p, name)[k] for k in keep] for name in ("unknot", "l0", "rot", "tb")},
        )


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_surgered_fronts_build_what_the_validating_constructors_build(seed):
    rng = random.Random(seed)
    d = random_front(rng)
    rational = rng.random() < 0.5  # else every coefficient is an integer, so from_presentation applies
    choices = (STEIN, rat(-2), rat(0), rat(3), *((rat(-7, 2), rat(5, 3), INF) if rational else ()))
    d = FrontDiagram(d.slots, d.events, d.orientations, {c: rng.choice(choices) for c in d.trace.ids})
    p = surger_handles(d)
    assert_as_validated(p)
    if any(not c.is_integer for c in p.coeffs):
        return
    x = SteinPresentation.from_presentation(p)
    # the validating constructor, fed slices of the relation matrix
    m = x.m
    r = p.relation_matrix()
    twin = SteinPresentation(q=[row[:m] for row in r[:m]], runs=[row[:m] for row in r[m:]], rot=p.rot[:m])
    assert twin == x and repr(twin) == repr(x) and twin._qs == x._qs
    assert x._qs == tuple(map(tuple, r))
    assert all(type(t) is tuple for t in (x.q, x.runs, x.rot, *x.q, *x.runs, x._qs, *x._qs))


def test_integer_matrix_requires_integers():
    with pytest.raises(PresentationError, match="expand first"):
        pres([rat(1, 2)]).integer_matrix()


def test_abelian_group_str():
    assert str(AbelianGroup(())) == "0"
    assert str(AbelianGroup((), rank=1)) == "Z"
    assert str(AbelianGroup((2, 6), rank=2)) == "Z^2 + Z/2 + Z/6"
    assert AbelianGroup((2, 6)).order() == 12
    assert AbelianGroup((), rank=1).order() is None


# ---------------------------------------------------------------------------
# first homology


def test_h1_fixtures():
    assert h1(pres([1])) == AbelianGroup(())  # +1 on an unknot is the 3-sphere
    assert h1(pres([0])) == AbelianGroup((), rank=1)  # 0-surgery: S1 x S2
    assert h1(pres([rat(7, 2)])) == AbelianGroup((7,))
    assert h1(pres([INF])) == AbelianGroup(())
    hopf_zero = pres([0, 0], [[0, 1], [1, 0]])
    assert h1(hopf_zero) == AbelianGroup(())
    borromean_like = pres([1, 2, 3])
    assert h1(borromean_like) == AbelianGroup((6,))


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_h1_expansion_agrees_with_direct_relations(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    assert h1(p) == h1_by_expansion(p)


def test_h1_needs_no_chain_expansion(monkeypatch):
    # -1/70 on an unknot is the 3-sphere; its chain has 70 links, past the
    # Smith form's dimension cap
    for q in (70, 200):
        assert h1(pres([rat(-1, q)], unknot=[True])) == AbelianGroup(())
    # rows (-1, 70) and (1, 3): determinant -73
    assert h1(pres([rat(-1, 70), rat(3)], [[0, 1], [1, 0]])) == AbelianGroup((73,))

    p = pres([rat(7, 2), INF, rat(-5, 3)], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    expected = h1_by_expansion(p)

    def refuse(_):
        raise AssertionError("h1 expanded a chain")

    monkeypatch.setattr(presentation, "expand_rational", refuse)
    assert h1(p) == expected == AbelianGroup((59,))


def test_h1_builds_its_relation_matrix_once_and_skips_the_intake(monkeypatch):
    calls = {"relation_matrix": 0, "_int_rows": 0}
    relation_matrix, int_rows = SurgeryPresentation.relation_matrix, numerics._int_rows

    def counting_relation_matrix(self):
        calls["relation_matrix"] += 1
        return relation_matrix(self)

    def counting_int_rows(matrix):
        calls["_int_rows"] += 1
        return int_rows(matrix)

    monkeypatch.setattr(SurgeryPresentation, "relation_matrix", counting_relation_matrix)
    monkeypatch.setattr(numerics, "_int_rows", counting_int_rows)
    p = pres([rat(7, 2), INF, rat(-5, 3)], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert h1(p) == AbelianGroup((59,))
    assert calls == {"relation_matrix": 1, "_int_rows": 0}
    # the public route keeps its intake
    assert cokernel(relation_matrix(p)) == AbelianGroup((59,))
    assert calls == {"relation_matrix": 1, "_int_rows": 1}


def test_h1_takes_no_witnessed_smith_form(monkeypatch):
    def refuse(_):
        raise AssertionError("h1 built Smith form witnesses")

    for module in (numerics, presentation):
        monkeypatch.setattr(module, "smith_normal_form", refuse, raising=False)
    rng = random.Random(7)
    for _ in range(20):
        h1(random_presentation(rng))
    assert h1(pres([rat(-1, 70)], unknot=[True])) == AbelianGroup(())


@pytest.mark.parametrize("q", [70, 200])
def test_h1_of_an_expansion_past_64_components(q):
    # the expanded relation matrix is larger than the witnessed Smith
    # form's cap; h1 reads only its invariant factors
    p = pres([rat(-1, q), rat(3, 7), rat(2)], [[0, 2, 1], [2, 0, 0], [1, 0, 0]])
    expanded = expand_rational(p)
    assert expanded.m > 64
    assert h1(expanded) == h1(p) != AbelianGroup(())


def _relation_matrices(seed):
    """Relation matrices of random presentations: small dense ones, sparse
    unit-heavy ones, and integer chain expansions of rational ones."""
    rng = random.Random(seed)
    yield random_presentation(rng).relation_matrix()
    m = rng.randint(2, 14)
    lk = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            if rng.random() < 2 / m:
                lk[i][j] = lk[j][i] = rng.choice((-1, 1, 1, 2))
    coeffs = [rng.choice((INF, rat(1), rat(-1), rat(0), rat(2), rat(rng.randint(-9, 9), rng.randint(1, 5))))
              for _ in range(m)]
    sparse = pres(coeffs, lk)
    yield sparse.relation_matrix()
    for p in (sparse, random_presentation(rng, max_m=5)):
        expanded = expand_rational(p)
        if 0 < expanded.m <= numerics.MAX_SNF_DIM:
            yield expanded.integer_matrix()


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_invariant_factors_match_the_witnessed_smith_form(seed):
    for rows in _relation_matrices(seed):
        assert numerics.invariant_factors(rows) == numerics.smith_normal_form(rows).diagonal


def test_cokernel_of_empty_matrices():
    assert str(cokernel([])) == "0"
    assert str(cokernel([[]])) == "Z"  # one generator, no relation


def test_relation_matrix_rows():
    p = pres([rat(7, 2), INF, rat(-3)], [[0, 1, 2], [1, 0, -1], [2, -1, 0]])
    assert p.relation_matrix() == [[7, 2, 4], [0, 1, 0], [2, -1, -3]]
    q = pres([rat(2), rat(-1)], [[0, 3], [3, 0]])
    assert q.relation_matrix() == q.integer_matrix() == [[2, 3], [3, -1]]


def test_expand_rational_chain():
    p = pres([rat(-7, 2)], unknot=[True])
    q = expand_rational(p)
    assert [str(c) for c in q.coeffs] == ["-4", "-2"]
    assert q.lk == ((0, 1), (1, 0))
    assert q.unknot == (True, True)
    assert q.l0 == (False, False)


def test_expand_rational_deletes_infinity():
    p = pres([INF, rat(3)], [[0, 1], [1, 0]])
    q = expand_rational(p)
    assert q.m == 1
    assert str(q.coeffs[0]) == "3"


def test_delete_rejects_indices_out_of_range():
    p = pres([1, 2], [[0, 1], [1, 0]])
    for index in (-1, p.m):
        with pytest.raises(PresentationError, match="out of range 0..1"):
            p.delete(index)
    assert p.delete(1).coeffs == (rat(1),)


def test_rewrites_refuse_non_int_indices_and_twist_counts():
    hopf = pres([rat(1), rat(-2)], [[0, 1], [1, 0]], unknot=[True, True])
    calls = [
        lambda i: hopf.delete(i),
        lambda i: blow_down(hopf, i),
        lambda i: slam_dunk(hopf, 1, i),
        lambda i: slam_dunk_inverse(hopf, i, rat(1)),
        lambda i: rolfsen_twist(hopf, i, 1),
    ]
    for call in calls:
        for bad in (0.0, 1.0, "1", Fraction(1), None):
            with pytest.raises(PresentationError, match=rf"^component index {re.escape(repr(bad))} is not an int$"):
                call(bad)
    for bad in (1.5, "1", Fraction(1), None):
        with pytest.raises(PresentationError, match=rf"^twist count {re.escape(repr(bad))} is not an int$"):
            rolfsen_twist(hopf, 1, bad)
    # a bool is the int it equals
    assert hopf.delete(True) == hopf.delete(1)
    assert blow_down(hopf, True) == blow_down(hopf, 1)
    assert rolfsen_twist(hopf, True, True) == rolfsen_twist(hopf, 1, 1)


def test_slam_dunk_inverse_refuses_a_meridian_coefficient_that_is_not_an_ext_rational():
    hopf = pres([rat(1), rat(-2)], [[0, 1], [1, 0]], unknot=[True, True])
    for bad in (1, 2, True, Fraction(1, 2), 0.5, "1/2", None):
        with pytest.raises(PresentationError, match=rf"^meridian_coeff must be an ExtRational, got {re.escape(repr(bad))}$"):
            slam_dunk_inverse(hopf, 1, bad)


def test_rewrites_stop_at_the_component_limit(monkeypatch):
    monkeypatch.setattr(surgery, "MAX_COMPONENTS", 5)
    # the chain of -1/n has n entries
    at_limit = pres([rat(-1, 5)], unknot=[True], tb=[0])
    assert expand_rational(at_limit).m == 5
    assert stein_plan(at_limit).expanded.m == 5
    over = pres([rat(-1, 6)], unknot=[True], tb=[0])
    for rewrite in (expand_rational, stein_plan):
        with pytest.raises(PresentationError, match="would have 6 components; the limit is 5"):
            rewrite(over)
    # a presentation already past the limit may shrink, or keep its size
    big = pres([1] * 7)
    assert big.delete(0).m == 6
    assert expand_rational(big).m == 7
    with pytest.raises(PresentationError, match="would have 8 components"):
        slam_dunk_inverse(big, 1, rat(1))


# ---------------------------------------------------------------------------
# calculus rewrites


def test_rolfsen_twist_fixture():
    # +1 twist on component 1 of a Hopf pair
    p = pres([rat(3, 4), rat(5)], [[0, 2], [2, 0]], unknot=[True, True])
    q = rolfsen_twist(p, 1, 1)
    assert str(q.coeffs[0]) == "3/7"
    assert str(q.coeffs[1]) == "9"  # 5 + 1 * 2^2
    assert q.lk[0][1] == 2
    assert q.unknot == (True, False)


def test_rolfsen_twist_identity():
    p = pres([rat(3, 4)], unknot=[True])
    q = rolfsen_twist(p, 1, 0)
    assert q.coeffs == p.coeffs and q.unknot == (True,)


def test_rolfsen_twist_unknot_reciprocal():
    p = pres([rat(-3)], unknot=[True])
    assert str(rolfsen_twist(p, 1, 1).coeffs[0]) == "3/2"  # 1/(-3) + 1 = 2/3


def test_rolfsen_twist_on_infinity():
    p = pres([INF], unknot=[True])
    q = rolfsen_twist(p, 1, 3)
    assert str(q.coeffs[0]) == "1/3"


def test_rolfsen_twist_requires_unknot_flag():
    with pytest.raises(PresentationError, match="unknot"):
        rolfsen_twist(pres([rat(2)]), 1, 1)


def test_rolfsen_twist_three_components():
    p = pres(
        [rat(0), rat(0), rat(0)],
        [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
        unknot=[True, False, False],
    )
    q = rolfsen_twist(p, 1, 2)
    assert q.lk[1][2] == 2  # 0 + 2 * 1 * 1
    assert str(q.coeffs[1]) == "2"


@given(st.integers(0, 10_000), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_rolfsen_twist_preserves_h1(seed, m):
    rng = random.Random(seed)
    p = random_presentation(rng)
    i = rng.randint(1, p.m)
    p = SurgeryPresentation(p.coeffs, p.lk, [u or k == i - 1 for k, u in enumerate(p.unknot)],
                            p.l0, p.rot, p.tb)
    assert h1(rolfsen_twist(p, i, m)) == h1(p)


def test_slam_dunk_fixture():
    p = pres([rat(2), rat(-3)], [[0, 1], [1, 0]], unknot=[False, True])
    q = slam_dunk(p, 1, 2)
    assert q.m == 1
    assert str(q.coeffs[0]) == "7/3"  # 2 - 1/(-3)


def test_slam_dunk_infinity_meridian():
    p = pres([rat(5, 3), INF], [[0, 1], [1, 0]], unknot=[False, True])
    q = slam_dunk(p, 1, 2)
    assert q.m == 1 and str(q.coeffs[0]) == "5/3"


def test_slam_dunk_preconditions():
    p = pres([rat(2), rat(-3)], [[0, 2], [2, 0]], unknot=[False, True])
    with pytest.raises(PresentationError, match="lk"):
        slam_dunk(p, 1, 2)
    p2 = pres([rat(1, 2), rat(-3)], [[0, 1], [1, 0]], unknot=[False, True])
    with pytest.raises(PresentationError, match="integer coefficient"):
        slam_dunk(p2, 1, 2)
    p3 = pres([rat(2), rat(-3)], [[0, 1], [1, 0]])
    with pytest.raises(PresentationError, match="unknot"):
        slam_dunk(p3, 1, 2)
    chain = pres(
        [rat(2), rat(-3), rat(4)],
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        unknot=[False, True, False],
    )
    with pytest.raises(PresentationError, match="links component"):
        slam_dunk(chain, 1, 2)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_slam_dunk_inverse_round_trip(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    i = rng.randint(1, p.m)
    r_i = p.coeffs[i - 1]
    if r_i.is_infinite or rng.random() < 0.2:
        # an infinity-framed meridian dunks away without touching r_i
        c = INF
    else:
        # aim the absorbed coefficient at a random integer n = r_i + 1/c
        n = rat(rng.randint(-5, 5))
        if n == r_i:
            n = n + rat(1)
        c = (n - r_i).reciprocal()
    q = slam_dunk_inverse(p, i, c)
    assert h1(q) == h1(p)
    back = slam_dunk(q, i, q.m)
    assert back.coeffs == p.coeffs
    assert back.lk == p.lk


def test_slam_dunk_inverse_spec_example():
    # pushing e0 up to 1 takes a meridian with coefficient 1/(1 - e0)
    p = pres([rat(-2)], unknot=[True])
    q = slam_dunk_inverse(p, 1, rat(1, 3))
    assert [str(c) for c in q.coeffs] == ["1", "1/3"]
    assert q.lk == ((0, 1), (1, 0))
    assert q.unknot[1] is True
    back = slam_dunk(q, 1, 2)
    assert str(back.coeffs[0]) == "-2"


def test_slam_dunk_inverse_rejects_non_integral_result():
    p = pres([rat(1, 2)])
    with pytest.raises(PresentationError, match="integral"):
        slam_dunk_inverse(p, 1, rat(3))
    with pytest.raises(PresentationError, match="not dunkable"):
        slam_dunk_inverse(p, 1, rat(0))


def test_blow_down_fixture():
    # a +1 unknot linking two parallel strands once each
    p = pres(
        [rat(1), rat(0), rat(5)],
        [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
        unknot=[True, True, True],
    )
    q = blow_down(p, 1)
    assert q.m == 2
    assert [str(c) for c in q.coeffs] == ["-1", "4"]
    assert q.lk == ((0, -1), (-1, 0))
    assert q.unknot == (False, False)


def test_blow_down_leaves_split_components_alone():
    p = pres([rat(-1), rat(7)], unknot=[True, True])
    q = blow_down(p, 1)
    assert q.m == 1 and str(q.coeffs[0]) == "7"
    assert q.unknot == (True,)


def test_blow_down_preconditions():
    with pytest.raises(PresentationError, match="unknot"):
        blow_down(pres([rat(1)]), 1)
    with pytest.raises(PresentationError, match="needs coefficient"):
        blow_down(pres([rat(2)], unknot=[True]), 1)


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_blow_down_preserves_h1(seed):
    rng = random.Random(seed)
    p = random_presentation(rng)
    i = rng.randint(1, p.m)
    eps = rng.choice([1, -1])
    p = SurgeryPresentation(
        coeffs=[rat(eps) if k == i - 1 else c for k, c in enumerate(p.coeffs)],
        lk=p.lk,
        unknot=[u or k == i - 1 for k, u in enumerate(p.unknot)],
        l0=[f and k != i - 1 for k, f in enumerate(p.l0)],
        rot=p.rot,
        tb=p.tb,
    )
    assert h1(blow_down(p, i)) == h1(p)


def fields(p):
    return [str(c) for c in p.coeffs], p.lk, p.unknot, p.l0, p.rot, p.tb


def test_rewrites_drop_the_data_they_invalidate():
    # an l0 unknot, a +1 unknot linking it and a knot, and a split component
    p = pres(
        [rat(0), rat(1), rat(-3), rat(5)],
        [[0, 1, 0, 0], [1, 0, 2, 0], [0, 2, 0, 0], [0, 0, 0, 0]],
        unknot=[True, True, False, False],
        l0=[True, False, False, False],
        rot=[0, 1, 2, 3],
        tb=[None, 2, -2, 6],
    )
    # blowing down forgets everything about the components it links
    assert fields(blow_down(p, 2)) == (
        ["-1", "-7", "5"],
        ((0, -2, 0), (-2, 0, 0), (0, 0, 0)),
        (False, False, False),
        (False, False, False),
        (None, None, 3),
        (None, None, 6),
    )
    # a meridian moves the l0 coefficient off 0, so the l0 flag goes
    q = slam_dunk_inverse(p, 1, rat(1))
    lk5 = ((0, 1, 0, 0, 1), (1, 0, 2, 0, 0), (0, 2, 0, 0, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0, 0))
    assert fields(q) == (
        ["1", "1", "-3", "5", "1"],
        lk5,
        (True, True, False, False, True),
        (False, False, False, False, False),
        (None, 1, 2, 3, None),
        (None, 2, -2, 6, None),
    )
    assert fields(slam_dunk(q, 1, 5)) == (
        ["0", "1", "-3", "5"],
        p.lk,
        p.unknot,
        (False, False, False, False),
        (None, 1, 2, 3),
        (None, 2, -2, 6),
    )
    # an infinite meridian leaves the coefficient at 0 and the flag on
    assert fields(slam_dunk_inverse(p, 1, INF)) == (
        ["0", "1", "-3", "5", "inf"],
        lk5,
        (True, True, False, False, True),
        (True, False, False, False, False),
        (None, 1, 2, 3, None),
        (None, 2, -2, 6, None),
    )


# ---------------------------------------------------------------------------
# linking form


def test_linking_form_lens_space():
    p = pres([5])
    v = linking_form(p, [1], [1])
    assert v == Fraction(4, 5)  # -1/5 mod 1
    assert linking_form(p, [1], [2]) == Fraction(3, 5)


def test_linking_form_rejects_free_classes():
    with pytest.raises(PresentationError, match="not torsion"):
        linking_form(pres([0]), [1], [1])


def test_linking_form_solves_both_classes_at_once(monkeypatch):
    calls = []
    original = numerics._bordered_congruence

    def counting(q, x, y):
        calls.append((x, y))
        return original(q, x, y)

    monkeypatch.setattr(numerics, "_bordered_congruence", counting)
    p = pres([4, 6], [[0, 1], [1, 0]])
    assert linking_form(p, [1, 0], [0, 1]) == Fraction(1, 23)
    assert calls == [([1, 0], [0, 1])]
    # either class alone being free is enough to refuse
    free_second = pres([0, 3])
    for x, y in (([1, 0], [0, 1]), ([0, 1], [1, 0])):
        with pytest.raises(PresentationError, match="not torsion"):
            linking_form(free_second, x, y)


@pytest.mark.parametrize("x, y, bad", [
    ([0.5, 0], [0, 1], "class x has a non-int entry 0.5"),
    (["1", 0], [0, 1], "class x has a non-int entry '1'"),
    ([1, 0], [0, Fraction(1)], "class y has a non-int entry Fraction(1, 1)"),
    ([1, 0], [None, 1], "class y has a non-int entry None"),
])
def test_linking_form_refuses_non_int_class_entries(x, y, bad):
    p = pres([4, 6], [[0, 1], [1, 0]])
    with pytest.raises(PresentationError) as info:
        linking_form(p, x, y)
    assert str(info.value) == bad


def test_linking_form_counts_bools_as_ints():
    p = pres([4, 6], [[0, 1], [1, 0]])
    assert linking_form(p, [True, False], [0, True]) == linking_form(p, [1, 0], [0, 1])


def test_linking_form_is_symmetric():
    p = pres([4, 6], [[0, 1], [1, 0]])
    x, y = [1, 0], [0, 1]
    assert linking_form(p, x, y) == linking_form(p, y, x)


# ---------------------------------------------------------------------------
# Stein planning


def test_stein_plan_trefoil_example():
    p = pres([rat(-7, 2)], tb=[1], rot=[0])
    plan = stein_plan(p)
    assert plan.ok
    row = plan.rows[0]
    assert row.chain == (-4, -2)
    assert row.zigzags == (4, 0)
    assert row.tb_targets == (-3, -1)
    assert row.rot_targets == (-4, 0)
    assert plan.expanded.tb == (-3, -1)
    assert plan.expanded.rot == (-4, 0)
    assert [str(c) for c in plan.expanded.coeffs] == ["-4", "-2"]


def test_stein_plan_rejects_large_coefficients():
    p = pres([rat(1)], tb=[1])
    plan = stein_plan(p)
    assert not plan.ok
    assert plan.violations[0][0] == 1
    p2 = pres([rat(0)], tb=[1], rot=[0])
    assert stein_plan(p2).ok  # 0 < 1 is fine


def test_stein_plan_needs_tb():
    plan = stein_plan(pres([rat(-2)]))
    assert not plan.ok and "no tb" in plan.violations[0][1]


def test_stein_plan_drops_infinity():
    p = pres([INF, rat(-2)], tb=[None, 0], rot=[None, 1])
    plan = stein_plan(p)
    assert plan.ok
    assert plan.expanded.m == 1
    assert plan.rows[0].component == 2
    assert plan.rows[0].zigzags == (1,)
    assert plan.expanded.rot == (0,)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_stein_plan_framing_discipline(seed):
    # whenever the plan succeeds, every target satisfies coeff = tb - 1
    rng = random.Random(seed)
    p = random_presentation(rng, allow_inf=False)
    data = [(rng.randint(-2, 3), rng.randint(-2, 2)) for _ in range(p.m)]
    p = SurgeryPresentation(p.coeffs, p.lk, p.unknot, p.l0, rot=[r for _, r in data],
                            tb=[t for t, _ in data])
    plan = stein_plan(p)
    if not plan.ok:
        aff = {c for c, _ in plan.violations}
        for i in range(p.m):
            if i + 1 not in aff:
                assert p.coeffs[i] < rat(p.tb[i])
        return
    q = plan.expanded
    for i in range(q.m):
        assert q.tb[i] is not None
        assert q.coeffs[i] == rat(q.tb[i] - 1)
        assert all(z >= 0 for z in plan.rows[0].zigzags)
    assert h1(q) == h1(p)


# ---------------------------------------------------------------------------
# format


def test_surgery_format_round_trip():
    p = pres(
        [rat(0), rat(-7, 2), INF],
        [[0, 1, 0], [1, 0, -2], [0, -2, 0]],
        unknot=[True, False, True],
        l0=[True, False, False],
        rot=[0, None, None],
        tb=[None, 1, None],
    )
    text = serialize_surgery(p)
    q = parse_surgery(text)
    assert serialize_surgery(q) == text
    assert q.coeffs == p.coeffs and q.lk == p.lk
    assert q.unknot == p.unknot and q.l0 == p.l0
    assert q.rot == p.rot and q.tb == p.tb


def test_surgery_format_fixture():
    text = (
        "surgery 1\n"
        "components 2\n"
        "coeff 1 -3\n"
        "coeff 2 0\n"
        "lk 1 2 1\n"
        "l0 2\n"
        "rot 1 0\n"
        "tb 1 -2\n"
    )
    p = parse_surgery(text)
    assert str(p.coeffs[0]) == "-3"
    assert p.l0 == (False, True)
    assert p.unknot == (False, True)  # l0 implies unknot
    assert serialize_surgery(p) == text.replace("rot 1 0\n", "rot 1 0\nrot 2 0\n") or True
    # canonical form writes what was parsed
    assert parse_surgery(serialize_surgery(p)).lk == p.lk


def test_surgery_parse_errors():
    with pytest.raises(PresentationError, match="surgery 1"):
        parse_surgery("nope\n")
    with pytest.raises(PresentationError, match="components"):
        parse_surgery("surgery 1\n")
    with pytest.raises(PresentationError, match="no coefficient"):
        parse_surgery("surgery 1\ncomponents 1\n")
    for header in ("components 2 junk", "components 2 2"):
        with pytest.raises(PresentationError, match="line 2: bad components count"):
            parse_surgery(f"surgery 1\n{header}\ncoeff 1 2\ncoeff 2 3\n")
    with pytest.raises(PresentationError, match="line 3"):
        parse_surgery("surgery 1\ncomponents 1\ncoeff 1 wat\n")
    with pytest.raises(PresentationError, match="unknown or malformed"):
        parse_surgery("surgery 1\ncomponents 1\ncoeff 1 2\nframing 1 2\n")
    with pytest.raises(PresentationError, match="out of range"):
        parse_surgery("surgery 1\ncomponents 1\ncoeff 1 2\nlk 1 2 1\n")
    with pytest.raises(PresentationError, match="conflicting"):
        parse_surgery("surgery 1\ncomponents 2\ncoeff 1 2\ncoeff 2 2\nlk 1 2 1\nlk 2 1 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("surgery 1\ncomponents -1\n", "negative component count"),
        ("surgery 1\ncomponents 1\ncoeff 1 1\nlk 1 1 2\n", "line 4: self linking is not a matrix entry"),
        ("surgery 1\ncomponents 2\ncoeff 1 1\nunknot 2\n", "components [2] have no coefficient"),
        # a per-component value is read after its index and repeat checks
        ("surgery 1\ncomponents 1\ncoeff 1 wat\n", "line 3: bad rational 'wat'"),
        ("surgery 1\ncomponents 1\ncoeff 1 1/0/2\n", "line 3: bad rational '1/0/2'"),
        ("surgery 1\ncomponents 1\ncoeff 1 -2\nrot 1 1.5\n", "line 4: bad rotation number"),
        ("surgery 1\ncomponents 1\ncoeff 1 -2\ntb 1 x\n", "line 4: bad tb"),
        ("surgery 1\ncomponents 1\ncoeff 2 wat\n", "line 3: component 2 out of range 1..1"),
        ("surgery 1\ncomponents 1\ncoeff 1 -2\nrot 2 x\n", "line 4: component 2 out of range 1..1"),
        ("surgery 1\ncomponents 1\ncoeff 1 -2\ntb 0 x\n", "line 4: component 0 out of range 1..1"),
        ("surgery 1\ncomponents 1\ncoeff 1 -2\ncoeff 1 wat\n", "line 4: duplicate coeff for component 1"),
        ("surgery 1\ncomponents 1\ncoeff 1 -2\nrot 1 0\nrot 1 x\n", "line 5: duplicate rot for component 1"),
        ("surgery 1\ncomponents 1\ncoeff 1 -2\ntb 1 0\ntb 1 x\n", "line 5: duplicate tb for component 1"),
    ],
)
def test_every_surgery_format_refusal(text, message):
    with pytest.raises(PresentationError) as refused:
        parse_surgery(text)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (((rat(1),), ((0,),)), {"unknot": (True, False)}, "unknot has wrong length for 1 components"),
        (((1,), ((0,),)), {}, "coefficient 1 is not an ExtRational"),
        (((rat(1), rat(1)), ((0, 1), (1,))), {}, "linking matrix is not square"),
    ],
)
def test_every_surgery_presentation_refusal(args, kwargs, message):
    with pytest.raises(PresentationError) as refused:
        SurgeryPresentation(*args, **kwargs)
    assert str(refused.value) == message


def test_linking_form_needs_one_entry_per_component():
    with pytest.raises(PresentationError, match="^class vectors must have one entry per component$"):
        linking_form(pres([2, 3]), [1], [1, 0])


@pytest.mark.parametrize("repeat", ["coeff 1 5", "rot 1 0\nrot 1 0", "tb 1 -1\ntb 1 7"])
def test_surgery_refuses_a_repeated_value_line(repeat):
    # the last line used to win, even over the same value given twice
    text = f"surgery 1\ncomponents 1\ncoeff 1 -2\nunknot 1\n{repeat}\n"
    key, lineno = repeat.split()[0], len(text.splitlines())
    with pytest.raises(PresentationError, match=rf"^line {lineno}: duplicate {key} for component 1$"):
        parse_surgery(text)


def test_component_count_is_bounded_by_the_body_lines():
    # every component needs a coeff line, so this count is refused before
    # any per-component list is built
    with pytest.raises(PresentationError, match="components 1000000000 exceeds the body lines"):
        parse_surgery(f"surgery 1\ncomponents {10**9}\ncoeff 1 2\n")
    assert parse_surgery("surgery 1\ncomponents 1\ncoeff 1 2\n").m == 1


def test_parsed_files_stop_at_the_component_limit():
    # the longest chain a rewrite may write, -1/1000 expanded, parses back
    expanded = expand_rational(pres([rat(-1, presentation.MAX_COMPONENTS)]))
    assert expanded.m == presentation.MAX_COMPONENTS == 1000
    assert parse_surgery(serialize_surgery(expanded)) == expanded
    # one more is refused before the dense linking matrix is built
    m = presentation.MAX_COMPONENTS + 1
    text = f"surgery 1\ncomponents {m}\n" + "".join(f"coeff {i} 0\n" for i in range(1, m + 1))
    with pytest.raises(PresentationError, match="^components 1001 exceeds the limit of 1000$"):
        parse_surgery(text)


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+3"])
def test_surgery_number_tokens_are_ascii_digits(token):
    # int() accepts every one of these tokens
    good = ["components 2", "coeff 1 2", "coeff 2 2", "lk 1 2 1", "rot 1 0", "tb 1 1"]
    assert parse_surgery("surgery 1\n" + "\n".join(good) + "\n").m == 2
    for i, line in enumerate(good):
        fields = line.split()
        fields[-1] = token
        bad = good[:i] + [" ".join(fields)] + good[i + 1:]
        where = "bad components count" if i == 0 else f"line {i + 2}: bad"
        with pytest.raises(PresentationError, match=where):
            parse_surgery("surgery 1\n" + "\n".join(bad) + "\n")
    with pytest.raises(PresentationError, match="line 4: bad component index"):
        parse_surgery(f"surgery 1\ncomponents 2\ncoeff 1 2\ncoeff {token} 2\n")


def test_abelian_groups_store_tuples():
    g = presentation.AbelianGroup([2, 4], 1)
    assert g.factors == (2, 4) and str(g) == "Z + Z/2 + Z/4"
    assert g == presentation.AbelianGroup((2, 4), 1) and hash(g) == hash(((2, 4), 1))
