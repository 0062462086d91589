"""The value classes against frozen-dataclass twins.

Every value class derives from numerics.Frozen instead of being a
@dataclass(frozen=True).  Each twin below is that dataclass: the class's
own methods (its __post_init__ included) under the dataclass decorator,
with the fields and field options the class had as a dataclass.  The
twins are the reference for equality, hash, repr, defaults and
construction; pickle, copy and the frozen errors are checked on the
classes themselves.
"""

import copy
import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from fractions import Fraction
from itertools import chain

import pytest

from steinkit import families, front, invariants, numerics, presentation
from steinkit.numerics import INF, Frozen, MobiusMap, rat

EVENTS = front.parse_event_word("L1 R1")
TWO_UNKNOTS = front.parse_event_word("L1 R1 L1 R1")
PLAN_ROW = presentation.PlanRow(1, (-3,), (2,), (-2,), (None,))
HIDDEN = field(init=False, repr=False, compare=False)

# class: (fields as a dataclass, with their options; sample positional args)
CASES = {
    numerics.ExtRational: (["num", ("den", 1)], [(3, -6), (1, 0), (2,), (True, 2), (4, 2)]),
    numerics.MobiusMap: (
        ["a", "b", "c", "d"],
        [(1, 0, 0, 1), (-1, 0, 0, -1), (2, 1, -3, -1), (0, 1, -1, 0), (True, 0, 0, 1)],
    ),
    numerics.ContinuedFraction: (["terms"], [((1, -2, -3),), ((0,),), ([2, -2],)]),
    numerics.SmithForm: (
        ["diagonal", "left", "right"],
        [((1, 6), ((1, 0), (0, 1)), ((0, 1), (1, 0))), ((), (), ())],
    ),
    numerics.Gf2Solution: (["particular", "kernel_basis"], [((0, 1), ((1, 0),)), ((), ())]),
    families.SeifertData: (
        ["orientable", "genus", "coefficients"],
        [(True, 0, (rat(2), rat(-3, 2))), (False, 1, [rat(1)]), (True, True, ())],
    ),
    families.SeifertNormal: (
        ["e", "e0", "rprime", "k0"], [(rat(1, 2), -1, (INF, rat(-2)), 1), (rat(0), 0, (), 0)]
    ),
    families.NFunctionResult: (
        ["kind", ("value", None), ("infinite", False), ("witness", None)],
        [("sentinel",), ("bound", 3, False, MobiusMap(2, 1, -3, -1)), ("bound", None, True)],
    ),
    families.SeifertDecision: (
        ["verdict", ("reason", None), ("detail", ""), ("pair", None), ("n_result", None)],
        [("YES",), ("YES", "a", "base is not a sphere"),
         ("UNKNOWN", "d", "", (1, 2), families.NFunctionResult("bound"))],
    ),
    families.BorromeanCoeffs: (
        ["r1", "r2", "r3"], [(rat(1), rat(2), rat(-1, 3)), (INF, rat(2), rat(-1, 3))]
    ),
    families.BorromeanDecision: (
        ["verdict", ("in_a0", False), ("in_a2", False), ("in_a3", False), ("detail", "")],
        [("YES",), ("UNKNOWN", True, False, False, "x"), ("UNKNOWN", False, True)],
    ),
    front.Event: (["kind", "pos"], [("X", 1), ("L", 2), ("X", True)]),
    front.FrontDiagram: (
        ["slots", "events", ("orientations", field(default_factory=dict)),
         ("coefficients", field(default_factory=dict)), ("trace", HIDDEN)],
        [((), EVENTS), ([], list(EVENTS), {1: -1}), ((), EVENTS, {}, {1: rat(-2)}),
         ((), EVENTS, {}, {1: front.STEIN}), ((), TWO_UNKNOTS, {2: -1, 1: 1}, {2: rat(1, 2)})],
    ),
    front.ComponentStats: (
        ["component", "orientation", "left_cusps", "right_cusps", "up_cusps", "down_cusps",
         "writhe", "tb", "rot", "runs", "passes", "coefficient"],
        [(1, 1, 1, 1, 1, 1, 0, -1, 0, (), (), None),
         (2, -1, 2, 2, 1, 3, 1, -1, -1, (1,), (1,), rat(-2))],
    ),
    front.ParityReport: (
        ["component", "tb", "rot", "total_passes", "ok"], [(1, -1, 0, 0, True), (2, -2, 0, 1, False)]
    ),
    front.SteinFormReport: (["ok", "problems"], [(True, ()), (False, ("x",))]),
    invariants.SteinPresentation: (
        ["q", "runs", "rot"],
        [(((-1,),), (), (0,)), ([[-2, 1], [1, -2]], [], [1, 1]), ([[2]], [[1]], [True])],
    ),
    invariants.SpinStructure: (["sublink"], [((0, 1),), ((),), ((1, 1, 0),)]),
    invariants.CokernelClass: (
        ["coords", "orders", ("representative", field(compare=False, default=()))],
        [((1,), (3,), (4,)), ((1,), (3,)), ((2,), (3,), (2,))],
    ),
    presentation.SurgeryPresentation: (
        ["coeffs", "lk", ("unknot", ()), ("l0", ()), ("rot", ()), ("tb", ())],
        [((rat(-3), rat(-1)), ((0, 1), (1, 0))),
         ([rat(0)], [[0]], [True], [True], [None], [None]),
         ((rat(1, 2),), ((0,),), (), (), (1,), (2,))],
    ),
    presentation.AbelianGroup: (["factors", ("rank", 0)], [((2,), 1), ((),), ((2, 4),)]),
    presentation.PlanRow: (
        ["component", "chain", "zigzags", "tb_targets", "rot_targets"],
        [(1, (-3,), (2,), (-2,), (None,)), (2, (-2, -2), (1, 0), (-1, -1), (0, 0))],
    ),
    presentation.SteinPlan: (
        ["ok", "violations", "rows", "expanded"],
        [(True, (), (PLAN_ROW,), None), (False, ((1, "no tb data"),), (), None)],
    ),
}

OWN = ("__init__", "__dict__", "__weakref__", "_fields", "_compared", "_uncompared")


def twin(cls, spec):
    """cls as the frozen dataclass it was: its own methods, these fields."""
    namespace = {k: v for k, v in vars(cls).items() if k not in OWN}
    annotations = {}
    for entry in spec:
        name, default = (entry, MISSING) if isinstance(entry, str) else entry
        annotations[name] = object
        if default is not MISSING:
            namespace[name] = default
    namespace["__annotations__"] = annotations
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


TWINS = {cls: twin(cls, spec) for cls, (spec, _) in CASES.items()}
IDS = [cls.__name__ for cls in CASES]


def test_every_value_class_has_a_twin():
    values = {
        v for m in (families, front, invariants, numerics, presentation)
        for v in vars(m).values() if isinstance(v, type) and issubclass(v, Frozen) and v is not Frozen
    }
    assert values == set(CASES) and len(CASES) == 23


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_signature_and_defaults_match_the_twin(cls):
    tw = TWINS[cls]
    assert cls._fields == tuple(f.name for f in fields(tw) if f.init)
    assert cls._compared == tuple(f.name for f in fields(tw) if f.init and f.compare)
    ours = inspect.signature(cls).parameters
    theirs = inspect.signature(tw).parameters
    assert list(ours) == list(theirs)
    required = [n for n, p in theirs.items() if p.default is inspect.Parameter.empty]
    args = next(a for a in CASES[cls][1] if len(a) == len(required))
    made, reference = cls(*args), tw(*args)
    for f in fields(tw):
        if not f.init:
            continue
        assert ours[f.name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if f.default_factory is not MISSING:
            # a fresh default per call, as default_factory gave
            assert ours[f.name].default is None
            assert getattr(made, f.name) == f.default_factory()
            assert getattr(made, f.name) is not getattr(cls(*args), f.name)
        else:
            assert ours[f.name].default == theirs[f.name].default
        value, want = getattr(made, f.name), getattr(reference, f.name)
        assert (type(value), repr(value)) == (type(want), repr(want))


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_values_behave_as_their_twins(cls):
    tw = TWINS[cls]
    samples = CASES[cls][1]
    made = [cls(*args) for args in samples]
    reference = [tw(*args) for args in samples]
    for args, ours, theirs in zip(samples, made, reference):
        keyword = cls(**dict(zip(cls._fields, args)))
        for name in cls._fields:
            value, want = getattr(ours, name), getattr(theirs, name)
            assert (type(value), repr(value)) == (type(want), repr(want))
            assert repr(getattr(keyword, name)) == repr(want)
        assert repr(ours) == repr(keyword) == repr(theirs)
        assert hash(ours) == hash(theirs)  # every value hashes
        assert ours.__eq__(theirs) is NotImplemented
    if "__eq__" in vars(cls):
        return  # ExtRational keeps its own equality, which reads ExtRational by name
    sub, twin_sub = type(cls.__name__, (cls,), {}), type(tw.__name__, (tw,), {})
    for args, ours, theirs in zip(samples, made, reference):
        assert ours != theirs and theirs != ours  # another class, though the same fields
        assert ours != sub(*args) and theirs != twin_sub(*args)  # a subclass is another class
    for i, (a, ta) in enumerate(zip(made, reference)):
        for b, tb in zip(made[i:], reference[i:]):
            assert (a == b, a != b) == (ta == tb, ta != tb)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_unchecked_builds_the_validated_value_without_checking(monkeypatch, cls):
    samples = [cls(*args) for args in CASES[cls][1]]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} was checked")

    monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(cls, "__post_init__", refuse, raising=False)
    for sample in samples:
        values = [getattr(sample, n) for n in cls._fields]
        value = cls._unchecked(*values)
        assert type(value) is cls
        assert value == sample and repr(value) == repr(sample) and hash(value) == hash(sample)
        for wrong in (values[:-1], [*values, None]):
            with pytest.raises(ValueError, match="zip"):
                cls._unchecked(*wrong)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_values_round_trip_through_pickle_and_copy(cls):
    for args in CASES[cls][1]:
        value = cls(*args)
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
            assert type(clone) is cls
            assert repr(clone) == repr(value)
            assert hash(clone) == hash(value)
            assert vars(clone).keys() == vars(value).keys()
            assert clone == value


def test_a_front_diagram_keeps_its_own_dicts():
    orientations, coefficients = {2: -1, 1: 1}, {2: rat(1, 2)}
    d = front.FrontDiagram((), TWO_UNKNOTS, orientations, coefficients)
    orientations[2], coefficients[2] = 5, front.STEIN
    assert d.orientation(2) == -1 and d.coefficients == {2: rat(1, 2)}
    # equal diagrams hash alike, whatever order their dicts were built in
    twin = front.FrontDiagram((), TWO_UNKNOTS, {1: 1, 2: -1}, {2: rat(1, 2)})
    assert d == twin and hash(d) == hash(twin)
    assert d != front.FrontDiagram((), TWO_UNKNOTS, {1: 1, 2: 1}, {2: rat(1, 2)})
    # an omitted orientation is +1, so a diagram equals its round trip,
    # which writes every orientation out, and hashes alike
    bare = front.FrontDiagram((), TWO_UNKNOTS, {2: -1}, {2: rat(1, 2)})
    assert bare == twin and hash(bare) == hash(twin)
    for value in (bare, front.FrontDiagram((), EVENTS)):
        back = front.parse_front(front.serialize_front(value))
        assert back.orientations.keys() == set(back.trace.ids) != value.orientations.keys()
        assert back == value and hash(back) == hash(value)


def test_front_diagrams_keep_their_trace_through_pickle_and_copy():
    d = front.FrontDiagram((), EVENTS, {1: -1})
    for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d)):
        assert clone == d and clone.trace.ids == d.trace.ids
        assert clone.derived.stats == d.derived.stats


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_values_are_frozen(cls):
    value = cls(*CASES[cls][1][0])
    before = repr(value)
    for name in (*cls._fields, "other"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == before


def test_uncompared_fields_stay_out_of_equality_and_hash():
    a = invariants.CokernelClass((1,), (3,), (4,))
    b = invariants.CokernelClass((1,), (3,), (7,))
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    d = front.FrontDiagram((), EVENTS)
    assert "trace" not in repr(d) and "trace" not in front.FrontDiagram._fields
    x = invariants.SteinPresentation([[2]], [[1]], [0])
    assert "_qs" not in repr(x) and x == invariants.SteinPresentation(((2,),), ((1,),), (0,))


# ---------------------------------------------------------------------------
# the int intake: each place that takes integer data stores a bool as the
# int it equals and refuses any other entry with its own message, which
# names the first entry that is not an int

NAN = float("nan")
INTAKE_VALUES = [True, False, 1.0, 1.5, "1", None, NAN, Fraction(1, 2)]
UPPER = [(0, 1), (0, 2), (1, 2)]  # the entries of a 3 x 3 matrix above its diagonal
LENS_SUM = presentation.SurgeryPresentation((rat(2), rat(3)), ((0, 0), (0, 0)))


def cut(flat, lengths):
    """flat cut into tuples of the given lengths."""
    it = iter(flat)
    return tuple(tuple(next(it) for _ in range(n)) for n in lengths)


def mirrored(flat):
    """The 3 x 3 matrix with zero diagonal and flat above and below it."""
    a, b, c = flat
    return (0, a, b), (a, 0, c), (b, c, 0)


def lk_refusal(flat, i, v):
    if v != v:  # nan differs from itself, so the matrix is asymmetric there
        r, c = UPPER[i]
        return presentation.PresentationError, f"linking matrix asymmetric at ({c + 1}, {r + 1})"
    return presentation.PresentationError, "linking numbers must be integers"


def stein_refusal(flat, i, v):
    if i >= 6:
        return invariants.InvariantError, f"rot entry {i - 5} must be an int, got {v!r}"
    name, (r, c) = ("q", divmod(i, 2)) if i < 4 else ("runs", divmod(i - 4, 2))
    return invariants.InvariantError, f"{name} entry ({r + 1}, {c + 1}) must be an int, got {v!r}"


def lens_pairing(flat):
    value = presentation.linking_form(LENS_SUM, flat[:2], flat[2:])
    return value.numerator, value.denominator


# site: (int entries that it accepts, the entries it stores from them,
# the refusal (type, message) of entry v at index i)
INTAKE = {
    "ExtRational": (
        (3, 4),
        lambda e: (lambda r: (r.num, r.den))(numerics.ExtRational(*e)),
        lambda e, i, v: (numerics.NumericsError, f"ExtRational needs ints, got {e[0]!r}/{e[1]!r}"),
    ),
    "MobiusMap": (
        (1, 0, 1, 1),
        lambda e: (lambda f: (f.a, f.b, f.c, f.d))(MobiusMap(*e)),
        lambda e, i, v: (numerics.NumericsError, f"MobiusMap needs int entries, got {tuple(e)!r}"),
    ),
    "ContinuedFraction": (
        (1, -2, -3, -2),
        lambda e: numerics.ContinuedFraction(e).terms,
        lambda e, i, v: (numerics.NumericsError, f"continued fraction terms must be ints, got {v!r}"),
    ),
    "Event": (
        (2,),
        lambda e: (front.Event("X", *e).pos,),
        lambda e, i, v: (front.FrontError, f"event position {v!r} must be an integer"),
    ),
    "int_rows": (
        (1, -2, 3, 0, 5, -6),
        lambda e: tuple(chain.from_iterable(numerics._int_rows(cut(e, (3, 3))))),
        lambda e, i, v: (numerics.NumericsError, f"matrix entries must be ints, got {v!r}"),
    ),
    "SurgeryPresentation": (
        (1, -2, 3),
        lambda e: tuple(chain.from_iterable(presentation.SurgeryPresentation((rat(1),) * 3, mirrored(e)).lk)),
        lk_refusal,
    ),
    "linking_form": (
        (1, 1, 1, 0),
        lens_pairing,
        lambda e, i, v: (presentation.PresentationError,
                         f"class {'xy'[i >= 2]} has a non-int entry {v!r}"),
    ),
    "SteinPresentation": (
        (2, 1, 1, -2, 1, 0, 1, -1),
        lambda e: (lambda s: tuple(chain(*s.q, *s.runs, s.rot)))(
            invariants.SteinPresentation(cut(e[:4], (2, 2)), cut(e[4:6], (2,)), e[6:])
        ),
        stein_refusal,
    ),
}
INTAKE_CASES = [
    (site, v, i)
    for site, (base, _, _) in INTAKE.items()
    for i in sorted({0, len(base) // 2, len(base) - 1})
    for v in INTAKE_VALUES
]


def intake_outcome(make, entries):
    try:
        stored = make(entries)
    except ValueError as exc:
        return type(exc), str(exc)
    assert all(type(v) is int for v in stored)
    return "stored", repr(stored)


@pytest.mark.parametrize("site, value, i", INTAKE_CASES, ids=[f"{s}-{v!r}-{i}" for s, v, i in INTAKE_CASES])
def test_each_int_intake_stores_a_bool_as_its_int_and_refuses_the_rest(site, value, i):
    base, make, refusal = INTAKE[site]
    entries = [*base]
    entries[i] = value
    if isinstance(value, int):  # a bool: stored, or refused, as the int it equals
        plain = [*base]
        plain[i] = int(value)
        assert intake_outcome(make, entries) == intake_outcome(make, plain)
        return
    want, message = refusal(entries, i, value)
    with pytest.raises(ValueError) as refused:
        make(entries)
    assert (type(refused.value), str(refused.value)) == (want, message)


@pytest.mark.parametrize(
    "lk, message",
    [
        (((0, 1.0), (1.0, 0)), "linking numbers must be integers"),
        # an asymmetry is reported before the entries' types
        (((0, 1.5), (2, 0)), "linking matrix asymmetric at (2, 1)"),
        (((0, NAN), (NAN, 0)), "linking matrix asymmetric at (2, 1)"),
    ],
)
def test_a_linking_matrix_is_checked_for_symmetry_before_its_types(lk, message):
    with pytest.raises(ValueError) as refused:
        presentation.SurgeryPresentation((rat(1), rat(1)), lk)
    assert (type(refused.value), str(refused.value)) == (presentation.PresentationError, message)
