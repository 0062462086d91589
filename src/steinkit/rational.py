"""Exact scalars: extended rationals, Moebius maps, continued fractions.

The scalar half of steinkit.numerics, which re-exports all of it: the
value-class base Frozen, ExtRational, MobiusMap, the negative continued
fraction, integer and rational parsing (with the FRONT and SURGERY line
reader), and the int intake and symmetry check that the surgery core and
the matrix kernels share.  It imports no kernel, so a command line call
that reads only scalars compiles none.
"""

from __future__ import annotations

import operator
import re
from itertools import chain
from math import gcd


class NumericsError(ValueError):
    pass


class InternalError(Exception):
    """A certificate check inside steinkit failed: a defect of the library,
    not of its input, so no ValueError.  The command line exits 3 on it."""


class Frozen:
    """Base of steinkit's immutable value classes: a frozen dataclass
    without the `dataclasses` import or generated code.

    A subclass's fields are the parameters of its own __init__, which
    stores them (through self.__dict__, or with _set in the most-read
    classes, as on CPython 3.11 a materialised __dict__ slows every later
    attribute read) and ends by calling __post_init__ where the class has
    one.  Repr reads the fields in order; equality (same class only) and
    hash read _key, the fields in order unless a subclass overrides it.
    Setting or deleting an attribute raises FrozenInstanceError.  A value
    derived from validated ones is built by _unchecked, which stores its
    fields and runs neither __init__ nor __post_init__.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    @classmethod
    def _unchecked(cls, *values):
        """An instance whose fields, in order, are values, stored unchecked:
        the caller vouches for every invariant that __post_init__ checks."""
        new = object.__new__(cls)
        new.__dict__.update(zip(cls._fields, values, strict=True))
        return new

    def _key(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # here: it loads inspect

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


_set = object.__setattr__  # writes a field past Frozen.__setattr__


def int_entries(values, error) -> tuple[int, ...]:
    """values as a tuple of plain ints, a bool stored as the int it equals
    (which every serializer writes and every parser reads back); error(i, v)
    is raised at the first entry v, at index i, that is not an int."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    for i, v in enumerate(values):
        if not isinstance(v, int):
            raise error(i, v)
    return tuple(map(int, values))


# ---------------------------------------------------------------------------
# extended rationals


class ExtRational(Frozen):
    """A rational number or the single point at infinity.

    Canonical form: den >= 0, gcd(num, den) == 1, and infinity is 1/0.
    Arithmetic and order run on num/den alone; int is the only other operand.
    Infinity is unsigned, so the order operators reject it.
    """

    def __init__(self, num: int, den: int = 1):
        _set(self, "num", num)
        _set(self, "den", den)
        self.__post_init__()

    def __post_init__(self):
        num, den = self.num, self.den
        if type(num) is not int or type(den) is not int:
            num, den = int_entries(
                (num, den), lambda i, v: NumericsError(f"ExtRational needs ints, got {num!r}/{den!r}"))
        if den == 0:
            if num == 0:
                raise NumericsError("0/0 is not a point of the projective line")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g > 1:
                num, den = num // g, den // g
        _set(self, "num", num)
        _set(self, "den", den)

    # -- predicates

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    # -- arithmetic (finite-only unless a rule below applies)

    def _coerce(self, other) -> "ExtRational":
        if isinstance(other, ExtRational):
            return other
        if isinstance(other, int):
            return ExtRational(other)
        raise NumericsError(f"cannot combine ExtRational with {other!r}")

    def __add__(self, other) -> "ExtRational":
        other = self._coerce(other)
        if self.is_infinite and other.is_infinite:
            raise NumericsError("inf + inf is undefined")
        if self.is_infinite or other.is_infinite:
            return INF
        return ExtRational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "ExtRational":
        if self.is_infinite:
            return INF
        return ExtRational(-self.num, self.den)

    def __sub__(self, other) -> "ExtRational":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "ExtRational":
        other = self._coerce(other)
        if self.is_infinite or other.is_infinite:
            if self == ZERO or other == ZERO:
                raise NumericsError("0 * inf is undefined")
            return INF
        return ExtRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "ExtRational":
        return ExtRational(self.den, self.num)

    def __truediv__(self, other) -> "ExtRational":
        other = self._coerce(other)
        if self.is_infinite and other.is_infinite:
            raise NumericsError("inf / inf is undefined")
        return self * other.reciprocal()

    # -- order (finite operands only)

    def _cross(self, other) -> tuple[int, int]:
        """(a*d, c*b) for self = a/b and other = c/d.  Both denominators
        are positive, so these products are ordered as the two values."""
        if self.is_infinite:
            raise NumericsError("infinity is not ordered")
        other = self._coerce(other)
        if other.is_infinite:
            raise NumericsError("infinity is not ordered")
        return self.num * other.den, other.num * self.den

    def __lt__(self, other):
        return operator.lt(*self._cross(other))

    def __le__(self, other):
        return operator.le(*self._cross(other))

    def __gt__(self, other):
        return operator.gt(*self._cross(other))

    def __ge__(self, other):
        return operator.ge(*self._cross(other))

    def __eq__(self, other):
        if isinstance(other, (int, ExtRational)):
            other = self._coerce(other)
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        # an integer value equals its int, so it must hash like one
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"ExtRational({self})"


INF = ExtRational(1, 0)
ZERO = ExtRational(0)


def rat(num, den: int = 1) -> ExtRational:
    """Shorthand constructor: an ExtRational as it is, or num/den from ints."""
    if isinstance(num, ExtRational):
        return num
    return ExtRational(num, den)


_INT_RE = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """An integer token, -?[0-9]+: unlike int(), no '1_0', no non-ASCII
    digits, no leading '+' and no surrounding whitespace."""
    if not _INT_RE.fullmatch(text):
        raise NumericsError(f"bad integer {text!r}")
    return int(text)


def parse_rational(text: str) -> ExtRational:
    """'inf', 'p' or 'p/q', with p and q read by parse_int, so no blanks."""
    if text == "inf":
        return INF
    num, slash, den = text.partition("/")
    try:
        return ExtRational(parse_int(num), parse_int(den) if slash else 1)
    except ValueError as exc:
        raise NumericsError(f"bad rational {text!r}") from exc


def _read_records(text: str, header: str, count: str, error, bad: str, negative: str, lacking: str):
    """The count and the (line number, fields) body records of a FRONT or
    SURGERY text, by the rules both formats share.  Lines end at '\\n',
    '\\r\\n' or '\\r' only, as open() reads them; '#' starts a comment and
    blank lines are skipped.  Line one is header, line two the count line
    (count, such as 'handles <n>'): its key then one parse_int token, at
    least 0 and at most the body lines.  A refusal is error(message), the
    caller's words bad, negative and lacking completing its messages."""
    ends = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [(lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(ends, start=1)]
    lines = [(lineno, body) for lineno, body in lines if body]
    if not lines or lines[0][1] != header:
        raise error(f"missing {header!r} header")
    key = count.split()[0]
    if len(lines) < 2 or not lines[1][1].startswith(key + " "):
        raise error(f"missing {count!r} line")
    try:
        _, token = lines[1][1].split()
        n = parse_int(token)
    except ValueError as exc:
        raise error(f"line {lines[1][0]}: {bad}") from exc
    if n < 0:
        raise error(negative)
    if n > len(lines) - 2:  # each counted item has a body line of its own
        raise error(f"{key} {n} exceeds the body lines, so one has no {lacking}")
    return n, [(lineno, body.split()) for lineno, body in lines[2:]]


# ---------------------------------------------------------------------------
# Moebius maps


class MobiusMap(Frozen):
    """Determinant-one fractional linear map r -> (c + d r) / (a + b r).

    The layout matches slope coordinates: rows (a, b) and (c, d), acting on
    the projective rational line with inf -> d/b.  Maps are canonicalised to
    a single sign representative, so equal maps compare equal.  Entries
    are read by int_entries.
    """

    def __init__(self, a: int, b: int, c: int, d: int):
        f = self.__dict__
        f["a"], f["b"], f["c"], f["d"] = a, b, c, d
        self.__post_init__()

    def __post_init__(self):
        f = self.__dict__
        entries = a, b, c, d = f["a"], f["b"], f["c"], f["d"]
        if not type(a) is type(b) is type(c) is type(d) is int:
            entries = a, b, c, d = int_entries(
                entries, lambda i, v: NumericsError(f"MobiusMap needs int entries, got {entries!r}"))
        if a * d - b * c != 1:
            raise NumericsError(f"MobiusMap needs determinant 1, got {a * d - b * c}")
        if (a or b or c or d) < 0:
            entries = -a, -b, -c, -d
        f["a"], f["b"], f["c"], f["d"] = entries

    def __str__(self) -> str:
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


# ---------------------------------------------------------------------------
# continued fractions with all tail terms <= -2


class ContinuedFraction(Frozen):
    """Expansion r = a0 - 1/(a1 - 1/(... - 1/ak)) with a_j <= -2 for j >= 1.

    With that tail constraint the expansion of a rational is unique, which
    makes chain presentations canonical.  The terms are read by int_entries.
    """

    def __init__(self, terms: tuple[int, ...]):
        self.__dict__["terms"] = terms
        self.__post_init__()

    def __post_init__(self):
        # the truth test refuses None before the read, an empty read after it
        terms = self.terms and int_entries(
            self.terms, lambda i, t: NumericsError(f"continued fraction terms must be ints, got {t!r}"))
        if not terms:
            raise NumericsError("a continued fraction needs at least one term")
        self.__dict__["terms"] = terms
        for t in self.terms[1:]:
            if t > -2:
                raise NumericsError(f"tail term {t} violates the <= -2 normal form")


def neg_continued_fraction(r: ExtRational) -> ContinuedFraction:
    """The unique expansion of a finite rational with tail terms <= -2."""
    if not isinstance(r, ExtRational):
        raise NumericsError(f"neg_continued_fraction needs an ExtRational, got {type(r).__name__}")
    if r.is_infinite:
        raise NumericsError("infinity has no continued fraction expansion")
    num, den, terms = r.num, r.den, []
    while True:
        fl, rem = divmod(num, den)
        terms.append(fl)
        if rem == 0:
            return ContinuedFraction(tuple(terms))
        # r = fl + rem/den = fl - 1/r' means r' = -den/rem, in (-inf, -1)
        num, den = -den, rem


def first_asymmetry(matrix) -> tuple[int, int] | None:
    """The first (i, j), j < i in row-major order, where a square matrix
    differs from its transpose; None when it is symmetric.  A ragged or
    non-square matrix is refused.  Plain ints are compared row against
    column at C speed; other entries (nan) by the scan."""
    if any(len(row) != len(matrix) for row in matrix):
        raise NumericsError("first_asymmetry needs a square matrix")
    return _first_asymmetry(matrix, set(map(type, chain.from_iterable(matrix))) <= {int})


def _first_asymmetry(matrix, ints: bool) -> tuple[int, int] | None:
    """first_asymmetry for a caller that has checked that the matrix is
    square and scanned its entry types: ints says every entry is a plain int."""
    if ints and [*map(tuple, matrix)] == [*zip(*matrix)]:
        return None
    n = len(matrix)
    return next(
        ((i, j) for i in range(n) for j in range(i) if matrix[i][j] != matrix[j][i]), None
    )
