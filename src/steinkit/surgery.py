"""Rational surgery presentations of 3-manifolds: the data and its reads.

A presentation is a framed link given by exact surgery coefficients and a
symmetric integer linking matrix.  Components may carry bookkeeping flags
(geometric unknot, member of the surgered one-handle sublink) and optional
Legendrian data (tb, rotation number).  This module holds the presentation
itself, first homology, the linking form and the SURGERY format; the
rewrites are in steinkit.presentation, which re-exports all of this.  The
integer kernels are imported where they run, so reading and writing a
presentation compiles none of them.
"""

from __future__ import annotations

from itertools import chain
from math import prod

from .rational import (
    ZERO, ExtRational, Frozen, _first_asymmetry, _read_records, int_entries, parse_int, parse_rational,
)


class PresentationError(ValueError):
    pass


class SurgeryPresentation(Frozen):
    """A framed link with rational coefficients and exact linking data.

    lk is symmetric with zero diagonal; the surgery coefficient lives in
    coeffs, never on the diagonal.  l0 marks components that arose from
    surgering one-handles (coefficient 0, geometric unknots); rot and tb
    are optional Legendrian data carried along for Stein constructions.

    Presentations are frozen: every field is stored as a tuple (lk as a
    tuple of rows), empty flag fields are filled with their defaults, the
    entry types of lk are scanned once and, unless all are plain ints, its
    rows are read by int_entries once the matrix is known symmetric,
    a bool (or other int subclass) rot or tb is stored as the plain int it
    equals, and the data is validated once, on construction; delete, the
    rewrites and surger_handles build from validated values by
    Frozen._unchecked.
    """

    def __init__(self, coeffs: tuple[ExtRational, ...], lk: tuple[tuple[int, ...], ...],
                 unknot: tuple[bool, ...] = (), l0: tuple[bool, ...] = (),
                 rot: tuple[int | None, ...] = (), tb: tuple[int | None, ...] = ()):
        self.__dict__.update(coeffs=coeffs, lk=lk, unknot=unknot, l0=l0, rot=rot, tb=tb)
        self.__post_init__()

    def __post_init__(self):
        m = len(self.coeffs)
        d = self.__dict__
        d["coeffs"] = tuple(self.coeffs)
        d["lk"] = tuple(map(tuple, self.lk))
        for name, blank in (("unknot", False), ("l0", False), ("rot", None), ("tb", None)):
            value = d[name]
            d[name] = tuple(value) if value else (blank,) * m
        for name in ("lk", "unknot", "l0", "rot", "tb"):
            if len(getattr(self, name)) != m:
                raise PresentationError(f"{name} has wrong length for {m} components")
        for i, c in enumerate(self.coeffs):
            if not isinstance(c, ExtRational):
                raise PresentationError(f"coefficient {i + 1} is not an ExtRational")
        for i, row in enumerate(self.lk):
            if len(row) != m:
                raise PresentationError("linking matrix is not square")
            if row[i] != 0:
                raise PresentationError(
                    f"linking matrix has nonzero diagonal at component {i + 1}; "
                    "framings belong in coeffs"
                )
        ints = set(map(type, chain.from_iterable(self.lk))) <= {int}
        bad = _first_asymmetry(self.lk, ints)
        if bad is not None:
            raise PresentationError(f"linking matrix asymmetric at ({bad[0] + 1}, {bad[1] + 1})")
        if not ints:
            d["lk"] = tuple(
                int_entries(row, lambda i, v: PresentationError("linking numbers must be integers"))
                for row in self.lk
            )
        if not set(map(type, chain(self.rot, self.tb))) <= {int, type(None)}:
            for name in ("rot", "tb"):
                values = getattr(self, name)
                for i, v in enumerate(values):
                    if v is not None and not isinstance(v, int):
                        raise PresentationError(
                            f"{name} of component {i + 1} must be an integer, got {v!r}"
                        )
                d[name] = tuple(v if v is None else int(v) for v in values)
        for i, c in enumerate(self.coeffs):
            if self.l0[i]:
                if c != ZERO:
                    raise PresentationError(
                        f"component {i + 1} is marked l0 but has coefficient {c}"
                    )
                if not self.unknot[i]:
                    raise PresentationError(f"component {i + 1} is marked l0 but not unknot")

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def delete(self, index: int) -> "SurgeryPresentation":
        """Remove one component (0-based): its fields sliced out, unchecked."""
        i = _check_index(self, index, 0)
        fields = self.coeffs, self.lk, self.unknot, self.l0, self.rot, self.tb
        coeffs, lk, unknot, l0, rot, tb = (t[:i] + t[i + 1:] for t in fields)
        lk = tuple(row[:i] + row[i + 1:] for row in lk)
        return SurgeryPresentation._unchecked(coeffs, lk, unknot, l0, rot, tb)

    def relation_matrix(self) -> list[list[int]]:
        """The m x m relation matrix of first homology of the surgered manifold.

        Row i is p_i e_i + q_i sum_j lk_ij e_j for the coefficient p_i/q_i,
        so infinity (1/0) gives the row e_i and an integer coefficient gives
        the linking matrix row with the framing on the diagonal.
        """
        rows = [list(row) if c.den == 1 else [c.den * v for v in row] for c, row in zip(self.coeffs, self.lk)]
        for i, c in enumerate(self.coeffs):
            rows[i][i] = c.num
        return rows

    def integer_matrix(self) -> list[list[int]]:
        """Linking matrix with framings on the diagonal; integer coefficients only."""
        for i, c in enumerate(self.coeffs):
            if not (c.is_integer and not c.is_infinite):
                raise PresentationError(
                    f"component {i + 1} has non-integer coefficient {c}; expand first"
                )
        return self.relation_matrix()


def _check_index(p: SurgeryPresentation, i: int, base: int = 1) -> int:
    if not isinstance(i, int):
        raise PresentationError(f"component index {i!r} is not an int")
    if not base <= i < p.m + base:
        raise PresentationError(f"component index {i} out of range {base}..{p.m + base - 1}")
    return i - base


# ---------------------------------------------------------------------------
# first homology


class AbelianGroup(Frozen):
    """Finitely generated abelian group in invariant-factor form: factors,
    stored as a tuple, are each > 1 with d_i | d_{i+1}."""

    def __init__(self, factors: tuple[int, ...], rank: int = 0):
        d = self.__dict__
        d["factors"], d["rank"] = tuple(factors), rank

    def order(self) -> int | None:
        return None if self.rank else prod(self.factors)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.factors)
        return " + ".join(parts) if parts else "0"


def cokernel(matrix) -> AbelianGroup:
    """Cokernel of an integer matrix acting on column vectors.

    Read off the invariant factors alone (numerics.invariant_factors): no
    unimodular witnesses are built and no dimension is capped.
    """
    from .numerics import invariant_factors

    return _group(invariant_factors(matrix), len(matrix))


def _group(diag, nrows: int) -> AbelianGroup:
    """The cokernel of nrows relations with invariant factors diag; missing columns leave free generators."""
    return AbelianGroup(factors=tuple(d for d in diag if d > 1), rank=diag.count(0) + nrows - len(diag))


def h1(p: SurgeryPresentation) -> AbelianGroup:
    """First homology of the surgered manifold.

    The cokernel of the m x m relation matrix (Rolfsen, Knots and Links,
    ch. 9), taken straight from the rational coefficients: there is no
    chain expansion, so the matrix has dimension m.  Only the invariant
    factors are computed, by cokernel's diagonal-only route, so no Smith
    form witness is built and m is not capped.
    """
    from .numerics import _invariant_factors

    return _group(_invariant_factors(p.relation_matrix()), p.m)  # fresh int rows need no intake


# ---------------------------------------------------------------------------
# linking form


def linking_form(p: SurgeryPresentation, x, y) -> Fraction:
    """Linking pairing of two torsion classes, as a fraction in [0, 1).

    Classes are int vectors in meridian coordinates, read by int_entries
    (any other entry raises PresentationError).  The value is
    -x . Q^(-1) y mod 1, read off one fraction-free congruence of Q
    bordered by x and y; both inputs must be torsion in the cokernel,
    otherwise the pairing is undefined.
    """
    q = p.integer_matrix()
    m = p.m
    if len(x) != m or len(y) != m:
        raise PresentationError("class vectors must have one entry per component")
    x = int_entries(x, lambda i, v: PresentationError(f"class x has a non-int entry {v!r}"))
    y = int_entries(y, lambda i, v: PresentationError(f"class y has a non-int entry {v!r}"))
    from .numerics import _bordered_congruence

    *_, value = _bordered_congruence(q, [*x], [*y])
    if value is None:
        raise PresentationError("linking form undefined: class is not torsion")
    from fractions import Fraction  # here, so that importing surgery does not load it

    num, den = value
    return Fraction(-num % den, den)


# A rewrite builds an m x m linking matrix, and the chain of -1/n alone has
# n entries, so a rewrite may not grow a presentation past this many
# components, and parse_surgery reads no file declaring more.  It is far
# above the longest expansion that the tests and the benchmark build.
MAX_COMPONENTS = 1000


# ---------------------------------------------------------------------------
# the SURGERY file format


def parse_surgery(text: str) -> SurgeryPresentation:
    """Parse the SURGERY interchange format.

    Headers: 'surgery 1' then 'components <m>', with m at most
    MAX_COMPONENTS.  Body keys: coeff, lk,
    unknot, l0, rot, tb.  Unknown keys are errors; every component needs
    a coefficient and takes at most one coeff, rot and tb line; lk
    entries are symmetric and default to 0.
    """
    m, records = _read_records(text, "surgery 1", "components <m>", PresentationError, "bad components count",
                               "negative component count", "coefficient")
    if m > MAX_COMPONENTS:  # refused before the m x m matrix below is built
        raise PresentationError(f"components {m} exceeds the limit of {MAX_COMPONENTS}")

    lk: dict[tuple[int, int], int] = {}
    unknot = [False] * m
    l0 = [False] * m
    coeffs: list[ExtRational | None] = [None] * m
    rot: list[int | None] = [None] * m
    tb: list[int | None] = [None] * m
    # per key: the values by component, their reader and its refusal (None: the reader's own)
    values = {"coeff": (coeffs, parse_rational, None), "rot": (rot, parse_int, "bad rotation number"),
              "tb": (tb, parse_int, "bad tb")}

    def component(token: str) -> int:
        try:
            i = parse_int(token)
        except ValueError as exc:
            raise PresentationError(f"bad component index {token!r}") from exc
        if not 1 <= i <= m:
            raise PresentationError(f"component {i} out of range 1..{m}")
        return i - 1

    for lineno, fields in records:
        key = fields[0]
        try:
            if key in values and len(fields) == 3:
                i = component(fields[1])
                per, reader, refusal = values[key]
                if per[i] is not None:
                    raise PresentationError(f"duplicate {key} for component {i + 1}")
                try:
                    per[i] = reader(fields[2])
                except ValueError as exc:
                    raise PresentationError(refusal or str(exc)) from exc
            elif key == "lk" and len(fields) == 4:
                i, j = component(fields[1]), component(fields[2])
                if i == j:
                    raise PresentationError("self linking is not a matrix entry")
                try:
                    v = parse_int(fields[3])
                except ValueError as exc:
                    raise PresentationError("bad linking number") from exc
                pair = (min(i, j), max(i, j))
                if pair in lk and lk[pair] != v:
                    raise PresentationError(f"conflicting lk for {pair}")
                lk[pair] = v
            elif key == "unknot" and len(fields) == 2:
                unknot[component(fields[1])] = True
            elif key == "l0" and len(fields) == 2:
                i = component(fields[1])
                l0[i] = True
                unknot[i] = True
            else:
                raise PresentationError(f"unknown or malformed key {key!r}")
        except ValueError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from exc

    missing = [i + 1 for i, c in enumerate(coeffs) if c is None]
    if missing:
        raise PresentationError(f"components {missing} have no coefficient")
    matrix = [[0] * m for _ in range(m)]
    for (i, j), v in lk.items():
        matrix[i][j] = matrix[j][i] = v
    return SurgeryPresentation(coeffs=coeffs, lk=matrix, unknot=unknot, l0=l0, rot=rot, tb=tb)


def serialize_surgery(p: SurgeryPresentation) -> str:
    """Canonical text form; parse(serialize(p)) reproduces p exactly."""
    out = ["surgery 1", f"components {p.m}", *(f"coeff {i + 1} {c}" for i, c in enumerate(p.coeffs))]
    out += (f"lk {i + 1} {j + 1} {v}" for i, row in enumerate(p.lk) for j, v in enumerate(row) if j > i and v)
    out += (f"unknot {i + 1}" for i in range(p.m) if p.unknot[i] and not p.l0[i])
    out += (f"l0 {i + 1}" for i in range(p.m) if p.l0[i])
    out += (f"rot {i + 1} {v}" for i, v in enumerate(p.rot) if v is not None)
    out += (f"tb {i + 1} {v}" for i, v in enumerate(p.tb) if v is not None)
    return "\n".join(out) + "\n"
