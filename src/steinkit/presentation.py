"""Rational surgery presentations of 3-manifolds and their calculus.

A presentation is a framed link given by exact surgery coefficients and a
symmetric integer linking matrix.  Components may carry bookkeeping flags
(geometric unknot, member of the surgered one-handle sublink) and optional
Legendrian data (tb, rotation number).  The rewrites in this module (Rolfsen
twist, slam-dunk, blow-down, chain expansion) preserve the oriented boundary
3-manifold; first homology is the invariant used to cross-check them.
"""

from __future__ import annotations

from itertools import chain, compress
from math import prod

from .numerics import (
    INF,
    ZERO,
    ExtRational,
    Frozen,
    _bordered_congruence,
    _invariant_factors,
    first_asymmetry,
    invariant_factors,
    neg_continued_fraction,
    parse_int,
    parse_rational,
    rat,
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
    tuple of rows), empty flag fields are filled with their defaults, a
    bool (or other int subclass) linking number, rot or tb is stored as
    the plain int it equals, and the data is validated once, on
    construction; a rewrite builds its result from a validated parent.
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
        types = set(map(type, chain.from_iterable(self.lk)))
        if not types <= {int} and all(issubclass(t, int) for t in types):
            # a bool entry is stored as the plain int it equals, which is
            # what serialize_surgery writes and parse_surgery reads back
            d["lk"] = tuple(tuple(map(int, row)) for row in self.lk)
            types = {int}
        ints = types <= {int}
        # on ints tuple equality is entrywise ==; others (nan) need the scan
        if not (ints and self.lk == tuple(zip(*self.lk))):
            bad = first_asymmetry(self.lk)
            if bad is not None:
                raise PresentationError(f"linking matrix asymmetric at ({bad[0] + 1}, {bad[1] + 1})")
        if not ints:
            raise PresentationError("linking numbers must be integers")
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
        """Remove one component (0-based), dropping its linking data."""
        index = _check_index(self, index, 0)
        chains = _own_chains(self)
        return _rechain(self, [None if k == index else ch for k, ch in enumerate(chains)])

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


def _build(coeffs, lk, unknot, l0, rot, tb) -> SurgeryPresentation:
    """A presentation of tuple fields that hold every invariant __post_init__
    checks, stored unchecked: the builder of rewrites from a valid parent."""
    p = object.__new__(SurgeryPresentation)
    p.__dict__.update(coeffs=coeffs, lk=lk, unknot=unknot, l0=l0, rot=rot, tb=tb)
    return p


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
    return _group(_invariant_factors(p.relation_matrix()), p.m)  # fresh int rows need no intake


# ---------------------------------------------------------------------------
# linking form


def linking_form(p: SurgeryPresentation, x, y) -> Fraction:
    """Linking pairing of two torsion classes, as a fraction in [0, 1).

    Classes are int vectors in meridian coordinates (a bool counts as the
    int it equals, any other entry raises PresentationError).  The value is
    -x . Q^(-1) y mod 1, read off one fraction-free congruence of Q
    bordered by x and y; both inputs must be torsion in the cokernel,
    otherwise the pairing is undefined.
    """
    q = p.integer_matrix()
    m = p.m
    if len(x) != m or len(y) != m:
        raise PresentationError("class vectors must have one entry per component")
    for name, vec in (("x", x), ("y", y)):
        for v in vec:
            if not isinstance(v, int):
                raise PresentationError(f"class {name} has a non-int entry {v!r}")
    *_, value = _bordered_congruence(q, [*map(int, x)], [*map(int, y)])
    if value is None:
        raise PresentationError("linking form undefined: class is not torsion")
    from fractions import Fraction  # here, so that importing presentation does not load it

    num, den = value
    return Fraction(-num % den, den)


# ---------------------------------------------------------------------------
# chain expansion of rational coefficients


def _own_chains(p: SurgeryPresentation) -> list:
    """Every component of p as a one-entry chain, for _rechain."""
    return [((c, r, t),) for c, r, t in zip(p.coeffs, p.rot, p.tb)]


# A rewrite builds an m x m linking matrix, and the chain of -1/n alone has
# n entries, so a rewrite may not grow a presentation past this many
# components, and parse_surgery reads no file declaring more.  It is far
# above the longest expansion that the tests and the benchmark build.
MAX_COMPONENTS = 1000


def _rechain(p: SurgeryPresentation, chains) -> SurgeryPresentation:
    """The one presentation in which component i of p becomes chains[i].

    chains[i] is None to delete the component, or a sequence of
    (coefficient, rot, tb) entries: the first replaces the component's
    own, and each later entry is an unknot appended after all kept
    components, chain by chain, linking its predecessor once.  Kept
    components keep their linking numbers and unknot flag, and their l0
    flag while their coefficient stays 0.  A result with more than
    MAX_COMPONENTS components, and more than p has, is refused before
    its linking matrix is built.

    _build skips the checks, as each holds by construction: coefficients
    are p's, or ExtRationals from rat, arithmetic or slam_dunk_inverse's
    check; lk is p's symmetric, zero-diagonal int block on the kept
    indices, padded to n x n with 0 and a symmetric 1 for each link
    between distinct components; l0 marks only components p marked (so
    unknots) whose coefficient is still 0; rot and tb are None, p's
    ints, or ints the callers compute from ints.
    """
    keep = [i for i, chain in enumerate(chains) if chain is not None]
    n = sum(len(chains[i]) for i in keep)
    if n > max(MAX_COMPONENTS, p.m):
        raise PresentationError(
            f"the rewritten presentation would have {n} components; "
            f"the limit is {MAX_COMPONENTS}"
        )
    entries = [chains[i][0] for i in keep]
    links = []  # (appended component, the component it links)
    for k, i in enumerate(keep):
        prev = k
        for entry in chains[i][1:]:
            links.append((len(entries), prev))
            prev = len(entries)
            entries.append(entry)
    extra = len(links)
    mask = [chain is not None for chain in chains]
    lk = [[*compress(row, mask), *(0,) * extra] for row in compress(p.lk, mask)] + [[0] * n for _ in links]
    for k, i in links:
        lk[k][i] = lk[i][k] = 1
    coeffs, rot, tb = zip(*entries) if entries else ((), (), ())
    unknot = (*(p.unknot[i] for i in keep), *(True,) * extra)
    l0 = (*(p.l0[i] and c == ZERO for i, c in zip(keep, coeffs)), *(False,) * extra)
    return _build(coeffs, tuple(map(tuple, lk)), unknot, l0, rot, tb)


def expand_rational(p: SurgeryPresentation) -> SurgeryPresentation:
    """Replace every rational coefficient by its integer chain.

    Components with coefficient infinity are deleted (their filling is
    trivial).  Each remaining p/q becomes the continued-fraction chain
    a0, a1, ..., ak with tails <= -2: the original component keeps a0 and
    the chain unknots are appended, each linking its predecessor once.
    The boundary manifold is unchanged.
    """
    chains = []
    for c, r, t in zip(p.coeffs, p.rot, p.tb):
        if c.is_infinite:
            chains.append(None)
        elif c.is_integer:
            chains.append(((c, r, t),))
        else:
            head, *tail = neg_continued_fraction(c).terms
            chains.append(((rat(head), r, t), *((rat(a), None, None) for a in tail)))
    return _rechain(p, chains)


# ---------------------------------------------------------------------------
# calculus rewrites


def rolfsen_twist(p: SurgeryPresentation, i: int, m: int) -> SurgeryPresentation:
    """Twist m times along a disk spanning component i.

    Requires component i to be a flagged unknot (the twist happens along
    a disk it bounds).  1/r_i gains m; every other coefficient gains
    m lk(i,j)^2 and the off-diagonal linking numbers gain
    m lk(i,j) lk(i,k).  A twist with m = 0 is the identity.  A nonzero
    twist may knot other components, so their unknot flags (and any
    Legendrian data) are dropped.
    """
    idx = _check_index(p, i)
    if not isinstance(m, int):
        raise PresentationError(f"twist count {m!r} is not an int")
    if not p.unknot[idx]:
        raise PresentationError(f"component {i} is not known to be an unknot")
    if m == 0:
        return p
    c = p.coeffs[idx]
    twisted = ExtRational(c.num, c.den + m * c.num)
    coeffs, lk = _twist(p, idx, m)
    coeffs[idx] = twisted
    unknot = tuple(j == idx and u for j, u in enumerate(p.unknot))
    l0 = tuple(j == idx and f and twisted == ZERO for j, f in enumerate(p.l0))
    return _build(tuple(coeffs), tuple(map(tuple, lk)), unknot, l0, (None,) * p.m, (None,) * p.m)


def _twist(p: SurgeryPresentation, idx: int, m: int):
    """p's coefficients and linking rows, as lists, after m twists along
    component idx, but for r_idx: where j links idx, r_j gains
    m lk(idx,j)^2 and lk(j,k) gains m lk(idx,j) lk(idx,k), k != j."""
    row = p.lk[idx]
    coeffs, lk = list(p.coeffs), list(p.lk)
    for j, a in enumerate(row):
        if a:
            coeffs[j] += m * a * a
            lk[j] = [v + m * a * b for v, b in zip(lk[j], row)]
            lk[j][j] = 0
    return coeffs, lk


def slam_dunk(p: SurgeryPresentation, i: int, j: int) -> SurgeryPresentation:
    """Absorb the meridional unknot j into the coefficient of component i.

    Requires j to be an unknot linking only i, with |lk(i,j)| = 1.  The
    new coefficient is r_i - 1/r_j; when r_j is infinity the meridian is
    simply deleted.  Inverse rewrite: slam_dunk_inverse.
    """
    idx = _check_index(p, i)
    jdx = _check_index(p, j)
    if idx == jdx:
        raise PresentationError("slam-dunk needs two distinct components")
    if not p.unknot[jdx]:
        raise PresentationError(f"component {j} is not known to be an unknot")
    if abs(p.lk[idx][jdx]) != 1:
        raise PresentationError(f"slam-dunk needs |lk({i},{j})| = 1, got {p.lk[idx][jdx]}")
    for k in range(p.m):
        if k not in (idx, jdx) and p.lk[jdx][k] != 0:
            raise PresentationError(f"component {j} links component {k + 1}; cannot dunk")
    ri, rj = p.coeffs[idx], p.coeffs[jdx]
    if not rj.is_infinite:
        if ri.is_infinite or not ri.is_integer:
            raise PresentationError(
                f"slam-dunk needs an integer coefficient on component {i}, got {ri}"
            )
        ri = ri - rj.reciprocal()
    chains = _own_chains(p)
    chains[idx] = ((ri, None, None),)
    chains[jdx] = None
    return _rechain(p, chains)


def slam_dunk_inverse(p: SurgeryPresentation, i: int, meridian_coeff: ExtRational) -> SurgeryPresentation:
    """Split 1/c off the coefficient of component i onto a fresh meridian.

    Appends an unknot with coefficient c linking i once and replaces r_i
    by r_i + 1/c, so a forward slam-dunk undoes the rewrite exactly.
    That forward dunk is only a homeomorphism when its absorbing
    coefficient is an integer, so r_i + 1/c must come out integral.
    """
    idx = _check_index(p, i)
    c = meridian_coeff
    if not isinstance(c, ExtRational):
        raise PresentationError(f"meridian_coeff must be an ExtRational, got {c!r}")
    if c == ZERO:
        raise PresentationError("meridian coefficient 0 is not dunkable")
    new_ri = p.coeffs[idx] + c.reciprocal()
    # an infinite meridian dunks away unconditionally, anything else only
    # from an integer coefficient
    if not c.is_infinite and (new_ri.is_infinite or not new_ri.is_integer):
        raise PresentationError(
            f"inverse dunk needs an integral result, got r_i + 1/c = {new_ri}"
        )
    chains = _own_chains(p)
    chains[idx] = ((new_ri, None, None), (c, None, None))
    return _rechain(p, chains)


def blow_down(p: SurgeryPresentation, i: int) -> SurgeryPresentation:
    """Delete a (+1)- or (-1)-framed unknot, twisting everything it links."""
    idx = _check_index(p, i)
    if not p.unknot[idx]:
        raise PresentationError(f"component {i} is not known to be an unknot")
    c = p.coeffs[idx]
    if c not in (rat(1), rat(-1)):
        raise PresentationError(f"blow-down needs coefficient +1 or -1, got {c}")
    eps = c.num
    row = p.lk[idx]
    keep = [j for j in range(p.m) if j != idx]
    coeffs, lk = _twist(p, idx, -eps)  # a blow-down is a -eps twist that drops component idx
    return _build(
        tuple(coeffs[j] for j in keep),
        tuple((*lk[j][:idx], *lk[j][idx + 1:]) for j in keep),
        tuple(p.unknot[j] and not row[j] for j in keep),
        tuple(p.l0[j] and not row[j] for j in keep),
        tuple(None if row[j] else p.rot[j] for j in keep),
        tuple(None if row[j] else p.tb[j] for j in keep),
    )


# ---------------------------------------------------------------------------
# Stein planning for rational surgeries


class PlanRow(Frozen):
    """Realisation recipe for one component and its chain.

    chain[0] is the new integer coefficient of the component itself; the
    remaining terms are framings of appended chain unknots.  zigzags[t]
    upward zig-zags bring each tb down to chain[t] + 1, and rot_targets
    records the resulting rotation numbers (None when the input carried
    no rotation data).
    """

    def __init__(self, component: int, chain: tuple[int, ...], zigzags: tuple[int, ...],
                 tb_targets: tuple[int, ...], rot_targets: tuple[int | None, ...]):
        d = self.__dict__
        d["component"], d["chain"], d["zigzags"], d["tb_targets"], d["rot_targets"] = (
            component, chain, zigzags, tb_targets, rot_targets)


class SteinPlan(Frozen):
    def __init__(self, ok: bool, violations: tuple[tuple[int, str], ...],
                 rows: tuple[PlanRow, ...], expanded: SurgeryPresentation | None):
        d = self.__dict__
        d["ok"], d["violations"], d["rows"], d["expanded"] = ok, violations, rows, expanded


def stein_plan(p: SurgeryPresentation) -> SteinPlan:
    """Plan a Stein realisation of the surgered manifold from p's tb data.

    Every finite coefficient must satisfy r_i < tb(K_i); components with
    coefficient infinity are erased.  Each coefficient is expanded into its
    integer chain; the head component is stabilised down to tb = a_0 + 1
    and each chain unknot is built from the tb = -1 unknot with -a_j - 2
    upward zig-zags, so framing = tb - 1 holds throughout.  The expanded
    presentation carries those tb and rotation targets.
    """
    violations = []
    for i, (c, t) in enumerate(zip(p.coeffs, p.tb), start=1):
        if c.is_infinite:
            continue
        if t is None:
            violations.append((i, "no tb data"))
        elif not c < rat(t):
            violations.append((i, f"coefficient {c} is not below tb = {t}"))
    if violations:
        return SteinPlan(ok=False, violations=tuple(violations), rows=(), expanded=None)

    rows, chains = [], []
    for i, (c, r0, t) in enumerate(zip(p.coeffs, p.rot, p.tb), start=1):
        if c.is_infinite:
            chains.append(None)
            continue
        terms = neg_continued_fraction(c).terms
        zigzags = (t - 1 - terms[0],) + tuple(-a - 2 for a in terms[1:])
        tb_targets = tuple(a + 1 for a in terms)
        # chain unknots start from the tb = -1, rot = 0 unknot
        rot_targets = (None if r0 is None else r0 - zigzags[0],) + tuple(a + 2 for a in terms[1:])
        rows.append(PlanRow(i, terms, zigzags, tb_targets, rot_targets))
        chains.append(tuple(zip(map(rat, terms), rot_targets, tb_targets)))
    return SteinPlan(ok=True, violations=(), rows=tuple(rows), expanded=_rechain(p, chains))


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
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    if not lines or lines[0][1] != "surgery 1":
        raise PresentationError("missing 'surgery 1' header")
    if len(lines) < 2 or not lines[1][1].startswith("components "):
        raise PresentationError("missing 'components <m>' line")
    try:
        _, count = lines[1][1].split()
        m = parse_int(count)
    except ValueError as exc:
        raise PresentationError(f"line {lines[1][0]}: bad components count") from exc
    if m < 0:
        raise PresentationError("negative component count")
    if m > len(lines) - 2:  # each component needs its own coeff line
        raise PresentationError(f"components {m} exceeds the body lines, so one has no coefficient")
    if m > MAX_COMPONENTS:  # refused before the m x m matrix below is built
        raise PresentationError(f"components {m} exceeds the limit of {MAX_COMPONENTS}")

    coeffs: dict[int, ExtRational] = {}
    lk: dict[tuple[int, int], int] = {}
    unknot = [False] * m
    l0 = [False] * m
    rot: list[int | None] = [None] * m
    tb: list[int | None] = [None] * m

    def component(token: str, lineno: int) -> int:
        try:
            i = parse_int(token)
        except ValueError as exc:
            raise PresentationError(f"line {lineno}: bad component index {token!r}") from exc
        if not 1 <= i <= m:
            raise PresentationError(f"line {lineno}: component {i} out of range 1..{m}")
        return i - 1

    for lineno, body in lines[2:]:
        fields = body.split()
        key = fields[0]
        if key == "coeff" and len(fields) == 3:
            i = component(fields[1], lineno)
            if i in coeffs:
                raise PresentationError(f"line {lineno}: duplicate coeff for component {i + 1}")
            try:
                coeffs[i] = parse_rational(fields[2])
            except ValueError as exc:
                raise PresentationError(f"line {lineno}: {exc}") from exc
        elif key == "lk" and len(fields) == 4:
            i = component(fields[1], lineno)
            j = component(fields[2], lineno)
            if i == j:
                raise PresentationError(f"line {lineno}: self linking is not a matrix entry")
            try:
                v = parse_int(fields[3])
            except ValueError as exc:
                raise PresentationError(f"line {lineno}: bad linking number") from exc
            pair = (min(i, j), max(i, j))
            if pair in lk and lk[pair] != v:
                raise PresentationError(f"line {lineno}: conflicting lk for {pair}")
            lk[pair] = v
        elif key == "unknot" and len(fields) == 2:
            unknot[component(fields[1], lineno)] = True
        elif key == "l0" and len(fields) == 2:
            i = component(fields[1], lineno)
            l0[i] = True
            unknot[i] = True
        elif key in ("rot", "tb") and len(fields) == 3:
            i = component(fields[1], lineno)
            values = rot if key == "rot" else tb
            if values[i] is not None:
                raise PresentationError(f"line {lineno}: duplicate {key} for component {i + 1}")
            try:
                values[i] = parse_int(fields[2])
            except ValueError as exc:
                what = "rotation number" if key == "rot" else "tb"
                raise PresentationError(f"line {lineno}: bad {what}") from exc
        else:
            raise PresentationError(f"line {lineno}: unknown or malformed key {key!r}")

    missing = [i + 1 for i in range(m) if i not in coeffs]
    if missing:
        raise PresentationError(f"components {missing} have no coefficient")
    matrix = [[0] * m for _ in range(m)]
    for (i, j), v in lk.items():
        matrix[i][j] = matrix[j][i] = v
    return SurgeryPresentation(
        coeffs=[coeffs[i] for i in range(m)], lk=matrix, unknot=unknot, l0=l0, rot=rot, tb=tb
    )


def serialize_surgery(p: SurgeryPresentation) -> str:
    """Canonical text form; parse(serialize(p)) reproduces p exactly."""
    out = ["surgery 1", f"components {p.m}", *(f"coeff {i + 1} {c}" for i, c in enumerate(p.coeffs))]
    out += (f"lk {i + 1} {j + 1} {v}" for i, row in enumerate(p.lk) for j, v in enumerate(row) if j > i and v)
    out += (f"unknot {i + 1}" for i in range(p.m) if p.unknot[i] and not p.l0[i])
    out += (f"l0 {i + 1}" for i in range(p.m) if p.l0[i])
    out += (f"rot {i + 1} {v}" for i, v in enumerate(p.rot) if v is not None)
    out += (f"tb {i + 1} {v}" for i, v in enumerate(p.tb) if v is not None)
    return "\n".join(out) + "\n"
