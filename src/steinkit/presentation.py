"""Rational surgery presentations of 3-manifolds and their calculus.

A presentation is a framed link given by exact surgery coefficients and a
symmetric integer linking matrix.  Components may carry bookkeeping flags
(geometric unknot, member of the surgered one-handle sublink) and optional
Legendrian data (tb, rotation number).  The rewrites in this module (Rolfsen
twist, slam-dunk, blow-down, chain expansion) preserve the oriented boundary
3-manifold; first homology is the invariant used to cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .numerics import (
    INF,
    ZERO,
    ExtRational,
    first_asymmetry,
    neg_continued_fraction,
    parse_int,
    parse_rational,
    rat,
    smith_normal_form,
    solve_rational,
)


class PresentationError(ValueError):
    pass


@dataclass
class SurgeryPresentation:
    """A framed link with rational coefficients and exact linking data.

    lk is symmetric with zero diagonal; the surgery coefficient lives in
    coeffs, never on the diagonal.  l0 marks components that arose from
    surgering one-handles (coefficient 0, geometric unknots); rot and tb
    are optional Legendrian data carried along for Stein constructions.
    """

    coeffs: list[ExtRational]
    lk: list[list[int]]
    unknot: list[bool] = field(default_factory=list)
    l0: list[bool] = field(default_factory=list)
    rot: list[int | None] = field(default_factory=list)
    tb: list[int | None] = field(default_factory=list)

    def __post_init__(self):
        m = len(self.coeffs)
        if not self.unknot:
            self.unknot = [False] * m
        if not self.l0:
            self.l0 = [False] * m
        if not self.rot:
            self.rot = [None] * m
        if not self.tb:
            self.tb = [None] * m
        self.validate()

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @property
    def n_l0(self) -> int:
        return sum(self.l0)

    def validate(self):
        m = self.m
        for name in ("lk", "unknot", "l0", "rot", "tb"):
            if len(getattr(self, name)) != m:
                raise PresentationError(f"{name} has wrong length for {m} components")
        for i, c in enumerate(self.coeffs):
            if not isinstance(c, ExtRational):
                raise PresentationError(f"coefficient {i + 1} is not an ExtRational")
        for i in range(m):
            if len(self.lk[i]) != m:
                raise PresentationError("linking matrix is not square")
            if self.lk[i][i] != 0:
                raise PresentationError(
                    f"linking matrix has nonzero diagonal at component {i + 1}; "
                    "framings belong in coeffs"
                )
        bad = first_asymmetry(self.lk)
        if bad is not None:
            raise PresentationError(f"linking matrix asymmetric at ({bad[0] + 1}, {bad[1] + 1})")
        if not all(isinstance(v, int) for row in self.lk for v in row):
            raise PresentationError("linking numbers must be integers")
        for i in range(m):
            if self.l0[i]:
                if self.coeffs[i] != ZERO:
                    raise PresentationError(
                        f"component {i + 1} is marked l0 but has coefficient {self.coeffs[i]}"
                    )
                if not self.unknot[i]:
                    raise PresentationError(f"component {i + 1} is marked l0 but not unknot")

    def clone(self) -> "SurgeryPresentation":
        return SurgeryPresentation(
            coeffs=list(self.coeffs),
            lk=[list(row) for row in self.lk],
            unknot=list(self.unknot),
            l0=list(self.l0),
            rot=list(self.rot),
            tb=list(self.tb),
        )

    def delete(self, index: int) -> "SurgeryPresentation":
        """Remove one component (0-based), dropping its linking data."""
        keep = [k for k in range(self.m) if k != index]
        return SurgeryPresentation(
            coeffs=[self.coeffs[k] for k in keep],
            lk=[[self.lk[a][b] for b in keep] for a in keep],
            unknot=[self.unknot[k] for k in keep],
            l0=[self.l0[k] for k in keep],
            rot=[self.rot[k] for k in keep],
            tb=[self.tb[k] for k in keep],
        )

    def relation_matrix(self) -> list[list[int]]:
        """The m x m relation matrix of first homology of the surgered manifold.

        Row i is p_i e_i + q_i sum_j lk_ij e_j for the coefficient p_i/q_i,
        so infinity (1/0) gives the row e_i and an integer coefficient gives
        the linking matrix row with the framing on the diagonal.
        """
        return [
            [c.num if j == i else c.den * v for j, v in enumerate(row)]
            for i, (c, row) in enumerate(zip(self.coeffs, self.lk))
        ]

    def integer_matrix(self) -> list[list[int]]:
        """Linking matrix with framings on the diagonal; integer coefficients only."""
        for i, c in enumerate(self.coeffs):
            if not (c.is_integer and not c.is_infinite):
                raise PresentationError(
                    f"component {i + 1} has non-integer coefficient {c}; expand first"
                )
        return self.relation_matrix()


def _append_linked_unknot(p: SurgeryPresentation, coeff: ExtRational, i: int) -> int:
    """Append, in place, an unknot with coefficient coeff linking component
    i (0-based) once; returns the new component's index.  The caller
    revalidates by building a fresh presentation."""
    p.coeffs.append(coeff)
    p.unknot.append(True)
    p.l0.append(False)
    p.rot.append(None)
    p.tb.append(None)
    for row in p.lk:
        row.append(0)
    new_row = [0] * p.m
    new_row[i] = 1
    p.lk.append(new_row)
    p.lk[i][p.m - 1] = 1
    return p.m - 1


def _check_index(p: SurgeryPresentation, i: int) -> int:
    if not 1 <= i <= p.m:
        raise PresentationError(f"component index {i} out of range 1..{p.m}")
    return i - 1


# ---------------------------------------------------------------------------
# first homology


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    factors: tuple[int, ...]  # each > 1, d_i | d_{i+1}
    rank: int = 0

    @property
    def is_trivial(self) -> bool:
        return not self.factors and self.rank == 0

    def order(self) -> int | None:
        if self.rank:
            return None
        out = 1
        for d in self.factors:
            out *= d
        return out

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.factors)
        return " + ".join(parts) if parts else "0"


def cokernel(matrix) -> AbelianGroup:
    """Cokernel of an integer matrix acting on column vectors."""
    diag = smith_normal_form(matrix).diagonal
    rank_deficit = len(matrix) - len(diag)  # missing columns leave free generators
    zeros = sum(1 for d in diag if d == 0)
    factors = tuple(d for d in diag if d > 1)
    return AbelianGroup(factors=factors, rank=zeros + rank_deficit)


def h1(p: SurgeryPresentation) -> AbelianGroup:
    """First homology of the surgered manifold.

    The cokernel of the m x m relation matrix (Rolfsen, Knots and Links,
    ch. 9), taken straight from the rational coefficients: there is no
    chain expansion, so the Smith form has dimension m.
    """
    return cokernel(p.relation_matrix())


# ---------------------------------------------------------------------------
# linking form


def linking_form(p: SurgeryPresentation, x, y) -> Fraction:
    """Linking pairing of two torsion classes, as a fraction in [0, 1).

    Classes are integer vectors in meridian coordinates.  The value is
    -x . Q^(-1) y mod 1, computed rationally; both inputs must be torsion
    in the cokernel, otherwise the pairing is undefined.
    """
    q = p.integer_matrix()
    m = p.m
    if len(x) != m or len(y) != m:
        raise PresentationError("class vectors must have one entry per component")
    zy = solve_rational(q, list(y))
    zx = solve_rational(q, list(x))
    if zy is None or zx is None:
        raise PresentationError("linking form undefined: class is not torsion")
    total = -sum(Fraction(a) * b for a, b in zip(x, zy))
    return total - (total // 1)


# ---------------------------------------------------------------------------
# chain expansion of rational coefficients


def expand_rational(p: SurgeryPresentation) -> SurgeryPresentation:
    """Replace every rational coefficient by its integer chain.

    Components with coefficient infinity are deleted (their filling is
    trivial).  Each remaining p/q becomes the continued-fraction chain
    a0, a1, ..., ak with tails <= -2: the original component keeps a0 and
    the chain unknots are appended, each linking its predecessor once.
    The boundary manifold is unchanged.
    """
    out = p.clone()
    for i in reversed(range(out.m)):
        if out.coeffs[i].is_infinite:
            out = out.delete(i)

    chains = []  # (source index, tail terms)
    for i in range(out.m):
        c = out.coeffs[i]
        if not c.is_integer:
            cf = neg_continued_fraction(c)
            out.coeffs[i] = rat(cf.terms[0])
            chains.append((i, cf.terms[1:]))

    for source, tail in chains:
        prev = source
        for a in tail:
            prev = _append_linked_unknot(out, rat(a), prev)
    return SurgeryPresentation(
        coeffs=out.coeffs, lk=out.lk, unknot=out.unknot, l0=out.l0, rot=out.rot, tb=out.tb
    )


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
    if not p.unknot[idx]:
        raise PresentationError(f"component {i} is not known to be an unknot")
    if m == 0:
        return p.clone()
    out = p.clone()
    c = out.coeffs[idx]
    out.coeffs[idx] = ExtRational(c.num, c.den + m * c.num)
    for j in range(out.m):
        if j == idx:
            continue
        out.coeffs[j] = out.coeffs[j] + m * out.lk[idx][j] ** 2
        out.unknot[j] = False
        out.l0[j] = False
        for k in range(j + 1, out.m):
            if k == idx:
                continue
            delta = m * out.lk[idx][j] * out.lk[idx][k]
            out.lk[j][k] += delta
            out.lk[k][j] += delta
    if out.l0[idx] and out.coeffs[idx] != ZERO:
        out.l0[idx] = False
    out.rot = [None] * out.m
    out.tb = [None] * out.m
    return SurgeryPresentation(
        coeffs=out.coeffs, lk=out.lk, unknot=out.unknot, l0=out.l0, rot=out.rot, tb=out.tb
    )


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
    out = p.clone()
    rj = out.coeffs[jdx]
    if not rj.is_infinite:
        ri = out.coeffs[idx]
        if ri.is_infinite or not ri.is_integer:
            raise PresentationError(
                f"slam-dunk needs an integer coefficient on component {i}, got {ri}"
            )
        out.coeffs[idx] = ri - rj.reciprocal()
    if out.l0[idx] and out.coeffs[idx] != ZERO:
        out.l0[idx] = False
    out.rot[idx] = None
    out.tb[idx] = None
    return out.delete(jdx)


def slam_dunk_inverse(p: SurgeryPresentation, i: int, meridian_coeff: ExtRational) -> SurgeryPresentation:
    """Split 1/c off the coefficient of component i onto a fresh meridian.

    Appends an unknot with coefficient c linking i once and replaces r_i
    by r_i + 1/c, so a forward slam-dunk undoes the rewrite exactly.
    That forward dunk is only a homeomorphism when its absorbing
    coefficient is an integer, so r_i + 1/c must come out integral.
    """
    idx = _check_index(p, i)
    c = meridian_coeff
    if c == ZERO:
        raise PresentationError("meridian coefficient 0 is not dunkable")
    out = p.clone()
    new_ri = out.coeffs[idx] + c.reciprocal()
    # an infinite meridian dunks away unconditionally, anything else only
    # from an integer coefficient
    if not c.is_infinite and (new_ri.is_infinite or not new_ri.is_integer):
        raise PresentationError(
            f"inverse dunk needs an integral result, got r_i + 1/c = {new_ri}"
        )
    out.coeffs[idx] = new_ri
    if out.l0[idx] and out.coeffs[idx] != ZERO:
        out.l0[idx] = False
    out.rot[idx] = None
    out.tb[idx] = None
    _append_linked_unknot(out, c, idx)
    return SurgeryPresentation(
        coeffs=out.coeffs, lk=out.lk, unknot=out.unknot, l0=out.l0, rot=out.rot, tb=out.tb
    )


def blow_down(p: SurgeryPresentation, i: int) -> SurgeryPresentation:
    """Delete a (+1)- or (-1)-framed unknot, twisting everything it links."""
    idx = _check_index(p, i)
    if not p.unknot[idx]:
        raise PresentationError(f"component {i} is not known to be an unknot")
    c = p.coeffs[idx]
    if c not in (rat(1), rat(-1)):
        raise PresentationError(f"blow-down needs coefficient +1 or -1, got {c}")
    eps = c.num
    out = p.clone()
    for j in range(out.m):
        if j == idx or out.lk[idx][j] == 0:
            continue
        out.coeffs[j] = out.coeffs[j] - eps * out.lk[idx][j] ** 2
        out.unknot[j] = False
        out.l0[j] = False
        out.rot[j] = None
        out.tb[j] = None
    for j in range(out.m):
        for k in range(j + 1, out.m):
            if j == idx or k == idx:
                continue
            delta = eps * out.lk[idx][j] * out.lk[idx][k]
            out.lk[j][k] -= delta
            out.lk[k][j] -= delta
    return out.delete(idx)


# ---------------------------------------------------------------------------
# Stein planning for rational surgeries


@dataclass(frozen=True)
class PlanRow:
    """Realisation recipe for one component and its chain.

    chain[0] is the new integer coefficient of the component itself; the
    remaining terms are framings of appended chain unknots.  zigzags[t]
    upward zig-zags bring each tb down to chain[t] + 1, and rot_targets
    records the resulting rotation numbers (None when the input carried
    no rotation data).
    """

    component: int
    chain: tuple[int, ...]
    zigzags: tuple[int, ...]
    tb_targets: tuple[int, ...]
    rot_targets: tuple[int | None, ...]


@dataclass(frozen=True)
class SteinPlan:
    ok: bool
    violations: tuple[tuple[int, str], ...]
    rows: tuple[PlanRow, ...]
    expanded: SurgeryPresentation | None


def stein_plan(p: SurgeryPresentation, tb_of: dict[int, int] | None = None) -> SteinPlan:
    """Plan a Stein realisation of the surgered manifold.

    Every finite coefficient must satisfy r_i < tb(K_i); components with
    coefficient infinity are erased.  Each coefficient is expanded into its
    integer chain; the head component is stabilised down to tb = a_0 + 1
    and each chain unknot is built from the tb = -1 unknot with -a_j - 2
    upward zig-zags, so framing = tb - 1 holds throughout.

    tb_of optionally supplies or overrides tb per 1-based component.
    """
    if tb_of:
        p = p.clone()
        for cid, t in tb_of.items():
            p.tb[_check_index(p, cid)] = t
    violations = []
    for i in range(p.m):
        c = p.coeffs[i]
        if c.is_infinite:
            continue
        t = p.tb[i]
        if t is None:
            violations.append((i + 1, "no tb data"))
        elif not c < rat(t):
            violations.append((i + 1, f"coefficient {c} is not below tb = {t}"))
    if violations:
        return SteinPlan(ok=False, violations=tuple(violations), rows=(), expanded=None)

    rows = []
    survivors = [i for i in range(p.m) if not p.coeffs[i].is_infinite]
    for i in survivors:
        c = p.coeffs[i]
        t = p.tb[i]
        cf = neg_continued_fraction(c)
        zigzags = [t - 1 - cf.terms[0]]
        tb_targets = [cf.terms[0] + 1]
        r0 = p.rot[i]
        rot_targets = [None if r0 is None else r0 - zigzags[0]]
        for a in cf.terms[1:]:
            zigzags.append(-a - 2)
            tb_targets.append(a + 1)
            rot_targets.append(a + 2)  # from the tb = -1, rot = 0 unknot
        rows.append(
            PlanRow(
                component=i + 1,
                chain=cf.terms,
                zigzags=tuple(zigzags),
                tb_targets=tuple(tb_targets),
                rot_targets=tuple(rot_targets),
            )
        )

    expanded = expand_rational(p)
    pos = {i + 1: idx for idx, i in enumerate(survivors)}
    next_new = len(survivors)
    for row in rows:
        idx = pos[row.component]
        expanded.tb[idx] = row.tb_targets[0]
        expanded.rot[idx] = row.rot_targets[0]
        for t, (tb_t, rot_t) in enumerate(zip(row.tb_targets[1:], row.rot_targets[1:])):
            expanded.tb[next_new] = tb_t
            expanded.rot[next_new] = rot_t
            next_new += 1
    return SteinPlan(ok=True, violations=(), rows=tuple(rows), expanded=expanded)


# ---------------------------------------------------------------------------
# the SURGERY file format


def parse_surgery(text: str) -> SurgeryPresentation:
    """Parse the SURGERY interchange format.

    Headers: 'surgery 1' then 'components <m>'.  Body keys: coeff, lk,
    unknot, l0, rot, tb.  Unknown keys are errors; every component needs
    a coefficient; lk entries are symmetric and default to 0.
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
        elif key == "rot" and len(fields) == 3:
            i = component(fields[1], lineno)
            try:
                rot[i] = parse_int(fields[2])
            except ValueError as exc:
                raise PresentationError(f"line {lineno}: bad rotation number") from exc
        elif key == "tb" and len(fields) == 3:
            i = component(fields[1], lineno)
            try:
                tb[i] = parse_int(fields[2])
            except ValueError as exc:
                raise PresentationError(f"line {lineno}: bad tb") from exc
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
    out = ["surgery 1", f"components {p.m}"]
    for i in range(p.m):
        out.append(f"coeff {i + 1} {p.coeffs[i]}")
    for i in range(p.m):
        for j in range(i + 1, p.m):
            if p.lk[i][j]:
                out.append(f"lk {i + 1} {j + 1} {p.lk[i][j]}")
    for i in range(p.m):
        if p.unknot[i] and not p.l0[i]:
            out.append(f"unknot {i + 1}")
    for i in range(p.m):
        if p.l0[i]:
            out.append(f"l0 {i + 1}")
    for i in range(p.m):
        if p.rot[i] is not None:
            out.append(f"rot {i + 1} {p.rot[i]}")
    for i in range(p.m):
        if p.tb[i] is not None:
            out.append(f"tb {i + 1} {p.tb[i]}")
    return "\n".join(out) + "\n"
