"""Rational surgery presentations of 3-manifolds and their calculus.

A presentation is a framed link given by exact surgery coefficients and a
symmetric integer linking matrix; it is defined, with first homology, the
linking form and the SURGERY format, in steinkit.surgery and bound here
too.  The rewrites in this module (Rolfsen twist, slam-dunk, blow-down,
chain expansion) preserve the oriented boundary 3-manifold; first
homology is the invariant used to cross-check them.
"""

from __future__ import annotations

from itertools import compress

from . import surgery
from .rational import (
    INF, ZERO, ExtRational, Frozen, first_asymmetry, neg_continued_fraction, parse_int,
    parse_rational, rat,
)
from .surgery import (  # the presentation and its reads, re-exported
    MAX_COMPONENTS, AbelianGroup, PresentationError, SurgeryPresentation, _check_index,
    cokernel, h1, linking_form, parse_surgery, serialize_surgery,
)


# ---------------------------------------------------------------------------
# chain expansion of rational coefficients


def _own_chains(p: SurgeryPresentation) -> list:
    """Every component of p as a one-entry chain, for _rechain."""
    return [((c, r, t),) for c, r, t in zip(p.coeffs, p.rot, p.tb)]


def _rechain(p: SurgeryPresentation, chains) -> SurgeryPresentation:
    """The one presentation in which component i of p becomes chains[i].

    chains[i] is None to delete the component, or a sequence of
    (coefficient, rot, tb) entries: the first replaces the component's
    own, and each later entry is an unknot appended after all kept
    components, chain by chain, linking its predecessor once.  Kept
    components keep their linking numbers and unknot flag, and their l0
    flag while their coefficient stays 0.  A result with more than
    surgery.MAX_COMPONENTS components, and more than p has, is refused before
    its linking matrix is built.

    Frozen._unchecked builds it, as each check holds by construction:
    coefficients are p's, or ExtRationals from rat, arithmetic or
    slam_dunk_inverse's check; lk is p's symmetric, zero-diagonal int
    block on the kept indices, padded to n x n with 0 and a symmetric 1
    for each link between distinct components; l0 marks only components
    p marked (so unknots) whose coefficient is still 0; rot and tb are
    None, p's ints, or ints the callers compute from ints.
    """
    keep = [i for i, chain in enumerate(chains) if chain is not None]
    n = sum(len(chains[i]) for i in keep)
    limit = surgery.MAX_COMPONENTS  # read where it is defined, so a patch there holds here
    if n > max(limit, p.m):
        raise PresentationError(
            f"the rewritten presentation would have {n} components; the limit is {limit}"
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
    return SurgeryPresentation._unchecked(coeffs, tuple(map(tuple, lk)), unknot, l0, rot, tb)


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
    return SurgeryPresentation._unchecked(
        tuple(coeffs), tuple(map(tuple, lk)), unknot, l0, (None,) * p.m, (None,) * p.m)


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
    return SurgeryPresentation._unchecked(
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
