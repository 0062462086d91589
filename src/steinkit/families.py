"""Family-level realizability deciders for three surgery families.

Seifert fibered spaces are decided through the normalized coefficient
data and a certified lower-bound search for the pair function n, with
sphere-base inputs falling back to the quick closed-form tests first.
Brieskorn homology spheres are built from multiplicities by solving the
orientation constraint, and surgeries on the Borromean rings are
decided by exact membership in the three exceptional regions.  Every
decider answers YES or UNKNOWN, never NO: the underlying results are
one-directional.
"""

from dataclasses import dataclass
from math import gcd

from .numerics import INF, ExtRational, InternalError, MobiusMap, rat


class FamilyError(ValueError):
    pass


def _below(r: ExtRational, v: int) -> bool:
    """r < v on the slope line, where infinity sits below every rational."""
    return r.den == 0 or r.num < v * r.den


# ---------------------------------------------------------------------------
# Seifert fibered spaces


@dataclass(frozen=True)
class SeifertData:
    """Diagram-coefficient form of a Seifert fibered space.

    The space is surgery on k fibers of the trivial circle bundle over
    the base, with nonzero coefficients r_i, stored as a tuple.
    orientable is a bool and genus an int (a bool stored as its int);
    orientable bases need genus >= 0, nonorientable ones genus >= 1.
    """

    orientable: bool
    genus: int
    coefficients: tuple[ExtRational, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if type(self.orientable) is not bool:
            raise FamilyError(f"orientable must be a bool, got {self.orientable!r}")
        if not isinstance(self.genus, int):
            raise FamilyError(f"genus must be an int, got {self.genus!r}")
        object.__setattr__(self, "genus", int(self.genus))
        if self.orientable and self.genus < 0:
            raise FamilyError(f"orientable base needs genus >= 0, got {self.genus}")
        if not self.orientable and self.genus < 1:
            raise FamilyError(f"nonorientable base needs genus >= 1, got {self.genus}")
        for i, r in enumerate(self.coefficients):
            if not isinstance(r, ExtRational):
                raise FamilyError(f"fiber coefficient {i + 1} is not an ExtRational")
            if r.num == 0:
                raise FamilyError(f"fiber coefficient {i + 1} is zero")

    @property
    def sphere_base(self) -> bool:
        return self.orientable and self.genus == 0


def seifert_from_invariants(genus: int, pairs) -> SeifertData:
    """Classical (multiplicity, q) invariants over an orientable base."""
    coeffs = [rat(p, q) for p, q in pairs]
    return SeifertData(orientable=True, genus=genus, coefficients=coeffs)


@dataclass(frozen=True)
class SeifertNormal:
    e: ExtRational
    e0: int
    rprime: tuple[ExtRational, ...]
    k0: int


def seifert_normalize(s: SeifertData) -> SeifertNormal:
    """Euler number, its integer part sum, and normalized coefficients.

    Each -1/r_i splits into an integer and a fraction in [0,1); the
    fractional parts are repackaged as coefficients r'_i in [-inf,-1),
    with -inf standing for fraction zero.  k0 counts the coefficients
    whose reciprocal is not an integer.  The sums run on ints; only e
    and the finite r'_i are built as ExtRationals.
    """
    en, ed, e0 = 0, 1, 0
    rprime = []
    for r in s.coefficients:
        # v = -1/r = vn/vd in lowest terms with vd > 0; -1/inf is 0
        vn, vd = (-r.den, r.num) if r.num > 0 else (r.den, -r.num)
        fl = vn // vd
        en, ed = en * vd + vn * ed, ed * vd
        g = gcd(en, ed)
        en, ed, e0 = en // g, ed // g, e0 + fl
        # the fraction (vn - fl vd)/vd is zero exactly when vd is 1
        rprime.append(INF if vd == 1 else ExtRational(-vd, vn - fl * vd))
    if not s.orientable:
        en -= 2 * s.genus * ed
    k0 = sum(not r.is_infinite for r in rprime)
    return SeifertNormal(e=ExtRational(en, ed), e0=e0, rprime=tuple(rprime), k0=k0)


@dataclass(frozen=True)
class NFunctionResult:
    """Outcome of the pair-function search.

    kind "sentinel" means realizable regardless of the remaining
    coefficients; kind "bound" carries the best certified lower bound
    (an integer, or infinite) together with its witness map, or no
    value at all when the search came up empty.
    """

    kind: str
    value: int | None = None
    infinite: bool = False
    witness: MobiusMap | None = None

    def exceeds(self, r: ExtRational) -> bool:
        """Does the certified bound lie strictly above the slope r?"""
        if self.kind == "sentinel" or self.infinite:
            return True
        return self.value is not None and _below(r, self.value)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _hinge(r1p: ExtRational) -> tuple[int, int]:
    # s = sn/sd in (-inf, -1] with 1/s = -1 - 1/r1p, for r1p in [-inf, -1);
    # sd = -n - d > 0 and gcd(n, -n - d) = gcd(n, d) = 1 for r1p = n/d
    if r1p.is_infinite:
        return -1, 1
    return r1p.num, -r1p.num - r1p.den


def _check_slope(r: ExtRational, name: str):
    if not _below(r, -1):
        raise FamilyError(f"{name} must lie in [-inf, -1), got {r}")


def _check_search_bound(search_bound: int):
    if not isinstance(search_bound, int):
        raise FamilyError(f"search_bound must be an int, got {search_bound!r}")
    if search_bound < 1:
        raise FamilyError(f"search bound must be positive, got {search_bound}")


def _farey_rows(sn: int, sd: int, pn: int, pd: int):
    """The maps (a, b, c, d) n_function tries, some twice: (a, b) =
    +-(W_k.num, -W_k.den) with a > 0, and (c, d) = +-(W_(k-1).num,
    -W_(k-1).den) for the previous vertex W_k - r, with ad - bc = 1."""
    _, x, y = _ext_gcd(sn, sd)
    fl = (x * pn + y * pd) // (sn * pd - sd * pn)  # floor(t), t = g(r2p)
    ln, ld = sn * fl - y, sd * fl + x  # g^-1 of floor(t)
    rn, rd = ln + sn, ld + sd  # g^-1 of floor(t) + 1
    first = 0
    while True:
        # l <= t < r, so -dl/dr >= 0: one right run W_k = l + k*r, k = first..q
        dl, dr = ln * pd - ld * pn, rn * pd - rd * pn
        q = -dl // dr
        f = -ln // rn  # W_k.num changes sign after f; r in [-inf, -1] has r.num != 0
        for k in {first, q} | {k for k in (f, f + 1) if first < k < q}:
            a, b = ln + k * rn, -(ld + k * rd)
            c, d = a - rn, b + rd
            if a < 0:
                a, b = -a, -b
            e = a * d - b * c  # W_(k-1) and W_k are Farey neighbours: e is +-1
            yield a, b, e * c, e * d
        ln, ld, dl = ln + q * rn, ld + q * rd, dl + q * dr
        if dl == 0:
            return
        # the left run r + j*l, j = 1..p, has no passing vertex
        p = -(dr // dl) - 1
        rn, rd, first = rn + p * ln, rd + p * ld, 1


def n_function(r1p: ExtRational, r2p: ExtRational, search_bound: int = 100) -> NFunctionResult:
    """Certified lower bound for the pair function of the sphere-base test.

    Each determinant-one slope map A = [a b; c d] with every entry at most
    search_bound in absolute value that sends the hinge s into (-1, 0] and
    r2p into [-inf, -1) certifies an integer bound, or an infinite one.
    The result is the best of them: among equal values the witness has
    the lexicographically first row (a, b) (a >= 0, and b = 1 when
    a = 0), and the first infinite bound in that order wins.  The
    sentinel fires when s equals r2p.  Only the witness becomes a
    MobiusMap, and no ExtRational is built: _check_witness re-derives
    its bound exactly on ints, from the witness and the inputs alone.

    The passing maps lie on the Farey path from s to r2p.  A acts on the
    slope circle keeping its orientation and the Farey graph, so for a
    passing A the edge A^-1{0, -1} separates s from r2p, or ends at
    s = A^-1(0), and the third vertex W = A^-1(inf) of its triangle lies
    on the side of r2p.  A sends W to inf, so (a, b) = +-(W.num, -W.den),
    and A s in (-1, 0] then fixes (c, d): a passing map is fixed by its
    W.  With x*sn + y*sd = 1, g = [x y; -sd sn] sends s to inf and r2p
    to t.
      - An edge at g(s) = inf is {n, inf}, with A s = 0; orientation
        gives W = n - 1, and A r2p < -1 just when t is in [n - 1, n).
        So W = floor(t).
      - A finite edge {l, r}, l < r, separates t from inf when t lies
        strictly between.  Each such Farey interval lies in [floor(t),
        floor(t) + 1], and the Stern-Brocot descent to t meets them all
        (Graham, Knuth and Patashnik, Concrete Mathematics, 4.5).  W is
        the mediant l + r, A sends l and r to 0 and -1, and A r2p < -1
        just when t >= l + r: W is a mediant where the descent steps
        right, t itself among them.
    The walk reads these vertices in slope coordinates, through g^-1,
    which keeps determinants.

    The right steps come in runs W_k = l + k*r, k = 1..q, q at most a
    partial quotient of t; floor(t) is W_0 of the first run, where l - r
    is inf.  A_k sends W_(k-1), r and W_k to 0, -1 and inf, so its
    rows are +-(W_k.num, -W_k.den) and +-(W_(k-1).num, -W_(k-1).den),
    signed by det A_k = 1: each map is read off the walk.  And
    A_(k+1) = P A_k with P: z -> -1/(z + 2), which fixes -1 and keeps
    num + den up to sign.  So mu = |a + c| is one number along a run (A
    sends 0 to c/a).  The floors in the value are at most -2, and
    exactly -2 inside the run, so every vertex of a run is worth at
    least -mu, and all but its first and last exactly -mu:
      - if c >= 0 or a = 0, the value is -(a + |c|);
      - if -a <= c < 0, A^-1(-1/2) = W_(k-2) lies on the side of s (or
        is s), so A s is in (-1, -1/2] and floor(1/(A s)) = -2;
      - if c < -a, A^-1(-2) = W_(k+1) <= t, so A r2p is in [-2, -1).
    The edge {inf, -1} bounds the arc [-inf, -1] that holds s and r2p,
    and Farey edges do not cross, so the vertices lie in it too.  Hence
    |b| <= |a| and |d| <= |c| = |W_(k-1).num|, and a, |c| >= 1: the
    entry bound reads max(a, |c|), a0 is never inf, an infinite z always
    gives an infinite bound, and every tried map passes both range
    tests.  On each side of the sign change of a = W_k.num the
    normalised row is affine in k, with |a| growing away from it.  So of
    the vertices worth -mu only the first, the last and the two at the
    sign change can come first in order and meet the bound.  At most
    four rows a run are tried: the work grows with the number of partial
    quotients of t, whatever search_bound is.
    """
    _check_slope(r1p, "first coefficient")
    _check_slope(r2p, "second coefficient")
    _check_search_bound(search_bound)
    sn, sd = _hinge(r1p)  # s is finite
    pn, pd = r2p.num, r2p.den  # infinity is 1/0
    if (sn, sd) == (pn, pd):
        return NFunctionResult(kind="sentinel")

    best = None  # the least key: infinite bounds first, then the largest value, then (a, b)
    for a, b, c, d in _farey_rows(sn, sd, pn, pd):
        if a > search_bound or abs(c) > search_bound:
            continue
        # split on a0 = c/a: z = 0 on [0, inf), 1/(A s) on [-1, 0), else A r2p
        if c >= 0:
            z_num, z_den = 0, 1
        elif c >= -a:
            z_num, z_den = a * sd + b * sn, c * sd + d * sn
        else:
            z_num, z_den = c * pd + d * pn, a * pd + b * pn
        if z_den == 0:
            key = (0, 0, a, b, c, d)
        else:
            value = -min(a, abs(c)) * (z_num // z_den + 1) - max(a, abs(c))
            key = (1, -value, a, b, c, d)
        if best is None or key < best:
            best = key
    if best is None:
        return NFunctionResult(kind="bound")
    infinite = best[0] == 0
    out = NFunctionResult("bound", None if infinite else -best[1], infinite, MobiusMap(*best[2:]))
    _check_witness(out, sn, sd, r2p)
    return out


def _check_witness(res: NFunctionResult, sn: int, sd: int, r2p: ExtRational):
    """Re-derive the reported bound from the witness alone.

    It reads the witness A = [a b; c d], the hinge s = sn/sd (in lowest
    terms), r2p and the reported value, never the search's rows or
    shifts.  A s and A r2p are taken as int pairs with a nonnegative
    denominator, the range tests are cross-multiplied, a0 = c/a is read
    by sign (a >= 0 for a MobiusMap) and floors are taken with //.  It
    raises an internal error on any disagreement; the checks are
    explicit so that python -O keeps them.
    """
    w = res.witness
    a, b, c, d = w.a, w.b, w.c, w.d
    vn, vd = c * sd + d * sn, a * sd + b * sn  # A s
    if vd < 0:
        vn, vd = -vn, -vd
    if vd == 0 or not -vd < vn <= 0:
        raise InternalError(
            f"internal: witness {w} sends the hinge {ExtRational(sn, sd)} to "
            f"{ExtRational(vn, vd)}, outside (-1, 0]"
        )
    pn, pd = r2p.num, r2p.den
    w2n, w2d = c * pd + d * pn, a * pd + b * pn  # A r2p
    if w2d < 0:
        w2n, w2d = -w2n, -w2d
    if w2d != 0 and not w2n < -w2d:
        raise InternalError(
            f"internal: witness {w} sends {r2p} to {ExtRational(w2n, w2d)}, outside [-inf, -1)"
        )
    # t: 0 for a0 in [0, inf], 1/(A s) for a0 in [-1, 0), else A r2p
    if a == 0 or c >= 0:
        t_num, t_den = 0, 1
    elif c >= -a:
        t_num, t_den = vd, vn
    else:
        t_num, t_den = w2n, w2d
    big, small = max(abs(a), abs(c)), min(abs(a), abs(c))
    if t_den == 0:
        infinite = small >= 1
        value = None if infinite else -big
    else:
        infinite, value = False, -small * (t_num // t_den + 1) - big
    if (res.infinite, res.value) != (infinite, value):
        raise InternalError(
            f"internal: witness {w} certifies value={value} infinite={infinite}, "
            f"the search reported value={res.value} infinite={res.infinite}"
        )


@dataclass(frozen=True)
class SeifertDecision:
    verdict: str
    reason: str | None = None
    detail: str = ""
    pair: tuple[int, int] | None = None
    n_result: NFunctionResult | None = None


def _closed_form_level(r1p: ExtRational) -> int:
    # largest integer below the hinge of r1p
    sn, sd = _hinge(r1p)
    return -(-sn // sd) - 1


def decide_seifert(s: SeifertData, search_bound: int = 100) -> SeifertDecision:
    """One-directional realizability test for a Seifert fibered space.

    YES means the space bounds the required structure; UNKNOWN means no
    sufficient condition applied within the search bound, which must be
    at least 1 whichever rule decides.
    """
    _check_search_bound(search_bound)
    norm = seifert_normalize(s)
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
    if all(_below(r, -2) for r in rp):
        return SeifertDecision(
            verdict="YES", reason="c", detail="all normalized coefficients below -2"
        )
    for i in range(k):
        level = _closed_form_level(rp[i])
        if all(_below(rp[j], level) for j in range(k) if j != i):
            return SeifertDecision(
                verdict="YES",
                reason="c",
                detail=f"coefficient {i + 1} gives integer level {level}",
            )
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            res = n_function(rp[i], rp[j], search_bound)
            if res.kind == "sentinel":
                return SeifertDecision(
                    verdict="YES",
                    reason="c",
                    detail=f"pair ({i + 1}, {j + 1}) hits the sentinel",
                    pair=(i + 1, j + 1),
                    n_result=res,
                )
            others = [rp[t] for t in range(k) if t not in (i, j)]
            if res.witness is not None and all(res.exceeds(r) for r in others):
                return SeifertDecision(
                    verdict="YES",
                    reason="c",
                    detail=f"pair ({i + 1}, {j + 1}) bounds the rest",
                    pair=(i + 1, j + 1),
                    n_result=res,
                )
    return SeifertDecision(verdict="UNKNOWN", detail="no sufficient condition applied")


def brieskorn(p1: int, p2: int, p3: int, orientation: int = 1) -> SeifertData:
    """Sphere-base Seifert data of a Brieskorn homology sphere.

    The denominators solve q1*p2*p3 + p1*q2*p3 + p1*p2*q3 = orientation
    (+1 or -1), canonicalized so the first two lie in (-p_i, 0).
    """
    if not isinstance(orientation, int) or orientation not in (1, -1):
        raise FamilyError(f"orientation must be +1 or -1, got {orientation!r}")
    ps = (p1, p2, p3)
    for i, p in enumerate(ps, start=1):
        if not isinstance(p, int):
            raise FamilyError(f"multiplicity p{i} must be an int, got {p!r}")
        if p < 2:
            raise FamilyError(f"multiplicities must be at least 2, got {p}")
    for u in range(3):
        for v in range(u + 1, 3):
            if gcd(ps[u], ps[v]) != 1:
                raise FamilyError(
                    f"multiplicities must be pairwise coprime, got {ps[u]} and {ps[v]}"
                )
    g, x, _ = _ext_gcd(p2 * p3 % p1, p1)
    q1 = orientation * x % p1 - p1
    g, x, _ = _ext_gcd(p1 * p3 % p2, p2)
    q2 = orientation * x % p2 - p2
    q3, rem = divmod(orientation - q1 * p2 * p3 - p1 * q2 * p3, p1 * p2)
    if rem:
        raise InternalError(f"internal: no integer q3 solves the orientation equation for {ps}")
    return SeifertData(
        orientable=True,
        genus=0,
        coefficients=[rat(p1, q1), rat(p2, q2), rat(p3, q3)],
    )


# ---------------------------------------------------------------------------
# surgeries on the Borromean rings


@dataclass(frozen=True)
class BorromeanCoeffs:
    r1: ExtRational
    r2: ExtRational
    r3: ExtRational

    def __post_init__(self):
        for i, r in enumerate(self.as_tuple()):
            if not isinstance(r, ExtRational):
                raise FamilyError(f"coefficient {i + 1} is not an ExtRational")

    def as_tuple(self) -> tuple[ExtRational, ExtRational, ExtRational]:
        return (self.r1, self.r2, self.r3)


def borromean_membership(c: BorromeanCoeffs) -> tuple[bool, bool, bool]:
    """Exact membership in the three exceptional coefficient regions.

    Each r = n/d (d > 0) is tested by cross-multiplied integer
    inequalities, and floor(-1/r) for r < 0 is d // -n.  The regions
    hold points with 0, 2 and 3 negative coordinates.
    """
    rs = [(r.num, r.den) for r in c.as_tuple()]
    if any(d == 0 for _, d in rs):
        raise FamilyError("membership needs finite coefficients, got infinity")
    neg = [(n, d) for n, d in rs if n < 0]
    in_a0 = not neg and all(d <= n < 4 * d for n, d in rs)
    # one negative r in [-1/3, 0), the other in [-2 floor(-1/r) - 1, -6)
    in_a2 = len(neg) == 2 and any(
        -d2 <= 3 * n2 and (-2 * (d2 // -n2) - 1) * d3 <= n3 < -6 * d3
        for (n2, d2), (n3, d3) in (neg, neg[::-1])
    )
    in_a3 = len(neg) == 3
    if in_a3:
        fl = [d // -n for n, d in rs]
        # r_k >= -2 (floor(-1/r_i) + floor(-1/r_j) + 1) for {i, j, k} = {1, 2, 3}
        in_a3 = all(-2 * (sum(fl) - f + 1) * d <= n for (n, d), f in zip(rs, fl))
        # except inside [-6, 0)^3 with two coordinates in [-1, 0)
        if all(-6 * d <= n for n, d in rs) and sum(-d <= n for n, d in rs) >= 2:
            in_a3 = False
    return in_a0, in_a2, in_a3


@dataclass(frozen=True)
class BorromeanDecision:
    verdict: str
    in_a0: bool = False
    in_a2: bool = False
    in_a3: bool = False
    detail: str = ""


_YES_INFINITE = BorromeanDecision(verdict="YES", detail="infinite coefficient")
_YES_OUTSIDE = BorromeanDecision(verdict="YES", detail="outside all exceptional regions")


def decide_borromean(c: BorromeanCoeffs) -> BorromeanDecision:
    """YES unless the coefficients land in an exceptional region.

    An infinite coefficient reduces the space to a connected sum of
    lens spaces, which is always realizable.
    """
    if 0 in (c.r1.den, c.r2.den, c.r3.den):
        return _YES_INFINITE
    in_a0, in_a2, in_a3 = borromean_membership(c)
    if in_a0 or in_a2 or in_a3:
        return BorromeanDecision(
            verdict="UNKNOWN", in_a0=in_a0, in_a2=in_a2, in_a3=in_a3,
            detail="coefficients lie in an exceptional region",
        )
    return _YES_OUTSIDE


def borromean_presentation(c: BorromeanCoeffs) -> "SurgeryPresentation":
    """Surgery presentation fit for homology: three unknots, zero linking."""
    from .presentation import SurgeryPresentation

    return SurgeryPresentation(
        coeffs=list(c.as_tuple()),
        lk=[[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        unknot=[True, True, True],
    )


def twist_knot_surgery(l: int, m: int, r: ExtRational) -> tuple[BorromeanCoeffs, BorromeanDecision]:
    """r-surgery on the doubly twisted knot with parameters l and m."""
    coeffs = BorromeanCoeffs(rat(-1, l), rat(-1, m), r)
    return coeffs, decide_borromean(coeffs)


def two_component_surgery(
    m: int, r1: ExtRational, r2: ExtRational
) -> tuple[BorromeanCoeffs, BorromeanDecision]:
    """(r1, r2)-surgery on the symmetric two-component link with clasp m."""
    coeffs = BorromeanCoeffs(rat(-1, m), r1, r2)
    return coeffs, decide_borromean(coeffs)
