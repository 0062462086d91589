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

from .numerics import INF, ZERO, ExtRational, InternalError, MobiusMap, floor_frac, rat, slope_less


class FamilyError(ValueError):
    pass


MINUS_ONE = rat(-1)

# rows of the pair-search box, about a second of scanning
MAX_PAIR_ROWS = 2_000_000


def _below(r: ExtRational, v: int) -> bool:
    """r < v on the slope line, where infinity sits below every rational."""
    return r.den == 0 or r.num < v * r.den


# ---------------------------------------------------------------------------
# Seifert fibered spaces


@dataclass
class SeifertData:
    """Diagram-coefficient form of a Seifert fibered space.

    The space is surgery on k fibers of the trivial circle bundle over
    the base, with nonzero coefficients r_i.  orientable bases need
    genus >= 0, nonorientable ones genus >= 1.
    """

    orientable: bool
    genus: int
    coefficients: list[ExtRational]

    def __post_init__(self):
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
    if search_bound < 1:
        raise FamilyError(f"search bound must be positive, got {search_bound}")


def n_function(r1p: ExtRational, r2p: ExtRational, search_bound: int = 100) -> NFunctionResult:
    """Certified lower bound for the pair function of the sphere-base test.

    Enumerates determinant-one slope maps A with every entry bounded by
    search_bound, keeps those sending the hinge s into (-1,0] and r2p
    into [-inf,-1), and maximizes the resulting integer.  The sentinel
    short-circuit fires when s equals r2p.

    The rows (a, b) run in lexicographic order and each gives at most one
    candidate, the unique (c, d) with ad - bc = 1 that sends s into
    (-1, 0], so keeping the first strictly better candidate is the same
    as breaking ties by the lexicographically first witness.  No
    candidate beats an infinite bound, so the search stops at the first
    one.  The loop runs on plain ints; only the witness becomes a
    MobiusMap, and _check_witness re-derives its bound exactly.

    Only rows that can pass are scanned.  Write s = sn/sd, r2p = pn/pd
    (infinity is 1/0), delta = |sn*pd - pn*sd| (nonzero once s != r2p),
    vd = a*sd + b*sn and w2d = a*pd + b*pn.  Then A s - A r2p =
    (sn*pd - pn*sd) / (vd*w2d), and since A is unimodular and both
    slopes are primitive, A s and A r2p have denominators exactly |vd|
    and |w2d|.  A passing row puts -1 strictly between them, so
    A s - A r2p >= 1/|vd| + 1/|w2d|, that is |vd| + |w2d| <= delta; the
    row with w2d = 0 has |vd| = delta and meets it too.  Solving the two
    forms for a and b gives a <= max(|sn|, |pn|) and |b| <= max(sd, pd).
    So the loops stop at those heights whatever search_bound is, and a
    row with |vd| + |w2d| > delta is skipped before any gcd work; the
    rows kept come in the same order and meet the same tests.  A box of
    more than MAX_PAIR_ROWS rows is refused before the scan.
    """
    _check_slope(r1p, "first coefficient")
    _check_slope(r2p, "second coefficient")
    _check_search_bound(search_bound)
    sn, sd = _hinge(r1p)  # s is finite
    pn, pd = r2p.num, r2p.den  # infinity is 1/0
    if (sn, sd) == (pn, pd):
        return NFunctionResult(kind="sentinel")

    delta = abs(sn * pd - pn * sd)
    a_max = min(search_bound, max(abs(sn), abs(pn)))
    b_max = min(search_bound, max(sd, pd))
    rows = (a_max + 1) * (2 * b_max + 1)
    if rows > MAX_PAIR_ROWS:
        raise FamilyError(f"the pair search would scan {rows} rows; the limit is {MAX_PAIR_ROWS}")
    best_value: int | None = None
    best_infinite = False
    best_row: tuple[int, int, int, int] | None = None

    for a in range(0, a_max + 1):
        b_range = (1,) if a == 0 else range(-b_max, b_max + 1)
        for b in b_range:
            # A = [a b; c d] sends s to (c sd + d sn) / vd and r2p to
            # w2n / w2d; rows past the height bound cannot pass
            vd, w2d = a * sd + b * sn, a * pd + b * pn
            if abs(vd) + abs(w2d) > delta:
                continue
            if gcd(a, b) != 1:
                continue
            if vd == 0:
                continue
            # any solution of ad - bc = 1 differs from the one below by a
            # multiple of (a, b)
            _, x, y = _ext_gcd(a, b)
            vn = -y * sd + x * sn
            if vd < 0:
                vn, vd = -vn, -vd
            k = -vn // vd  # floor(-vs): the shift that puts A s in (-1, 0]
            c, d = k * a - y, k * b + x
            if abs(c) > search_bound or abs(d) > search_bound:
                continue
            # A r2p = w2n / w2d must lie in [-inf, -1)
            w2n = c * pd + d * pn
            if w2d != 0 and (w2n + w2d) * w2d >= 0:
                continue
            # split on a0 = c/a: t = 0 on [0, inf], 1/(A s) on [-1, 0), else A r2p
            if c >= 0 or a == 0:
                t_num, t_den = 0, 1
            elif c >= -a:
                t_num, t_den = vd, vn + k * vd  # t = 1 / (A s)
            else:
                t_num, t_den = w2n, w2d  # t = A r2p
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
    _check_witness(out, ExtRational(sn, sd), r2p)
    return out


def _check_witness(res: NFunctionResult, s: ExtRational, r2p: ExtRational):
    """Re-derive the reported bound from the witness alone.

    This runs on ExtRational arithmetic, independently of the integer
    search, and raises an internal error on any disagreement.  The
    checks are explicit so that python -O keeps them.
    """
    w = res.witness
    ws = w.apply(s)
    if ws.is_infinite or not MINUS_ONE < ws <= ZERO:
        raise InternalError(f"internal: witness {w} sends the hinge {s} to {ws}, outside (-1, 0]")
    w2 = w.apply(r2p)
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
        value = None if infinite else -big
    else:
        infinite, value = False, -small * (floor_frac(t)[0] + 1) - big
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
    if orientation not in (1, -1):
        raise FamilyError(f"orientation must be +1 or -1, got {orientation}")
    ps = (p1, p2, p3)
    for p in ps:
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


def decide_borromean(c: BorromeanCoeffs) -> BorromeanDecision:
    """YES unless the coefficients land in an exceptional region.

    An infinite coefficient reduces the space to a connected sum of
    lens spaces, which is always realizable.
    """
    if 0 in (c.r1.den, c.r2.den, c.r3.den):
        return BorromeanDecision(verdict="YES", detail="infinite coefficient")
    in_a0, in_a2, in_a3 = borromean_membership(c)
    if in_a0 or in_a2 or in_a3:
        return BorromeanDecision(
            verdict="UNKNOWN", in_a0=in_a0, in_a2=in_a2, in_a3=in_a3,
            detail="coefficients lie in an exceptional region",
        )
    return BorromeanDecision(verdict="YES", detail="outside all exceptional regions")


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
