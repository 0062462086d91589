"""End-to-end acceptance checks, one test per advertised guarantee.

Running pytest -v on this file prints a single pass/fail line for each
numbered check. Every comparison is exact: integer equality or exact
rational equality, never a tolerance.
"""

import math
import random

from steinkit.families import (
    BorromeanCoeffs,
    borromean_presentation,
    brieskorn,
    decide_borromean,
    decide_seifert,
    seifert_from_invariants,
    seifert_normalize,
    twist_knot_surgery,
    two_component_surgery,
)
from steinkit.front import (
    FrontDiagram,
    FrontError,
    apply_move,
    component_stats,
    parity_lint,
    parse_event_word,
)
from steinkit.invariants import (
    SpinStructure,
    SteinPresentation,
    characteristic_sublinks,
    gamma,
    theta,
)
from steinkit.numerics import (
    NumericsError,
    neg_continued_fraction,
    rat,
    smith_normal_form,
)
from steinkit.presentation import (
    PresentationError,
    SurgeryPresentation,
    blow_down,
    cokernel,
    expand_rational,
    h1,
    rolfsen_twist,
    slam_dunk,
    slam_dunk_inverse,
)

from random_fronts import random_front, trace_at


def test_a01_trefoil_and_minimal_unknot():
    trefoil = FrontDiagram((), parse_event_word("L1 L3 X2 X2 X2 R2 R1"))
    assert component_stats(trefoil)[0].tb == 1
    unknot = FrontDiagram((), parse_event_word("L1 R1"))
    assert component_stats(unknot)[0].tb == -1


def test_a02_parity_of_classical_invariants():
    # tb + r + 1 matches the unsigned handle passage count mod 2
    rng = random.Random(20260816)
    checked = 0
    while checked < 1000:
        d = random_front(rng)
        if len(d.events) > 12:
            continue
        reports = parity_lint(d)
        assert all(rep.ok for rep in reports), (d.slots, d.events)
        checked += 1


def _try_plane_move(rng, d):
    """One random application of a tangle move; None when it misses."""
    e_count = len(d.events)
    move = rng.choice([1, 2, 3, 4, 5])
    try:
        if move == 1 and e_count >= 2:
            return apply_move(d, 1, at=rng.randint(1, e_count - 1))
        if move == 2 and e_count >= 1:
            variant = rng.choice(
                ["birth-above", "birth-below", "death-above", "death-below"]
            )
            return apply_move(d, 2, at=rng.randint(1, e_count), variant=variant)
        if move == 3 and e_count >= 3:
            return apply_move(d, 3, at=rng.randint(1, e_count - 2))
        if move == 4 and e_count >= 1 and d.n_handles:
            variant = rng.choice(["in", "out"])
            handle = rng.randint(1, d.n_handles)
            at = rng.choice([1, e_count])
            return apply_move(d, 4, at=at, variant=variant, handle=handle)
        if move == 5 and e_count >= 1:
            return apply_move(d, 5, at=rng.choice([1, e_count]))
    except FrontError:
        return None
    return None


def test_a03_moves_preserve_classical_invariants():
    rng = random.Random(3)
    applied = 0
    while applied < 10_000:
        d = random_front(rng)
        nd = _try_plane_move(rng, d)
        if nd is None:
            continue
        before = sorted((s.tb, s.rot) for s in component_stats(d))
        after = sorted((s.tb, s.rot) for s in component_stats(nd))
        assert before == after, (d.slots, d.events)
        applied += 1

    # a strand swung around a handle shifts tb by twice its signed runs
    swung_checked = 0
    while swung_checked < 500:
        d = random_front(rng)
        if not d.n_handles:
            continue
        handle = rng.randint(1, d.n_handles)
        if d.slots[handle - 1] < 1:
            continue
        variant = rng.choice(["top", "bottom"])
        try:
            nd = apply_move(d, 6, variant=variant, handle=handle)
        except FrontError:
            continue
        offset = sum(d.slots[: handle - 1])
        pos = offset + 1 if variant == "top" else offset + d.slots[handle - 1]
        swung, direction = trace_at(d.trace, 0, pos)
        eps = direction * d.orientation(swung)
        old = {s.component: s for s in component_stats(d)}
        predicted = sorted(
            (s.tb - (2 * eps * s.runs[handle - 1] if cid == swung else 0), s.rot)
            for cid, s in old.items()
        )
        new = sorted((s.tb, s.rot) for s in component_stats(nd))
        assert predicted == new, (d.slots, d.events, variant, handle)
        swung_checked += 1


def test_a04_zero_framed_curve_run_twice_over_a_handle():
    for p in range(1, 6):
        x = SteinPresentation(q=[[0]], runs=[[2 * p]], rot=[0])
        assert x.q_star() == [[0, 2 * p], [2 * p, 0]]
        assert len(characteristic_sublinks(x)) == 4
        g = gamma(x, SpinStructure(sublink=(0, 0)))
        assert g.coords == (p, 0)
        assert g.orders == (2 * p, 2 * p)
        assert theta(x) == rat(-2)


def test_a05_framed_knot_theta_form_and_collision_obstruction():
    # closed form on a single n-framed knot with rotation number r
    values = {}
    for n in range(-50, 51):
        if n == 0:
            continue
        sign = 1 if n > 0 else -1
        for r in range(-20, 21):
            t = theta(SteinPresentation(q=[[n]], runs=[], rot=[r]))
            assert t == rat(r * r, n) - 4 - 3 * sign, (n, r)
            values[(n, r)] = t

    # a theta collision across opposite framings would need r1^2 + r2^2
    # = 6n, which forces 3 | r1, r2, n; then k^2 = -1 mod n has no
    # solution, so no orientation-preserving equivalence can exist
    collisions = 0
    for n in range(1, 51):
        for r1 in range(-20, 21):
            for r2 in range(-20, 21):
                if values[(n, r1)] != values[(-n, r2)]:
                    continue
                collisions += 1
                assert r1 * r1 + r2 * r2 == 6 * n
                assert r1 % 3 == 0 and r2 % 3 == 0 and n % 3 == 0
                assert all((k * k + 1) % n for k in range(n))
    assert collisions > 0


def test_a06_circle_bundle_obstructions():
    for g in range(6):
        for e in range(-10, 11):
            if e == 0:
                continue
            for r in range(-10, 11):
                if (r - e) % 2:
                    continue
                x = SteinPresentation(q=[[e]], runs=[[0]] * (2 * g), rot=[r])
                s = SpinStructure(sublink=(1,) + (0,) * (2 * g))
                cls = gamma(x, s)
                size = 1 + 2 * g
                rep = ((r + e) // 2,) + (0,) * (2 * g)
                assert cls.representative == rep
                snf = smith_normal_form(x.q_star())
                coords = [
                    sum(snf.left[i][j] * rep[j] for j in range(size))
                    for i in range(size)
                ]
                reduced = tuple(
                    c % d if d else c for c, d in zip(coords, snf.diagonal)
                )
                assert cls.coords == reduced
                assert cls.orders == tuple(snf.diagonal)
                sign = 1 if e > 0 else -1
                assert theta(x) == rat(r * r, e) - 2 * (2 - 2 * g) - 3 * sign


def _cf_value(cf):
    """a0 - 1/(a1 - 1/(... - 1/ak)), folded from the last term."""
    num, den = cf.terms[-1], 1
    for term in reversed(cf.terms[:-1]):
        num, den = term * num - den, num
    return rat(num, den)


def test_a07_continued_fraction_chains():
    for q in range(1, 51):
        for p in range(-50, 51):
            if math.gcd(abs(p), q) != 1:
                continue
            target = rat(p, q)
            cf = neg_continued_fraction(target)
            assert all(a <= -2 for a in cf.terms[1:])
            assert _cf_value(cf) == target
            pres = SurgeryPresentation(
                coeffs=[target],
                lk=[[0]],
                unknot=[True],
                l0=[False],
                rot=[None],
                tb=[None],
            )
            chain = expand_rational(pres)
            assert all(c.is_integer for c in chain.coeffs)
            while chain.m > 1:
                chain = slam_dunk(chain, chain.m - 1, chain.m)
            assert chain.coeffs[0] == target


def test_a08_borromean_first_homology():
    rng = random.Random(8)
    for _ in range(200):
        coeffs = [rat(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(3)]
        pres = borromean_presentation(BorromeanCoeffs(*coeffs))
        nums = [c.num for c in coeffs]
        expected = cokernel(
            [[nums[0], 0, 0], [0, nums[1], 0], [0, 0, nums[2]]]
        )
        assert h1(pres) == expected, coeffs


def _three_fiber_rows(s, l, m):
    """Eight families of small Seifert data, signed consistently by s."""
    return [
        [(2, 1), (4 * l + s, -l), (2 * (4 * l + s) * m + 4 * l - s, -(2 * l + s) * m - l)],
        [(2, 1), (4 * l + 3 * s, -l - s), (2 * (4 * l + 3 * s) * m + 4 * l + s, -(2 * l + s) * m - l)],
        [(2, 1), (14 * m + 3 * s, -5 * m - s), (7, -1)],
        [(2, 1), (18 * m + 5 * s, -7 * m - 2 * s), (9, -1)],
        [(3, 2), (4, -1), (12 * m + 5 * s, -5 * m - 2 * s)],
        [(3, -1), (5, -1), (15 * m + 2 * s, 8 * m + s)],
        [(3, 2), (5, -2), (15 * m + 4 * s, -4 * m - s)],
        [(3, 1), (5, -1), (15 * m + 7 * s, -2 * m - s)],
    ]


def _keeps_row(pairs):
    ps = [p for p, _ in pairs]
    if any(p < 2 for p in ps):
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            if math.gcd(ps[i], ps[j]) != 1:
                return False
    # drop multiplicity sets already covered by the two-fiber-plus-one
    # families, where the listed coefficients may hit the reversed
    # orientation of the small exceptional sphere
    for i in range(3):
        prod = 1
        for j in range(3):
            if j != i:
                prod *= ps[j]
        if ps[i] % prod in (1, prod - 1):
            return False
    return True


def test_a09_three_fiber_families_and_the_open_case():
    instances = {}
    for s in (1, -1):
        for m in range(0, 6):
            for l in range(1, 6):
                for row in _three_fiber_rows(s, l, m)[:2]:
                    instances[tuple(sorted(row))] = row
            for row in _three_fiber_rows(s, 1, m)[2:]:
                instances[tuple(sorted(row))] = row
    kept = 0
    for row in instances.values():
        if not _keeps_row(row):
            continue
        kept += 1
        ps = [p for p, _ in row]
        big = ps[0] * ps[1] * ps[2]
        c = sum(q * (big // p) for p, q in row)
        assert abs(c) == 1, row
        sd = seifert_from_invariants(0, row)
        assert seifert_normalize(sd).e0 == -1, row
        assert decide_seifert(sd).verdict == "YES", row
    assert kept >= 140

    # the one sphere the decider must leave open: reversed orientation,
    # positive Euler number
    sd = brieskorn(2, 3, 5, -1)
    assert seifert_normalize(sd).e > rat(0)
    assert decide_seifert(sd).verdict == "UNKNOWN"


def _census_expected():
    pts = set()
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                pts.add((a, b, c))
    for pos in range(3):
        for x in (-2, -3, -4):
            for y in (-2, -3, -4):
                t = [x, y]
                t.insert(pos, -1)
                pts.add(tuple(t))
    pts.add((-2, -2, -2))
    return pts


def _twist_knot_exception(l, m, r):
    if l == -1 and m == -1 and rat(1) <= r < rat(4):
        return True
    if l < 0 and m >= 3 and rat(-2 * m - 1) <= r < rat(-6):
        return True
    if m < 0 and l >= 3 and rat(-2 * l - 1) <= r < rat(-6):
        return True
    if l > 0 and m > 0 and rat(-2 * (l + m + 1)) <= r < rat(-6):
        return True
    return False


def _symmetric_link_exception(m, r1, r2):
    if m == -1 and rat(1) <= r1 < rat(4) and rat(1) <= r2 < rat(4):
        return True
    for ri, rj in ((r1, r2), (r2, r1)):
        if m < 0 and rat(-1, 3) <= ri < rat(0):
            f = (rat(-1) / ri).num // (rat(-1) / ri).den
            if rat(-2 * f - 1) <= rj < rat(-6):
                return True
        if m >= 3 and ri >= rat(0) and rat(-2 * m - 1) <= rj < rat(-6):
            return True
    if m > 0 and r1 < rat(0) and r2 < rat(0):
        f1 = (rat(-1) / r1).num // (rat(-1) / r1).den
        f2 = (rat(-1) / r2).num // (rat(-1) / r2).den
        if (
            r1 >= rat(-2 * (f2 + m + 1))
            and r2 >= rat(-2 * (f1 + m + 1))
            and (r1 < rat(-6) or r2 < rat(-6) or (r1 < rat(-1) and r2 < rat(-1)))
        ):
            return True
    return False


def test_a10_integer_census_and_exception_regions():
    expected = _census_expected()
    found = set()
    for a in range(-10, 11):
        for b in range(-10, 11):
            for c in range(-10, 11):
                d = decide_borromean(BorromeanCoeffs(rat(a), rat(b), rat(c)))
                if d.verdict == "UNKNOWN":
                    found.add((a, b, c))
    assert found == expected

    grid = [rat(k, 4) for k in range(-48, 49)]
    for l in range(-3, 4):
        for m in range(-3, 4):
            for r in grid:
                _, dec = twist_knot_surgery(l, m, r)
                want = _twist_knot_exception(l, m, r)
                assert (dec.verdict == "UNKNOWN") == want, (l, m, r)

    for m in range(-3, 4):
        for r1 in grid:
            for r2 in grid:
                _, dec = two_component_surgery(m, r1, r2)
                want = _symmetric_link_exception(m, r1, r2)
                assert (dec.verdict == "UNKNOWN") == want, (m, r1, r2)


def test_a11_characteristic_sublink_count():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 8)
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            q[i][i] = rng.randint(-4, 4)
            for j in range(i):
                v = rng.randint(-3, 3)
                q[i][j] = q[j][i] = v
        count = len(characteristic_sublinks(SteinPresentation(q=q, runs=[], rot=[0] * n)))
        snf = smith_normal_form(q)
        free = sum(1 for d in snf.diagonal if d == 0)
        even = sum(1 for d in snf.diagonal if d and d % 2 == 0)
        assert count == 2 ** (free + even), q


def _random_presentation(rng):
    m = rng.randint(1, 4)
    lk = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            v = rng.randint(-2, 2)
            lk[i][j] = lk[j][i] = v
    coeffs = [rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
    return SurgeryPresentation(
        coeffs=coeffs,
        lk=lk,
        unknot=[True] * m,
        l0=[False] * m,
        rot=[None] * m,
        tb=[None] * m,
    )


def test_a12_rewrites_preserve_first_homology():
    rng = random.Random(12)
    sequences = 0
    while sequences < 1000:
        p = _random_presentation(rng)
        base = h1(p)
        steps = 0
        for _ in range(rng.randint(1, 4)):
            op = rng.choice(["expand", "twist", "dunk_in", "dunk_out", "blowdown"])
            try:
                if op == "expand":
                    p = expand_rational(p)
                elif op == "twist" and p.m:
                    p = rolfsen_twist(p, rng.randint(1, p.m), rng.randint(-2, 2))
                elif op == "dunk_in" and p.m:
                    merid = rat(rng.randint(-5, 5), rng.randint(1, 3))
                    p = slam_dunk_inverse(p, rng.randint(1, p.m), merid)
                elif op == "dunk_out" and p.m > 1:
                    p = slam_dunk(p, rng.randint(1, p.m), rng.randint(1, p.m))
                elif op == "blowdown" and p.m:
                    p = blow_down(p, rng.randint(1, p.m))
                else:
                    continue
            except (PresentationError, NumericsError):
                continue
            steps += 1
            assert h1(p) == base
        if steps:
            sequences += 1
