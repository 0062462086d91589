"""Behaviour digests of five library layers, for refactors to quote.

    PYTHONPATH=src python3 tests/differential.py

prints one SHA-256 per layer:
  - families: the outputs of seeded calls of seifert_normalize,
    decide_seifert, n_function, brieskorn and the Borromean deciders,
    with the message of every FamilyError among them;
  - rewrites: seeded presentations drawn as tests/random_presentations.py
    draws them, each with its h1, and the results of expand_rational,
    rolfsen_twist, slam_dunk, slam_dunk_inverse, blow_down and delete on
    it, each followed by h1, with the message of every PresentationError;
  - fronts: seeded fronts with handles drawn as tests/random_fronts.py
    draws them, with coefficients, through component_stats, parity_lint,
    check_stein_form, surger_handles and serialize_front, and the result
    of every move candidate and of one stabilisation, each serialized
    with its component_stats, with the message of every FrontError;
  - invariants: seeded integer presentations with their l0 components
    last, each with its h1, Gamma on every characteristic sublink, and
    theta, or theta_f0_and_d where theta is undefined, with the message
    of every InvariantError;
  - scalars: seeded ExtRational arithmetic, order and str, parse_int
    and parse_rational on good and bad tokens, neg_continued_fraction,
    MobiusMap with its sign canonicalisation, first_asymmetry,
    invariant_factors, smith_normal_form (the diagonal and both
    witnesses), inertia on int and Fraction entries and
    solve_gf2_affine, with the message of every NumericsError.
The seeds and counts are fixed, so two checkouts that behave alike print
the same digests, and a change in any of those outputs changes the digest
of its layer.  They pin behaviour, right or wrong; the tests say what is
right.  It is a script, not a test module: pytest does not collect it.
"""

import hashlib
import operator
import random
import sys
from fractions import Fraction
from math import gcd

from steinkit.families import (
    BorromeanCoeffs,
    FamilyError,
    SeifertData,
    borromean_membership,
    brieskorn,
    decide_borromean,
    decide_seifert,
    n_function,
    seifert_normalize,
    twist_knot_surgery,
    two_component_surgery,
)
from steinkit.front import (
    STEIN,
    FrontDiagram,
    FrontError,
    apply_move,
    check_stein_form,
    component_stats,
    n_components,
    parity_lint,
    serialize_front,
    stabilize,
    surger_handles,
)
from steinkit.invariants import (
    InvariantError,
    SteinPresentation,
    characteristic_sublinks,
    gamma,
    theta,
    theta_f0_and_d,
)
from steinkit.numerics import (
    INF,
    ZERO,
    MobiusMap,
    NumericsError,
    first_asymmetry,
    inertia,
    invariant_factors,
    neg_continued_fraction,
    parse_int,
    parse_rational,
    rat,
    smith_normal_form,
    solve_gf2_affine,
)
from steinkit.presentation import (
    PresentationError,
    SurgeryPresentation,
    blow_down,
    expand_rational,
    h1,
    rolfsen_twist,
    slam_dunk,
    slam_dunk_inverse,
)

from random_fronts import move_candidates, random_front

SEED = 20261021
SEIFERT, PAIRS, BORROMEAN = 30_000, 20_000, 20_000
BRIESKORN = 13  # every Brieskorn triple with entries 1..BRIESKORN
PRESENTATIONS = 3_000
FRONTS = 3_000
SCALARS = 3_000
BASES = [(True, 0)] * 6 + [(True, 1), (True, 2), (False, 1), (False, 3)]


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (FamilyError, PresentationError, FrontError, InvariantError, NumericsError) as e:
        return ("error", str(e))


def fiber(rng, floor):
    """-1/(floor + b/a) with 0 < b < a, so floor(-1/r) = floor."""
    a = rng.randint(2, 13)
    b = rng.choice([b for b in range(1, a) if gcd(a, b) == 1])
    return -(rat(floor) + rat(b, a)).reciprocal()


def coefficient(rng):
    if rng.random() < 0.08:
        return INF
    return rat(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 30))


def seifert_data(rng):
    """Bases of every kind with 0-5 coefficients, inf among them; in most
    draws the floors of -1/r_i sum to -1, so the later rules run."""
    k = rng.randint(0, 5)
    if k and rng.random() < 0.7:
        n_inf = rng.randint(0, k - 1) if rng.random() < 0.2 else 0
        floors = [rng.randint(-1, 1) for _ in range(k - n_inf - 1)]
        coeffs = [fiber(rng, f) for f in floors + [-1 - sum(floors)]] + [INF] * n_inf
        rng.shuffle(coeffs)
    else:
        coeffs = [coefficient(rng) for _ in range(k)]
    return SeifertData(*rng.choice(BASES), coeffs)


def slope(rng):
    """INF, slopes in [-inf, -1) of small and large height, and some at
    or above -1, which n_function refuses."""
    roll = rng.random()
    if roll < 0.05:
        return INF
    if roll < 0.1:
        return rat(rng.randint(-9, 9), rng.randint(1, 9))
    if roll < 0.5:
        q = rng.randint(1, 12)
        return rat(-rng.randint(q + 1, 6 * q), q)
    p = rng.randint(1, 2000)
    return rat(-p - rng.randint(1, 2000), p)


def borromean_value(rng):
    roll = rng.random()
    if roll < 0.05:
        return INF
    if roll < 0.5:
        edge = rng.choice((rat(-1, 3), rat(-1), rat(1), rat(4), rat(-6), rat(0), rat(-1, 2)))
        return edge + rat(rng.randint(-1, 1), rng.randint(1, 12))
    return rat(rng.randint(-30, 30), rng.randint(1, 6))


def family_records():
    rng = random.Random(SEED)
    for _ in range(SEIFERT):
        sd, bound = seifert_data(rng), rng.randint(1, 100)
        yield "seifert", sd, seifert_normalize(sd), outcome(decide_seifert, sd, bound)
    for _ in range(PAIRS):
        r1p, r2p = slope(rng), slope(rng)
        bound = rng.choice((rng.randint(0, 60), rng.randint(1, 10**6)))
        yield "n", r1p, r2p, bound, outcome(n_function, r1p, r2p, bound)
    for p1 in range(1, BRIESKORN + 1):
        for p2 in range(1, BRIESKORN + 1):
            for p3 in range(1, BRIESKORN + 1):
                for orientation in (1, -1):
                    sd = outcome(brieskorn, p1, p2, p3, orientation)
                    yield "brieskorn", p1, p2, p3, orientation, sd
                    if isinstance(sd, SeifertData):
                        yield [decide_seifert(sd, bound) for bound in (1, 5, 50)]
    for _ in range(BORROMEAN):
        c = BorromeanCoeffs(*(borromean_value(rng) for _ in range(3)))
        l, m = rng.randint(-5, 5), rng.randint(-5, 5)
        yield ("borromean", c, outcome(borromean_membership, c), decide_borromean(c),
               outcome(twist_knot_surgery, l, m, c.r3),
               outcome(two_component_surgery, m, c.r1, c.r2))


def surgery_coefficient(rng):
    roll = rng.randrange(4)
    if roll == 0:
        return INF
    if roll == 1:
        return rat(rng.randint(-3, 3))
    if roll == 2:
        return rat(rng.choice((1, -1)))  # blow_down applies to these on unknots
    return rat(rng.randint(-12, 12), rng.randint(1, 7))


def presentation(rng, max_m=5):
    """A valid presentation, drawn by the recipe of
    tests/random_presentations.py: flags, rot and tb data, every tb above
    its finite coefficient, a coefficient -1/n with n in 65..80 in about
    half of them, and about a fifth of the components l0 unknots."""
    m = rng.randint(1, max_m)
    coeffs = [surgery_coefficient(rng) for _ in range(m)]
    if rng.random() < 0.5:
        coeffs[rng.randrange(m)] = rat(-1, rng.randint(65, 80))
    lk = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            lk[i][j] = lk[j][i] = rng.randint(-2, 2)
    l0 = [rng.randint(0, 4) == 0 for _ in range(m)]
    coeffs = [rat(0) if f else c for f, c in zip(l0, coeffs)]
    unknot = [f or rng.random() < 0.5 for f in l0]
    rot = [None if rng.random() < 0.5 else rng.randint(-3, 3) for _ in range(m)]
    tb = [None if c.is_infinite or rng.random() < 0.5 else c.num // c.den + rng.randint(1, 3)
          for c in coeffs]
    return SurgeryPresentation(coeffs=coeffs, lk=lk, unknot=unknot, l0=l0, rot=rot, tb=tb)


def component(rng, m, base=1):
    """An index from base, one past the last in about one draw in ten."""
    return base + (m if rng.random() < 0.1 else rng.randrange(m))


def rewrite(name, fn, *args):
    """The record of one rewrite: its arguments past the presentation, its
    result or error, and the h1 of the result."""
    q = outcome(fn, *args)
    return name, args[1:], q, outcome(h1, q) if isinstance(q, SurgeryPresentation) else None


def rewrite_records():
    rng = random.Random(SEED)
    for _ in range(PRESENTATIONS):
        p = presentation(rng)
        m = p.m
        i = component(rng, m)
        meridian = rat(0) if rng.random() < 0.1 else surgery_coefficient(rng)
        yield "presentation", p, h1(p)
        yield rewrite("expand_rational", expand_rational, p)
        yield rewrite("rolfsen_twist", rolfsen_twist, p, i, rng.randint(-2, 2))
        yield rewrite("slam_dunk", slam_dunk, p, i, component(rng, m))
        yield rewrite("blow_down", blow_down, p, component(rng, m))
        yield rewrite("delete", SurgeryPresentation.delete, p, component(rng, m, 0))
        record = rewrite("slam_dunk_inverse", slam_dunk_inverse, p, i, meridian)
        yield record
        if isinstance(record[2], SurgeryPresentation):
            # the new meridian links only component i, once: dunking it back applies
            yield rewrite("slam_dunk", slam_dunk, record[2], i, m + 1)


def front(rng):
    """A random front with up to three handles, each component marked
    stein, given a rational coefficient or left without one."""
    d = random_front(rng, max_handles=3, max_slot=3, max_extra=12)
    coefficients = {}
    for cid in d.trace.ids:
        roll = rng.random()
        if roll < 0.5:
            coefficients[cid] = STEIN
        elif roll < 0.9:
            coefficients[cid] = rat(rng.randint(-6, 4), rng.randint(1, 3))
    return FrontDiagram(d.slots, d.events, d.orientations, coefficients)


def front_rewrite(fn, d, *args, **kwargs):
    """The rewritten front, serialized, with its component_stats, or the error."""
    new = outcome(fn, d, *args, **kwargs)
    return (serialize_front(new), component_stats(new)) if isinstance(new, FrontDiagram) else new


def front_records():
    rng = random.Random(SEED)
    for _ in range(FRONTS):
        d = front(rng)
        # reading the stats first makes every rewrite carry them
        yield ("front", serialize_front(d), component_stats(d), parity_lint(d), check_stein_form(d),
               outcome(surger_handles, d))
        for move, kwargs in move_candidates(d):
            yield move, kwargs, front_rewrite(apply_move, d, move, **kwargs)
        cid, direction = rng.randint(1, n_components(d) + 1), rng.choice(("up", "down"))
        at = None if rng.random() < 0.5 else rng.randint(-1, len(d.events) + 1)
        yield "stabilize", cid, direction, at, front_rewrite(stabilize, d, cid, direction, at)


def stein_surgery(rng, max_m=6):
    """An integer presentation whose l0 components come last.  Most rot
    data has the parity Gamma needs, some has not or is missing, and in
    about one draw in twenty two l0 components link."""
    m = rng.randint(1, max_m)
    n1 = rng.randint(0, min(2, m - 1))
    free = m - n1
    lk = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            if i < free or rng.random() < 0.05:
                lk[i][j] = lk[j][i] = rng.randint(-2, 2)
    coeffs = [rng.randint(-4, 3) if i < free else 0 for i in range(m)]
    rot = []
    for i in range(free):
        roll = rng.random()
        if roll < 0.05:
            rot.append(None)
        else:
            parity = (coeffs[i] + sum(lk[i][free:])) % 2 if roll < 0.8 else rng.randint(0, 1)
            rot.append(2 * rng.randint(-1, 1) + parity)
    return SurgeryPresentation(
        coeffs=[rat(c) for c in coeffs], lk=lk, unknot=[i >= free for i in range(m)],
        l0=[i >= free for i in range(m)], rot=rot + [None] * n1, tb=[None] * m,
    )


def invariant_records():
    rng = random.Random(SEED)
    for _ in range(PRESENTATIONS):
        p = stein_surgery(rng)
        x = outcome(SteinPresentation.from_presentation, p)
        yield "presentation", p, h1(p), x
        if isinstance(x, SteinPresentation):
            yield [(s, outcome(gamma, x, s)) for s in characteristic_sublinks(x)]
            t = outcome(theta, x)
            yield "theta", t, theta_f0_and_d(x) if isinstance(t, tuple) else None


# tokens that parse_int or parse_rational reads, and tokens that they refuse
TOKENS = ["0", "-0", "7", "-12", "007", "+3", "1_0", " 4", "4 ", "\u0663", "", "-", "--1", "inf",
          "-inf", "INF", "1/2", "3/-4", "-6/4", "1/0", "-1/0", "0/0", "2/", "/3", "1//2", "1/2/3",
          "1.5", "1e3", "x", "1/x", "9" * 40, "-" + "9" * 40 + "/" + "3" * 30]


def scalar(rng):
    """inf, zero, an int, or a fraction of small or large height."""
    roll = rng.random()
    if roll < 0.05:
        return INF
    if roll < 0.1:
        return ZERO
    if roll < 0.3:
        return rat(rng.randint(-9, 9))
    if roll < 0.9:
        return rat(rng.randint(-40, 40), rng.randint(1, 12))
    return rat(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))


def token(rng):
    """A random token of digits, signs, slashes and the odd letter."""
    return "".join(rng.choice("0123456789-/ix") for _ in range(rng.randint(1, 6)))


def unimodular(rng):
    """Entries of a random determinant-one matrix: a product of shears and
    a quarter turn, negated in about half the draws."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.3:
            a, b, c, d = b, -a, d, -c
        else:
            k = rng.randint(-4, 4)
            a, b, c, d = a, b + k * a, c, d + k * c
    return (a, b, c, d) if rng.random() < 0.5 else (-a, -b, -c, -d)


def entry(rng, odd):
    """A small int, else with probability odd a bool, a Fraction, a float or nan."""
    if rng.random() < odd:
        return rng.choice((True, False, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), 1.5, float("nan")))
    return rng.randint(-5, 5)


def matrix(rng, odd=0.0):
    """A random matrix of up to 6 x 6 entries: square in most draws, else
    rectangular, and ragged in about one draw in ten."""
    n = rng.randint(0, 6)
    m = n if rng.random() < 0.6 else rng.randint(0, 6)
    rows = [[entry(rng, odd) for _ in range(m)] for _ in range(n)]
    if rows and rng.random() < 0.1:
        row = rng.choice(rows)
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append(entry(rng, odd))
    return rows


def symmetric(rng):
    """A random symmetric matrix of up to 6 x 6 entries, with Fraction
    entries in about half the draws, one entry off its mirror in about one
    draw in ten, and one entry neither an int nor a Fraction in one in
    thirty."""
    n, fractions = rng.randint(0, 6), rng.random() < 0.5
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = rng.randint(-5, 5)
            rows[i][j] = rows[j][i] = Fraction(v, rng.randint(1, 3)) if fractions and rng.random() < 0.5 else v
    if n > 1 and rng.random() < 0.1:
        rows[0][n - 1] = entry(rng, 0.3)
    if n and rng.random() < 1 / 30:
        rows[n - 1][0] = rng.choice((1.5, float("nan"), "1"))
    return rows


def scalar_records():
    rng = random.Random(SEED)
    for text in TOKENS + [token(rng) for _ in range(200)]:
        yield "parse", text, outcome(parse_int, text), outcome(parse_rational, text)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    order = (operator.lt, operator.le, operator.gt, operator.ge)
    for _ in range(SCALARS):
        a, b, k = scalar(rng), scalar(rng), rng.randint(-3, 3)
        yield ("ExtRational", a, b, k, str(a), -a, outcome(a.reciprocal),
               [outcome(op, a, b) for op in ops], [outcome(op, a, k) for op in ops],
               outcome(operator.add, k, a), outcome(operator.mul, k, a), [outcome(op, a, b) for op in order],
               a == b, a == k, hash(a) == hash(b))
        yield "neg_continued_fraction", a, outcome(neg_continued_fraction, a)
        entries = unimodular(rng)
        if rng.random() < 0.1:
            entries = (*entries[:3], rng.choice((entries[3] + 1, 1.0, True)))
        f = outcome(MobiusMap, *entries)
        yield "MobiusMap", entries, f, str(f), f == outcome(MobiusMap, *(-e for e in entries))
        m = matrix(rng, odd=0.1)
        yield "first_asymmetry", m, outcome(first_asymmetry, m)
        m = matrix(rng, odd=0.02)
        yield "smith_normal_form", m, outcome(invariant_factors, m), outcome(smith_normal_form, m)
        q = symmetric(rng)
        yield "inertia", q, outcome(inertia, q)
        m = matrix(rng, odd=0.02)
        rhs = [rng.randint(0, 1) for _ in range(len(m) + (rng.random() < 0.05))]
        yield "solve_gf2_affine", m, rhs, outcome(solve_gf2_affine, m, rhs)


LAYERS = {"families": family_records, "rewrites": rewrite_records, "fronts": front_records,
          "invariants": invariant_records, "scalars": scalar_records}


def digest(records) -> tuple[str, int]:
    """The SHA-256 of the records' reprs, and how many there were."""
    h, count = hashlib.sha256(), 0
    for record in records:
        h.update(repr(record).encode())
        count += 1
    return h.hexdigest(), count


def main() -> int:
    for layer, records in LAYERS.items():
        print("%s: %s (%d records)" % (layer, *digest(records())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
