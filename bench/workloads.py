"""The benchmark's four workloads: seeded input generators, the timed
operation on each input, and the untimed output checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  Inputs come from a
``random.Random(seed)`` in rounds: every round holds the same mix of
input classes in the same proportions and the same order, and the seed
picks fresh inputs inside each class, so no input repeats and rounds are
comparable with each other.  ``tiny=True`` shrinks every size for the
smoke run.

An operation returns a record of program outputs; ``check`` recomputes
what it can with ``oracles`` (never with steinkit) and returns a list
of problems.  Documented rejections (a move that does not apply, an
inverse dunk with a non-integral result) are counted under
``rejected`` and are not failures.  A known defect of the program is
raised as ``KnownDefect`` with the input that hit it, and counts as a
failure only when ``defect_confirmed`` shows independently that the
input lies where the defect is documented to bite.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import oracles as O


class KnownDefect(Exception):
    """A documented defect of the program, with the input that hit it."""

    def __init__(self, message, data):
        super().__init__(message)
        self.data = data


class Workload:
    name = ""
    why = ""
    mix = ""
    modules = ()  # steinkit modules the workload imports
    tail_pct = 90.0  # percentile of latency_tail_ms: a run has ten samples beyond it
    # rounds in a run per second of --seconds, tuned so that a run of the
    # seed code with --seconds 30 takes 22-35 s of wall time on a 2-vCPU
    # Xeon VM, depending on the host's speed state (see run.py)
    rounds_per_s = 1.0
    # context for harness code inside an operation; the traced run
    # replaces it so that such code is not counted as the program's work
    harness = contextlib.nullcontext

    def __init__(self, seed, tiny, env):
        self.seed = seed
        self.tiny = tiny
        self.env = env  # the checkout's src/ and steinkit modules, see run.py

    def rounds(self):
        """Endless deterministic stream of rounds, each a list of inputs."""
        raise NotImplementedError

    def op(self, item):
        """The program calls of one operation.

        Returns (record, rejected counts) or (record, rejected counts,
        latency) when only part of the call is the measured latency.
        """
        raise NotImplementedError

    def check(self, item, rec):
        """Problems found by the independent checks; empty when correct."""
        raise NotImplementedError

    def defect_confirmed(self, exc):
        """Whether a KnownDefect was raised on an input the defect covers."""
        return False


def _coprime_fraction(rng, pmax, qmax):
    while True:
        q = rng.randint(2, qmax)
        p = rng.randint(-pmax, pmax)
        if gcd(p, q) == 1:
            return Fraction(p, q)


def _frac(r):
    """ExtRational -> Fraction, None for infinity."""
    return None if r.is_infinite else Fraction(r.num, r.den)


# ---------------------------------------------------------------------------
# fronts


def random_word(rng, n_edge, n_pairs, n_cross):
    """Event word over n_edge edge strands with n_pairs cusp pairs and
    n_cross crossings, interleaved at random.  At least two strands stay
    open while crossings remain, so the pairs are the only components
    besides those through the handles."""
    events = []
    c = n_edge
    rem_l, rem_x = n_pairs, n_cross
    while rem_l or rem_x or c > n_edge:
        low = n_edge if n_edge >= 2 or not rem_x else n_edge + 2
        w_l, w_r, w_x = rem_l, max(0, (c - low) // 2), (rem_x if c >= 2 else 0)
        pick = rng.randrange(w_l + w_r + w_x)
        if pick < w_l:
            events.append(("L", rng.randint(1, c + 1)))
            c += 2
            rem_l -= 1
        elif pick < w_l + w_r:
            events.append(("R", rng.randint(1, c - 1)))
            c -= 2
        else:
            events.append(("X", rng.randint(1, c - 1)))
            rem_x -= 1
    return events


def strand_word(rng, n_edge, n_pairs, n_cross):
    """Event word whose cusp pairs open first and close last, with
    n_cross crossings at random heights in between.  The strand count is
    fixed over the crossings, so the tracing cost of a word follows its
    length."""
    events = []
    c = n_edge
    for _ in range(n_pairs):
        events.append(("L", rng.randint(1, c + 1)))
        c += 2
    events += [("X", rng.randint(1, c - 1)) for _ in range(n_cross)]
    for _ in range(n_pairs):
        events.append(("R", rng.randint(1, c - 1)))
        c -= 2
    return events


def linked_unknots(rng, n_edge, n_unknots, n_clasps):
    """Event word of n_unknots separate unknots, opened at random heights
    among the edge strands, clasped by n_clasps squared crossings
    X(p) X(p) and closed innermost first."""
    events = []
    strands = ["edge"] * n_edge
    for k in range(n_unknots):
        p = rng.randint(1, len(strands) + 1)
        events.append(("L", p))
        strands[p - 1 : p - 1] = [k, k]
    for _ in range(n_clasps):
        p = rng.randint(1, len(strands) - 1)
        events += [("X", p), ("X", p)]
    while len(strands) > n_edge:
        p = next(i for i in range(len(strands) - 1) if strands[i] == strands[i + 1] != "edge")
        events.append(("R", p + 1))
        del strands[p : p + 2]
    return events


class Fronts(Workload):
    name = "fronts"
    why = (
        "front tracing and invariants.theta do the work; families does none"
    )
    mix = (
        "rounds of 7 fronts, all coefficients stein: 5 crossing-heavy words "
        "of 100, 300, 500, 700 and 900 crossings at random heights between "
        "one cusp pair opened first and closed last (one handle of 2 slots, "
        "4 strands throughout) and 2 cusp-rich words of 8 and 12 unknots "
        "clasped by 1.5 squared crossings per unknot, with one 1-slot "
        "handle (9 and 13 components); per front 4 move 1-5 attempts, one "
        "move 6 attempt, one stabilization"
    )
    modules = ("steinkit.front", "steinkit.presentation", "steinkit.invariants", "steinkit.numerics")
    tail_pct = 90.0  # inside the dearest of the 7 sizes
    rounds_per_s = 0.53

    # one front per size in every round
    ROUND = (("long", 100), ("rich", 8), ("long", 300), ("long", 500), ("rich", 12), ("long", 700), ("long", 900))

    def rounds(self):
        rng = random.Random(self.seed)
        front = self.env.front
        while True:
            batch = []
            for kind, size in self.ROUND:
                if self.tiny:
                    size = max(2, size // 50) if kind == "long" else max(2, size // 4)
                if kind == "long":
                    slots = (2,)
                    events = strand_word(rng, 2, 1, size)
                else:
                    slots = (1,)
                    events = linked_unknots(rng, 1, size, 3 * size // 2)
                _, _, n_comp = O.front_walk(slots, events)
                ori = {c: rng.choice((1, -1)) for c in range(1, n_comp + 1)}
                d = front.FrontDiagram(
                    slots,
                    tuple(front.Event(k, p) for k, p in events),
                    ori,
                    {c: front.STEIN for c in range(1, n_comp + 1)},
                )
                batch.append({"kind": kind, "front": d, "rng": random.Random(rng.random())})
            yield batch

    @staticmethod
    def _move_args(rng, d):
        e = len(d.events)
        move = rng.randint(1, 5)
        if move == 1:
            return 1, {"at": rng.randint(1, max(1, e - 1))}
        if move == 2:
            variant = rng.choice(("birth-above", "birth-below", "death-above", "death-below"))
            return 2, {"at": rng.randint(1, max(1, e)), "variant": variant}
        if move == 3:
            return 3, {"at": rng.randint(1, max(1, e - 2))}
        if move == 4:
            return 4, {
                "at": rng.choice((1, max(1, e))),
                "variant": rng.choice(("in", "out")),
                "handle": rng.randint(1, max(1, d.n_handles)),
            }
        return 5, {"at": rng.choice((1, max(1, e)))}

    def _invariants(self, d):
        F, P, I, N = self.env.front, self.env.presentation, self.env.invariants, self.env.numerics
        pres = F.surger_handles(d)
        group = P.h1(pres)
        x = I.SteinPresentation.from_presentation(pres)
        try:
            th = ("theta", I.theta(x))
        except I.InvariantError:
            th = ("f0", I.theta_f0_and_d(x))
        return pres, group, x, th

    def op(self, item):
        F, I, N = self.env.front, self.env.invariants, self.env.numerics
        rng = random.Random(item["rng"].random())
        rejected = 0
        text = F.serialize_front(item["front"])
        d = F.parse_front(text)
        text2 = F.serialize_front(d)
        stats = F.component_stats(d)
        lint = F.parity_lint(d)
        pres, group, _, th = self._invariants(d)
        chain = [d]
        for _ in range(4):
            move, kw = self._move_args(rng, chain[-1])
            try:
                chain.append(F.apply_move(chain[-1], move, **kw))
            except F.FrontError:
                rejected += 1
        d1 = chain[-1]
        _, group1, x1, th1 = self._invariants(d1)
        qs = x1.q_star()
        sol = N.solve_gf2_affine(qs, [qs[i][i] for i in range(len(qs))])
        I.gamma(x1, I.SpinStructure(sublink=sol.particular))
        swing = None
        d2 = d1
        if d1.n_handles:
            handle = rng.randint(1, d1.n_handles)
            variant = rng.choice(("top", "bottom"))
            try:
                d2 = F.apply_move(d1, 6, variant=variant, handle=handle)
                swing = (handle, variant)
            except F.FrontError:
                rejected += 1
        comp = rng.randint(1, len(stats))
        up = rng.random() < 0.5
        d3 = F.stabilize(d2, comp, "up" if up else "down")
        F.serialize_front(d3)
        rec = {
            "text": text, "text2": text2, "d": d, "stats": stats, "lint": lint, "pres": pres,
            "group": group, "theta": th, "chain": chain, "group1": group1,
            "theta1": th1, "d1": d1, "d2": d2, "swing": swing, "d3": d3, "stab": (comp, up),
        }
        return rec, {"front.apply_move.rejected": rejected}

    @staticmethod
    def _oracle(d):
        return O.front_stats(d.slots, [(e.kind, e.pos) for e in d.events], d.orientations)

    def check(self, item, rec):
        bad = []
        d0, d = item["front"], rec["d"]
        if (d.slots, d.events, d.orientations, d.coefficients) != (
            d0.slots, d0.events, d0.orientations, d0.coefficients
        ) or rec["text2"] != rec["text"]:
            bad.append("serialize/parse is not the identity")
        ref, cross = self._oracle(d)
        got = {
            s.component: (s.tb, s.rot, s.writhe, s.left_cusps, s.runs, sum(s.passes))
            for s in rec["stats"]
        }
        want = {
            c: (s["tb"], s["rot"], s["writhe"], s["left_cusps"], s["runs"], s["passes"])
            for c, s in ref.items()
        }
        if got != want:
            bad.append("component_stats differs from the strand walk")
        if not all(r.ok for r in rec["lint"]) or len(rec["lint"]) != len(ref):
            bad.append("parity_lint reports a violation")
        pres = rec["pres"]
        n = len(ref)
        if any(
            pres.lk[i][j] * 2 != cross.get((i + 1, j + 1), 0) for i in range(n) for j in range(i + 1, n)
        ):
            bad.append("surger_handles linking differs from the crossing sums")
        if [c.num for c in pres.coeffs[:n]] != [ref[c]["tb"] - 1 for c in range(1, n + 1)]:
            bad.append("surger_handles coefficients are not tb - 1")
        q = [[pres.coeffs[i].num if i == j else pres.lk[i][j] for j in range(pres.m)] for i in range(pres.m)]
        rank, det = O.rank_and_det(q) if q else (0, 1)
        g = rec["group"]
        if g.rank != pres.m - rank or (g.rank == 0 and g.order() != abs(det)):
            bad.append("h1 disagrees with the determinant of the framing matrix")
        base = sorted((s["tb"], s["rot"]) for s in ref.values())
        for later in rec["chain"][1:]:
            if sorted((s["tb"], s["rot"]) for s in self._oracle(later)[0].values()) != base:
                bad.append("a move 1-5 changed the (tb, r) multiset")
        if rec["group1"] != g or rec["theta1"] != rec["theta"]:
            bad.append("h1 or theta changed across moves 1-5")
        d1, d2 = rec["d1"], rec["d2"]
        st2 = self._oracle(d2)[0]
        if rec["swing"] is not None:
            handle, variant = rec["swing"]
            want = O.swing_prediction(
                d1.slots, [(e.kind, e.pos) for e in d1.events], d1.orientations, handle, variant
            )
            if sorted((s["tb"], s["rot"]) for s in st2.values()) != want:
                bad.append("move 6 missed the -2 e run prediction")
        comp, up = rec["stab"]
        st3 = self._oracle(rec["d3"])[0]
        if sorted((s["tb"], s["rot"]) for s in st3.values()) != O.stabilize_prediction(st2, comp, up):
            bad.append("stabilize did not give tb - 1 and r -/+ 1")
        return bad


# ---------------------------------------------------------------------------
# surgery


class Surgery(Workload):
    name = "surgery"
    why = (
        "Smith form and Fraction elimination in numerics, presentation and "
        "invariants do the work; front and families do nothing"
    )
    mix = (
        "rounds of 20 presentations, 4 cycles of m = 4, 9, 14, 19, 24 components: "
        "half the free components p/q (|p| <= 20, 2 <= q <= 9), 5% inf, the "
        "rest integer in [-6, 6]; 0-3 l0 unknots; each pair linked with "
        "probability 3/m by lk in [-2, 2]; tb data on every other "
        "presentation; at most 12 components in the l0-marked integer part"
    )
    modules = ("steinkit.presentation", "steinkit.invariants", "steinkit.numerics")
    tail_pct = 95.0
    rounds_per_s = 0.8

    SIZES = (4, 9, 14, 19, 24)  # an odd count, so the median lies inside one size
    DEFECT = "smith_normal_form caps dimensions at 64"

    def rounds(self):
        rng = random.Random(self.seed)
        P, N = self.env.presentation, self.env.numerics
        k = 0
        while True:
            batch = []
            for m in self.SIZES * 4:
                k += 1
                if self.tiny:
                    m = max(3, m // 4)
                n_l0 = min(rng.randint(0, 3), m - 1)
                free = m - n_l0
                coeffs = []
                for _ in range(free):
                    u = rng.random()
                    if u < 0.05:
                        coeffs.append(None)
                    elif u < 0.55:
                        coeffs.append(_coprime_fraction(rng, 20, 9))
                    else:
                        coeffs.append(Fraction(rng.randint(-6, 6)))
                # the l0-marked integer part: integer free components plus
                # the l0 unknots, at most 12 of them
                ints = [i for i, c in enumerate(coeffs) if c is not None and c.denominator == 1]
                while len(ints) + n_l0 > 12:
                    i = ints.pop(rng.randrange(len(ints)))
                    coeffs[i] += Fraction(1, 2)
                coeffs += [Fraction(0)] * n_l0
                lk = [[0] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i + 1, m):
                        if j >= free and i >= free:
                            continue
                        if rng.random() < 3 / m:
                            lk[i][j] = lk[j][i] = rng.choice((-2, -1, 1, 2))
                unknot = [rng.random() < 0.5 for _ in range(free)] + [True] * n_l0
                rot = []
                for i in range(free):
                    c = coeffs[i]
                    if c is not None and c.denominator == 1:
                        parity = (c.numerator + sum(lk[i][free:])) % 2
                        rot.append(2 * rng.randint(-2, 1) + parity)
                    else:
                        rot.append(None if rng.random() < 0.5 else rng.randint(-3, 3))
                rot += [0] * n_l0
                if k % 2:
                    tb = [
                        None if c is None else (c.numerator // c.denominator) + rng.randint(1, 3)
                        for c in coeffs
                    ]
                else:
                    tb = [None] * m
                pres = P.SurgeryPresentation(
                    coeffs=[N.INF if c is None else N.rat(c.numerator, c.denominator) for c in coeffs],
                    lk=lk, unknot=unknot, l0=[False] * free + [True] * n_l0, rot=rot, tb=tb,
                )
                batch.append({"pres": pres, "rng": random.Random(rng.random())})
            yield batch

    def _h1(self, p):
        """h1, with the documented Smith form cap raised as KnownDefect."""
        try:
            return self.env.presentation.h1(p)
        except self.env.numerics.NumericsError as exc:
            if self.DEFECT in str(exc):
                raise KnownDefect(str(exc), p) from exc
            raise

    def defect_confirmed(self, exc):
        """The cap bites only where the chain expansion exceeds 64."""
        return O.expanded_dimension([(c.num, c.den) for c in exc.data.coeffs]) > 64

    def _rewrites(self, rng, p, rejected):
        """Seeded chain of calculus rewrites; returns [(name, h1 after it)]."""
        P, N = self.env.presentation, self.env.numerics
        done = []
        for _ in range(3):
            step = rng.choice(("twist", "dunk", "dunk", "blowdown"))
            try:
                if step == "twist":
                    cand = [i for i in range(p.m) if p.unknot[i]]
                    i = rng.choice(cand) + 1 if cand else 1
                    p = P.rolfsen_twist(p, i, rng.choice((-1, 1)))
                else:
                    i = rng.randrange(p.m)
                    r = p.coeffs[i]
                    with self.harness():
                        if step == "blowdown":
                            c = N.rat(rng.choice((-1, 1)))
                        elif rng.random() < 0.7 and not r.is_infinite:
                            # a meridian coefficient that leaves r_i + 1/c integral
                            fr = Fraction(r.num, r.den)
                            inv = fr.numerator // fr.denominator + rng.choice((-1, 1, 2)) - fr
                            c = N.INF if inv == 0 else N.rat((1 / inv).numerator, (1 / inv).denominator)
                        else:
                            c = N.rat(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
                    p = P.slam_dunk_inverse(p, i + 1, c)
                    done.append(("slam_dunk_inverse", self._h1(p)))
                    if step == "blowdown":
                        p = P.blow_down(p, p.m)
                    else:
                        p = P.slam_dunk(p, i + 1, p.m)
                done.append((step, self._h1(p)))
            except P.PresentationError:
                rejected["presentation.rewrite.rejected"] += 1
        exp = P.expand_rational(p)
        done.append(("expand_rational", self._h1(exp)))
        return done

    def op(self, item):
        P, I, N = self.env.presentation, self.env.invariants, self.env.numerics
        rng = random.Random(item["rng"].random())
        rejected = {"presentation.rewrite.rejected": 0}
        text = P.serialize_surgery(item["pres"])
        p = P.parse_surgery(text)
        text2 = P.serialize_surgery(p)
        group = self._h1(p)
        rewrites = self._rewrites(rng, p, rejected)
        plan = P.stein_plan(p) if any(t is not None for t in p.tb) else None
        keep = [i for i in range(p.m) if p.coeffs[i].is_integer and not p.coeffs[i].is_infinite]
        sub = p
        for i in reversed(range(p.m)):
            if i not in keep:
                sub = sub.delete(i)
        x = I.SteinPresentation.from_presentation(sub)
        qs = x.q_star()
        snf = N.smith_normal_form(qs) if qs else None
        spins = I.characteristic_sublinks(x)
        for s in spins:
            I.gamma(x, s)
        lf = None
        if snf is not None and 0 not in snf.diagonal:
            xv = [rng.randint(-3, 3) for _ in qs]
            yv = [rng.randint(-3, 3) for _ in qs]
            lf = (xv, yv, P.linking_form(sub, xv, yv), P.linking_form(sub, yv, xv))
        rec = {
            "text": text, "text2": text2, "p": p, "group": group, "rewrites": rewrites, "plan": plan,
            "qs": qs, "snf": snf, "spins": spins, "lf": lf,
        }
        return rec, rejected

    def check(self, item, rec):
        bad = []
        p0, p = item["pres"], rec["p"]
        if rec["text2"] != rec["text"] or (
            p.coeffs, p.lk, p.unknot, p.l0, p.rot, p.tb
        ) != (p0.coeffs, p0.lk, p0.unknot, p0.l0, p0.rot, p0.tb):
            bad.append("serialize/parse is not the identity")
        g = rec["group"]
        coeffs = [(c.num, c.den) for c in p.coeffs]
        rank, det = O.rank_and_det(O.relation_matrix(coeffs, p.lk))
        if g.rank != p.m - rank or (g.rank == 0 and g.order() != abs(det)):
            bad.append("h1 disagrees with the determinant of the relation matrix")
        for name, g2 in rec["rewrites"]:
            if g2 != g:
                bad.append(f"{name} changed h1")
        plan = rec["plan"]
        if plan is not None:
            want_ok = all(
                c.is_infinite or (t is not None and Fraction(c.num, c.den) < t)
                for c, t in zip(p.coeffs, p.tb)
            )
            if plan.ok != want_ok:
                bad.append("stein_plan verdict differs from r_i < tb_i")
            for row in plan.rows:
                c = p.coeffs[row.component - 1]
                if O.neg_cf_value(row.chain) != Fraction(c.num, c.den) or any(
                    t != a + 1 for t, a in zip(row.tb_targets, row.chain)
                ):
                    bad.append("stein_plan chain or tb targets are wrong")
        qs, snf = rec["qs"], rec["snf"]
        if snf is not None and not O.smith_witness_ok(
            qs, snf.diagonal, snf.left, snf.right, random.Random(len(qs))
        ):
            bad.append("smith_normal_form witnesses fail D = L M R")
        if len(rec["spins"]) != 2 ** O.gf2_nullity(qs):
            bad.append("characteristic sublink count is not 2^nullity")
        if len(set(s.sublink for s in rec["spins"])) != len(rec["spins"]):
            bad.append("characteristic sublinks repeat")
        if rec["lf"] is not None:
            xv, yv, a, b = rec["lf"]
            z = O.solve_fraction(qs, yv)
            total = -sum(u * w for u, w in zip(xv, z))
            if a != b or a != total - (total // 1):
                bad.append("linking_form differs from -x Q^-1 y mod 1")
        return bad


# ---------------------------------------------------------------------------
# deciders

BRIESKORN = ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 13), (2, 5, 7), (2, 5, 9), (3, 4, 5), (3, 4, 7))


class Deciders(Workload):
    name = "deciders"
    why = (
        "families and the scalar side of numerics do the work; front and "
        "presentation do none"
    )
    mix = (
        "rounds of 40 decisions: the open Brieskorn case (2,3,5,-) at search "
        "bound 50, 8 sphere-base Seifert decisions (e0 = -1, 3 fibers, "
        "multiplicities 2-12) at bound 25, 1 Brieskorn sphere (8 triples, "
        "both orientations) at bound 25, and 10 each of Borromean, "
        "twist-knot and two-component decisions"
    )
    modules = ("steinkit.families", "steinkit.numerics")
    tail_pct = 98.0  # inside the open case, one slot in 40
    rounds_per_s = 1.0

    def _seifert(self, rng):
        k = 3
        fl = [0] * k
        fl[rng.randrange(k)] = -1
        if rng.random() < 0.3:
            i, j = rng.sample(range(k), 2)
            fl[i] -= 1
            fl[j] += 1
        coeffs = []
        for i in range(k):
            a = rng.randint(2, 12)
            b = rng.choice([b for b in range(1, a) if gcd(a, b) == 1])
            coeffs.append(-1 / (fl[i] + Fraction(b, a)))
        return coeffs

    def _rational(self, rng):
        return _coprime_fraction(rng, 30, 4) if rng.random() < 0.5 else Fraction(rng.randint(-12, 12))

    def _slots(self):
        """Decision kinds of one round with their search bounds."""
        if self.tiny:
            return [("open", 5), ("seifert", 5), ("brieskorn", 5), ("borromean", 0), ("twist", 0), ("two", 0)]
        return (
            [("open", 50)]
            + [("seifert", 25)] * 8
            + [("brieskorn", 25)]
            + [("borromean", 0), ("twist", 0), ("two", 0)] * 10
        )

    def _item(self, rng, kind, bound):
        """One decision input; rationals are converted here, outside the timed call."""
        N = self.env.numerics

        def q(r):
            return N.rat(r.numerator, r.denominator)

        if kind == "seifert":
            coeffs = self._seifert(rng)
            return {"kind": kind, "coeffs": coeffs, "q": [q(r) for r in coeffs], "bound": bound}
        if kind == "open":
            return {"kind": "brieskorn", "triple": (2, 3, 5), "ori": -1, "bound": bound}
        if kind == "brieskorn":
            triple, ori = rng.choice(BRIESKORN), rng.choice((1, -1))
            return {"kind": kind, "triple": triple, "ori": ori, "bound": bound}
        if kind == "borromean":
            rs = [self._rational(rng) for _ in range(3)]
            return {"kind": kind, "rs": rs, "q": [q(r) for r in rs]}
        if kind == "twist":
            l, m = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
            r = self._rational(rng)
            return {"kind": kind, "l": l, "m": m, "r": r, "q": [q(r)]}
        m = rng.choice((-3, -2, -1, 1, 2, 3))
        r1, r2 = self._rational(rng), self._rational(rng)
        return {"kind": kind, "m": m, "r1": r1, "r2": r2, "q": [q(r1), q(r2)]}

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            yield [self._item(rng, kind, bound) for kind, bound in self._slots()]

    def op(self, item):
        F = self.env.families
        kind = item["kind"]
        if kind == "seifert":
            data = F.SeifertData(True, 0, item["q"])
            return (data, F.decide_seifert(data, item["bound"])), {}
        if kind == "brieskorn":
            data = F.brieskorn(*item["triple"], item["ori"])
            return (data, F.decide_seifert(data, item["bound"])), {}
        if kind == "borromean":
            c = F.BorromeanCoeffs(*item["q"])
            return (c, F.decide_borromean(c)), {}
        if kind == "twist":
            return F.twist_knot_surgery(item["l"], item["m"], *item["q"]), {}
        return F.two_component_surgery(item["m"], *item["q"]), {}

    def check(self, item, rec):
        data, dec = rec
        kind = item["kind"]
        if kind in ("seifert", "brieskorn"):
            coeffs = [_frac(r) for r in data.coefficients]
            if kind == "brieskorn":
                p1, p2, p3 = item["triple"]
                if sum(1 / r for r in coeffs) != Fraction(item["ori"], p1 * p2 * p3):
                    return ["brieskorn coefficients miss the orientation equation"]
            elif coeffs != item["coeffs"]:
                return ["Seifert data changed"]
            e0, rp = O.seifert_rprime(coeffs)
            if e0 != -1:
                return [] if dec.reason == "b" else ["decider missed e0 != -1"]
            if dec.n_result is not None:
                res = dec.n_result
                i, j = dec.pair
                w = res.witness
                ok = O.witness_ok(
                    rp[i - 1], rp[j - 1], res.kind, res.value, res.infinite,
                    None if w is None else (w.a, w.b, w.c, w.d), item["bound"],
                )
                others = [rp[t] for t in range(len(rp)) if t not in (i - 1, j - 1)]
                if res.kind != "sentinel":
                    ok = ok and all(O.exceeds(res.value, res.infinite, r) for r in others)
                if not ok or dec.verdict != "YES":
                    return ["n-function certificate does not re-check"]
            return []
        rs = [_frac(r) for r in data.as_tuple()]
        if kind == "twist":
            want = [Fraction(-1, item["l"]), Fraction(-1, item["m"]), item["r"]]
        elif kind == "two":
            want = [Fraction(-1, item["m"]), item["r1"], item["r2"]]
        else:
            want = item["rs"]
        if rs != want:
            return ["Borromean coefficients differ from the input"]
        regions = O.borromean_regions(rs)
        if (dec.in_a0, dec.in_a2, dec.in_a3) != regions or (dec.verdict == "YES") == any(regions):
            return ["Borromean region membership differs"]
        return []


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    name = "cli"
    why = (
        "interpreter start, import and argparse dominate; compute is tiny, "
        "so a lazy-import change shows here and a kernel speedup should not"
    )
    mix = (
        "rounds of 8 cold 'python -m steinkit.cli' calls, one child at a "
        "time: stats, surger, h1, plan, gamma, theta on small generated "
        "files (fronts of 3-14 events, integer presentations of 2-4 "
        "components), borromean on random rationals, and a brieskorn "
        "triple that a closed-form test decides"
    )
    modules = ("steinkit.cli",)
    tail_pct = 90.0
    rounds_per_s = 0.5

    BRIESKORN = ("2 3 5 --orientation +", "2 3 7 --orientation -", "2 5 7 --orientation +",
                 "3 4 5 --orientation -", "2 3 13 --orientation -", "3 4 7 --orientation +")

    def __init__(self, seed, tiny, env):
        super().__init__(seed, tiny, env)
        self.path = os.path.join(env.scratch_dir(), "input.txt")

    def _front_text(self, rng):
        slots = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 1)))
        events = random_word(rng, sum(slots), rng.randint(1, 3), rng.randint(1, 8))
        _, _, n = O.front_walk(slots, events)
        lines = ["front 1", f"handles {len(slots)}"]
        lines += [f"handle {h} slots {s}" for h, s in enumerate(slots, start=1)]
        lines.append("events " + " ".join(f"{k}{p}" for k, p in events))
        lines += [f"orient {c} {rng.choice('+-')}" for c in range(1, n + 1)]
        lines += [f"coeff {c} stein" for c in range(1, n + 1)]
        return "\n".join(lines) + "\n"

    def _surgery_text(self, rng, with_l0):
        m = rng.randint(2, 4)
        n_l0 = 1 if with_l0 else 0
        free = m - n_l0
        lines = ["surgery 1", f"components {m}"]
        lk = {}
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                if i > free:
                    continue
                v = rng.choice((0, 0, -1, 1, 2))
                if v:
                    lk[(i, j)] = v
                    lines.append(f"lk {i} {j} {v}")
        for i in range(1, m + 1):
            c = 0 if i > free else rng.randint(-5, 3)
            lines.append(f"coeff {i} {c}")
            if i > free:
                lines.append(f"l0 {i}")
            else:
                runs = sum(v for (a, b), v in lk.items() if a == i and b > free)
                lines.append(f"rot {i} {2 * rng.randint(-1, 1) + (c + runs) % 2}")
                lines.append(f"tb {i} {c + rng.randint(1, 2)}")
        return "\n".join(lines) + "\n"

    def _item(self, rng, verb):
        if verb in ("stats", "surger"):
            return {"argv": [verb, "@front"], "text": self._front_text(rng)}
        if verb in ("h1", "plan", "gamma", "theta"):
            text = self._surgery_text(rng, verb in ("gamma", "theta"))
            return {"argv": [verb, "@surgery"], "text": text}
        if verb == "borromean":
            rs = [_coprime_fraction(rng, 9, 3) for _ in range(3)]
            return {"argv": ["borromean", "--"] + [str(r) for r in rs]}
        return {"argv": ["brieskorn"] + rng.choice(self.BRIESKORN).split()}

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            yield [
                self._item(rng, verb)
                for verb in ("stats", "surger", "h1", "plan", "gamma", "theta", "borromean", "brieskorn")
            ]

    def _argv(self, item):
        if "text" not in item:
            return item["argv"]
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(item["text"])
        return [self.path if a.startswith("@") else a for a in item["argv"]]

    def op(self, item):
        """Times the cold child only; the in-process reference call that
        its output is compared with runs after it."""
        argv = self._argv(item)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "steinkit.cli"] + argv,
            capture_output=True, text=True, env=self.env.child_env, cwd=self.env.root, timeout=60,
        )
        elapsed = time.perf_counter() - start
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            want = self.env.cli.main(argv)
        return (proc.returncode, proc.stdout, want, buf.getvalue()), {}, elapsed

    def check(self, item, rec):
        code, out, want, want_out = rec
        if code != 0 or want != 0:
            return [f"exit code {code} (in-process {want})"]
        if out != want_out:
            return ["stdout differs from in-process cli.main"]
        return []


WORKLOADS = {w.name: w for w in (Fronts, Surgery, Deciders, Cli)}
