"""Independent reference computations for the benchmark's output checks.

Nothing here calls into steinkit.  Each check recomputes a result by a
different route from the layer it checks: fronts are traced by walking
strands column by column (steinkit builds an adjacency graph), homology
orders come from the m x m relation matrix (steinkit expands chains),
and decider certificates are re-derived in plain Fraction arithmetic.
"""

from fractions import Fraction
from math import floor

# ---------------------------------------------------------------------------
# fronts


def _counts(slots, events):
    c = sum(slots)
    out = [c]
    for kind, p in events:
        c += 2 if kind == "L" else (-2 if kind == "R" else 0)
        out.append(c)
    return out


def _step(events, n_events, t, h, right):
    """Next node and direction when leaving node (t, h) in a direction."""
    if right:
        if t == n_events:
            return 0, h, True  # closure through the handles
        kind, p = events[t]
        if kind == "L":
            return t + 1, (h if h < p else h + 2), True
        if kind == "R":
            if h == p:
                return t, p + 1, False
            if h == p + 1:
                return t, p, False
            return t + 1, (h if h < p else h - 2), True
        return t + 1, (p + 1 if h == p else p if h == p + 1 else h), True
    if t == 0:
        return n_events, h, False
    kind, p = events[t - 1]
    if kind == "L":
        if h == p:
            return t, p + 1, True
        if h == p + 1:
            return t, p, True
        return t - 1, (h if h < p else h - 2), False
    if kind == "R":
        return t - 1, (h if h < p else h + 2), False
    return t - 1, (p + 1 if h == p else p if h == p + 1 else h), False


def front_walk(slots, events):
    """Component id and traversal direction (+1 rightward) of every node.

    Components are numbered in order of their smallest (boundary, height)
    node and start out rightward there, which is the numbering convention
    of the FRONT format.
    """
    counts = _counts(slots, events)
    n_events = len(events)
    comp, direction = {}, {}
    next_id = 0
    for t, c in enumerate(counts):
        for h in range(1, c + 1):
            if (t, h) in comp:
                continue
            next_id += 1
            node, right = (t, h), True
            while node not in comp:
                comp[node] = next_id
                direction[node] = 1 if right else -1
                nt, nh, right = _step(events, n_events, node[0], node[1], right)
                node = (nt, nh)
    return comp, direction, next_id


def front_stats(slots, events, orientation):
    """Per component (tb, rot, writhe, left cusps, runs), plus pair crossing sums.

    orientation maps a component id to +1/-1 (default +1); events are
    (kind, position) pairs.
    """
    comp, direction, n = front_walk(slots, events)
    ori = {c: orientation.get(c, 1) for c in range(1, n + 1)}
    writhe = dict.fromkeys(ori, 0)
    left = dict.fromkeys(ori, 0)
    up = dict.fromkeys(ori, 0)
    down = dict.fromkeys(ori, 0)
    cross = {}
    for j, (kind, p) in enumerate(events, start=1):
        if kind == "X":
            a, b = (j - 1, p), (j - 1, p + 1)
            ca, cb = comp[a], comp[b]
            sign = 1 if direction[a] * ori[ca] != direction[b] * ori[cb] else -1
            if ca == cb:
                writhe[ca] += sign
            else:
                key = (min(ca, cb), max(ca, cb))
                cross[key] = cross.get(key, 0) + sign
        elif kind == "L":
            c = comp[(j, p)]
            left[c] += 1
            (up if direction[(j, p)] * ori[c] == 1 else down)[c] += 1
        else:
            c = comp[(j - 1, p)]
            (up if direction[(j - 1, p)] * ori[c] == -1 else down)[c] += 1
    owner = [h for h, s in enumerate(slots) for _ in range(s)]
    runs = {c: [0] * len(slots) for c in ori}
    passes = {c: 0 for c in ori}
    for k in range(1, sum(slots) + 1):
        c = comp[(0, k)]
        runs[c][owner[k - 1]] += direction[(0, k)] * ori[c]
        passes[c] += 1
    stats = {
        c: {
            "tb": writhe[c] - left[c],
            "rot": (down[c] - up[c]) // 2,
            "writhe": writhe[c],
            "left_cusps": left[c],
            "runs": tuple(runs[c]),
            "passes": passes[c],
        }
        for c in ori
    }
    return stats, cross


def swing_prediction(slots, events, orientation, handle, variant):
    """Sorted (tb, rot) after move 6: the swung component's tb moves by
    -2 e run, with e its direction at the swung edge slot."""
    stats, _ = front_stats(slots, events, orientation)
    comp, direction, _ = front_walk(slots, events)
    offset = sum(slots[: handle - 1])
    pos = offset + 1 if variant == "top" else offset + slots[handle - 1]
    swung = comp[(0, pos)]
    eps = direction[(0, pos)] * orientation.get(swung, 1)
    return sorted(
        (s["tb"] - (2 * eps * s["runs"][handle - 1] if c == swung else 0), s["rot"])
        for c, s in stats.items()
    )


def stabilize_prediction(stats, component, up):
    return sorted(
        (s["tb"] - 1, s["rot"] + (-1 if up else 1)) if c == component else (s["tb"], s["rot"])
        for c, s in stats.items()
    )


# ---------------------------------------------------------------------------
# exact linear algebra


def rank_and_det(matrix):
    """(rank, determinant) of an integer matrix by fraction-free elimination.

    The determinant is returned only for square matrices of full rank,
    otherwise 0.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank, prev, sign = 0, 1, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        pv = m[rank][col]
        for i in range(rank + 1, nrows):
            f = m[i][col]
            row_r = m[rank]
            m[i] = [(pv * x - f * y) // prev for x, y in zip(m[i], row_r)]
        prev = pv
        rank += 1
    full = nrows == ncols and rank == nrows
    det = sign * m[nrows - 1][ncols - 1] if full and nrows else (1 if nrows == 0 else 0)
    return rank, det


def relation_matrix(coeffs, lk):
    """Rows p_i e_i + q_i sum_j lk_ij e_j of a rational surgery; inf gives e_i.

    coeffs are (p, q) pairs with q = 0 for infinity.
    """
    m = len(coeffs)
    rows = []
    for i, (p, q) in enumerate(coeffs):
        rows.append([(p if i == j else 0) + q * lk[i][j] for j in range(m)])
    return rows


def gf2_nullity(matrix):
    rows = [[v & 1 for v in row] for row in matrix]
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(n):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return n - rank


_P = (1 << 61) - 1


def smith_witness_ok(matrix, diagonal, left, right, rng) -> bool:
    """D = L M R (Freivalds test mod a 61-bit prime, two random vectors),
    D diagonal with nonnegative entries, each dividing the next."""
    n, k = len(left), len(right)
    nonzero = [d for d in diagonal if d]
    if any(d < 0 for d in diagonal) or diagonal.count(0) != len(diagonal) - len(nonzero):
        return False
    if diagonal[: len(nonzero)] != tuple(nonzero):
        return False
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return False
    for _ in range(2):
        v = [rng.randrange(_P) for _ in range(k)]
        rv = [sum(x * y for x, y in zip(row, v)) % _P for row in right]
        mrv = [sum(x * y for x, y in zip(row, rv)) % _P for row in matrix]
        lmrv = [sum(x * y for x, y in zip(row, mrv)) % _P for row in left]
        dv = [(diagonal[i] * v[i] if i < len(diagonal) else 0) % _P for i in range(n)]
        if lmrv != dv:
            return False
    return True


def solve_fraction(matrix, rhs):
    """x with matrix x = rhs over Q for a nonsingular square matrix."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col] / aug[col][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def neg_cf_value(terms):
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a - 1 / value
    return value


def expanded_dimension(coeffs):
    """Size of the integer framing matrix after chain expansion: every
    finite p/q contributes the length of its continued fraction with tail
    terms <= -2, infinity contributes nothing.  coeffs are (p, q) pairs."""
    dim = 0
    for p, q in coeffs:
        if q == 0:
            continue
        r = Fraction(p, q)
        while True:
            dim += 1
            f = r - floor(r)
            if f == 0:
                break
            r = -1 / f
    return dim


# ---------------------------------------------------------------------------
# deciders

INF = None  # the point at infinity, in these Fraction-valued helpers


def seifert_rprime(coefficients):
    """(e0, normalized coefficients) of sphere-base data; None is infinity."""
    e0 = 0
    out = []
    for r in coefficients:
        v = -1 / r
        fl = floor(v)
        fr = v - fl
        e0 += fl
        out.append(INF if fr == 0 else -1 / fr)
    return e0, out


def _apply(w, r):
    a, b, c, d = w
    if r is INF:
        return INF if b == 0 else Fraction(d, b)
    den = a + b * r
    return INF if den == 0 else (c + d * r) / den


def witness_ok(r1p, r2p, kind, value, infinite, witness, bound) -> bool:
    """Re-derive an n-function certificate from its matrix witness."""
    inv = 0 if r1p is INF else 1 / r1p
    s = 1 / (-1 - inv)
    if kind == "sentinel":
        return s == r2p
    a, b, c, d = witness
    if a * d - b * c != 1 or max(abs(a), abs(b), abs(c), abs(d)) > bound:
        return False
    ws = _apply(witness, s)
    if ws is INF or not -1 < ws <= 0:
        return False
    w2 = _apply(witness, r2p)
    if not (w2 is INF or w2 < -1):
        return False
    a0 = INF if a == 0 else Fraction(c, a)
    if a0 is INF or a0 >= 0:
        t = Fraction(0)
    elif a0 >= -1:
        t = INF if ws == 0 else 1 / ws
    else:
        t = w2
    big, small = max(abs(a), abs(c)), min(abs(a), abs(c))
    if t is INF:
        return infinite == (small >= 1) and (infinite or value == -big)
    return not infinite and value == -small * (floor(t) + 1) - big


def exceeds(value, infinite, r) -> bool:
    return infinite or r is INF or r < value


def borromean_regions(rs):
    """Membership of finite coefficients in the regions A0, A2, A3."""
    in_a0 = all(1 <= r < 4 for r in rs)
    in_a2 = False
    for first, second, last in (
        (rs[0], rs[1], rs[2]), (rs[0], rs[2], rs[1]), (rs[1], rs[0], rs[2]),
        (rs[1], rs[2], rs[0]), (rs[2], rs[0], rs[1]), (rs[2], rs[1], rs[0]),
    ):
        if first >= 0 and Fraction(-1, 3) <= second < 0:
            if -2 * floor(-1 / second) - 1 <= last < -6:
                in_a2 = True
    in_a3 = all(r < 0 for r in rs)
    for k in range(3):
        if not in_a3:
            break
        i, j = [t for t in range(3) if t != k]
        low = -2 * (floor(-1 / rs[i]) + floor(-1 / rs[j]) + 1)
        in_a3 = low <= rs[k] < 0
    if in_a3 and all(-6 <= r < 0 for r in rs):
        in_a3 = sum(1 for r in rs if -1 <= r < 0) < 2
    return in_a0, in_a2, in_a3
