"""Fronts of Legendrian links in standard position, and their moves.

The diagrams, their invariants, the Stein form check, surgery export and
the FRONT format are defined in steinkit.diagram and bound here too.
This module adds the rewrites: the local moves 1-6 and stabilisation,
each of which splices the new diagram's trace from its parent's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import add

from .diagram import (  # the read half, re-exported, and what the rewrites share with it
    MAX_NODES, STEIN, ComponentStats, Event, ExtRational, FrontDiagram, FrontError, Frozen,
    InternalError, ParityReport, SteinFormReport, _DELTA, _Derived, _Trace, _check_node_count,
    _oriented, _runs, _tally, check_stein_form, component_stats, linking_number, n_components,
    parity_lint, parse_event_word, parse_front, parse_int, parse_rational, rat,
    resolve_coefficients, serialize_front, surger_handles,
)


# ---------------------------------------------------------------------------
# rebuilding moves: shared transfer of component data


def _follow(word, offset, comp, fwd, cid, t, h, right):
    """Walk the strand from node (t, h), moving rightward if right, and
    mark every unmarked node it reaches: comp gets cid and fwd the walk's
    direction there (1 rightward).  Stop at the first node already marked
    and return it as (t, h, right) on arrival.

    word[col] is (kind, pos) of every column the walk crosses; offset
    has one entry past the right edge, as _Trace.offset does.
    """
    last = len(offset) - 2
    while True:
        if t == (last if right else 0):
            t = last - t  # closure through the handles
        else:
            # the column the strand meets next; moving right through
            # L or left through R opens two heights at p, the other
            # way round closes them
            k, p = word[t if right else t - 1]
            if k != "X" and (k == "R") == right and p <= h <= p + 1:
                h, right = 2 * p + 1 - h, not right  # around the cusp
            else:
                t += 1 if right else -1
                if k == "X":
                    if p <= h <= p + 1:
                        h = 2 * p + 1 - h
                elif (k == "L") == right:
                    if h >= p:
                        h += 2
                elif h > p:
                    h -= 2
        i = offset[t] + h - 1
        if comp[i]:
            return t, h, right
        comp[i] = cid
        fwd[i] = right


def _transfer(old: FrontDiagram, slots, events, lo: int, hi: int, shift: int) -> FrontDiagram:
    """Build the rewritten diagram, splicing its trace from old's and
    carrying orientations, coefficients and, once read, derived data across.

    Every rewrite names the column boundaries it keeps, drops and shifts:
    old boundary t < lo is boundary t of the new word, boundaries in
    [lo, hi) have no image, and t >= hi is boundary t + shift as long as
    that is a boundary of the new word; heights never change.  The kept
    boundaries and the columns between two of them that were adjacent
    keep their old nodes, components and directions.  The rest is the
    window: the new columns, plus the closure through the handles when
    the rewrite moves an edge boundary.

    Only the window is walked, from the kept nodes next to it (its
    seam).  Each strand across it is walked in the old word too, and
    must leave at the image of the same seam node in the same direction;
    every node of both windows must lie on such a strand, and every
    window column must fit the strand counts at the seam.  So the
    rewrite keeps every component, and a break of this contract is an
    InternalError.  Components are then renumbered by their first node
    and turned to run rightward there, as _trace numbers them.
    Only the window's strand counts are stepped; a rewrite that changes
    a strand count sums the node offsets once, any other shares old's.
    Read derived data is carried (_carry) by counting both windows along
    old's traced directions, which the kept nodes share.
    """
    slots, events = tuple(slots), tuple(events)  # valid: made from old's by the move
    tr = old.trace
    m, m_old, n = len(events), len(old.events), sum(slots)
    a = hi + shift  # new boundaries a..r are old hi..r - shift
    r = min(m, m_old + shift)
    if not (0 <= lo <= hi and lo <= a <= r + 1):
        raise InternalError(f"internal: rewrite keeps overlapping boundaries ({lo}, {hi}, {shift})")
    c0 = max(lo - 1, 0)  # the first window column
    if events[:c0] != old.events[:c0] or events[a:r] != old.events[hi : r - shift]:
        raise InternalError("internal: rewrite changed a column between kept boundaries")

    def kept(t):
        return t < lo or a <= t <= r

    def image(t):  # of an old boundary, or None
        return t if t < lo else t + shift if hi <= t <= r - shift else None

    # strand counts: kept ones copied, window ones stepped from the seam;
    # a rewrite that shifts no boundary copies them only to change one
    cols = [*range(c0, min(a, m)), *range(max(a, r), m)]
    counts = tr.counts
    if shift:
        counts = counts[: r - shift + 1]
        counts[lo:hi] = [n] * (a - lo)
        counts += [n] * (m - r)
    for j in cols:
        e = events[j]
        c = counts[j]
        if e.pos > (c + 1 if e.kind == "L" else c - 1):
            raise InternalError(f"internal: rewritten column {j + 1} does not fit {c} strands")
        c += _DELTA[e.kind]
        if counts[j + 1] != c:
            if kept(j + 1):
                raise InternalError(f"internal: rewritten column {j + 1} does not meet the seam")
            counts = counts[:] if counts is tr.counts else counts
            counts[j + 1] = c
    if counts[0] != n or counts[m] != n:
        raise InternalError("internal: rewritten word does not close up through the handles")
    # node offsets: shared with the strand counts, else summed once
    o_off = offset = tr.offset
    if counts is not tr.counts:
        offset = [0, *accumulate(counts)]
        _check_node_count(offset[-1])

    # kept nodes carry their old ids and directions, window nodes are 0
    # until walked; old window nodes are 0 in mark until walked
    o_lo, o_hi, o_end = o_off[lo], o_off[hi], o_off[r - shift + 1]
    gap, tail = offset[a] - offset[lo], offset[-1] - offset[r + 1]
    comp = tr.comp[:o_end]
    comp[o_lo:o_hi] = bytes(gap)
    comp.extend(bytes(tail))
    fwd = bytearray(tr.fwd[:o_end])
    fwd[o_lo:o_hi] = bytes(gap)
    fwd += bytes(tail)
    mark = bytearray(b"\1") * o_off[-1]
    mark[o_lo:o_hi] = bytes(o_hi - o_lo)
    mark[o_end:] = bytes(o_off[-1] - o_end)
    unused = bytearray(len(mark))  # the old walks' directions are not kept
    word = {j: (events[j].kind, events[j].pos) for j in cols}
    old_cols = [*range(c0, min(hi, m_old)), *range(max(hi, r - shift), m_old)]
    old_word = {j: (old.events[j].kind, old.events[j].pos) for j in old_cols}
    seam = [(j, True) for j in cols if kept(j)] + [(j + 1, False) for j in cols if kept(j + 1)]
    if not (lo > 0 and a <= m == m_old + shift):  # the closure is in the window
        seam += [(t, right) for t, right in ((m, True), (0, False)) if kept(t)]
    for t, right in seam:
        for i in range(offset[t], offset[t + 1]):
            if fwd[i] != right:
                continue  # walked from the strand's other end, along its trace
            h = i - offset[t] + 1
            exit_new = _follow(word, offset, comp, fwd, comp[i], t, h, right)
            t_old, h_old, right_old = _follow(
                old_word, o_off, mark, unused, 1, t if t < lo else t - shift, h, right
            )
            if exit_new != (image(t_old), h_old, right_old):
                raise InternalError(f"internal: rewrite reconnects the strand from node ({t}, {h})")
    if 0 in comp[offset[lo] : offset[a]] or 0 in comp[offset[r + 1] :]:
        raise InternalError("internal: rewrite closes a component inside its window")
    if 0 in mark[o_lo:o_hi] or 0 in mark[o_end:]:
        raise InternalError("internal: rewrite drops a component inside its window")

    n_ids = tr.n_components + 1
    flip = [old.orientations.get(cid) == -1 for cid in range(n_ids)]
    derived = old.__dict__.get("derived")
    if derived:  # both windows, counted along old's traced directions
        change = [0] * n_ids, [0] * n_ids, [0] * n_ids, [0] * n_ids, {}
        _tally(zip(old_cols, map(old.events.__getitem__, old_cols)), o_off, tr.comp, tr.fwd, flip, -1, change)
        _tally(zip(cols, map(events.__getitem__, cols)), offset, comp, fwd, flip, 1, change)
        runs = None  # read again if the left edge changed
        if lo == 0 and (slots, comp[:n], fwd[:n]) != (old.slots, tr.comp[:n], tr.fwd[:n]):
            runs = _runs(slots, comp, fwd, flip)

    # new id = rank of the component's first node; turn it if it runs
    # leftward there.  Components 1..k first meet the kept boundaries left
    # of the window, so keep their first nodes, ids and directions.  Any
    # other first meets the window or its right seam, else keeps the
    # first node it had in the kept run, else lies past both.
    first = tr.first
    k = bisect_left(first, o_lo) - 1
    s, e = offset[lo], offset[min(a, m) + 1]
    start = {cid: comp.index(cid, s) for cid in dict.fromkeys(comp[s:e]) if cid > k}
    for cid in range(k + 1, n_ids):
        if cid not in start:
            f = first[cid]
            start[cid] = f + offset[a] - o_hi if o_hi <= f < o_end else comp.index(cid, e)
    order = sorted(start, key=start.__getitem__)
    perm = [*range(n_ids)]  # by old id
    turn = bytearray(n_ids)
    for new_id, cid in enumerate(order, start=k + 1):
        perm[cid] = new_id
        turn[cid] = not fwd[start[cid]]
    if any(turn):
        mask = _relabel(comp, turn)
        fwd = int.from_bytes(fwd, "big") ^ int.from_bytes(mask, "big")
        fwd = fwd.to_bytes(len(mask), "big")
    renumbered = order != [*range(k + 1, n_ids)]
    if renumbered:
        comp = _relabel(comp, perm)
    orientations = {perm[cid]: -1 if flip[cid] != turn[cid] else 1 for cid in tr.ids}
    coefficients = {perm[cid]: c for cid, c in old.coefficients.items()}
    first = first[: k + 1] + [*map(start.get, order)]
    new = object.__new__(FrontDiagram)
    new.__dict__.update(
        slots=slots, events=events, orientations=orientations, coefficients=coefficients,
        trace=_Trace(counts, offset, comp, bytes(fwd), n_ids - 1, first),
    )
    if derived:
        new.__dict__["derived"] = _carry(derived, change, flip, runs, perm if renumbered else None, new)
    return new


def _relabel(comp, table):
    """comp with each id c read as table[c], in comp's type (table's entries fit it)."""
    if type(comp) is bytearray:
        return comp.translate(bytes(table).ljust(256, b"\0"))
    return [*map(table.__getitem__, comp)]


def _carry(derived: _Derived, change, flip, runs, perm, d: FrontDiagram) -> _Derived:
    """A rewrite's derived data: its parent's plus change (_tally, by
    parent id, with the parent's flip), with runs and ids perm where not
    None; a list the rewrite does not change is shared."""
    *change, cross = change
    counts = [old if not any(new) else [*map(add, old, new)] for old, new in zip(derived.counts, change)]
    table = _oriented(dict(derived.cross), cross, flip) if cross else derived.cross
    runs = derived.runs if runs is None else runs
    if perm:
        back = sorted(range(len(perm)), key=perm.__getitem__)  # the parent id of each new id
        counts = [[*map(old.__getitem__, back)] for old in counts]
        runs = {perm[c]: r for c, r in runs.items()}
        table = {(min(perm[i], perm[j]), max(perm[i], perm[j])): v for (i, j), v in table.items()}
    return _Derived(counts, runs, table, d)


# ---------------------------------------------------------------------------
# stabilisation


def stabilize(d: FrontDiagram, component: int, direction: str, at_column: int | None = None) -> FrontDiagram:
    """Insert a zig-zag on a component: tb drops by 1, rot moves by -1
    for an up stabilisation and +1 for a down one.

    The zig-zag lands on the topmost strand of the component at the given
    column boundary (default: the first boundary the component meets).
    component and at_column are ints; a bool reads as the int it equals.
    """
    if direction not in ("up", "down"):
        raise FrontError(f"stabilisation direction must be 'up' or 'down', got {direction!r}")
    for name, value in (("component", component), ("at_column", at_column)):
        if value is not None and not isinstance(value, int):
            raise FrontError(f"{name} must be an integer, got {value!r}")
    tr = d.trace
    if component not in tr.ids:
        raise FrontError(f"no component {component}")
    offset = tr.offset
    if at_column is None:
        i = tr.first[component]
        t = bisect_right(offset, i) - 1  # i's boundary, past strandless ones at its offset
    else:
        try:
            t = range(len(tr.counts)).index(at_column)
            i = tr.comp.index(component, offset[t], offset[t + 1])
        except ValueError:
            raise FrontError(f"component {component} has no strand at column boundary {at_column}") from None
    height = i - offset[t] + 1
    eps = (1 if tr.fwd[i] else -1) * d.orientation(component)
    # on an oriented strand running rightward (eps 1), the zag L h, R h + 1
    # stabilises up and the zig L h + 1, R h down; leftward, the other way
    zig = (direction == "up") != (eps == 1)
    events = d.events[:t] + (Event("L", height + zig), Event("R", height + 1 - zig)) + d.events[t:]
    return _transfer(d, d.slots, events, t + 1, t + 1, 2)


# ---------------------------------------------------------------------------
# the six local moves


def _footprint(e: Event, gap: str) -> tuple[int, int]:
    """The doubled heights e covers at one side: a point for kind gap, else a pair."""
    return (2 * e.pos - 1,) * 2 if e.kind == gap else (2 * e.pos, 2 * e.pos + 2)


def _move1(d: FrontDiagram, at: int, variant, handle):
    """Swap columns at and at + 1 by the footprint rule in apply_move."""
    if len(d.events) < 2:
        raise FrontError("move 1 needs at least two columns")
    if not 1 <= at <= len(d.events) - 1:
        raise FrontError(f"move 1 needs two columns starting at 1..{len(d.events) - 1}")
    a, b = d.events[at - 1], d.events[at]
    a_lo, a_hi = _footprint(a, "R")  # what a leaves behind
    b_lo, b_hi = _footprint(b, "L")  # what b takes in
    if b_hi < a_lo:
        swapped = (b, Event(a.kind, a.pos + _DELTA[b.kind]))
    elif a_hi < b_lo:
        swapped = (Event(b.kind, b.pos - _DELTA[a.kind]), a)
    elif a == b:  # only X p X p gets here: equal L or R columns are apart
        swapped = (a, b)
    elif a.kind == "R" and b.kind == "L":  # two gaps touch only at the same p
        raise FrontError(f"move 1 ambiguous at column {at}")
    else:
        raise FrontError(f"move 1 not applicable at column {at}: the columns interact")
    return d.slots, d.events[: at - 1] + swapped + d.events[at + 1 :], at, at + 1, 0


def _pushed(kind: str, p: int, q: int) -> tuple[Event, ...]:
    """The cusp of kind at height p with the strand at q pushed across it."""
    if kind == "L":
        return Event("L", q), Event("X", p), Event("X", q)
    return Event("X", q), Event("X", p), Event("R", q)


def _move2(d: FrontDiagram, at: int, variant, handle):
    """Push a strand across the cusp in column at, or take it back.

    The four variants are one rule under reflection.  With q = p - 1 for
    'above' and q = p + 1 for 'below', a birth turns L p into L q, X p, X q
    and R p into X q, X p, R q (_pushed); it needs 1 <= q <= c + D/2, with
    c the strands entering the column and D its change in strand count.
    A death turns those three columns back into the cusp at p.
    """
    if variant not in ("birth-above", "birth-below", "death-above", "death-below"):
        raise FrontError("move 2 variant must be birth-above, birth-below, death-above or death-below")
    step = 1 if variant.endswith("below") else -1  # q - p
    if variant.startswith("birth"):
        if not 1 <= at <= len(d.events):
            raise FrontError(f"no column {at}")
        e = d.events[at - 1]
        if e.kind == "X":
            raise FrontError(f"column {at} is a crossing, move 2 needs a cusp")
        q = e.pos + step
        if not 1 <= q <= d.trace.counts[at - 1] + _DELTA[e.kind] // 2:
            raise FrontError(f"no strand {variant[6:]} the cusp to push across")
        return d.slots, d.events[: at - 1] + _pushed(e.kind, e.pos, q) + d.events[at:], at, at, 2
    if not 1 <= at <= len(d.events) - 2:
        raise FrontError(f"move 2 needs three columns starting at {at}")
    w = d.events[at - 1 : at + 2]
    kind, q = "L" if w[0].kind == "L" else "R", w[0].pos
    if q - step < 1 or w != _pushed(kind, q - step, q):  # no cusp above the top strand
        raise FrontError(f"columns {at}..{at + 2} do not match a move 2 pattern")
    return d.slots, d.events[: at - 1] + (Event(kind, q - step),) + d.events[at + 2 :], at, at + 2, -2


def _move3(d: FrontDiagram, at: int, variant, handle):
    if not 1 <= at <= len(d.events) - 2:
        raise FrontError(f"move 3 needs three columns starting at {at}")
    w = d.events[at - 1 : at + 2]
    if not all(e.kind == "X" for e in w):
        raise FrontError("move 3 needs three crossings")
    a, b = w[0].pos, w[1].pos
    if w[2].pos != a or abs(a - b) != 1:
        raise FrontError("move 3 needs the pattern X(a) X(b) X(a) with |a - b| = 1")
    return d.slots, d.events[: at - 1] + (w[1], w[0], w[1]) + d.events[at + 2 :], at, at + 2, 0


def _handle_offset(d: FrontDiagram, h: int) -> int:
    if not 1 <= h <= d.n_handles:
        raise FrontError(f"handle index {h} out of range 1..{d.n_handles}")
    return sum(d.slots[: h - 1])


def _ball_of_pair(d: FrontDiagram, p: int) -> int:
    top = 0  # edge heights above ball h
    for h, s in enumerate(d.slots, start=1):
        if top < p and p + 1 <= top + s:
            return h
        top += s
    raise FrontError(f"edge heights {p}, {p + 1} do not lie in a single attaching ball")


def _slide(d: FrontDiagram, from_end: bool, slots):
    """Carry the last column (from_end) or the first one across the box
    edge to the other end of the word, with the given new slot counts."""
    if from_end:
        return tuple(slots), d.events[-1:] + d.events[:-1], 0, 0, 1
    return tuple(slots), d.events[1:] + d.events[:1], 0, 1, -1


def _move4(d: FrontDiagram, at: int, variant, handle):
    """Slide a cusp pair into its attaching ball ('in') or out of one.

    'in' and 'out' are mirror images: 'in' takes a left cusp from the last
    column or a right cusp from the first and removes two slots from the
    ball it sits in; 'out' takes a left cusp from the first column or a
    right cusp from the last and adds two slots to the given ball.
    """
    if not d.events:
        raise FrontError("move 4 needs at least one column")
    if variant not in ("in", "out"):
        raise FrontError("move 4 variant must be 'in' or 'out'")
    out = variant == "out"
    if out:
        if handle is None:
            raise FrontError("move 4 'out' needs an explicit handle")
        o = _handle_offset(d, handle)
    left, right = ("first", "last") if out else ("last", "first")  # the columns each cusp slides from
    if at == len(d.events) and d.events[-1].kind == ("R" if out else "L"):
        from_end, p = True, d.events[-1].pos
    elif at == 1 and d.events[0].kind == ("L" if out else "R"):
        from_end, p = False, d.events[0].pos
    else:
        raise FrontError(
            f"move 4 {variant!r} needs a left cusp in the {left} column or a right cusp in the {right}")
    if out:
        if not o + 1 <= p <= o + d.slots[handle - 1] + 1:
            raise FrontError(f"cusp at height {p} cannot exit through ball {handle}")
    else:
        h = _ball_of_pair(d, p)
        if handle is not None and handle != h:
            raise FrontError(f"cusp pair sits in ball {h}, not {handle}")
        handle = h
    slots = list(d.slots)
    slots[handle - 1] += 2 if out else -2
    return _slide(d, from_end, slots)


def _move5(d: FrontDiagram, at: int, variant, handle):
    if not d.events:
        raise FrontError("move 5 needs at least one column")
    for from_end, e in ((True, d.events[-1]), (False, d.events[0])):
        if at == (len(d.events) if from_end else 1) and e.kind == "X":
            _ball_of_pair(d, e.pos)
            return _slide(d, from_end, d.slots)
    raise FrontError("move 5 slides the first or last column, which must be a crossing")


def _move6(d: FrontDiagram, at, variant, handle):
    """Swing an edge strand around its attaching ball; no variant is 'top'.

    The detour block (travel across the ball, a small loop, travel back)
    is inserted at the left edge; it crosses every other strand of the
    ball twice and costs one zig-zag, so with e the swung strand's
    direction and run(K) the algebraic passage count through the ball,
    tb changes by -2 e run(K) and lk(K, K') by -e run(K').
    """
    if handle is None:
        raise FrontError("move 6 needs an explicit handle")
    variant = variant or "top"
    if variant not in ("top", "bottom"):
        raise FrontError("move 6 variant must be 'top' or 'bottom'")
    o = _handle_offset(d, handle)
    s = d.slots[handle - 1]
    if s < 1:
        raise FrontError(f"ball {handle} has no strand to swing")
    across = tuple(Event("X", o + k) for k in range(1, s))
    if variant == "top":
        # slot o+1 dives below the ball, loops, climbs back
        loop = (Event("L", o + s + 1), Event("X", o + s), Event("R", o + s + 1))
        detour = across + loop + across[::-1]
    else:
        # slot o+s climbs above the ball, loops, dives back
        loop = (Event("L", o + 2), Event("X", o + 1), Event("R", o + 2))
        detour = across[::-1] + loop + across
    return d.slots, detour + d.events, 0, 0, len(detour)


_MOVES = {
    1: (_move1, "move 1 needs a column"),
    2: (_move2, "move 2 needs a column and a variant"),
    3: (_move3, "move 3 needs a column"),
    4: (_move4, "move 4 needs a column and a variant ('in' or 'out')"),
    5: (_move5, "move 5 needs a column"),
    6: (_move6, None),
}


def apply_move(d: FrontDiagram, move: int, at: int | None = None, variant: str | None = None,
               handle: int | None = None) -> FrontDiagram:
    """Apply one of the six local moves, preserving component data.

    The catalogue is one table, _MOVES, of each move's rewrite and the
    message when a column or variant it needs is None.  Every rewrite maps
    (d, at, variant, handle) to the (slots, events, lo, hi, shift) of _transfer.
    Moves 1-3 are interior isotopies (at = leftmost column of the
    pattern; move 2 needs a birth/death variant).  Moves 4 and 5 slide a
    cusp or crossing through a handle via the box edges.  Move 6 swings
    the top or bottom strand of a ball around it; 'at' is ignored.  at
    and handle are ints (a bool reads as the int it equals), checked
    before any rewrite runs.

    Move 1 swaps columns a = at and b = at + 1 by their footprints on
    the boundary between them, in doubled heights: the strand pair at p
    spans [2p, 2p + 2] and the gap above strand p is the point 2p - 1.
    a leaves behind a gap (R) or a pair (L, X); b takes in a gap (L) or
    a pair (R, X).  With D the change in strand count (L +2, R -2,
    X 0), b strictly above a gives (b, a at pos + D(b)), and b strictly
    below a gives (b at pos - D(a), a).  Otherwise X p X p stays as it
    is, R p L p is ambiguous, and every other pair interacts.
    """
    try:
        rewrite, needs = _MOVES[move]
    except (KeyError, TypeError):  # not a move, or not even hashable
        raise FrontError(f"there is no move {move}; the catalogue has moves 1..6") from None
    if needs and (at is None or variant is None and "variant" in needs):
        raise FrontError(needs)
    for name, value in (("at", at), ("handle", handle)):
        if value is not None and not isinstance(value, int):
            raise FrontError(f"{name} must be an integer, got {value!r}")
    return _transfer(d, *rewrite(d, at, variant, handle))
