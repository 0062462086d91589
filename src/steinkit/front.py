"""Fronts of Legendrian links in standard position, combinatorially.

A front is a word of events read left to right across a rectangular box:
L(p) opens a left cusp whose branches appear at heights p, p+1, R(p)
closes a right cusp on the strands at heights p, p+1, and X(p) crosses
the strands at heights p, p+1 (the strand from the upper left has the
more negative slope, so crossings carry no extra decoration).  Strands
may leave the box on the right edge and re-enter at the same height on
the left edge; consecutive edge heights are grouped into the attaching
balls of 1-handles.

Everything here is exact integer combinatorics: cycle tracing, writhe,
Thurston-Bennequin and rotation numbers, handle run counts, the local
moves 1-6, stabilisation, and conversion to a surgery presentation.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from .numerics import ExtRational, InternalError, parse_int, parse_rational, rat

STEIN = "stein"  # symbolic coefficient: resolve to tb - 1 at surgery time
MAX_NODES = 1_000_000  # strands summed over all column boundaries of one word


class FrontError(ValueError):
    pass


@dataclass(frozen=True)
class Event:
    kind: str  # "L", "R" or "X"
    pos: int  # height of the upper strand involved, 1 = topmost

    def __post_init__(self):
        if self.kind not in ("L", "R", "X"):
            raise FrontError(f"unknown event kind {self.kind!r}")
        if type(self.pos) is not int:
            if not isinstance(self.pos, int):
                raise FrontError(f"event position {self.pos!r} must be an integer")
            # a bool is stored as the plain int it equals, which is what
            # str() writes and parse_event_word reads back
            object.__setattr__(self, "pos", int(self.pos))
        if self.pos < 1:
            raise FrontError(f"event position {self.pos} must be at least 1")

    def __str__(self) -> str:
        return f"{self.kind}{self.pos}"


_EVENT_RE = re.compile(r"^([LRX])([0-9]+)$")


def parse_event_word(text: str) -> tuple[Event, ...]:
    """Parse a whitespace separated event word like 'L1 L3 X2 R2 R1'.

    Each distinct token is read once, in order of first appearance, and
    every occurrence shares its (frozen) Event.
    """
    tokens = text.split()
    events = dict.fromkeys(tokens)
    for token in events:
        m = _EVENT_RE.match(token)
        if not m:
            raise FrontError(f"bad event token {token!r}")
        events[token] = Event(m.group(1), int(m.group(2)))
    return tuple(map(events.__getitem__, tokens))


@dataclass(frozen=True)
class FrontDiagram:
    """A front in a box with 1-handle attaching balls on the side edges.

    slots[h] is the number of strands running through handle h+1; edge
    heights are grouped into balls top to bottom.  orientations maps a
    component id to +1 or -1 (+1 keeps the traced direction, which runs
    rightward at the component's first segment).  coefficients maps a
    component id to a surgery coefficient or the marker STEIN.

    Diagrams are immutable.  Construction validates the word and traces
    its components exactly once; the trace is kept on the instance (out
    of equality and repr), and every reader in this module uses it
    instead of tracing again.  A move or stabilisation never traces: it
    splices the rewritten diagram's trace from its parent's (see
    _transfer).  Slot counts are ints (a bool is stored as the int it
    equals).  The derived data (per-component stats and
    the signed crossing table) comes from one pass over the trace, made
    at most once: on first read, never on construction, so a diagram
    nobody reads never pays for it.
    """

    slots: tuple[int, ...]
    events: tuple[Event, ...]
    orientations: dict[int, int] = field(default_factory=dict)
    coefficients: dict[int, object] = field(default_factory=dict)
    trace: _Trace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slots", _slot_counts(self.slots))
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "trace", _trace(self.n_strands, self.events))
        _attach(self, self.orientations, self.coefficients)

    @property
    def n_handles(self) -> int:
        return len(self.slots)

    @property
    def n_strands(self) -> int:
        return sum(self.slots)

    def orientation(self, component: int) -> int:
        return self.orientations.get(component, 1)

    @cached_property
    def derived(self) -> _Derived:
        """Stats and crossing table, computed on first read and kept."""
        return _front_data(self)


def _slot_counts(slots) -> tuple[int, ...]:
    slots = tuple(slots)
    for h, s in enumerate(slots, start=1):
        if not isinstance(s, int) or s < 0:
            raise FrontError(f"handle {h} has invalid slot count {s!r}")
    # a bool is stored as the plain int it equals, which serialize_front writes
    return tuple(map(int, slots))


def _attach(d: FrontDiagram, orientations, coefficients) -> FrontDiagram:
    """Check component data against d's trace and store it on d.

    Only for a diagram that was just constructed and has not been handed
    out, so that building it with its data costs one trace.  Derived data
    read before this call is dropped, as it used the old data.
    """
    ids = d.trace.ids
    for cid, o in orientations.items():
        if cid not in ids:
            raise FrontError(f"orientation given for unknown component {cid}")
        if o not in (1, -1):
            raise FrontError(f"orientation of component {cid} must be +1 or -1, got {o!r}")
    for cid, c in coefficients.items():
        if cid not in ids:
            raise FrontError(f"coefficient given for unknown component {cid}")
        if c != STEIN and not isinstance(c, ExtRational):
            raise FrontError(f"coefficient of component {cid} must be a rational or 'stein'")
    object.__setattr__(d, "orientations", orientations)
    object.__setattr__(d, "coefficients", coefficients)
    d.__dict__.pop("derived", None)
    return d


# ---------------------------------------------------------------------------
# cycle tracing

# Nodes are (boundary, height) pairs; boundary 0 is the left edge and
# boundary E the right edge.  Each node has one edge on its right and one
# on its left: flow and crossing edges preserve the traversal direction,
# a cusp edge joins the two branches of a cusp and reverses it, and the
# closure edge through a handle identifies (E, k) with (0, k) preserving
# direction.


class _Trace:
    """The components of a front word as flat per-node arrays.

    Node (t, h) has index offset[t] + h - 1.  comp[i] is its component
    id; components are numbered 1, 2, ... by their smallest node and
    traced rightward from it.  fwd[i] is 1 where the traced direction
    runs rightward through the node and 0 where it runs leftward.
    counts[t] is the strand count at boundary t.
    """

    __slots__ = ("counts", "offset", "comp", "fwd", "n_components")

    def __init__(self, counts, offset, comp, fwd, n_components):
        self.counts = counts
        self.offset = offset
        self.comp = comp
        self.fwd = fwd
        self.n_components = n_components

    @property
    def ids(self) -> range:
        return range(1, self.n_components + 1)

    def at(self, t: int, h: int) -> tuple[int, int]:
        """Component id and traced direction (+1 rightward, -1 leftward) of node (t, h)."""
        i = self.offset[t] + h - 1
        return self.comp[i], 1 if self.fwd[i] else -1

    def nodes(self):
        """((boundary, height), component id) of every node, in node order."""
        heights = ((t, h) for t, c in enumerate(self.counts) for h in range(1, c + 1))
        return zip(heights, self.comp)


def _check_node_count(n_nodes: int) -> None:
    if n_nodes > MAX_NODES:
        raise FrontError(
            f"the front has {n_nodes} nodes (strands summed over its column boundaries); "
            f"the limit is {MAX_NODES}"
        )


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


def _refuse(n_strands: int, events: tuple[Event, ...]):
    """Raise the FrontError of a word that _trace cannot trace: its first
    misplaced column, else its end count, else the node limit."""
    c = nodes = n_strands
    for j, e in enumerate(events, start=1):
        if e.pos > (top := c + 1 if e.kind == "L" else c - 1):
            need = f"position in 1..{top}" if e.kind == "L" else f"two strands at {e.pos}, {e.pos + 1}"
            raise FrontError(f"column {j}: {e} needs {need}")
        c += _DELTA[e.kind]
        nodes += c
    if c != n_strands:
        raise FrontError(f"word ends with {c} strands but the edge carries {n_strands}")
    _check_node_count(nodes)
    raise InternalError("internal: a word within the node limit was refused")


def _find(up: list, par: bytearray, x: int) -> tuple[int, int]:
    """Root of label x and x's parity against it; the path is compressed."""
    root, p = x, 0
    while up[root] != root:
        p ^= par[root]
        root = up[root]
    q = p
    while up[x] != root:
        up[x], par[x], x, q = root, q, up[x], q ^ par[x]
    return root, p


def _join(up: list, par: bytearray, a: int, b: int, reverse: int) -> None:
    """Join the labels of keys a and b, whose nodes run opposite ways iff reverse."""
    (ra, pa), (rb, pb) = _find(up, par, a >> 1), _find(up, par, b >> 1)
    x = (a ^ b ^ reverse ^ pa ^ pb) & 1  # the roots' relative parity
    if ra == rb and x:
        raise InternalError(f"internal: labels {a >> 1} and {b >> 1} join with both parities")
    up[max(ra, rb)], par[max(ra, rb)] = min(ra, rb), x  # a root is its set's least label


def _trace(n_strands: int, events: tuple[Event, ...]) -> _Trace:
    """Validate the word's strand counts and trace its components in one
    sweep over the columns.

    The sweep holds the boundary's strands as keys 2·label + d.  Labels
    are the edge strands 0..n-1, then the left cusps in column order, so
    a label's first node, (0, k) or a cusp's upper branch, both with
    d = 1, comes after every smaller label's.  X swaps two keys, L
    inserts a new label with d = 1 above and 0 below, and R and the
    closure (boundary E to 0) join two labels.

    Why this is the traced direction: let key 2·l + d run rightward iff
    d ^ s_l.  Flow and crossing edges keep key and direction; a left
    cusp reverses the direction and its branches differ in d.  The other
    edges are the joins: a right cusp reverses, s_a ^ s_b = d_a ^ d_b ^ 1,
    the closure keeps, s_a ^ s_b = d_a ^ d_b.  So s meets every join iff
    it orients each component along all its edges; a component's labels
    form one set, and the union-find keeps s_l ^ s_root as l's parity.
    A node has one edge on each side, so a walk round a component comes
    back the way it left and the joins cannot conflict.  A root is its
    set's smallest label, whose first node is the component's smallest;
    s_root = 0 runs it rightward there, as _Trace numbers it.
    """
    if n_strands > MAX_NODES:  # before any per-strand list
        _refuse(n_strands, events)
    c = nodes = n_strands
    cur = [*range(1, 2 * c, 2)]
    flat, counts, limit = cur[:], [c], MAX_NODES  # flat: every boundary's keys
    up, par = [*range(c)], bytearray(c)  # the union-find on labels
    for e in events:
        p = e.pos
        if p > (c + 1 if e.kind == "L" else c - 1):
            break
        if e.kind == "X":
            cur[p - 1], cur[p] = cur[p], cur[p - 1]
        elif e.kind == "L":
            cur[p - 1 : p - 1] = 2 * len(up) + 1, 2 * len(up)
            up.append(len(up))
            par.append(0)
            c += 2
        else:
            _join(up, par, cur[p - 1], cur[p], 1)
            del cur[p - 1 : p + 1]
            c -= 2
        nodes += c
        if nodes > limit:
            break
        counts.append(c)
        flat += cur
    if len(counts) <= len(events) or c != n_strands:
        _refuse(n_strands, events)
    for a, b in zip(cur, flat):
        _join(up, par, a, b, 0)

    # number the components by their roots; read each node's id and
    # direction off a table by key
    ids, comp_of, fwd_of = [0] * len(up), [0] * (2 * len(up)), bytearray(2 * len(up))
    n = 0
    for label, q in enumerate(up):  # q <= label, so q points at its root by now
        n += q == label
        up[label], par[label] = up[q], par[label] ^ par[q]
        ids[label] = ids[q] or n
        comp_of[2 * label] = comp_of[2 * label + 1] = ids[label]
        fwd_of[2 * label + 1 - par[label]] = 1
    if len(fwd_of) <= 256:  # every key and id is a byte: translate at C speed
        keys = bytes(flat)
        fwd = keys.translate(fwd_of.ljust(256, b"\0"))
        comp = [*keys.translate(bytes(comp_of).ljust(256, b"\0"))]
    else:
        fwd = bytes(map(fwd_of.__getitem__, flat))
        comp = [*map(comp_of.__getitem__, flat)]
    return _Trace(counts, [0, *accumulate(counts)], comp, fwd, n)


def _handle_offset(d: FrontDiagram, h: int) -> int:
    if not 1 <= h <= d.n_handles:
        raise FrontError(f"handle index {h} out of range 1..{d.n_handles}")
    return sum(d.slots[: h - 1])


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class ComponentStats:
    component: int
    orientation: int
    left_cusps: int
    right_cusps: int
    up_cusps: int
    down_cusps: int
    writhe: int
    tb: int
    rot: int
    runs: tuple[int, ...]  # algebraic passage count per handle
    passes: tuple[int, ...]  # unsigned passage count per handle
    coefficient: object | None


class _Derived:
    """What the readers of a diagram need from its trace and its data.

    stats holds one ComponentStats per component, in id order; cross maps
    each pair (i, j) of components with i < j that cross to the sum of
    the signs of their crossings.
    """

    __slots__ = ("stats", "cross")

    def __init__(self, stats, cross):
        self.stats = stats
        self.cross = cross


def _front_data(d: FrontDiagram) -> _Derived:
    """Cusps, writhe, tb, rot, handle runs and the crossing table of every
    component, in one pass over the events and one over the left edge."""
    tr = d.trace
    comp, fwd, offset = tr.comp, tr.fwd, tr.offset
    n = tr.n_components + 1  # per-component lists are indexed by id
    # fwd[i] ^ flip[comp[i]] is 1 where the oriented strand runs rightward
    flip = [0] * n
    for cid, o in d.orientations.items():
        flip[cid] = o == -1
    writhe = [0] * n
    left = [0] * n
    right = [0] * n
    up = [0] * n
    cross = {}
    for t, e in enumerate(d.events):  # the column between boundaries t and t + 1
        kind = e.kind
        if kind == "X":
            i = offset[t] + e.pos - 1
            ca, cb = comp[i], comp[i + 1]
            # crossings between anti-parallel strands are the positive ones
            sign = 1 if (fwd[i] ^ flip[ca]) != (fwd[i + 1] ^ flip[cb]) else -1
            if ca == cb:
                writhe[ca] += sign
            else:
                key = (ca, cb) if ca < cb else (cb, ca)
                cross[key] = cross.get(key, 0) + sign
        elif kind == "L":
            i = offset[t + 1] + e.pos - 1  # upper branch
            c = comp[i]
            left[c] += 1
            if fwd[i] ^ flip[c]:
                up[c] += 1  # traversal turns upward through a left cusp
        else:
            i = offset[t] + e.pos - 1  # upper branch
            c = comp[i]
            right[c] += 1
            if not fwd[i] ^ flip[c]:
                up[c] += 1
    nh = d.n_handles
    runs = [[0] * nh for _ in range(n)]
    passes = [[0] * nh for _ in range(n)]
    start = 0  # the left edge is boundary 0, so its nodes come first
    for h, s in enumerate(d.slots):
        for i in range(start, start + s):
            c = comp[i]
            runs[c][h] += 1 if fwd[i] ^ flip[c] else -1
            passes[c][h] += 1
        start += s

    stats = []
    for cid in tr.ids:
        if left[cid] != right[cid]:
            raise InternalError(f"internal: component {cid} has unbalanced cusps")
        down = left[cid] + right[cid] - up[cid]  # every cusp turns up or down
        rot2 = down - up[cid]
        if rot2 % 2:
            raise InternalError(f"internal: component {cid} has odd cusp imbalance")
        stats.append(
            ComponentStats(
                component=cid,
                orientation=-1 if flip[cid] else 1,
                left_cusps=left[cid],
                right_cusps=right[cid],
                up_cusps=up[cid],
                down_cusps=down,
                writhe=writhe[cid],
                tb=writhe[cid] - left[cid],
                rot=rot2 // 2,
                runs=tuple(runs[cid]),
                passes=tuple(passes[cid]),
                coefficient=d.coefficients.get(cid),
            )
        )
    return _Derived(tuple(stats), cross)


def component_stats(d: FrontDiagram) -> list[ComponentStats]:
    return list(d.derived.stats)


def n_components(d: FrontDiagram) -> int:
    return d.trace.n_components


def linking_number(d: FrontDiagram, i: int, j: int) -> int:
    """Linking number of two distinct components in the surgered picture's
    ambient manifold (signed crossings halved; handle passes contribute
    nothing beyond the crossings they force)."""
    ids = d.trace.ids
    if i not in ids or j not in ids or i == j:
        raise FrontError(f"need two distinct components, got {i} and {j}")
    total = d.derived.cross.get((min(i, j), max(i, j)), 0)
    if total % 2:
        raise InternalError(f"internal: odd crossing sum between components {i} and {j}")
    return total // 2


@dataclass(frozen=True)
class ParityReport:
    component: int
    tb: int
    rot: int
    total_passes: int
    ok: bool


def parity_lint(d: FrontDiagram) -> list[ParityReport]:
    """Check tb + rot + 1 = total unsigned handle passes mod 2, per component.

    Any front drawn in the box satisfies this; a violation means the
    diagram data was assembled inconsistently.
    """
    out = []
    for s in d.derived.stats:
        total = sum(s.passes)
        out.append(
            ParityReport(
                component=s.component,
                tb=s.tb,
                rot=s.rot,
                total_passes=total,
                ok=(s.tb + s.rot + 1 - total) % 2 == 0,
            )
        )
    return out


# ---------------------------------------------------------------------------
# rebuilding moves: shared transfer of component data


def _transfer(old: FrontDiagram, slots, events, lo: int, hi: int, shift: int) -> FrontDiagram:
    """Build the rewritten diagram, splicing its trace from old's and
    carrying orientations and coefficients across.

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
    """
    slots, events = _slot_counts(slots), tuple(events)
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

    # strand counts: kept ones copied, window ones stepped from the seam
    cols = [*range(c0, min(a, m)), *range(max(a, r), m)]
    counts = tr.counts[:lo] + [n] * (a - lo) + tr.counts[hi : r - shift + 1] + [n] * (m - r)
    for j in cols:
        e = events[j]
        c = counts[j]
        if e.pos > (c + 1 if e.kind == "L" else c - 1):
            raise InternalError(f"internal: rewritten column {j + 1} does not fit {c} strands")
        c += 2 if e.kind == "L" else -2 if e.kind == "R" else 0
        if not kept(j + 1):
            counts[j + 1] = c
        elif counts[j + 1] != c:
            raise InternalError(f"internal: rewritten column {j + 1} does not meet the seam")
    if counts[0] != n or counts[m] != n:
        raise InternalError("internal: rewritten word does not close up through the handles")
    offset = [0, *accumulate(counts)]
    _check_node_count(offset[-1])

    # kept nodes carry their old ids and directions, window nodes are 0
    # until walked; old window nodes are 0 in mark until walked
    o_off = tr.offset
    o_lo, o_hi, o_end = o_off[lo], o_off[hi], o_off[r - shift + 1]
    gap, tail = offset[a] - offset[lo], offset[-1] - offset[r + 1]
    comp = tr.comp[:o_end]
    comp[o_lo:o_hi] = [0] * gap
    comp += [0] * tail
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

    # new id = rank of the component's first node; flip it if it runs
    # leftward there.  The components met left of the window keep their
    # first node, so their ids and directions; they are 1..k.
    k = i = 0
    for cid in tr.ids:
        i = comp.index(cid, i)
        if i >= o_lo:
            break
        k = cid
    order = [*range(1, k + 1)]
    if k < tr.n_components and lo == hi:
        # no old boundary is dropped, so the ids past k first meet in the
        # new window or else in the kept run, which starts at the parent's
        # node o_lo and so meets them in id order
        window = [cid for cid in dict.fromkeys(comp[o_lo : offset[a]]) if cid > k]
        seen = set(window)
        order += window + [cid for cid in range(k + 1, tr.n_components + 1) if cid not in seen]
    elif k < tr.n_components:
        order += [cid for cid in dict.fromkeys(comp[o_lo:]) if cid > k]
    perm = [*range(len(order) + 1)]  # by old id
    flip = bytearray(len(order) + 1)
    i = o_lo
    for new_id, cid in enumerate(order[k:], start=k + 1):
        perm[cid] = new_id
        i = comp.index(cid, i)
        flip[cid] = not fwd[i]
    if any(flip):
        mask = bytes(map(flip.__getitem__, comp))
        fwd = int.from_bytes(fwd, "big") ^ int.from_bytes(mask, "big")
        fwd = fwd.to_bytes(len(mask), "big")
    if order != [*tr.ids]:
        comp = list(map(perm.__getitem__, comp))
    orientations: dict[int, int] = {}
    coefficients: dict[int, object] = {}
    for cid in tr.ids:
        o = old.orientation(cid)
        orientations[perm[cid]] = -o if flip[cid] else o
        if cid in old.coefficients:
            coefficients[perm[cid]] = old.coefficients[cid]

    new = object.__new__(FrontDiagram)
    object.__setattr__(new, "slots", slots)
    object.__setattr__(new, "events", events)
    object.__setattr__(new, "trace", _Trace(counts, offset, comp, bytes(fwd), len(order)))
    return _attach(new, orientations, coefficients)


# ---------------------------------------------------------------------------
# stabilisation


def stabilize(
    d: FrontDiagram, component: int, direction: str, at_column: int | None = None
) -> FrontDiagram:
    """Insert a zig-zag on a component: tb drops by 1, rot moves by -1
    for an up stabilisation and +1 for a down one.

    The zig-zag lands on the topmost strand of the component at the given
    column boundary (default: the first boundary the component meets).
    """
    if direction not in ("up", "down"):
        raise FrontError(f"stabilisation direction must be 'up' or 'down', got {direction!r}")
    tr = d.trace
    if component not in tr.ids:
        raise FrontError(f"no component {component}")
    comp, offset = tr.comp, tr.offset
    if at_column is None:
        i = comp.index(component)
        t = bisect_right(offset, i) - 1
    else:
        try:
            t = range(len(tr.counts)).index(at_column)
            i = comp.index(component, offset[t], offset[t + 1])
        except ValueError:
            raise FrontError(
                f"component {component} has no strand at column boundary {at_column}"
            ) from None
    height = i - offset[t] + 1
    eps = (1 if tr.fwd[i] else -1) * d.orientation(component)
    # two cusp patterns; which one yields up-cusps depends on the strand
    # direction at the insertion point
    zig = (Event("L", height + 1), Event("R", height))
    zag = (Event("L", height), Event("R", height + 1))
    if direction == "up":
        pattern = zag if eps == 1 else zig
    else:
        pattern = zig if eps == 1 else zag
    events = d.events[:t] + pattern + d.events[t:]
    return _transfer(d, d.slots, events, t + 1, t + 1, 2)


# ---------------------------------------------------------------------------
# the six local moves


_DELTA = {"L": 2, "R": -2, "X": 0}  # change in strand count across a column


def _footprint(e: Event, gap: str) -> tuple[int, int]:
    """The doubled heights e covers at one side: a point for kind gap, else a pair."""
    return (2 * e.pos - 1,) * 2 if e.kind == gap else (2 * e.pos, 2 * e.pos + 2)


def _move1(d: FrontDiagram, at: int):
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
    events = d.events[: at - 1] + swapped + d.events[at + 1 :]
    return d.slots, events, at, at + 1, 0


def _move2(d: FrontDiagram, at: int, variant: str):
    e_count = len(d.events)
    if variant in ("birth-above", "birth-below"):
        if not 1 <= at <= e_count:
            raise FrontError(f"no column {at}")
        e = d.events[at - 1]
        c_in = d.trace.counts[at - 1]
        p = e.pos
        if e.kind == "L":
            if variant == "birth-above":
                if p < 2:
                    raise FrontError("no strand above the cusp to push across")
                pattern = (Event("L", p - 1), Event("X", p), Event("X", p - 1))
            else:
                if p > c_in:
                    raise FrontError("no strand below the cusp to push across")
                pattern = (Event("L", p + 1), Event("X", p), Event("X", p + 1))
        elif e.kind == "R":
            if variant == "birth-above":
                if p < 2:
                    raise FrontError("no strand above the cusp to push across")
                pattern = (Event("X", p - 1), Event("X", p), Event("R", p - 1))
            else:
                if p + 2 > c_in:
                    raise FrontError("no strand below the cusp to push across")
                pattern = (Event("X", p + 1), Event("X", p), Event("R", p + 1))
        else:
            raise FrontError(f"column {at} is a crossing, move 2 needs a cusp")
        events = d.events[: at - 1] + pattern + d.events[at:]
        return d.slots, events, at, at, 2

    if variant in ("death-above", "death-below"):
        if not 1 <= at <= e_count - 2:
            raise FrontError(f"move 2 needs three columns starting at {at}")
        w = d.events[at - 1 : at + 2]
        shift = 1 if variant == "death-above" else -1
        kind, b = w[0].kind, w[0].pos
        # death-below from the top strand would land at position 0
        if kind not in ("L", "X") or b + shift < 1:
            raise FrontError(f"columns {at}..{at + 2} do not match a move 2 pattern")
        if kind == "L":
            expect = (Event("L", b), Event("X", b + shift), Event("X", b))
            replacement = Event("L", b + shift)
        else:
            expect = (Event("X", b), Event("X", b + shift), Event("R", b))
            replacement = Event("R", b + shift)
        if tuple(w) != expect:
            raise FrontError(f"columns {at}..{at + 2} do not match a move 2 pattern")
        events = d.events[: at - 1] + (replacement,) + d.events[at + 2 :]
        return d.slots, events, at, at + 2, -2

    raise FrontError(
        "move 2 variant must be birth-above, birth-below, death-above or death-below"
    )


def _move3(d: FrontDiagram, at: int):
    if not 1 <= at <= len(d.events) - 2:
        raise FrontError(f"move 3 needs three columns starting at {at}")
    w = d.events[at - 1 : at + 2]
    if not all(e.kind == "X" for e in w):
        raise FrontError("move 3 needs three crossings")
    a, b = w[0].pos, w[1].pos
    if w[2].pos != a or abs(a - b) != 1:
        raise FrontError("move 3 needs the pattern X(a) X(b) X(a) with |a - b| = 1")
    events = d.events[: at - 1] + (Event("X", b), Event("X", a), Event("X", b)) + d.events[at + 2 :]
    return d.slots, events, at, at + 2, 0


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


def _move4(d: FrontDiagram, at: int, variant: str, handle: int | None):
    e_count = len(d.events)
    if e_count == 0:
        raise FrontError("move 4 needs at least one column")
    last = e_count
    if variant == "in":
        if at == last and d.events[-1].kind == "L":
            from_end, p = True, d.events[-1].pos
        elif at == 1 and d.events[0].kind == "R":
            from_end, p = False, d.events[0].pos
        else:
            raise FrontError("move 4 'in' needs a left cusp in the last column or a right cusp in the first")
        h = _ball_of_pair(d, p)
        if handle is not None and handle != h:
            raise FrontError(f"cusp pair sits in ball {h}, not {handle}")
        slots = list(d.slots)
        slots[h - 1] -= 2
        return _slide(d, from_end, slots)
    if variant == "out":
        if handle is None:
            raise FrontError("move 4 'out' needs an explicit handle")
        o = _handle_offset(d, handle)
        s = d.slots[handle - 1]
        if at == 1 and d.events[0].kind == "L":
            from_end, p = False, d.events[0].pos
        elif at == last and d.events[-1].kind == "R":
            from_end, p = True, d.events[-1].pos
        else:
            raise FrontError("move 4 'out' needs a left cusp in the first column or a right cusp in the last")
        if not o + 1 <= p <= o + s + 1:
            raise FrontError(f"cusp at height {p} cannot exit through ball {handle}")
        slots = list(d.slots)
        slots[handle - 1] += 2
        return _slide(d, from_end, slots)
    raise FrontError("move 4 variant must be 'in' or 'out'")


def _move5(d: FrontDiagram, at: int):
    e_count = len(d.events)
    if e_count == 0:
        raise FrontError("move 5 needs at least one column")
    if at == e_count and d.events[-1].kind == "X":
        _ball_of_pair(d, d.events[-1].pos)
        return _slide(d, True, d.slots)
    if at == 1 and d.events[0].kind == "X":
        _ball_of_pair(d, d.events[0].pos)
        return _slide(d, False, d.slots)
    raise FrontError("move 5 slides the first or last column, which must be a crossing")


def _move6(d: FrontDiagram, variant: str, handle: int | None):
    """Swing an edge strand around its attaching ball.

    The detour block (travel across the ball, a small loop, travel back)
    is inserted at the left edge; it crosses every other strand of the
    ball twice and costs one zig-zag, so with e the swung strand's
    direction and run(K) the algebraic passage count through the ball,
    tb changes by -2 e run(K) and lk(K, K') by -e run(K').
    """
    if handle is None:
        raise FrontError("move 6 needs an explicit handle")
    if variant not in ("top", "bottom"):
        raise FrontError("move 6 variant must be 'top' or 'bottom'")
    o = _handle_offset(d, handle)
    s = d.slots[handle - 1]
    if s < 1:
        raise FrontError(f"ball {handle} has no strand to swing")
    across = [Event("X", o + k) for k in range(1, s)]
    if variant == "top":
        # slot o+1 dives below the ball, loops, climbs back
        loop = (Event("L", o + s + 1), Event("X", o + s), Event("R", o + s + 1))
        detour = tuple(across) + loop + tuple(reversed(across))
    else:
        # slot o+s climbs above the ball, loops, dives back
        loop = (Event("L", o + 2), Event("X", o + 1), Event("R", o + 2))
        detour = tuple(reversed(across)) + loop + tuple(across)
    return d.slots, detour + d.events, 0, 0, len(detour)


def apply_move(
    d: FrontDiagram,
    move: int,
    at: int | None = None,
    variant: str | None = None,
    handle: int | None = None,
) -> FrontDiagram:
    """Apply one of the six local moves, preserving component data.

    Moves 1-3 are interior isotopies (at = leftmost column of the
    pattern; move 2 needs a birth/death variant).  Moves 4 and 5 slide a
    cusp or crossing through a handle via the box edges.  Move 6 swings
    the top or bottom strand of a ball around it; 'at' is ignored.

    Move 1 swaps columns a = at and b = at + 1 by their footprints on
    the boundary between them, in doubled heights: the strand pair at p
    spans [2p, 2p + 2] and the gap above strand p is the point 2p - 1.
    a leaves behind a gap (R) or a pair (L, X); b takes in a gap (L) or
    a pair (R, X).  With D the change in strand count (L +2, R -2,
    X 0), b strictly above a gives (b, a at pos + D(b)), and b strictly
    below a gives (b at pos - D(a), a).  Otherwise X p X p stays as it
    is, R p L p is ambiguous, and every other pair interacts.
    """
    if move == 1:
        if at is None:
            raise FrontError("move 1 needs a column")
        rewrite = _move1(d, at)
    elif move == 2:
        if at is None or variant is None:
            raise FrontError("move 2 needs a column and a variant")
        rewrite = _move2(d, at, variant)
    elif move == 3:
        if at is None:
            raise FrontError("move 3 needs a column")
        rewrite = _move3(d, at)
    elif move == 4:
        if at is None or variant is None:
            raise FrontError("move 4 needs a column and a variant ('in' or 'out')")
        rewrite = _move4(d, at, variant, handle)
    elif move == 5:
        if at is None:
            raise FrontError("move 5 needs a column")
        rewrite = _move5(d, at)
    elif move == 6:
        rewrite = _move6(d, variant if variant else "top", handle)
    else:
        raise FrontError(f"there is no move {move}; the catalogue has moves 1..6")
    return _transfer(d, *rewrite)


# ---------------------------------------------------------------------------
# Stein form and surgery export


@dataclass(frozen=True)
class SteinFormReport:
    ok: bool
    problems: tuple[str, ...]


def resolve_coefficients(d: FrontDiagram) -> dict[int, ExtRational]:
    """Surgery coefficient per component, with STEIN resolved to tb - 1."""
    out = {}
    for s in d.derived.stats:
        c = s.coefficient
        if c is None:
            raise FrontError(f"component {s.component} has no surgery coefficient")
        out[s.component] = rat(s.tb - 1) if c == STEIN else c
    return out


def check_stein_form(d: FrontDiagram) -> SteinFormReport:
    """Verify that every coefficient is the Stein framing tb - 1."""
    problems = []
    for s in d.derived.stats:
        c = s.coefficient
        want = s.tb - 1
        if c is None:
            problems.append(f"component {s.component} has no coefficient")
        elif c == STEIN:
            continue
        elif c.is_infinite or c != rat(want):
            problems.append(
                f"component {s.component} has coefficient {c}, standard form needs tb - 1 = {want}"
            )
    for rep in parity_lint(d):
        if not rep.ok:
            problems.append(
                f"component {rep.component} violates the passage parity "
                f"tb + rot + 1 = passes mod 2"
            )
    return SteinFormReport(ok=not problems, problems=tuple(problems))


def surger_handles(d: FrontDiagram) -> SurgeryPresentation:
    """Trade every 1-handle for a 0-framed unknot.

    The result presents the same boundary 3-manifold: link components
    keep their coefficients (STEIN resolving to tb - 1) and each handle
    contributes an unknot in the distinguished 0-framed sublink, linking
    a component once per algebraic run through the handle.  A result
    past presentation.MAX_COMPONENTS, which parse_surgery would refuse
    to read back, is refused before its linking matrix is built.
    """
    from .presentation import MAX_COMPONENTS, SurgeryPresentation

    stats = d.derived.stats
    coeffs = resolve_coefficients(d)
    n = len(stats)
    nh = d.n_handles
    m = n + nh
    if m > MAX_COMPONENTS:
        raise FrontError(
            f"the surgered presentation would have {m} components; the limit is {MAX_COMPONENTS}"
        )
    lk = [[0] * m for _ in range(m)]
    for (i, j), total in d.derived.cross.items():
        lk[i - 1][j - 1] = lk[j - 1][i - 1] = total // 2
    for idx, s in enumerate(stats):
        for h in range(nh):
            lk[idx][n + h] = lk[n + h][idx] = s.runs[h]
    return SurgeryPresentation(
        coeffs=[coeffs[s.component] for s in stats] + [rat(0)] * nh,
        lk=lk,
        unknot=[False] * n + [True] * nh,
        l0=[False] * n + [True] * nh,
        rot=[s.rot for s in stats] + [0] * nh,
        tb=[s.tb for s in stats] + [None] * nh,
    )


# ---------------------------------------------------------------------------
# the FRONT file format


def parse_front(text: str) -> FrontDiagram:
    """Parse the FRONT interchange format.

    Headers: 'front 1' then 'handles <n>' with one 'handle <h> slots <k>'
    line per handle.  Body: one optional 'events ...' line, 'orient <id>
    +|-' and 'coeff <id> <rational>|stein' lines, at most one of each per
    component.  Unknown keys are errors.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    if not lines or lines[0][1] != "front 1":
        raise FrontError("missing 'front 1' header")
    if len(lines) < 2 or not lines[1][1].startswith("handles "):
        raise FrontError("missing 'handles <n>' line")
    try:
        _, count = lines[1][1].split()
        n_handles = parse_int(count)
    except ValueError as exc:
        raise FrontError(f"line {lines[1][0]}: bad handle count") from exc
    if n_handles < 0:
        raise FrontError("negative handle count")
    if n_handles > len(lines) - 2:  # each handle needs its own handle line
        raise FrontError(f"handles {n_handles} exceeds the body lines, so one has no slot count")

    slots: dict[int, int] = {}
    events: tuple[Event, ...] | None = None
    # per key, component id -> (line number, value)
    values: dict[str, dict[int, tuple[int, object]]] = {"orient": {}, "coeff": {}}
    for lineno, body in lines[2:]:
        fields = body.split()
        key = fields[0]
        if key == "handle" and len(fields) == 4 and fields[2] == "slots":
            try:
                h, k = parse_int(fields[1]), parse_int(fields[3])
            except ValueError as exc:
                raise FrontError(f"line {lineno}: bad handle line") from exc
            if not 1 <= h <= n_handles:
                raise FrontError(f"line {lineno}: handle {h} out of range 1..{n_handles}")
            if h in slots:
                raise FrontError(f"line {lineno}: duplicate handle {h}")
            if k < 0:
                raise FrontError(f"line {lineno}: negative slot count")
            slots[h] = k
        elif key == "events":
            if events is not None:
                raise FrontError(f"line {lineno}: duplicate events line")
            try:
                events = parse_event_word(" ".join(fields[1:]))
            except FrontError as exc:
                raise FrontError(f"line {lineno}: {exc}") from exc
        elif key in values and len(fields) == 3:
            try:
                cid = parse_int(fields[1])
            except ValueError as exc:
                raise FrontError(f"line {lineno}: bad component index") from exc
            if cid in values[key]:
                raise FrontError(f"line {lineno}: duplicate {key} for component {cid}")
            if key == "orient":
                if fields[2] not in ("+", "-"):
                    raise FrontError(f"line {lineno}: orientation must be + or -")
                val = 1 if fields[2] == "+" else -1
            elif fields[2] == STEIN:
                val = STEIN
            else:
                try:
                    val = parse_rational(fields[2])
                except ValueError as exc:
                    raise FrontError(f"line {lineno}: {exc}") from exc
            values[key][cid] = lineno, val
        else:
            raise FrontError(f"line {lineno}: unknown or malformed key {key!r}")

    missing = [h for h in range(1, n_handles + 1) if h not in slots]
    if missing:
        raise FrontError(f"handles {missing} have no slot count")
    slot_tuple = tuple(slots[h] for h in range(1, n_handles + 1))
    d = FrontDiagram(slot_tuple, events if events is not None else ())
    n = n_components(d)
    for per in values.values():
        for cid, (lineno, _) in per.items():
            if not 1 <= cid <= n:
                raise FrontError(f"line {lineno}: component {cid} out of range 1..{n}")
    orientations, coefficients = ({cid: v for cid, (_, v) in per.items()} for per in values.values())
    return _attach(d, orientations, coefficients)


def serialize_front(d: FrontDiagram) -> str:
    """Canonical text form; orientations are written out for every component."""
    out = ["front 1", f"handles {d.n_handles}"]
    for h, s in enumerate(d.slots, start=1):
        out.append(f"handle {h} slots {s}")
    # one string per distinct token, joined in one call
    keys = [(e.kind, e.pos) for e in d.events]
    tokens = {key: f"{key[0]}{key[1]}" for key in set(keys)}
    out.append(" ".join(["events", *map(tokens.__getitem__, keys)]))
    n = n_components(d)
    for cid in range(1, n + 1):
        out.append(f"orient {cid} {'+' if d.orientation(cid) == 1 else '-'}")
    for cid in sorted(d.coefficients):
        c = d.coefficients[cid]
        out.append(f"coeff {cid} {c}")
    return "\n".join(out) + "\n"
