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
Thurston-Bennequin and rotation numbers, handle run counts, the Stein
form check, conversion to a surgery presentation and the FRONT format.
The local moves 1-6 and stabilisation are in steinkit.front, which
re-exports all of this module's public names.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import accumulate

from .rational import (
    ExtRational, Frozen, InternalError, _read_records, _set, int_entries, parse_int, parse_rational, rat,
)

STEIN = "stein"  # symbolic coefficient: resolve to tb - 1 at surgery time
MAX_NODES = 1_000_000  # strands summed over all column boundaries of one word


class FrontError(ValueError):
    pass


class Event(Frozen):
    """One column of a front word.

    token is the event's canonical text, kind then pos ("X1"), made once
    on construction; str() returns it and serialize_front joins it.  It is
    a plain attribute, not a field, so equality, hash and repr see only
    kind and pos.  pos is read by int_entries.
    """

    def __init__(self, kind: str, pos: int):
        # kind is "L", "R" or "X"; pos is the height of the upper strand
        # involved, 1 = topmost
        _set(self, "kind", kind)
        _set(self, "pos", pos)
        self.__post_init__()

    def __post_init__(self):
        if self.kind not in ("L", "R", "X"):
            raise FrontError(f"unknown event kind {self.kind!r}")
        if type(self.pos) is not int:
            (pos,) = int_entries(
                (self.pos,), lambda i, v: FrontError(f"event position {v!r} must be an integer"))
            _set(self, "pos", pos)
        if self.pos < 1:
            raise FrontError(f"event position {self.pos} must be at least 1")
        _set(self, "token", f"{self.kind}{self.pos}")

    def __str__(self) -> str:
        return self.token


_EVENT_RE = re.compile(r"^([LRX])([0-9]+)$")


def parse_event_word(text: str) -> tuple[Event, ...]:
    """Parse a whitespace separated event word like 'L1 L3 X2 R2 R1'.

    Each distinct token is read once, in order of first appearance, and
    every occurrence shares its (frozen) Event.
    """
    return _events_of(text.split())


def _events_of(tokens: list[str]) -> tuple[Event, ...]:
    """The events of a word already split into tokens; see parse_event_word."""
    events = dict.fromkeys(tokens)
    for token in events:
        m = _EVENT_RE.match(token)
        if not m:
            raise FrontError(f"bad event token {token!r}")
        try:
            pos = int(m.group(2))
        except ValueError as exc:  # more digits than int() reads (sys.get_int_max_str_digits())
            raise FrontError(f"bad event token {token!r}") from exc
        events[token] = Event(m.group(1), pos)
    return tuple(map(events.__getitem__, tokens))


class FrontDiagram(Frozen):
    """A front in a box with 1-handle attaching balls on the side edges.

    slots[h] is the number of strands running through handle h+1; edge
    heights are grouped into balls top to bottom.  orientations maps a
    component id to +1 or -1 (+1 keeps the traced direction, which runs
    rightward at the component's first segment).  coefficients maps a
    component id to a surgery coefficient or the marker STEIN; the
    diagram keeps its own copy of each (empty when not given).

    Diagrams are immutable and hashable.  Construction validates the
    word and traces its components exactly once; the trace is kept on
    the instance (out of equality and repr), and every reader uses it
    instead of tracing again.  A move or stabilisation never traces: it
    splices the rewritten diagram's trace from its parent's (see
    front._transfer).  Equality and hash read an omitted orientation as
    +1.  Slot counts, component ids and orientations are plain ints: a
    bool is stored as the int it equals, and any other type is refused.
    The tally of the columns (derived) and the ComponentStats records made
    from it (_stats) are cached properties, each made at most once, on
    first read, never on construction; but a move or stabilisation of a
    diagram whose tally has been read carries the tally across, updated
    by the rewrite's window.
    """

    def __init__(self, slots: tuple[int, ...], events: tuple[Event, ...],
                 orientations: dict[int, int] | None = None,
                 coefficients: dict[int, object] | None = None):
        d = self.__dict__
        d["slots"], d["events"] = slots, events
        d["orientations"] = {} if orientations is None else orientations
        d["coefficients"] = {} if coefficients is None else coefficients
        self.__post_init__()

    def __post_init__(self):
        d = self.__dict__
        d["slots"] = _slot_counts(self.slots)
        d["events"] = tuple(self.events)
        d["trace"] = _trace(self.n_strands, self.events)
        _attach(self, self.orientations, self.coefficients)

    @property
    def n_handles(self) -> int:
        return len(self.slots)

    @property
    def n_strands(self) -> int:
        return sum(self.slots)

    def orientation(self, component: int) -> int:
        return self.orientations.get(component, 1)

    def _key(self) -> tuple:
        # an omitted orientation is +1, so only the reversed components count
        reversed_ids = frozenset(cid for cid, o in self.orientations.items() if o == -1)
        return self.slots, self.events, reversed_ids, frozenset(self.coefficients.items())

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def derived(self) -> _Derived:
        """The tally of the columns, computed on first read and kept."""
        return _front_data(self)

    @cached_property
    def _stats(self) -> tuple[ComponentStats, ...]:
        """One ComponentStats per component, made from the tally on first read."""
        (writhe, left, right, up), runs = self.derived.counts, self.derived.runs
        none = ((0,) * self.n_handles,) * 2
        # every cusp turns up or down and _Derived checked left = right, so
        # rot = (down - up) / 2 = left - up: no parity is left to check
        return tuple([ComponentStats(
            c, self.orientations.get(c, 1), left[c], right[c], up[c], left[c] + right[c] - up[c],
            writhe[c], writhe[c] - left[c], left[c] - up[c], *runs.get(c, none), self.coefficients.get(c),
        ) for c in range(1, len(writhe))])


def _slot_counts(slots) -> tuple[int, ...]:
    slots = tuple(slots)
    for h, s in enumerate(slots, start=1):
        if not isinstance(s, int) or s < 0:
            raise FrontError(f"handle {h} has invalid slot count {s!r}")
    # a bool is stored as the plain int it equals, which serialize_front writes
    return tuple(map(int, slots))


def _plain(v):
    """v as the plain int it equals where it is an int (a bool too), else v."""
    return int(v) if isinstance(v, int) else v


def _attach(d: FrontDiagram, orientations, coefficients) -> FrontDiagram:
    """Check component data against d's trace and store copies of it on d.

    Only for a diagram that was just constructed and has not been handed
    out, so that building it with its data costs one trace.  A tally or
    records read before this call are dropped, as they used the old data.
    """
    # ids and orientations by the int rule: a bool is read as the int it equals
    orientations = {_plain(cid): _plain(o) for cid, o in dict(orientations).items()}
    coefficients = {_plain(cid): c for cid, c in dict(coefficients).items()}
    ids = d.trace.ids
    for cid, o in orientations.items():
        if type(cid) is not int or cid not in ids:
            raise FrontError(f"orientation given for unknown component {cid!r}")
        if type(o) is not int or o not in (1, -1):
            raise FrontError(f"orientation of component {cid} must be +1 or -1, got {o!r}")
    for cid, c in coefficients.items():
        if type(cid) is not int or cid not in ids:
            raise FrontError(f"coefficient given for unknown component {cid!r}")
        if c != STEIN and not isinstance(c, ExtRational):
            raise FrontError(f"coefficient of component {cid} must be a rational or 'stein'")
    d.__dict__.update(orientations=orientations, coefficients=coefficients)
    d.__dict__.pop("derived", None)
    d.__dict__.pop("_stats", None)
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
    id; components are numbered 1, 2, ... by their smallest node, whose
    index is first[id] (first[0] is -1), and traced rightward from it.
    comp is a bytearray while every id fits a byte (a rewrite copies it
    at C speed), else a list.  fwd[i] is 1 where the traced direction
    runs rightward through the node, else 0.  counts[t] is the strand
    count at boundary t and offset its partial sums, [0, *accumulate(counts)];
    a rewrite that changes a strand count sums them once, any other
    rewrite shares its parent's.
    """

    __slots__ = ("counts", "offset", "comp", "fwd", "n_components", "first")

    def __init__(self, counts, offset, comp, fwd, n_components, first):
        self.counts = counts
        self.offset = offset
        self.comp = comp
        self.fwd = fwd
        self.n_components = n_components
        self.first = first

    @property
    def ids(self) -> range:
        return range(1, self.n_components + 1)


def _check_node_count(n_nodes: int) -> None:
    if n_nodes > MAX_NODES:
        raise FrontError(
            f"the front has {n_nodes} nodes (strands summed over its column boundaries); "
            f"the limit is {MAX_NODES}"
        )


_DELTA = {"L": 2, "R": -2, "X": 0}  # change in strand count across a column


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
    born = [*range(c)]  # each label's first node: (0, l + 1), or a cusp's upper branch
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
            born.append(nodes + p - 1)  # nodes is the new boundary's offset here
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
        comp = bytearray(keys.translate(bytes(comp_of).ljust(256, b"\0")))
    else:
        fwd = bytes(map(fwd_of.__getitem__, flat))
        comp = [*map(comp_of.__getitem__, flat)]
    first = [-1, *(born[label] for label, q in enumerate(up) if q == label)]
    return _Trace(counts, [0, *accumulate(counts)], comp, fwd, n, first)


# ---------------------------------------------------------------------------
# invariants


class ComponentStats(Frozen):
    """runs and passes count a component's algebraic and unsigned passages
    per handle."""

    def __init__(self, component: int, orientation: int, left_cusps: int, right_cusps: int,
                 up_cusps: int, down_cusps: int, writhe: int, tb: int, rot: int,
                 runs: tuple[int, ...], passes: tuple[int, ...], coefficient: object | None):
        self.__dict__.update(
            component=component, orientation=orientation, left_cusps=left_cusps,
            right_cusps=right_cusps, up_cusps=up_cusps, down_cusps=down_cusps, writhe=writhe,
            tb=tb, rot=rot, runs=runs, passes=passes, coefficient=coefficient,
        )


class _Derived:
    """The tally of a diagram's columns along its orientations: counts,
    four lists by id (0 unused) of writhe and left, right and up cusps;
    runs, each left-edge component's passages through each handle; and
    cross, each pair (i, j) with i < j whose crossing signs sum to
    nonzero, with that sum."""

    __slots__ = ("counts", "runs", "cross")

    def __init__(self, counts, runs, cross):
        if counts[1] != counts[2]:  # left and right cusps
            cid = next(c for c, (a, b) in enumerate(zip(counts[1], counts[2])) if a != b)
            raise InternalError(f"internal: component {cid} has unbalanced cusps")
        self.counts, self.runs, self.cross = counts, runs, cross


def _front_data(d: FrontDiagram) -> _Derived:
    """Cusps, writhe, tb, rot, handle runs and the crossing table of every
    component, in one pass over the events and one over the left edge.

    The pass counts crossings along the traced directions and applies
    the orientations to the crossing table afterwards.  Reversing a
    component reverses every strand of it: a crossing of two components
    changes sign when exactly one of them is reversed, and a crossing of
    a component with itself keeps its sign.
    """
    tr = d.trace
    n = tr.n_components + 1  # per-component lists are indexed by id
    flip = [d.orientations.get(cid) == -1 for cid in range(n)]  # reversed against the trace
    *counts, cross = [0] * n, [0] * n, [0] * n, [0] * n, {}
    _tally(enumerate(d.events), tr.offset, tr.comp, tr.fwd, flip, 1, (*counts, cross))
    return _Derived(counts, _runs(d.slots, tr.comp, tr.fwd, flip), _oriented({}, cross, flip))


def _tally(columns, offset, comp, fwd, flip, s: int, counts) -> None:
    """Add s times what the columns, pairs (t, event), count to counts
    (_Derived's, with cross along the traced directions)."""
    writhe, left, right, up, cross = counts
    for t, e in columns:  # the column between boundaries t and t + 1
        kind = e.kind
        if kind == "X":
            i = offset[t] + e.pos - 1
            ca, cb = comp[i], comp[i + 1]
            # crossings between anti-parallel strands are the positive ones
            sign = s if fwd[i] != fwd[i + 1] else -s
            if ca == cb:
                writhe[ca] += sign
            else:
                key = (ca, cb) if ca < cb else (cb, ca)
                cross[key] = cross.get(key, 0) + sign
        elif kind == "L":
            i = offset[t + 1] + e.pos - 1  # upper branch
            c = comp[i]
            left[c] += s
            if fwd[i] ^ flip[c]:  # traversal turns upward through a left cusp
                up[c] += s
        else:
            i = offset[t] + e.pos - 1  # upper branch
            c = comp[i]
            right[c] += s
            if fwd[i] == flip[c]:
                up[c] += s


def _oriented(table: dict, cross: dict, flip) -> dict:
    """table plus the traced-direction crossing sums cross, oriented by
    flip; a pair whose sum becomes zero leaves the table."""
    for (i, j), v in cross.items():
        if v := table.pop((i, j), 0) + (-v if flip[i] != flip[j] else v):
            table[i, j] = v
    return table


def _runs(slots, comp, fwd, flip) -> dict:
    """Algebraic and unsigned passages through each handle, by id of the
    components on the left edge (boundary 0, whose nodes come first)."""
    runs, nh = {}, len(slots)
    for i, h in enumerate(h for h, s in enumerate(slots) for _ in range(s)):
        run, passes = runs.setdefault(comp[i], ([0] * nh, [0] * nh))
        run[h] += 1 if fwd[i] ^ flip[comp[i]] else -1
        passes[h] += 1
    return {c: (tuple(run), tuple(passes)) for c, (run, passes) in runs.items()}


def component_stats(d: FrontDiagram) -> list[ComponentStats]:
    return list(d._stats)


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


class ParityReport(Frozen):
    def __init__(self, component: int, tb: int, rot: int, total_passes: int, ok: bool):
        d = self.__dict__
        d["component"], d["tb"], d["rot"], d["total_passes"], d["ok"] = (
            component, tb, rot, total_passes, ok)


def parity_lint(d: FrontDiagram) -> list[ParityReport]:
    """Check tb + rot + 1 = total unsigned handle passes mod 2, per component.

    Every front drawn in the box satisfies this, a lemma of the standard
    form that tests/test_front.py::test_parity_always_holds checks on
    random fronts with handles, after a move 6 and a stabilization; a
    violation means the diagram data was assembled inconsistently.
    """
    out = []
    for s in d._stats:
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
# Stein form and surgery export


class SteinFormReport(Frozen):
    def __init__(self, ok: bool, problems: tuple[str, ...]):
        d = self.__dict__
        d["ok"], d["problems"] = ok, problems


def resolve_coefficients(d: FrontDiagram) -> dict[int, ExtRational]:
    """Surgery coefficient per component, with STEIN resolved to tb - 1."""
    out = {}
    for s in d._stats:
        c = s.coefficient
        if c is None:
            raise FrontError(f"component {s.component} has no surgery coefficient")
        out[s.component] = rat(s.tb - 1) if c == STEIN else c
    return out


def check_stein_form(d: FrontDiagram) -> SteinFormReport:
    """Verify that every coefficient is the Stein framing tb - 1.  Only the
    coefficients are read: every front has the passage parity (parity_lint)."""
    problems = []
    for s in d._stats:
        c = s.coefficient
        if c is None:
            problems.append(f"component {s.component} has no coefficient")
        elif c != STEIN and c != s.tb - 1:
            problems.append(
                f"component {s.component} has coefficient {c}, standard form needs tb - 1 = {s.tb - 1}"
            )
    return SteinFormReport(ok=not problems, problems=tuple(problems))


def surger_handles(d: FrontDiagram) -> SurgeryPresentation:
    """Trade every 1-handle for a 0-framed unknot.

    The result presents the same boundary 3-manifold: link components
    keep their coefficients (STEIN resolving to tb - 1) and each handle
    contributes an unknot in the distinguished 0-framed sublink, linking
    a component once per algebraic run through the handle.  A result
    past surgery.MAX_COMPONENTS, which parse_surgery would refuse
    to read back, is refused before its linking matrix is built.  The
    result is built by Frozen._unchecked: _attach validated the
    coefficients, and the trace gives a symmetric int matrix.
    """
    from .surgery import MAX_COMPONENTS, SurgeryPresentation

    stats = d._stats
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
    flags = (False,) * n + (True,) * nh
    return SurgeryPresentation._unchecked(
        (*(coeffs[s.component] for s in stats), *(rat(0),) * nh), tuple(map(tuple, lk)), flags, flags,
        (*(s.rot for s in stats), *(0,) * nh), (*(s.tb for s in stats), *(None,) * nh),
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
    n_handles, records = _read_records(text, "front 1", "handles <n>", FrontError, "bad handle count",
                                       "negative handle count", "slot count")
    slots: dict[int, int] = {}
    events: tuple[Event, ...] | None = None
    # per key, component id -> (line number, value)
    values: dict[str, dict[int, tuple[int, object]]] = {"orient": {}, "coeff": {}}
    for lineno, fields in records:
        key = fields[0]
        try:
            if key == "handle" and len(fields) == 4 and fields[2] == "slots":
                try:
                    h, k = parse_int(fields[1]), parse_int(fields[3])
                except ValueError as exc:
                    raise FrontError("bad handle line") from exc
                if not 1 <= h <= n_handles:
                    raise FrontError(f"handle {h} out of range 1..{n_handles}")
                if h in slots:
                    raise FrontError(f"duplicate handle {h}")
                if k < 0:
                    raise FrontError("negative slot count")
                slots[h] = k
            elif key == "events":
                if events is not None:
                    raise FrontError("duplicate events line")
                events = _events_of(fields[1:])
            elif key in values and len(fields) == 3:
                try:
                    cid = parse_int(fields[1])
                except ValueError as exc:
                    raise FrontError("bad component index") from exc
                if cid in values[key]:
                    raise FrontError(f"duplicate {key} for component {cid}")
                if key == "orient":
                    if fields[2] not in ("+", "-"):
                        raise FrontError("orientation must be + or -")
                    val = 1 if fields[2] == "+" else -1
                else:
                    val = STEIN if fields[2] == STEIN else parse_rational(fields[2])
                values[key][cid] = lineno, val
            else:
                raise FrontError(f"unknown or malformed key {key!r}")
        except ValueError as exc:
            raise FrontError(f"line {lineno}: {exc}") from exc

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
    out += [f"handle {h} slots {s}" for h, s in enumerate(d.slots, start=1)]
    out.append(" ".join(["events", *[e.token for e in d.events]]))
    out += [f"orient {cid} {'+' if d.orientation(cid) == 1 else '-'}" for cid in d.trace.ids]
    out += [f"coeff {cid} {d.coefficients[cid]}" for cid in sorted(d.coefficients)]
    return "\n".join(out) + "\n"
