import pickle
import random
from collections import Counter, defaultdict
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit.front import (
    STEIN,
    ComponentStats,
    Event,
    FrontDiagram,
    FrontError,
    apply_move,
    check_stein_form,
    component_stats,
    linking_number,
    n_components,
    parity_lint,
    parse_event_word,
    parse_front,
    resolve_coefficients,
    serialize_front,
    stabilize,
    surger_handles,
)
from steinkit import diagram as diagram_module
from steinkit import front as front_module
from steinkit import surgery
from steinkit.invariants import (
    InvariantError,
    SteinPresentation,
    characteristic_sublinks,
    theta,
)
from steinkit.numerics import ExtRational, InternalError, rat
from steinkit.presentation import h1, parse_surgery, serialize_surgery

from random_fronts import move_candidates, random_front


def front(slots, word, orientations=None, coefficients=None):
    return FrontDiagram(
        tuple(slots), parse_event_word(word), orientations or {}, coefficients or {}
    )


def single(d) -> ComponentStats:
    stats = component_stats(d)
    assert len(stats) == 1
    return stats[0]


TREFOIL = "L1 L3 X2 X2 X2 R2 R1"


# ---------------------------------------------------------------------------
# invariant fixtures; these pin the sign conventions


def test_unknot():
    s = single(front((), "L1 R1"))
    assert (s.tb, s.rot, s.writhe, s.left_cusps) == (-1, 0, 0, 1)


def test_right_trefoil():
    s = single(front((), TREFOIL))
    # anti-parallel strands cross positively: the three crossings all
    # count +1, giving tb = 3 - 2 = 1 (the maximal value), not -5
    assert s.writhe == 3
    assert s.left_cusps == s.right_cusps == 2
    assert (s.tb, s.rot) == (1, 0)


def test_trefoil_orientation_reversal():
    s = single(front((), TREFOIL, {1: -1}))
    assert (s.tb, s.rot, s.writhe) == (1, 0, 3)


def test_kinked_unknot():
    s = single(front((), "L1 L3 X2 R2 R1"))
    assert (s.writhe, s.left_cusps) == (1, 2)
    assert (s.tb, s.rot) == (-1, 0)


def test_figure_like_rot_shift():
    # an unknot with one up-up zig-zag has rot -1 or +1 depending on side
    up = stabilize(front((), "L1 R1"), 1, "up")
    down = stabilize(front((), "L1 R1"), 1, "down")
    assert (single(up).tb, single(up).rot) == (-2, -1)
    assert (single(down).tb, single(down).rot) == (-2, 1)


def test_handle_core_strand():
    s = single(FrontDiagram((1,), ()))
    assert (s.tb, s.rot) == (0, 0)
    assert s.runs == (1,) and s.passes == (1,)


def test_handle_core_reversed():
    s = single(FrontDiagram((1,), (), {1: -1}))
    assert s.runs == (-1,)
    assert (s.tb, s.rot) == (0, 0)


def test_shift_braid_through_handle():
    # 2p parallel strands through one handle, closed by the cyclic shift
    for p in (1, 2, 3):
        n = 2 * p
        word = " ".join(f"X{i}" for i in range(1, n))
        s = single(front((n,), word))
        assert s.writhe == -(n - 1)
        assert (s.tb, s.rot) == (-(n - 1), 0)
        assert s.runs == (n,) and s.passes == (n,)


def test_two_strand_link_through_handle():
    d = front((2,), "X1 X1")
    assert n_components(d) == 2
    assert linking_number(d, 1, 2) == -1  # parallel strands, negative crossings
    flipped = front((2,), "X1 X1", {2: -1})
    assert linking_number(flipped, 1, 2) == 1


def test_linking_number_errors():
    d = front((2,), "X1 X1")
    with pytest.raises(FrontError):
        linking_number(d, 1, 1)
    with pytest.raises(FrontError):
        linking_number(d, 1, 3)


# ---------------------------------------------------------------------------
# validation


def test_validate_rejects_bad_positions():
    with pytest.raises(FrontError, match="column 1"):
        front((), "R1")
    with pytest.raises(FrontError, match="column 2"):
        front((), "L1 X2")
    with pytest.raises(FrontError, match="ends with"):
        FrontDiagram((1,), parse_event_word("L1"))


def test_validate_rejects_bad_component_data():
    with pytest.raises(FrontError, match="unknown component"):
        front((), "L1 R1", {2: 1})
    with pytest.raises(FrontError, match="orientation"):
        front((), "L1 R1", {1: 5})
    with pytest.raises(FrontError, match="coefficient"):
        FrontDiagram((), parse_event_word("L1 R1"), {}, {1: 3})


def test_bool_positions_and_slot_counts_are_stored_as_ints():
    e = Event("X", True)
    assert type(e.pos) is int and e == Event("X", 1) and str(e) == "X1"
    d = FrontDiagram((True, 2), (Event("X", True),), {}, {1: ExtRational(True)})
    assert d.slots == (1, 2) and {type(s) for s in d.slots} == {int}
    text = serialize_front(d)
    assert "handle 1 slots 1\n" in text and "events X1\n" in text and "coeff 1 1\n" in text
    assert serialize_front(parse_front(text)) == text


@pytest.mark.parametrize("pos", ["2", 2.0, None])
def test_event_refuses_a_non_int_position(pos):
    with pytest.raises(FrontError, match=rf"^event position {pos!r} must be an integer$"):
        Event("L", pos)


@pytest.mark.parametrize("count", ["1", 1.0, None, -1])
def test_front_refuses_a_non_int_slot_count(count):
    with pytest.raises(FrontError, match=rf"^handle 2 has invalid slot count {count!r}$"):
        FrontDiagram((1, count), ())


def test_parse_event_word_rejects_garbage():
    with pytest.raises(FrontError):
        parse_event_word("L1 Q2")
    with pytest.raises(FrontError):
        parse_event_word("LX")


def test_event_word_errors_name_the_first_bad_token():
    with pytest.raises(FrontError, match=r"^bad event token 'Y2'$"):
        parse_event_word("L1 Y2 Q3")
    with pytest.raises(FrontError, match=r"^bad event token 'Y2'$"):
        parse_event_word("L1 L1 Y2 Q3 Y2")
    with pytest.raises(FrontError, match=r"^event position 0 must be at least 1$"):
        parse_event_word("L1 X0 Y2")


def test_event_word_reads_each_token_once():
    word = parse_event_word(TREFOIL)
    assert [str(e) for e in word] == TREFOIL.split()
    assert word[2] is word[3] is word[4]
    assert word[0] is not word[1]
    assert parse_event_word("") == () == parse_event_word("  \t ")


def test_front_node_limit(monkeypatch):
    # nodes are strands summed over the column boundaries
    monkeypatch.setattr(diagram_module, "MAX_NODES", 5)
    assert front((1,), "L1 R1").trace.counts == [1, 3, 1]
    with pytest.raises(FrontError, match=r"^the front has 6 nodes \(.*\); the limit is 5$"):
        front((2,), "X1 X1")
    with pytest.raises(FrontError, match=r"^the front has 9 nodes"):
        stabilize(front((1,), "L1 R1"), 1, "up")
    with pytest.raises(FrontError, match=r"^the front has 6 nodes"):
        parse_front("front 1\nhandles 1\nhandle 1 slots 6\n")


# ---------------------------------------------------------------------------
# tracing: the strand walk against a graph search, and one trace per
# diagram


def reference_trace(d):
    """Component id and direction of every node, by depth-first search of
    the node graph built edge by edge: the reference for front._trace."""
    counts = [d.n_strands]
    for e in d.events:
        counts.append(counts[-1] + {"L": 2, "R": -2, "X": 0}[e.kind])
    edges = []
    for j, e in enumerate(d.events, start=1):
        cin = counts[j - 1]
        p = e.pos
        if e.kind == "L":
            for h in range(1, cin + 1):
                edges.append(((j - 1, h), (j, h if h < p else h + 2), False))
            edges.append(((j, p), (j, p + 1), True))
        elif e.kind == "R":
            edges.append(((j - 1, p), (j - 1, p + 1), True))
            for h in range(1, cin + 1):
                if h not in (p, p + 1):
                    edges.append(((j - 1, h), (j, h if h < p else h - 2), False))
        else:
            edges.append(((j - 1, p), (j, p + 1), False))
            edges.append(((j - 1, p + 1), (j, p), False))
            for h in range(1, cin + 1):
                if h not in (p, p + 1):
                    edges.append(((j - 1, h), (j, h), False))
    for k in range(1, d.n_strands + 1):
        edges.append(((len(d.events), k), (0, k), False))

    adj = {}
    for a, b, flip in edges:
        adj.setdefault(a, []).append((b, flip))
        adj.setdefault(b, []).append((a, flip))
    assert all(len(nbrs) == 2 for nbrs in adj.values())
    comp_of, dirs = {}, {}
    n = 0
    for start in sorted(adj):
        if start in comp_of:
            continue
        n += 1
        comp_of[start], dirs[start] = n, 1
        stack = [start]
        while stack:
            node = stack.pop()
            for other, flip in adj[node]:
                dir_other = -dirs[node] if flip else dirs[node]
                if other in comp_of:
                    assert dirs[other] == dir_other
                    continue
                comp_of[other], dirs[other] = n, dir_other
                stack.append(other)
    return {node: (comp_of[node], dirs[node]) for node in comp_of}, n


def walk_trace(n_strands, events):
    """The trace fields found by walking each strand, node by node with
    front._follow, from its first unmarked node: a second reference for
    the column sweep in front._trace."""
    counts = [*accumulate((DELTA[e.kind] for e in events), initial=n_strands)]
    offset = [0, *accumulate(counts)]
    word = [(e.kind, e.pos) for e in events]
    comp, fwd = [0] * offset[-1], bytearray(offset[-1])
    n = t = 0
    for start in range(offset[-1]):
        if comp[start]:
            continue
        while offset[t + 1] <= start:
            t += 1
        n += 1
        h = start - offset[t] + 1
        comp[start], fwd[start] = n, 1
        # every node lies on one strand, so only the start recurs
        assert front_module._follow(word, offset, comp, fwd, n, t, h, True) == (t, h, True)
    return counts, offset, comp, bytes(fwd), n


def assert_reference_trace(d):
    want, n = reference_trace(d)
    assert d.trace.n_components == n
    assert {node: d.trace.at(*node) for node, _ in d.trace.nodes()} == want
    assert trace_fields(d.trace) == walk_trace(d.n_strands, d.events)


def crossing_heavy_front(rng, length):
    """A word of about `length` events, mostly crossings, over at most
    a dozen strands."""
    slots = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
    n = c = sum(slots)
    events = []
    for _ in range(length):
        kind = "L" if c < 2 else rng.choice("LRXXXXXXXX" if c < 12 else "RXXXXXXXXX")
        events.append(Event(kind, rng.randint(1, c + 1 if kind == "L" else c - 1)))
        c += DELTA[kind]
    while c > n:
        events.append(Event("R", rng.randint(1, c - 1)))
        c -= 2
    while c < n:
        events.append(Event("L", rng.randint(1, c + 1)))
        c += 2
    return FrontDiagram(slots, tuple(events))


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_trace_matches_reference_on_random_fronts(seed):
    rng = random.Random(seed)
    assert_reference_trace(random_front(rng, max_handles=3, max_slot=3, max_extra=16))


@given(st.integers(0, 10_000), st.integers(200, 400))
@settings(max_examples=20, deadline=None)
def test_trace_matches_reference_on_long_words(seed, length):
    d = crossing_heavy_front(random.Random(seed), length)
    assert sum(e.kind == "X" for e in d.events) > len(d.events) // 2
    assert_reference_trace(d)


def strand_front(rng, n_pairs, n_cross):
    """A word shaped like the fronts bench's long words: n_pairs cusp
    pairs opened first and closed last around n_cross crossings at random
    heights, through one handle of 2 slots."""
    events, c = [], 2
    for _ in range(n_pairs):
        events.append(Event("L", rng.randint(1, c + 1)))
        c += 2
    events += [Event("X", rng.randint(1, c - 1)) for _ in range(n_cross)]
    for _ in range(n_pairs):
        events.append(Event("R", rng.randint(1, c - 1)))
        c -= 2
    return FrontDiagram((2,), tuple(events))


def cusp_rich_front(rng, n_unknots):
    """One edge strand and n_unknots unknots, each opened at a random
    height, clasped with its neighbours by two squared crossings, and
    closed innermost first once eight strands are open."""
    events, strands = [], ["edge"]

    def close_one():
        p = next(i for i in range(len(strands) - 1) if strands[i] == strands[i + 1] != "edge")
        events.append(Event("R", p + 1))
        del strands[p : p + 2]

    for k in range(n_unknots):
        p = rng.randint(1, len(strands) + 1)
        events.append(Event("L", p))
        strands[p - 1 : p - 1] = [k, k]
        for _ in range(2):
            events += [Event("X", rng.randint(1, len(strands) - 1))] * 2
        if len(strands) > 7:
            close_one()
    while len(strands) > 1:
        close_one()
    return FrontDiagram((1,), tuple(events))


@pytest.mark.parametrize("seed", [1, 2])
def test_trace_matches_both_references_at_bench_scale(seed):
    d = strand_front(random.Random(seed), 1, 1000)
    assert d.trace.counts == [2] + [4] * 1001 + [2]
    assert_reference_trace(d)


# 128 labels (the edge strand and 127 cusps) are the most whose keys fit
# a byte; past that the trace is read off without byte tables, and past
# 255 unknots the component ids do not fit one either
@pytest.mark.parametrize("n_unknots", [127, 128, 300])
def test_trace_matches_both_references_on_cusp_rich_fronts(n_unknots):
    d = cusp_rich_front(random.Random(n_unknots), n_unknots)
    assert d.trace.n_components == n_unknots + 1
    assert_reference_trace(d)


def trace_fields(tr):
    return tr.counts, tr.offset, list(tr.comp), tr.fwd, tr.n_components


def test_each_diagram_is_traced_once(monkeypatch):
    calls = []
    real = diagram_module._trace
    derived = []
    real_data = diagram_module._front_data

    def counting(*args):
        calls.append(args)
        return real(*args)

    def counting_data(d):
        derived.append(d)
        return real_data(d)

    monkeypatch.setattr(diagram_module, "_trace", counting)
    monkeypatch.setattr(diagram_module, "_front_data", counting_data)

    def traces(fn, *args, **kwargs):
        calls.clear()
        result = fn(*args, **kwargs)
        return len(calls), result

    # building a diagram from a word traces it once and derives nothing;
    # a rewrite traces nothing, as it splices its trace from its parent's
    text = "front 1\nhandles 1\nhandle 1 slots 1\nevents L2 X1 R2\norient 1 -\ncoeff 1 stein\n"
    n, d = traces(parse_front, text)
    assert n == 1
    n, _ = traces(front, (), TREFOIL, {1: -1}, {1: STEIN})
    assert n == 1
    n, moved = traces(apply_move, d, 2, at=1, variant="birth-above")
    assert n == 0 and len(moved.events) == 5
    n, swung = traces(apply_move, d, 6, variant="bottom", handle=1)
    assert n == 0 and swung.coefficients == {1: STEIN}
    n, stabilized = traces(stabilize, d, 1, "down")
    assert n == 0
    for diagram in (moved, swung, stabilized):
        assert trace_fields(diagram.trace) == trace_fields(real(diagram.n_strands, diagram.events))
    n, _ = traces(random_front, random.Random(5))
    assert n == 1
    assert derived == []
    # a reader traces nothing; the first one to need the derived data
    # computes it, and the other readers share it
    text = "front 1\nhandles 1\nhandle 1 slots 2\nevents X1 X1\norient 2 -\ncoeff 1 stein\ncoeff 2 0\n"
    linked = parse_front(text)
    readers = (component_stats, parity_lint, surger_handles, check_stein_form,
               resolve_coefficients, n_components, serialize_front)
    for diagram in (d, linked):
        for reader in readers:
            n, _ = traces(reader, diagram)
            assert n == 0, reader.__name__
    n, lk = traces(linking_number, linked, 1, 2)
    assert n == 0 and lk == 1
    assert len(derived) == 2 and derived[0] is d and derived[1] is linked
    # nobody read the diagrams that the moves built, so none derived
    for diagram in (moved, swung):
        n, _ = traces(serialize_front, diagram)
        assert n == 0
    assert len(derived) == 2


def test_a_word_is_traced_without_walks_and_a_rewrite_walks_its_window(monkeypatch):
    walks = []  # (boundary walked from, boundary walked to)
    real = front_module._follow

    def counting(word, offset, comp, fwd, cid, t, h, right):
        end = real(word, offset, comp, fwd, cid, t, h, right)
        walks.append((t, end[0]))
        return end

    monkeypatch.setattr(front_module, "_follow", counting)
    d = strand_front(random.Random(4), 1, 1000)
    d = parse_front(serialize_front(d))
    assert n_components(cusp_rich_front(random.Random(4), 200)) == 201
    assert walks == []
    # rewrites in the middle of the word walk only next to their columns
    at = next(at for at in range(500, 600) if abs(d.events[at - 1].pos - d.events[at].pos) > 1)
    for call, window in (
        (lambda: apply_move(d, 1, at=at), range(at - 1, at + 2)),
        (lambda: stabilize(d, 1, "up", 500), range(500, 504)),
    ):
        walks.clear()
        call()
        # one walk per strand across the window, in the new word and the old
        assert len(walks) == 2 * 4
        assert {t for walk in walks for t in walk} <= set(window)


def test_derived_data_follows_the_attached_orientations():
    # an up-stabilised unknot
    text = "front 1\nhandles 0\nevents L1 L1 R2 R1\norient 1 {}\n"
    plus = single(parse_front(text.format("+")))
    minus = single(parse_front(text.format("-")))
    assert (plus.orientation, plus.rot) == (1, -1)
    assert (minus.orientation, minus.rot, minus.tb) == (-1, 1, plus.tb)
    # derived data read before _attach stores new orientations is dropped
    d = front((), "L1 L1 R2 R1")
    assert single(d).rot == -1
    diagram_module._attach(d, {1: -1}, {})
    assert single(d).rot == 1


# ---------------------------------------------------------------------------
# the one-pass derived data against the per-call code it replaced


def _reference_component_stats(d):
    """Per-component stats and the signed crossing table, counted by
    separate passes of trace lookups: the reference for d.derived."""
    tr = d.trace
    writhe = {cid: 0 for cid in tr.ids}
    cross = {}
    for j, e in enumerate(d.events, start=1):
        if e.kind != "X":
            continue
        ca, da = tr.at(j - 1, e.pos)
        cb, db = tr.at(j - 1, e.pos + 1)
        da *= d.orientation(ca)
        db *= d.orientation(cb)
        # crossings between anti-parallel strands are the positive ones
        sign = 1 if da != db else -1
        if ca == cb:
            writhe[ca] += sign
        else:
            key = (min(ca, cb), max(ca, cb))
            cross[key] = cross.get(key, 0) + sign

    left = {cid: 0 for cid in tr.ids}
    right = {cid: 0 for cid in tr.ids}
    up = {cid: 0 for cid in tr.ids}
    down = {cid: 0 for cid in tr.ids}
    for j, e in enumerate(d.events, start=1):
        if e.kind == "L":
            cid, dr = tr.at(j, e.pos)  # upper branch
            left[cid] += 1
            if dr * d.orientation(cid) == 1:
                up[cid] += 1  # traversal turns upward through a left cusp
            else:
                down[cid] += 1
        elif e.kind == "R":
            cid, dr = tr.at(j - 1, e.pos)  # upper branch
            right[cid] += 1
            if dr * d.orientation(cid) == -1:
                up[cid] += 1
            else:
                down[cid] += 1
    nh = d.n_handles
    runs = {cid: [0] * nh for cid in tr.ids}
    passes = {cid: [0] * nh for cid in tr.ids}
    owner = [h for h, s in enumerate(d.slots) for _ in range(s)]
    for k in range(1, d.n_strands + 1):
        cid, dr = tr.at(0, k)
        runs[cid][owner[k - 1]] += dr * d.orientation(cid)
        passes[cid][owner[k - 1]] += 1

    stats = []
    for cid in tr.ids:
        assert left[cid] == right[cid]
        rot2 = down[cid] - up[cid]
        assert rot2 % 2 == 0
        stats.append(
            ComponentStats(
                component=cid,
                orientation=d.orientation(cid),
                left_cusps=left[cid],
                right_cusps=right[cid],
                up_cusps=up[cid],
                down_cusps=down[cid],
                writhe=writhe[cid],
                tb=writhe[cid] - left[cid],
                rot=rot2 // 2,
                runs=tuple(runs[cid]),
                passes=tuple(passes[cid]),
                coefficient=d.coefficients.get(cid),
            )
        )
    return stats, cross


def assert_derived_matches_reference(d):
    stats, cross = _reference_component_stats(d)
    assert component_stats(d) == stats
    # the table keeps the pairs whose crossing signs do not cancel
    assert d.derived.cross == {key: v for key, v in cross.items() if v}
    ids = d.trace.ids
    for i in ids:
        for j in ids:
            if i != j:
                assert 2 * linking_number(d, i, j) == cross.get((min(i, j), max(i, j)), 0)
    # the surgered linking matrix: halved crossing sums, then handle runs
    n, nh = len(stats), d.n_handles
    want = [[0] * (n + nh) for _ in range(n + nh)]
    for (i, j), total in cross.items():
        want[i - 1][j - 1] = want[j - 1][i - 1] = total // 2
    for s in stats:
        for h, run in enumerate(s.runs):
            want[s.component - 1][n + h] = want[n + h][s.component - 1] = run
    p = surger_handles(FrontDiagram(d.slots, d.events, d.orientations, {c: STEIN for c in ids}))
    assert [list(row) for row in p.lk] == want
    assert (list(p.rot[:n]), list(p.tb[:n])) == ([s.rot for s in stats], [s.tb for s in stats])


def flipped(d):
    return FrontDiagram(
        d.slots, d.events, {c: -d.orientation(c) for c in d.trace.ids}, d.coefficients
    )


def after_each_move(rng, d):
    """{move: d after the first instance of it that applies}, for moves
    1-6 and for stabilisation of a random component."""
    out = {}
    for move, kwargs in move_candidates(d):
        if move not in out:
            try:
                out[move] = apply_move(d, move, **kwargs)
            except FrontError:
                pass
    if n_components(d):
        component = rng.randint(1, n_components(d))
        out["stabilize"] = stabilize(d, component, rng.choice(("up", "down")))
    return out


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_derived_data_matches_reference_on_random_fronts(seed):
    rng = random.Random(seed)
    d = random_front(rng, max_handles=3, max_slot=3, max_extra=16)
    assert_derived_matches_reference(d)
    assert_derived_matches_reference(flipped(d))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_derived_data_matches_reference_after_each_move(seed):
    rng = random.Random(seed)
    d = random_front(rng, max_handles=3, max_slot=3, max_extra=12)
    for moved in after_each_move(rng, d).values():
        assert_derived_matches_reference(moved)
        assert_derived_matches_reference(flipped(moved))


def test_each_move_is_checked_against_the_reference():
    # the moves the property test above reaches, over a fixed set of fronts
    applied = set()
    for seed in range(40):
        rng = random.Random(seed)
        applied |= after_each_move(rng, random_front(rng, max_handles=3, max_slot=3, max_extra=12)).keys()
    assert applied == {1, 2, 3, 4, 5, 6, "stabilize"}


@given(st.integers(0, 10_000), st.integers(200, 400))
@settings(max_examples=15, deadline=None)
def test_derived_data_matches_reference_on_long_words(seed, length):
    rng = random.Random(seed)
    d = crossing_heavy_front(rng, length)
    d = FrontDiagram(d.slots, d.events, {c: rng.choice((1, -1)) for c in d.trace.ids})
    assert_derived_matches_reference(d)
    assert_derived_matches_reference(flipped(d))


# ---------------------------------------------------------------------------
# splicing: a rewrite's trace against a fresh trace of its word, and its
# component data against the witness transfer that the splice replaced


def _reference_transfer(old, slots, events, lo, hi, shift):
    """Orientations and coefficients of the rewritten diagram, carried by
    tracing the new word in full and following, for each component, its
    smallest node whose image is a node of the new word."""
    new = FrontDiagram(slots, events).trace
    witnesses = {}  # old component id -> (witness node, its image)
    for (t, h), cid in old.trace.nodes():
        if cid not in witnesses:
            image = t if t < lo else None if t < hi else t + shift
            if image is not None and 0 <= image < len(new.counts) and h <= new.counts[image]:
                witnesses[cid] = (t, h), (image, h)
    orientations, coefficients = {}, {}
    for cid in old.trace.ids:
        witness, image = witnesses[cid]
        new_cid, new_dir = new.at(*image)
        orientations[new_cid] = old.orientation(cid) * old.trace.at(*witness)[1] * new_dir
        if cid in old.coefficients:
            coefficients[new_cid] = old.coefficients[cid]
    return orientations, coefficients


def with_data(rng, d):
    """d with random orientations and random coefficients on some components."""
    coefficients = {}
    for cid in d.trace.ids:
        if rng.random() < 0.7:
            coefficients[cid] = STEIN if rng.random() < 0.5 else rat(rng.randint(-3, 3), rng.randint(1, 2))
    return FrontDiagram(d.slots, d.events, {c: rng.choice((1, -1)) for c in d.trace.ids}, coefficients)


def rewritten(d, call):
    """call(d), and the (slots, events, lo, hi, shift) it handed to _transfer."""
    with mock.patch.object(front_module, "_transfer", wraps=front_module._transfer) as transfer:
        new = call(d)
    return new, transfer.call_args.args[1:]


def assert_spliced_like_traced(d, new, rewrite):
    fresh = diagram_module._trace(new.n_strands, new.events)
    assert trace_fields(new.trace) == trace_fields(fresh) == walk_trace(new.n_strands, new.events)
    assert (new.orientations, new.coefficients) == _reference_transfer(d, *rewrite)


def every_rewrite(d, columns=None):
    """A call for every move_candidates entry and every stabilisation of d;
    with columns, only the moves 1-3 at those columns and the
    stabilisations at those boundaries, besides the default one."""
    moves = [lambda x, m=m, kw=kw: apply_move(x, m, **kw) for m, kw in move_candidates(d)
             if columns is None or m > 3 or kw["at"] in columns]
    boundaries = (None, *(range(len(d.events) + 1) if columns is None else columns))
    stabs = [lambda x, c=c, up=up, t=t: stabilize(x, c, up, t)
             for c in d.trace.ids for up in ("up", "down") for t in boundaries]
    return moves + stabs


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_every_rewrite_splices_the_trace_of_its_word(seed):
    rng = random.Random(seed)
    d = with_data(rng, random_front(rng, max_handles=3, max_slot=3, max_extra=12))
    for call in every_rewrite(d):
        try:
            new, rewrite = rewritten(d, call)
        except FrontError:
            continue
        assert_spliced_like_traced(d, new, rewrite)


def splice_chain(rng, d, length):
    """Apply `length` random rewrites in a row, each to the last one's
    result, checking every splice; return what was applied."""
    applied = []
    candidates = move_candidates(d)
    while n_components(d) and len(applied) < length:
        if rng.random() < 0.25:
            cid = rng.randint(1, n_components(d))
            t = rng.choice((None, rng.randint(0, len(d.events))))
            kind, call = "stabilize", lambda x: stabilize(x, cid, rng.choice(("up", "down")), t)
        else:
            kind, kwargs = rng.choice(candidates)
            call = lambda x: apply_move(x, kind, **kwargs)
        try:
            new, rewrite = rewritten(d, call)
        except FrontError:
            continue
        assert_spliced_like_traced(d, new, rewrite)
        applied.append(kind)
        d, candidates = new, move_candidates(new)
    return applied


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_chained_splices_on_random_fronts(seed):
    rng = random.Random(seed)
    splice_chain(rng, with_data(rng, random_front(rng, max_handles=3, max_slot=3, max_extra=12)), 25)


@given(st.integers(0, 10_000), st.integers(200, 400))
@settings(max_examples=10, deadline=None)
def test_chained_splices_on_long_words(seed, length):
    rng = random.Random(seed)
    assert len(splice_chain(rng, with_data(rng, crossing_heavy_front(rng, length)), 20)) == 20


def test_chained_splices_reach_every_rewrite():
    applied = set()
    for seed in range(12):
        rng = random.Random(seed)
        d = with_data(rng, random_front(rng, max_handles=3, max_slot=3, max_extra=12))
        applied.update(splice_chain(rng, d, 25))
    assert applied == {1, 2, 3, 4, 5, 6, "stabilize"}


# ---------------------------------------------------------------------------
# carrying: a rewrite of a diagram whose derived data has been read
# carries that data, and it equals a fresh pass over the rewritten diagram


def assert_carried(new):
    """new carries derived data equal to a fresh pass, and its trace,
    node offsets included, equals a fresh one."""
    assert "derived" in vars(new)  # carried by the rewrite, not made by a read
    fresh = FrontDiagram(new.slots, new.events, new.orientations, new.coefficients)
    tr, want = new.trace, fresh.trace
    assert (tr.counts, tr.offset, list(tr.comp), tr.fwd, tr.first) == (
        want.counts, want.offset, list(want.comp), want.fwd, want.first
    )
    assert (new.derived.stats, new.derived.cross) == (fresh.derived.stats, fresh.derived.cross)


def carried_rewrites(d, columns=None):
    """Read d's derived data, then check every rewrite of d that applies;
    return how many applied."""
    d.derived
    applied = 0
    for call in every_rewrite(d, columns):
        try:
            new = call(d)
        except FrontError:
            continue
        assert_carried(new)
        applied += 1
    return applied


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_every_rewrite_carries_the_derived_data(seed):
    rng = random.Random(seed)
    d = with_data(rng, random_front(rng, max_handles=3, max_slot=3, max_extra=12))
    carried_rewrites(d)
    carried_rewrites(flipped(d))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_chained_rewrites_carry_the_derived_data(seed):
    # each rewrite carries what its parent carried
    rng = random.Random(seed)
    d = with_data(rng, random_front(rng, max_handles=3, max_slot=3, max_extra=12))
    d.derived
    for _ in range(20):
        try:
            d = rng.choice(every_rewrite(d))(d)
        except FrontError:
            continue
        assert_carried(d)


def assert_offsets_summed(tr):
    assert tr.offset == [0, *accumulate(tr.counts)]


@given(st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_rewrites_of_rewrites_sum_their_node_offsets(seed):
    # every applicable rewrite of every applicable rewrite, the child's
    # offsets read last
    rng = random.Random(seed)
    d = with_data(rng, random_front(rng, max_handles=3, max_slot=2, max_extra=6))
    for call in every_rewrite(d):
        try:
            child = call(d)
        except FrontError:
            continue
        for grand_call in every_rewrite(child):
            try:
                grandchild = grand_call(child)
            except FrontError:
                continue
            assert_offsets_summed(grandchild.trace)
        assert_offsets_summed(child.trace)


@pytest.mark.parametrize("shape", ["900 crossings", "12 clasped unknots"])
def test_rewrites_of_bench_shaped_words_carry_the_derived_data(shape):
    rng = random.Random(11)
    if shape == "900 crossings":
        d = strand_front(rng, 1, 900)
        columns = {1, 2, 3, 451, 452, 453, 900, 901, 902}
    else:
        d = cusp_rich_front(rng, 12)
        columns = set(range(1, len(d.events) + 1, 4))
    d = with_data(rng, d)
    assert carried_rewrites(d, columns) > 20
    assert carried_rewrites(flipped(d), columns) > 20


def test_rewrites_relabel_component_ids_kept_as_a_list(monkeypatch):
    # past 128 labels the trace keeps component ids in a list, not a
    # bytearray, and a rewrite that renumbers or turns components
    # relabels that list
    d = FrontDiagram((), parse_event_word("L1 " + "L3 R3 " * 150 + "R1"))
    assert d.trace.n_components == 151 and type(d.trace.comp) is list
    d.derived
    relabelled = []
    real = front_module._relabel

    def spy(comp, table):
        relabelled.append(type(comp))
        return real(comp, table)

    monkeypatch.setattr(front_module, "_relabel", spy)
    rng = random.Random(1)
    for _ in range(2000):
        kind, kwargs = rng.choice([c for c in move_candidates(d) if c[0] <= 3])
        try:
            new, rewrite = rewritten(d, lambda x: apply_move(x, kind, **kwargs))
        except FrontError:
            continue
        assert_spliced_like_traced(d, new, rewrite)
        assert_carried(new)
        d = new
        if list in relabelled:
            break
    assert list in relabelled and type(d.trace.comp) is list


def test_a_chain_of_moves_derives_once(monkeypatch):
    derived = []
    real = diagram_module._front_data

    def counting_data(d):
        derived.append(d)
        return real(d)

    monkeypatch.setattr(diagram_module, "_front_data", counting_data)
    d = parse_front("front 1\nhandles 1\nhandle 1 slots 1\nevents L2 X1 R2\norient 1 -\ncoeff 1 stein\n")
    stats = component_stats(d)
    chain = [
        lambda x: apply_move(x, 2, at=1, variant="birth-above"),
        lambda x: apply_move(x, 6, variant="bottom", handle=1),
        lambda x: apply_move(x, 1, at=3),
        lambda x: apply_move(x, 4, at=1, variant="out", handle=1),
        lambda x: stabilize(x, 1, "down"),
    ]
    for rewrite in chain:
        d = rewrite(d)
        stats = component_stats(d)
        surger_handles(d)
    assert len(derived) == 1 and len(d.events) == 10
    assert component_stats(FrontDiagram(d.slots, d.events, d.orientations, d.coefficients)) == stats


@pytest.mark.parametrize(
    "slots, word, new_word, lo, hi, shift, message",
    [
        # X1 X1 for R1 L1 joins two unknots into one
        ((), "L1 R1 L1 R1", "L1 X1 X1 R1", 2, 3, 0, "reconnects the strand from node"),
        # R1 L1 for X1 X1 splits one unknot into two
        ((), "L1 X1 X1 R1", "L1 R1 L1 R1", 2, 3, 0, "reconnects the strand from node"),
        # R1 L1 for X1 keeps one component, but reverses it at edge height 2
        ((2,), "X1", "R1 L1", 1, 1, 1, "reconnects the strand from node"),
        # X1 L1 for X1 X1 leaves 4 strands where the seam has 2
        ((), "L1 X1 X1 R1", "L1 X1 L1 R1", 2, 3, 0, "column 3 does not meet the seam"),
        ((), "L1 X1 X1 R1", "L1 X1 X3 R1", 2, 3, 0, "column 3 does not fit 2 strands"),
        # a new unknot inside the window
        ((), "L1 X1 X1 R1", "L1 X1 L1 R1 X1 R1", 2, 3, 2, "closes a component inside its window"),
        # the inner unknot of L1 L3 R3 R1 lies inside the window
        ((), "L1 L3 R3 R1", "L1 R1", 1, 3, -2, "drops a component inside its window"),
        ((), "L1 L1 R1 R1", "L1 L3 R1 R1", 3, 4, 0, "changed a column between kept boundaries"),
        ((), "L1 L1 R1 R1", "L1 L1 R1 R1", 2, 1, 0, "keeps overlapping boundaries"),
    ],
    ids=["merge", "split", "reverse", "seam-count", "column-fit", "new-loop", "lost-loop",
         "kept-column", "overlap"],
)
def test_transfer_refuses_a_rewrite_that_breaks_its_contract(
    monkeypatch, slots, word, new_word, lo, hi, shift, message
):
    rewrite = (slots, parse_event_word(new_word), lo, hi, shift)
    monkeypatch.setitem(front_module._MOVES, 1, (lambda d, at, variant, handle: rewrite, "move 1 needs a column"))
    with pytest.raises(InternalError, match=message):
        apply_move(front(slots, word), 1, at=1)


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda d: apply_move(d, 6, variant="top", handle=1),
        lambda d: apply_move(d, 2, at=1, variant="birth-above"),
    ],
    ids=["move6", "move2-birth"],
)
def test_rewrites_stop_at_the_node_limit(monkeypatch, rewrite):
    d = front((1,), "L2 X1 R2")
    new = rewrite(d)
    n_nodes = new.trace.offset[-1]
    monkeypatch.setattr(diagram_module, "MAX_NODES", n_nodes)
    assert trace_fields(rewrite(d).trace) == trace_fields(new.trace)
    monkeypatch.setattr(diagram_module, "MAX_NODES", n_nodes - 1)
    message = (
        f"the front has {n_nodes} nodes (strands summed over its column boundaries); "
        f"the limit is {n_nodes - 1}"
    )
    for build in (rewrite, lambda _: FrontDiagram(new.slots, new.events)):
        with pytest.raises(FrontError) as refused:
            build(d)
        assert str(refused.value) == message


# ---------------------------------------------------------------------------
# stabilisation


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_stabilize_random(seed):
    rng = random.Random(seed)
    d = random_front(rng)
    stats = {s.component: s for s in component_stats(d)}
    if not stats:
        return
    cid = rng.choice(sorted(stats))
    direction = rng.choice(["up", "down"])
    nd = stabilize(d, cid, direction)
    old = sorted((s.tb, s.rot) for s in stats.values())
    new = sorted((s.tb, s.rot) for s in component_stats(nd))
    delta = -1 if direction == "up" else 1
    want = sorted(
        (t - 1, r + delta) if c == cid else (t, r)
        for c, (t, r) in ((s.component, (s.tb, s.rot)) for s in stats.values())
    )
    assert new == want


def test_stabilize_carries_coefficients():
    d = front((), TREFOIL, {}, {1: STEIN})
    nd = stabilize(d, 1, "up")
    assert resolve_coefficients(nd) == {1: rat(single(nd).tb - 1)}


def test_stabilize_errors():
    d = front((), "L1 R1")
    with pytest.raises(FrontError):
        stabilize(d, 2, "up")
    with pytest.raises(FrontError):
        stabilize(d, 1, "sideways")
    with pytest.raises(FrontError, match="no strand at column"):
        stabilize(d, 1, "up", at_column=0)


def test_stabilize_lands_on_the_first_node_at_its_boundary():
    # against a scan of the nodes in order, for every column argument
    for seed in range(30):
        rng = random.Random(seed)
        d = random_front(rng, max_handles=3, max_slot=3, max_extra=12)
        for cid in d.trace.ids:
            for at in (None, -2, -1, *range(len(d.events) + 3)):
                top = next(
                    (node for node, c in d.trace.nodes() if c == cid and at in (None, node[0])), None
                )
                if top is None:
                    with pytest.raises(FrontError, match=rf"^component {cid} has no strand at column boundary {at}$"):
                        stabilize(d, cid, "up", at)
                    continue
                t, h = top
                nd = stabilize(d, cid, "up", at)
                assert nd.events[:t] + nd.events[t + 2 :] == d.events
                assert sorted(e.pos for e in nd.events[t : t + 2]) == [h, h + 1]


def strand_walk_stabilization(d, component, direction, at_column):
    """The boundary and word stabilize gives, placed by a frozen copy of
    the boundary search it made on strand counts alone (a running sum to
    the first node's boundary, or the counts summed left of at_column);
    None where the component has no strand at at_column."""
    tr = d.trace
    comp, counts = tr.comp, tr.counts
    if at_column is None:
        i = tr.first[component]
        for t, end in enumerate(accumulate(counts)):
            if i < end:
                break
        base = end - counts[t]
    else:
        try:
            t = range(len(counts)).index(at_column)
            base = sum(counts[:t])
            i = comp.index(component, base, base + counts[t])
        except ValueError:
            return None
    height = i - base + 1
    eps = (1 if tr.fwd[i] else -1) * d.orientation(component)
    zig = (direction == "up") != (eps == 1)
    return t, d.events[:t] + (Event("L", height + zig), Event("R", height + 1 - zig)) + d.events[t:]


def test_stabilize_places_its_zigzag_as_the_strand_count_walk_does():
    # on rewritten fronts, and on boundaries right of a strandless one,
    # where the offsets repeat
    seen = set()
    fronts = [front((), "L1 R1 L1 R1"), front((), "L1 L1 R1 R1 L1 L3 X2 R1 R1"), front((2,), "R1 L1")]
    for seed in range(40):
        rng = random.Random(seed)
        d = random_front(rng, max_handles=3, max_slot=3, max_extra=12)
        candidates = [(m, kw) for m, kw in move_candidates(d) if m in (2, 4, 5, 6)]
        rng.shuffle(candidates)
        for m, kw in candidates:
            try:
                moved = apply_move(d, m, **kw)
            except FrontError:
                continue
            seen.add(m)
            fronts.append(moved)
            break
        fronts.append(d)
    for k, d in enumerate(fronts):
        for cid in d.trace.ids:
            direction = ("up", "down")[(k + cid) % 2]
            for at in (None, True, -1, *range(len(d.events) + 2)):
                want = strand_walk_stabilization(d, cid, direction, at)
                if want is None:
                    with pytest.raises(FrontError, match=rf"^component {cid} has no strand at column boundary {at}$"):
                        stabilize(d, cid, direction, at)
                    continue
                t, word = want
                assert stabilize(d, cid, direction, at).events == word
                if t and not d.trace.counts[t - 1]:
                    seen.add("strandless" if at is None else "strandless at")
    assert seen == {2, 4, 5, 6, "strandless", "strandless at"}


# ---------------------------------------------------------------------------
# moves


def test_move1_commutes_distant_cusps():
    d = front((), "L1 L3 R1 R1")
    nd = apply_move(d, 1, at=1)
    assert [str(e) for e in nd.events] == ["L1", "L1", "R1", "R1"]
    back = apply_move(nd, 1, at=1)
    assert [str(e) for e in back.events] == ["L1", "L3", "R1", "R1"]


@pytest.mark.parametrize(
    "slots, word, at, swapped",
    [
        ((4,), "X1 X3", 1, "X3 X1"),
        ((), "L1 L3 R3 R1", 3, "L1 L3 R1 R1"),
        ((), "L1 L3 R1 R1", 3, "L1 L3 R3 R1"),
    ],
)
def test_move1_swaps_like_columns_two_heights_apart(slots, word, at, swapped):
    # the unchanged pair matches its own wiring here, so it must not count
    # as a second candidate
    d = front(slots, word, {1: -1}, {1: rat(5), 2: STEIN})
    nd = apply_move(d, 1, at=at)
    assert [str(e) for e in nd.events] == swapped.split()
    assert serialize_front(nd) == serialize_front(d).replace(word, swapped)
    assert serialize_front(apply_move(nd, 1, at=at)) == serialize_front(d)


def test_move1_keeps_a_pair_that_matches_only_itself():
    d = front((2,), "X1 X1", {1: -1}, {1: STEIN})
    assert serialize_front(apply_move(d, 1, at=1)) == serialize_front(d)


def test_move1_refuses_two_real_candidates():
    with pytest.raises(FrontError, match="move 1 ambiguous at column 1"):
        apply_move(front((2,), "R1 L1"), 1, at=1)


def test_move1_rejects_interacting_columns():
    with pytest.raises(FrontError, match="not applicable"):
        apply_move(front((), "L1 R1"), 1, at=1)


def test_move1_needs_two_columns():
    for slots, word in [((), ""), ((2,), "X1")]:
        with pytest.raises(FrontError, match="move 1 needs at least two columns"):
            apply_move(front(slots, word), 1, at=1)


def _wiring(events, n_in, tags):
    """Identity-tracked wiring of a short event word, or None if invalid.

    Strands are labelled by input height or by (birth tag, branch); the
    result captures the output position of every surviving strand, which
    pairs die together, and the multiset of crossing pairs.
    """
    current = [("i", h) for h in range(1, n_in + 1)]
    deaths = set()
    crossings = []
    for e, tag in zip(events, tags):
        c = len(current)
        p = e.pos
        if e.kind == "L":
            if not 1 <= p <= c + 1:
                return None
            current[p - 1 : p - 1] = [("b", tag, 0), ("b", tag, 1)]
        elif e.kind == "R":
            if not 1 <= p <= c - 1:
                return None
            deaths.add(frozenset((current[p - 1], current[p])))
            del current[p - 1 : p + 1]
        else:
            if not 1 <= p <= c - 1:
                return None
            crossings.append(frozenset((current[p - 1], current[p])))
            current[p - 1], current[p] = current[p], current[p - 1]
    out = tuple(sorted((sid, pos + 1) for pos, sid in enumerate(current)))
    cross_multiset = tuple(sorted(tuple(sorted(fs)) for fs in crossings))
    return out, frozenset(deaths), cross_multiset


def _reference_move1(a, b, n_in, at):
    """Move 1 by search: every pair (b', a') with positions within two
    of b's and a's whose wiring from n_in strands matches that of (a, b)."""
    target = _wiring([a, b], n_in, (0, 1))
    found = []
    for q in (b.pos - 2, b.pos, b.pos + 2):
        for p in (a.pos - 2, a.pos, a.pos + 2):
            if q >= 1 and p >= 1:
                candidate = (Event(b.kind, q), Event(a.kind, p))
                if _wiring(candidate, n_in, (1, 0)) == target:
                    found.append(candidate)
    # like columns two heights apart also match their own wiring unchanged
    found = [c for c in found if c != (a, b)] or found
    if not found:
        raise FrontError(f"move 1 not applicable at column {at}: the columns interact")
    if len(found) > 1:
        raise FrontError(f"move 1 ambiguous at column {at}")
    return found[0]


DELTA = {"L": 2, "R": -2, "X": 0}  # change in strand count across a column


def _events_at(n):
    """Every column that fits n strands."""
    return [Event("L", p) for p in range(1, n + 2)] + [
        Event(k, p) for k in "RX" for p in range(1, n)
    ]


def _move1_matches_reference(d, at) -> bool:
    """Check apply_move against the search at column at; True if it applies."""
    n_in = d.trace.counts[at - 1]
    a, b = d.events[at - 1], d.events[at]
    try:
        want = _reference_move1(a, b, n_in, at)
    except FrontError as exc:
        with pytest.raises(FrontError) as refused:
            apply_move(d, 1, at=at)
        assert str(refused.value) == str(exc)
        return False
    nd = apply_move(d, 1, at=at)
    assert nd.events == d.events[: at - 1] + want + d.events[at + 1 :]
    return True


def test_move1_matches_the_search_on_every_pair_of_columns():
    outcomes = []
    for n_in in range(14):
        for a in _events_at(n_in):
            n_mid = n_in + DELTA[a.kind]
            for b in _events_at(n_mid):
                # close the word back up to n_in strands past the pair
                n_out = n_mid + DELTA[b.kind]
                tail = [Event("R", 1)] * ((n_out - n_in) // 2) + [Event("L", 1)] * ((n_in - n_out) // 2)
                d = FrontDiagram((n_in,), (a, b, *tail))
                outcomes.append(_move1_matches_reference(d, 1))
    assert len(outcomes) == 7001
    assert any(outcomes) and not all(outcomes)


def test_move1_matches_the_search_among_hundreds_of_strands():
    # the footprint rule does not look past the two columns, however many
    # strands run through them; each column lands within three heights of
    # the one before it, so the pairs both interact and commute
    rng = random.Random(5)
    n, c, p = 400, 400, 200
    events = []
    for _ in range(80):
        kind = rng.choice("LRX")
        p = min(max(p + rng.randint(-3, 3), 1), c + 1 if kind == "L" else c - 1)
        events.append(Event(kind, p))
        c += DELTA[kind]
    events += [Event("R", 1)] * ((c - n) // 2) + [Event("L", 1)] * ((n - c) // 2)
    d = FrontDiagram((n,), tuple(events), {}, {1: STEIN})
    outcomes = [_move1_matches_reference(d, at) for at in range(1, 81)]
    assert any(outcomes) and not all(outcomes)


def test_move2_birth_death_round_trip():
    d = front((), TREFOIL)
    for at, variant, inverse in [
        (2, "birth-above", "death-above"),
        (6, "birth-above", "death-above"),
        (6, "birth-below", "death-below"),
    ]:
        mid = apply_move(d, 2, at=at, variant=variant)
        assert len(mid.events) == len(d.events) + 2
        back = apply_move(mid, 2, at=at, variant=inverse)
        assert back.events == d.events
    nested = front((), "L1 L1 R1 R1")
    mid = apply_move(nested, 2, at=2, variant="birth-below")
    assert [str(e) for e in mid.events] == ["L1", "L2", "X1", "X2", "R1", "R1"]
    back = apply_move(mid, 2, at=2, variant="death-below")
    assert back.events == nested.events


def test_move2_needs_room():
    d = front((), "L1 R1")
    with pytest.raises(FrontError, match="above"):
        apply_move(d, 2, at=1, variant="birth-above")
    with pytest.raises(FrontError, match="below"):
        apply_move(d, 2, at=1, variant="birth-below")


def test_move2_death_below_at_top_strand():
    # the pattern would need an event at position 0
    for word, at in [("L1 R1 L1 R1", 1), ("L1 L1 X1 X2 R1 R1", 3)]:
        with pytest.raises(FrontError, match=f"columns {at}..{at + 2} do not match"):
            apply_move(front((), word), 2, at=at, variant="death-below")


def test_move3_triple_point():
    d = front((4,), "X2 X1 X2 X1")
    nd = apply_move(d, 3, at=1)
    assert [str(e) for e in nd.events] == ["X1", "X2", "X1", "X1"]
    with pytest.raises(FrontError):
        apply_move(front((4,), "X1 X1 X2 X2"), 3, at=1)


def test_move4_round_trip_left_cusp():
    d = front((2,), "R1 L1")
    nd = apply_move(d, 4, at=2, variant="in")
    assert nd.slots == (0,)
    assert [str(e) for e in nd.events] == ["L1", "R1"]
    back = apply_move(nd, 4, at=1, variant="out", handle=1)
    assert back.slots == (2,)
    assert [str(e) for e in back.events] == ["R1", "L1"]


def test_move4_round_trip_right_cusp():
    d = front((2,), "R1 L1")
    nd = apply_move(d, 4, at=1, variant="in")
    assert nd.slots == (0,)
    assert [str(e) for e in nd.events] == ["L1", "R1"]
    back = apply_move(nd, 4, at=2, variant="out", handle=1)
    assert back.slots == (2,)
    assert back.events == d.events


def test_move4_requires_ball_pair():
    d = front((1, 1), "R1 L1")
    with pytest.raises(FrontError, match="single attaching ball"):
        apply_move(d, 4, at=2, variant="in")


def test_move5_slide_crossing():
    d = front((2,), "L3 R3 X1")
    nd = apply_move(d, 5, at=3)
    assert [str(e) for e in nd.events] == ["X1", "L3", "R3"]
    back = apply_move(nd, 5, at=1)
    assert back.events == d.events


def test_move6_single_strand_kink():
    d = FrontDiagram((1,), ())
    nd = apply_move(d, 6, variant="top", handle=1)
    s = single(nd)
    assert (s.tb, s.rot) == (-2, 0)
    assert s.runs == (1,) and s.passes == (1,)
    assert [str(e) for e in nd.events] == ["L2", "X1", "R2"]


def test_move6_needs_handle():
    with pytest.raises(FrontError):
        apply_move(front((), "L1 R1"), 6, variant="top")


NO_MOVE = "; the catalogue has moves 1..6"
NEEDS_VARIANT_2 = "move 2 variant must be birth-above, birth-below, death-above or death-below"


@pytest.mark.parametrize(
    "slots, word, move, kwargs, message",
    [
        ((), "L1 R1", 0, {"at": 1}, "there is no move 0" + NO_MOVE),
        ((), "L1 R1", 7, {"at": 1}, "there is no move 7" + NO_MOVE),
        ((), "L1 R1", [1], {"at": 1}, "there is no move [1]" + NO_MOVE),
        # True and 1.0 are move 1, and its message names it so
        ((), "L1 R1", True, {}, "move 1 needs a column"),
        ((), "L1 R1", 1.0, {}, "move 1 needs a column"),
        ((), "L1 R1", 2, {"variant": "birth-above"}, "move 2 needs a column and a variant"),
        ((), "L1 R1", 2, {"at": 1}, "move 2 needs a column and a variant"),
        ((), "L1 R1", 3, {"variant": "x"}, "move 3 needs a column"),
        ((), "L1 R1", 4, {"at": 1}, "move 4 needs a column and a variant ('in' or 'out')"),
        ((), "L1 R1", 5, {}, "move 5 needs a column"),
        ((2,), "X1", 1, {"at": 1}, "move 1 needs at least two columns"),
        ((), "L1 L3 R1 R1", 1, {"at": 4}, "move 1 needs two columns starting at 1..3"),
        ((2,), "R1 L1", 1, {"at": 1}, "move 1 ambiguous at column 1"),
        ((), "L1 R1", 1, {"at": 1}, "move 1 not applicable at column 1: the columns interact"),
        ((), "L1 R1", 2, {"at": 3, "variant": "birth-above"}, "no column 3"),
        ((), "L1 R1", 2, {"at": 0, "variant": "birth-below"}, "no column 0"),
        ((), "L1 X1 R1", 2, {"at": 2, "variant": "birth-above"}, "column 2 is a crossing, move 2 needs a cusp"),
        # q = p - 1 above and p + 1 below, one step past 1 <= q <= c_in + D/2
        ((), "L1 R1", 2, {"at": 1, "variant": "birth-above"}, "no strand above the cusp to push across"),
        ((2,), "L3 R3", 2, {"at": 1, "variant": "birth-below"}, "no strand below the cusp to push across"),
        ((2,), "L1 R1", 2, {"at": 2, "variant": "birth-above"}, "no strand above the cusp to push across"),
        ((2,), "L3 R3", 2, {"at": 2, "variant": "birth-below"}, "no strand below the cusp to push across"),
        ((), "L1 R1", 2, {"at": 1, "variant": "death-above"}, "move 2 needs three columns starting at 1"),
        ((), "L1 X1 X1 R1", 2, {"at": 1, "variant": "death-below"}, "columns 1..3 do not match a move 2 pattern"),
        ((2,), "X1 X1 X1", 2, {"at": 1, "variant": "death-above"}, "columns 1..3 do not match a move 2 pattern"),
        ((), "L1 R1 L1 R1", 2, {"at": 2, "variant": "death-above"}, "columns 2..4 do not match a move 2 pattern"),
        ((), "L1 R1", 2, {"at": 1, "variant": "birth"}, NEEDS_VARIANT_2),
        ((), "L1 R1", 2, {"at": 9, "variant": ""}, NEEDS_VARIANT_2),
        ((), "L1 R1", 3, {"at": 1}, "move 3 needs three columns starting at 1"),
        ((), "L1 X1 X1 R1", 3, {"at": 1}, "move 3 needs three crossings"),
        ((2,), "X1 X1 X1", 3, {"at": 1}, "move 3 needs the pattern X(a) X(b) X(a) with |a - b| = 1"),
        ((1,), "", 4, {"at": 1, "variant": "in"}, "move 4 needs at least one column"),
        ((), "L1 R1", 4, {"at": 1, "variant": "up"}, "move 4 variant must be 'in' or 'out'"),
        ((), "L1 R1", 4, {"at": 1, "variant": "in"},
         "move 4 'in' needs a left cusp in the last column or a right cusp in the first"),
        ((1, 1), "R1 L1", 4, {"at": 2, "variant": "in"}, "edge heights 1, 2 do not lie in a single attaching ball"),
        ((2, 1), "R1 L1", 4, {"at": 2, "variant": "in", "handle": 2}, "cusp pair sits in ball 1, not 2"),
        ((), "L1 R1", 4, {"at": 1, "variant": "out"}, "move 4 'out' needs an explicit handle"),
        # a bad handle index is reported before a bad cusp
        ((2,), "X1", 4, {"at": 1, "variant": "out", "handle": 2}, "handle index 2 out of range 1..1"),
        ((2,), "X1", 4, {"at": 1, "variant": "out", "handle": 1},
         "move 4 'out' needs a left cusp in the first column or a right cusp in the last"),
        ((1, 1), "L3 R3", 4, {"at": 1, "variant": "out", "handle": 1}, "cusp at height 3 cannot exit through ball 1"),
        ((1,), "", 5, {"at": 1}, "move 5 needs at least one column"),
        ((), "L1 R1", 5, {"at": 1}, "move 5 slides the first or last column, which must be a crossing"),
        ((1, 1), "X1", 5, {"at": 1}, "edge heights 1, 2 do not lie in a single attaching ball"),
        ((), "L1 R1", 6, {"variant": "top"}, "move 6 needs an explicit handle"),
        ((1,), "", 6, {"variant": "left", "handle": 1}, "move 6 variant must be 'top' or 'bottom'"),
        ((1,), "", 6, {"handle": 3}, "handle index 3 out of range 1..1"),
        ((0,), "", 6, {"variant": "", "handle": 1}, "ball 1 has no strand to swing"),
    ],
)
def test_every_move_message(slots, word, move, kwargs, message):
    with pytest.raises(FrontError) as refused:
        apply_move(front(slots, word), move, **kwargs)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "component, direction, at, message",
    [
        (1, "left", None, "stabilisation direction must be 'up' or 'down', got 'left'"),
        (2, "up", None, "no component 2"),
        (1, "down", 5, "component 1 has no strand at column boundary 5"),
    ],
)
def test_every_stabilize_message(component, direction, at, message):
    with pytest.raises(FrontError) as refused:
        stabilize(front((), "L1 R1"), component, direction, at)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: apply_move(d, 1, at="1"), "at must be an integer, got '1'"),
        (lambda d: apply_move(d, 1, at=1.0), "at must be an integer, got 1.0"),
        (lambda d: apply_move(d, 2, at=1.0, variant="birth-below"), "at must be an integer, got 1.0"),
        (lambda d: apply_move(d, 4, at=2, variant="out", handle=1.0), "handle must be an integer, got 1.0"),
        (lambda d: apply_move(d, 4, at=2, variant="out", handle=1.5), "handle must be an integer, got 1.5"),
        (lambda d: apply_move(d, 6, handle="1"), "handle must be an integer, got '1'"),
        # move 6 ignores at, but not an at that is no int
        (lambda d: apply_move(d, 6, at=[1], handle=1), "at must be an integer, got [1]"),
        (lambda d: stabilize(d, 1.0, "up"), "component must be an integer, got 1.0"),
        (lambda d: stabilize(d, 1, "up", 1.0), "at_column must be an integer, got 1.0"),
        # the move number, a missing argument and the direction are read first
        (lambda d: apply_move(d, 7, at="1"), "there is no move 7; the catalogue has moves 1..6"),
        (lambda d: apply_move(d, 2, at="1"), "move 2 needs a column and a variant"),
        (lambda d: stabilize(d, 1.0, "left", 1.0),
         "stabilisation direction must be 'up' or 'down', got 'left'"),
    ],
)
def test_rewrites_refuse_an_argument_that_is_no_int(call, message):
    with pytest.raises(FrontError) as refused:
        call(front((2,), "L3 R3 X1"))
    assert str(refused.value) == message


def test_rewrites_read_a_bool_argument_as_its_int():
    for slots, word, move, kwargs, plain in (
        ((), "L1 L3 R1 R1", 1, {"at": True}, {"at": 1}),
        ((2,), "L2 R2", 2, {"at": True, "variant": "birth-above"}, {"at": 1, "variant": "birth-above"}),
        ((2,), "", 6, {"at": False, "handle": True}, {"handle": 1}),
    ):
        d = front(slots, word)
        assert apply_move(d, move, **kwargs) == apply_move(d, move, **plain)
    d = front((2,), "L2 R2")
    assert stabilize(d, True, "up", False) == stabilize(d, 1, "up", 0)


@pytest.mark.parametrize(
    "slots, word, move, kwargs, result",
    [
        ((), "L1 L3 R1 R1", True, {"at": 1, "variant": "ignored"}, "L1 L1 R1 R1"),
        ((), "L1 L3 R3 R1", 1.0, {"at": 3}, "L1 L3 R1 R1"),
        # the last q inside 1 <= q <= c_in + D/2, for both cusps and both sides
        ((2,), "L2 R2", 2, {"at": 1, "variant": "birth-above"}, "L1 X2 X1 R2"),
        ((2,), "L2 R2", 2, {"at": 1, "variant": "birth-below"}, "L3 X2 X3 R2"),
        ((2,), "L2 R2", 2, {"at": 2, "variant": "birth-above"}, "L2 X1 X2 R1"),
        ((2,), "L2 R2", 2, {"at": 2, "variant": "birth-below"}, "L2 X3 X2 R3"),
        ((2,), "L1 X2 X1 R2", 2, {"at": 1, "variant": "death-above"}, "L2 R2"),
        ((2,), "L2 X3 X2 R3", 2, {"at": 2, "variant": "death-below"}, "L2 R2"),
        # move 6 reads an empty variant as 'top'
        ((2,), "", 6, {"variant": "", "handle": 1}, "X1 L3 X2 R3 X1"),
        ((2,), "", 6, {"handle": 1}, "X1 L3 X2 R3 X1"),
    ],
)
def test_move_arguments_at_their_edges(slots, word, move, kwargs, result):
    assert [str(e) for e in apply_move(front(slots, word), move, **kwargs).events] == result.split()


# the move oracles: 1, 2, 3, 5 preserve everything; 4 trades two unsigned
# passes; 6 obeys the framing/linking laws for the swung strand


def link_profile(d, with_passes=True):
    st_ = component_stats(d)
    per = sorted(
        (s.tb, s.rot, tuple(s.runs), str(s.coefficient))
        + ((tuple(s.passes),) if with_passes else ())
        for s in st_
    )
    n = len(st_)
    lks = sorted(
        linking_number(d, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    return per, lks


def try_random_move(rng, d):
    """Apply one random applicable move; returns (move, detail, new) or None."""
    e_count = len(d.events)
    move = rng.choice([1, 2, 3, 4, 5, 6])
    try:
        if move == 1 and e_count >= 2:
            return move, None, apply_move(d, 1, at=rng.randint(1, e_count - 1))
        if move == 2 and e_count >= 1:
            variant = rng.choice(
                ["birth-above", "birth-below", "death-above", "death-below"]
            )
            return move, variant, apply_move(d, 2, at=rng.randint(1, e_count), variant=variant)
        if move == 3 and e_count >= 3:
            return move, None, apply_move(d, 3, at=rng.randint(1, e_count - 2))
        if move == 4 and e_count >= 1:
            variant = rng.choice(["in", "out"])
            handle = rng.randint(1, d.n_handles) if d.n_handles else None
            at = rng.choice([1, e_count])
            return move, variant, apply_move(d, 4, at=at, variant=variant, handle=handle)
        if move == 5 and e_count >= 1:
            return move, None, apply_move(d, 5, at=rng.choice([1, e_count]))
        if move == 6 and d.n_handles:
            handle = rng.randint(1, d.n_handles)
            if d.slots[handle - 1] >= 1:
                variant = rng.choice(["top", "bottom"])
                return move, (variant, handle), apply_move(d, 6, variant=variant, handle=handle)
    except FrontError:
        return None
    return None


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_isotopy_moves_preserve_invariants(seed):
    rng = random.Random(seed)
    d = random_front(rng)
    coeffs = {cid: STEIN for cid in range(1, n_components(d) + 1) if rng.random() < 0.5}
    d = FrontDiagram(d.slots, d.events, d.orientations, coeffs)
    res = try_random_move(rng, d)
    if res is None:
        return
    move, detail, nd = res
    if move in (1, 2, 3, 5):
        assert link_profile(d) == link_profile(nd)
    elif move == 4:
        assert link_profile(d, with_passes=False) == link_profile(nd, with_passes=False)
        before = sum(sum(s.passes) for s in component_stats(d))
        after = sum(sum(s.passes) for s in component_stats(nd))
        assert abs(before - after) == 2
    else:
        variant, handle = detail
        o = sum(d.slots[: handle - 1])
        pi = o + 1 if variant == "top" else o + d.slots[handle - 1]
        swung, direction = d.trace.at(0, pi)
        eps = direction * d.orientation(swung)
        old = {s.component: s for s in component_stats(d)}
        pred = sorted(
            (
                s.tb - (2 * eps * s.runs[handle - 1] if cid == swung else 0),
                s.rot,
                tuple(s.runs),
                tuple(s.passes),
            )
            for cid, s in old.items()
        )
        new = sorted(
            (s.tb, s.rot, tuple(s.runs), tuple(s.passes)) for s in component_stats(nd)
        )
        assert new == pred
        n = len(old)
        old_lk = sorted(
            linking_number(d, i, j)
            + (-eps * old[j].runs[handle - 1] if i == swung else 0)
            + (-eps * old[i].runs[handle - 1] if j == swung else 0)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        )
        new_lk = sorted(
            linking_number(nd, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        )
        assert old_lk == new_lk


def surgered_profile(d):
    p = surger_handles(d)
    x = SteinPresentation.from_presentation(p)
    try:
        th = theta(x)
    except InvariantError:
        th = None
    return h1(p), th, len(characteristic_sublinks(x))


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_moves_preserve_surgered_invariants(seed):
    # with every coefficient at the Stein framing, moves 1-6 leave the
    # surgered manifold's homology, theta and spin structures alone
    rng = random.Random(seed)
    d = random_front(rng)
    d = FrontDiagram(d.slots, d.events, d.orientations, {c: STEIN for c in d.trace.ids})
    want = surgered_profile(d)
    for _ in range(6):
        res = try_random_move(rng, d)
        if res is not None:
            d = res[2]
            assert surgered_profile(d) == want, res[:2]


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_parity_always_holds(seed):
    # tb + rot + 1 = unsigned passes mod 2 for every drawable front, so
    # check_stein_form reads the coefficients alone; here on fronts with
    # handles, after a move 6 swings a strand and a stabilization
    rng = random.Random(seed)
    fronts = [random_front(rng, max_handles=3, max_slot=4, max_extra=16)]
    if fronts[-1].n_handles:
        variant, handle = rng.choice(("top", "bottom")), rng.randint(1, fronts[-1].n_handles)
        fronts.append(apply_move(fronts[-1], 6, variant=variant, handle=handle))
    if n_components(fronts[-1]):
        cid = rng.randint(1, n_components(fronts[-1]))
        fronts.append(stabilize(fronts[-1], cid, rng.choice(("up", "down"))))
    for d in fronts:
        assert all(rep.ok for rep in parity_lint(d))


# ---------------------------------------------------------------------------
# rulings: a move oracle that tb and rot cannot fool, on handle-free fronts


def ruling_polynomial(d) -> dict:
    """The ungraded ruling polynomial of a handle-free front, {exponent: count}.

    One sweep over the columns carries every pairing of the strands that
    a normal ruling reaches there, with its count of rulings by switches.
    Heights count from 0 at the top and pair[i] is the strand paired with
    i.  A ruling weighs z^(switches - right cusps + 1) (Chekanov-Pushkar
    2005; Fuchs 2003).
    """
    assert not d.slots
    states = {(): Counter({0: 1})}
    for e in d.events:
        p, new = e.pos - 1, defaultdict(Counter)
        for pair, switches in states.items():
            if e.kind == "L":  # the cusp's two branches are paired
                moved = [i + 2 if i >= p else i for i in pair]
                new[tuple(moved[:p] + [p + 1, p] + moved[p:])].update(switches)
            elif e.kind == "R":
                if pair[p] == p + 1:
                    new[tuple(i - 2 if i > p else i for i in pair[:p] + pair[p + 2 :])].update(switches)
            elif pair[p] != p + 1:  # paired strands never cross
                # the pairing follows the strands: height i holds the strand from came[i]
                came = [*range(len(pair))]
                came[p], came[p + 1] = p + 1, p
                new[tuple(came[pair[c]] for c in came)].update(switches)
                a, b = pair[p], pair[p + 1]
                if a < p and b > p + 1 or b < a < p or p + 1 < b < a:  # a normal switch keeps the heights
                    new[pair].update({s + 1: n for s, n in switches.items()})
        states = new
    rights = sum(e.kind == "R" for e in d.events)
    return {s - rights + 1: n for s, n in states.get((), {}).items()}


@pytest.mark.parametrize(
    "word, polynomial",
    [
        ("L1 R1", {0: 1}),
        ("L1 L1 X2 X2 X2 R1 R1", {0: 2, 2: 1}),  # the right trefoil, 2 + z^2
        ("L1 L2 X1 X1 X1 R2 R1", {0: 2, 2: 1}),  # the same knot as a braid closure
        ("L1 L1 R1 R1", {-1: 1}),  # two unknots side by side
        ("L1 L3 X2 X2 R3 R1", {-1: 1, 1: 1}),  # the Hopf link, 1/z + z
    ],
)
def test_ruling_polynomial_known_answers(word, polynomial):
    d = front((), word)
    assert ruling_polynomial(d) == polynomial
    for cid in d.trace.ids:
        for direction in ("up", "down"):
            assert ruling_polynomial(stabilize(d, cid, direction)) == {}


def ruled_fronts(rng):
    """Handle-free fronts: positive-braid closures, stacked unknots, random words."""
    n = rng.randint(2, 3)
    braid = " ".join(f"X{rng.randint(1, n - 1)}" for _ in range(rng.randint(1, 6)))
    nested = " ".join(f"L{i}" for i in range(1, n + 1))
    yield front((), f"{nested} {braid} " + " ".join(f"R{i}" for i in range(n, 0, -1)))
    k = rng.randint(1, 3)
    yield front((), " ".join(["L1"] * k + ["R1"] * k))
    yield random_front(rng, max_handles=0, max_extra=10)


def test_isotopy_moves_keep_the_ruling_polynomial():
    # every applicable move 1-3 candidate, along a short random walk from
    # each front; stabilisation kills every ruling
    rng = random.Random(29)
    checked = set()
    for _ in range(40):
        for d in ruled_fronts(rng):
            want = ruling_polynomial(d)
            for _ in range(6):
                moved = []
                for move, kwargs in move_candidates(d):
                    if move <= 3:
                        try:
                            moved.append(apply_move(d, move, **kwargs))
                        except FrontError:
                            continue
                        assert ruling_polynomial(moved[-1]) == want, (d.events, move, kwargs)
                        checked.add(move)
                for cid in d.trace.ids:
                    assert ruling_polynomial(stabilize(d, cid, rng.choice(["up", "down"]))) == {}
                if not moved:
                    break
                d = rng.choice(moved)
    assert checked == {1, 2, 3}


# ---------------------------------------------------------------------------
# Stein form and surgery export


def test_check_stein_form():
    good = front((), TREFOIL, {}, {1: rat(0)})
    assert check_stein_form(good).ok
    marked = front((), TREFOIL, {}, {1: STEIN})
    assert check_stein_form(marked).ok
    bad = front((), TREFOIL, {}, {1: rat(5)})
    rep = check_stein_form(bad)
    assert not rep.ok
    assert "tb - 1 = 0" in rep.problems[0]
    missing = front((), TREFOIL)
    assert not check_stein_form(missing).ok


def test_surger_kinked_core_strand():
    d = FrontDiagram((1,), parse_event_word("L2 X1 R2"), {}, {1: STEIN})
    assert single(d).tb == -2
    p = surger_handles(d)
    assert p.m == 2
    assert [str(c) for c in p.coeffs] == ["-3", "0"]
    assert p.lk == ((0, 1), (1, 0))
    assert p.l0 == (False, True)
    assert p.unknot == (False, True)
    assert p.rot == (0, 0)
    assert p.tb == (-2, None)


def test_surger_requires_coefficients():
    with pytest.raises(FrontError, match="no surgery coefficient"):
        surger_handles(FrontDiagram((1,), ()))


def test_surger_stops_at_the_component_limit(monkeypatch):
    # every presentation surger writes must parse again, and parse_surgery
    # reads at most MAX_COMPONENTS components
    monkeypatch.setattr(surgery, "MAX_COMPONENTS", 5)
    unknots = parse_event_word("L1 L1 L1 L1 L1 R1 R1 R1 R1 R1")
    p = surger_handles(FrontDiagram((), unknots, {}, {c: STEIN for c in range(1, 6)}))
    assert p.m == 5 and parse_surgery(serialize_surgery(p)) == p
    # four unknots and the strand through one handle, plus that handle's unknot
    over = FrontDiagram((1,), unknots[1:-1], {}, {c: STEIN for c in range(1, 6)})
    with pytest.raises(FrontError, match="^the surgered presentation would have 6 components; the limit is 5$"):
        surger_handles(over)


def test_surger_two_handles():
    # one component through each handle, no crossings
    d = FrontDiagram((1, 1), (), {}, {1: rat(-1), 2: rat(3)})
    p = surger_handles(d)
    assert p.m == 4
    assert p.lk[0][2] == 1 and p.lk[1][3] == 1
    assert p.lk[0][1] == 0 and p.lk[2][3] == 0
    assert p.l0 == (False, False, True, True)


# ---------------------------------------------------------------------------
# format


def test_front_format_round_trip_fixture():
    text = (
        "front 1\n"
        "handles 1\n"
        "handle 1 slots 2\n"
        "events X1\n"
        "orient 1 -\n"
        "coeff 1 -7/2\n"
    )
    d = parse_front(text)
    assert serialize_front(d) == text
    assert d.orientations == {1: -1}
    assert d.coefficients == {1: rat(-7, 2)}


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_front_format_round_trip_random(seed):
    rng = random.Random(seed)
    d = random_front(rng)
    coeffs = {}
    for cid in range(1, n_components(d) + 1):
        roll = rng.random()
        if roll < 0.3:
            coeffs[cid] = STEIN
        elif roll < 0.6:
            coeffs[cid] = rat(rng.randint(-9, 9), rng.randint(1, 5))
    d = FrontDiagram(d.slots, d.events, d.orientations, coeffs)
    text = serialize_front(d)
    again = parse_front(text)
    assert serialize_front(again) == text


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_front_format_round_trip_on_900_crossing_words(seed):
    rng = random.Random(seed)
    # eight strands through one handle pair, 900 crossings among them
    word = ["L1", "L3", "L5"] + [f"X{rng.randint(1, 7)}" for _ in range(900)] + ["R1"] * 3
    d = front((2,), " ".join(word))
    coeffs = {c: rng.choice((STEIN, rat(rng.randint(-9, 9), rng.randint(1, 5)))) for c in d.trace.ids}
    d = FrontDiagram(d.slots, d.events, {c: rng.choice((1, -1)) for c in d.trace.ids}, coeffs)
    text = serialize_front(d)
    assert text.splitlines()[3] == "events " + " ".join(word)
    again = parse_front(text)
    assert again == d and serialize_front(again) == text


def reference_serialize_front(d):
    """serialize_front as written before each Event kept its token, which
    maps every event to a (kind, pos) key; the text must stay the same."""
    out = ["front 1", f"handles {d.n_handles}"]
    for h, s in enumerate(d.slots, start=1):
        out.append(f"handle {h} slots {s}")
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


def with_random_data(rng, d):
    ids = d.trace.ids
    coeffs = {c: rng.choice((STEIN, rat(rng.randint(-9, 9), rng.randint(1, 5)))) for c in ids}
    return FrontDiagram(d.slots, d.events, {c: rng.choice((1, -1)) for c in ids}, coeffs)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_serialize_front_matches_the_reference_after_moves_and_stabilization(seed):
    rng = random.Random(seed)
    d = with_random_data(rng, random_front(rng))
    rewritten = [d]
    for move, kw in move_candidates(d):
        try:
            rewritten.append(apply_move(d, move, **kw))
        except FrontError:
            pass
    rewritten += [stabilize(d, cid, way) for cid in d.trace.ids for way in ("up", "down")]
    for x in rewritten:
        text = serialize_front(x)
        assert text == reference_serialize_front(x)
        assert serialize_front(parse_front(text)) == text


@pytest.mark.parametrize("seed", [1, 2])
def test_serialize_front_matches_the_reference_on_bench_shaped_words(seed):
    rng = random.Random(seed)
    # five cusp pairs open 12 strands, so positions run to two digits
    long = strand_front(rng, 5, 900)
    assert max(e.pos for e in long.events) >= 10
    # one Event per column, as a caller that builds its word by hand has
    assert len(set(map(id, long.events))) == len(long.events)
    for d in (long, cusp_rich_front(rng, 12)):
        d = with_random_data(rng, d)
        assert serialize_front(d) == reference_serialize_front(d)
    d = FrontDiagram((True, 2), (Event("X", True),), {}, {1: ExtRational(True)})
    assert serialize_front(d) == reference_serialize_front(d)


def test_parse_front_reads_padded_positions_as_before():
    head = "front 1\nhandles 1\nhandle 1 slots 2\n"
    d = parse_front(head + "events L01 X002 X1 R01 X01\n")
    assert d == parse_front(head + "events L1 X2 X1 R1 X1\n")
    assert d.events == parse_event_word("L01 X002 X1 R01 X01")
    assert [e.token for e in d.events] == ["L1", "X2", "X1", "R1", "X1"]
    # X01 and X1 are distinct tokens, so each has its own Event
    assert d.events[2] is not d.events[4]
    assert serialize_front(d) == reference_serialize_front(d)


def test_an_events_token_is_not_a_field():
    e = Event("X", True)
    assert Event._fields == ("kind", "pos")
    assert repr(e) == "Event(kind='X', pos=1)"
    assert hash(e) == hash(("X", 1)) == hash(Event("X", 1))
    assert e == Event("X", 1) and e != Event("X", 2) and e != Event("L", 1)
    assert e.token == str(e) == "X1"
    assert Event(e.kind, 3).token == "X3"
    assert pickle.loads(pickle.dumps(e)).token == "X1"
    # equality and hash read kind and pos only, whatever the token holds
    odd = Event("X", 1)
    object.__setattr__(odd, "token", "junk")
    assert odd == e and hash(odd) == hash(e)


def test_parse_front_errors_carry_line_numbers():
    with pytest.raises(FrontError, match="front 1"):
        parse_front("fornt 1\n")
    with pytest.raises(FrontError, match="line 3"):
        parse_front("front 1\nhandles 0\nevents L1 Q1\n")
    with pytest.raises(FrontError, match="unknown or malformed"):
        parse_front("front 1\nhandles 0\nevents\nwibble 3\n")
    with pytest.raises(FrontError, match="out of range"):
        parse_front("front 1\nhandles 0\nevents L1 R1\norient 2 +\n")
    with pytest.raises(FrontError, match="no slot count"):
        parse_front("front 1\nhandles 2\nhandle 1 slots 1\n")
    for header in ("handles 0 extra", "handles 0 0"):
        with pytest.raises(FrontError, match="line 2: bad handle count"):
            parse_front(f"front 1\n{header}\nevents L1 R1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("front 1\n", "missing 'handles <n>' line"),
        ("front 1\nhandles -1\n", "negative handle count"),
        ("front 1\nhandles 1\nhandle 2 slots 0\n", "line 3: handle 2 out of range 1..1"),
        ("front 1\nhandles 2\nhandle 1 slots 0\nhandle 1 slots 0\n", "line 4: duplicate handle 1"),
        ("front 1\nhandles 1\nhandle 1 slots -2\n", "line 3: negative slot count"),
        ("front 1\nhandles 0\nevents L1 R1\nevents L1 R1\n", "line 4: duplicate events line"),
        ("front 1\nhandles 0\nevents L1 R1\norient 1 x\n", "line 4: orientation must be + or -"),
        # a body line that is not a handle line leaves a handle without one
        ("front 1\nhandles 1\nevents\n", "handles [1] have no slot count"),
    ],
)
def test_every_front_format_refusal(text, message):
    with pytest.raises(FrontError) as refused:
        parse_front(text)
    assert str(refused.value) == message


def test_events_and_diagrams_refuse_what_no_word_can_name():
    with pytest.raises(FrontError, match=r"^unknown event kind 'Y'$"):
        Event("Y", 1)
    with pytest.raises(FrontError, match=r"^coefficient given for unknown component 2$"):
        FrontDiagram((), parse_event_word("L1 R1"), {}, {2: rat(1)})


@pytest.mark.parametrize("repeat", ["orient 1 +\norient 1 -", "coeff 1 stein\ncoeff 1 stein"])
def test_parse_front_refuses_a_repeated_value_line(repeat):
    # the last line used to win, even over the same value given twice
    text = f"front 1\nhandles 0\nevents L1 R1\n{repeat}\n"
    key = repeat.split()[0]
    with pytest.raises(FrontError, match=rf"^line 5: duplicate {key} for component 1$"):
        parse_front(text)


def test_handle_count_is_bounded_by_the_body_lines():
    # every handle needs a handle line, so this count is refused before
    # any handle is listed
    with pytest.raises(FrontError, match="handles 1000000000 exceeds the body lines"):
        parse_front(f"front 1\nhandles {10**9}\nhandle 1 slots 0\n")
    assert parse_front("front 1\nhandles 1\nhandle 1 slots 0\n").n_handles == 1


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+1"])
def test_parse_front_number_tokens_are_ascii_digits(token):
    # int() accepts every one of these tokens
    good = ["handles 1", "handle 1 slots 0", "events L1 R1", "orient 1 +", "coeff 1 -2"]
    assert n_components(parse_front("front 1\n" + "\n".join(good) + "\n")) == 1
    cases = [
        (0, "handles {}", "bad handle count"),
        (1, "handle {} slots 0", "line 3: bad handle line"),
        (1, "handle 1 slots {}", "line 3: bad handle line"),
        (2, "events L{} R1", "line 4: bad event token"),
        (3, "orient {} +", "line 5: bad component index"),
        (4, "coeff {} -2", "line 6: bad component index"),
        (4, "coeff 1 {}", "line 6: bad rational"),
    ]
    for i, template, message in cases:
        bad = good[:i] + [template.format(token)] + good[i + 1:]
        with pytest.raises(FrontError, match=message):
            parse_front("front 1\n" + "\n".join(bad) + "\n")


def test_parse_front_allows_comments_and_blanks():
    d = parse_front("# a trefoil\nfront 1\n\nhandles 0\nevents " + TREFOIL + "\n")
    assert single(d).tb == 1
