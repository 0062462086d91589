import random

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
    random_front,
    resolve_coefficients,
    serialize_front,
    stabilize,
    surger_handles,
)
from steinkit import front as front_module
from steinkit.invariants import (
    InvariantError,
    SteinPresentation,
    characteristic_sublinks,
    theta,
)
from steinkit.numerics import rat
from steinkit.presentation import h1


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


def test_parse_event_word_rejects_garbage():
    with pytest.raises(FrontError):
        parse_event_word("L1 Q2")
    with pytest.raises(FrontError):
        parse_event_word("LX")


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


def assert_reference_trace(d):
    want, n = reference_trace(d)
    assert d.trace.n_components == n
    assert {node: d.trace.at(*node) for node, _ in d.trace.nodes()} == want


def crossing_heavy_front(rng, length):
    """A word of about `length` events, mostly crossings, over at most
    a dozen strands."""
    slots = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
    n = c = sum(slots)
    events = []
    for _ in range(length):
        kind = "L" if c < 2 else rng.choice("LRXXXXXXXX" if c < 12 else "RXXXXXXXXX")
        events.append(Event(kind, rng.randint(1, c + 1 if kind == "L" else c - 1)))
        c += {"L": 2, "R": -2, "X": 0}[kind]
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


def test_each_diagram_is_traced_once(monkeypatch):
    calls = []
    real = front_module._trace

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(front_module, "_trace", counting)

    def traces(fn, *args, **kwargs):
        calls.clear()
        result = fn(*args, **kwargs)
        return len(calls), result

    text = "front 1\nhandles 1\nhandle 1 slots 1\nevents L2 X1 R2\norient 1 -\ncoeff 1 stein\n"
    n, d = traces(parse_front, text)
    assert n == 1
    n, _ = traces(front, (), TREFOIL, {1: -1}, {1: STEIN})
    assert n == 1
    n, moved = traces(apply_move, d, 2, at=1, variant="birth-above")
    assert n == 1 and len(moved.events) == 5
    n, swung = traces(apply_move, d, 6, variant="bottom", handle=1)
    assert n == 1 and swung.coefficients == {1: STEIN}
    n, _ = traces(stabilize, d, 1, "down")
    assert n == 1
    n, _ = traces(random_front, random.Random(5))
    assert n == 1
    for reader in (component_stats, n_components, serialize_front, surger_handles,
                   parity_lint, check_stein_form, resolve_coefficients):
        n, _ = traces(reader, d)
        assert n == 0, reader.__name__


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


# ---------------------------------------------------------------------------
# moves


def test_move1_commutes_distant_cusps():
    d = front((), "L1 L3 R1 R1")
    nd = apply_move(d, 1, at=1)
    assert [str(e) for e in nd.events] == ["L1", "L1", "R1", "R1"]
    back = apply_move(nd, 1, at=1)
    assert [str(e) for e in back.events] == ["L1", "L3", "R1", "R1"]


def test_move1_rejects_interacting_columns():
    with pytest.raises(FrontError, match="not applicable"):
        apply_move(front((), "L1 R1"), 1, at=1)


def test_move1_needs_two_columns():
    for slots, word in [((), ""), ((2,), "X1")]:
        with pytest.raises(FrontError, match="move 1 needs at least two columns"):
            apply_move(front(slots, word), 1, at=1)


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
    # tb + rot + 1 = unsigned passes mod 2 for every drawable front
    rng = random.Random(seed)
    d = random_front(rng)
    assert all(rep.ok for rep in parity_lint(d))


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
