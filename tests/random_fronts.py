"""Random fronts, and the moves to try on them, for the property tests."""

from steinkit.diagram import _attach
from steinkit.front import Event, FrontDiagram


def random_front(rng, max_handles: int = 2, max_slot: int = 2, max_extra: int = 8) -> FrontDiagram:
    """A small valid random front with random orientations."""
    n_handles = rng.randint(0, max_handles)
    slots = tuple(rng.randint(1, max_slot) for _ in range(n_handles))
    n = sum(slots)
    events = []
    c = n
    for _ in range(rng.randint(0, max_extra)):
        kinds = ["L"] if c < 2 else ["L", "R", "X", "X"]
        kind = rng.choice(kinds)
        if kind == "L":
            events.append(Event("L", rng.randint(1, c + 1)))
            c += 2
        elif kind == "R":
            events.append(Event("R", rng.randint(1, c - 1)))
            c -= 2
        else:
            events.append(Event("X", rng.randint(1, c - 1)))
    while c > n:
        events.append(Event("R", rng.randint(1, c - 1)))
        c -= 2
    while c < n:
        events.append(Event("L", rng.randint(1, c + 1)))
        c += 2
    d = FrontDiagram(slots, tuple(events))
    return _attach(d, {cid: rng.choice([1, -1]) for cid in d.trace.ids}, {})


def move_candidates(d: FrontDiagram) -> list[tuple[int, dict]]:
    """(move, keyword arguments of apply_move) for every column, variant
    and handle; most of them do not apply."""
    e, handles = len(d.events), range(1, d.n_handles + 1)
    variants2 = ("birth-above", "birth-below", "death-above", "death-below")
    return (
        [(1, {"at": at}) for at in range(1, e + 1)]
        + [(2, {"at": at, "variant": v}) for at in range(1, e + 1) for v in variants2]
        + [(3, {"at": at}) for at in range(1, e + 1)]
        + [(4, {"at": at, "variant": v, "handle": h})
           for at in (1, e) for v in ("in", "out") for h in handles]
        + [(5, {"at": at}) for at in (1, e)]
        + [(6, {"variant": v, "handle": h}) for v in ("top", "bottom") for h in handles]
    )
