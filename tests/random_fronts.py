"""Random fronts for the property tests."""

from steinkit.front import Event, FrontDiagram, _attach


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
