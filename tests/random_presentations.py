"""Random surgery presentations, as a hypothesis strategy, for the property tests."""

from hypothesis import strategies as st

from steinkit.numerics import INF, rat
from steinkit.presentation import SurgeryPresentation

coefficients = st.one_of(
    st.just(INF),
    st.integers(-3, 3).map(rat),
    st.sampled_from((rat(1), rat(-1))),  # blow_down applies to these on unknots
    st.builds(rat, st.integers(-12, 12), st.integers(1, 7)),
)


@st.composite
def presentations(draw, max_m: int = 5) -> SurgeryPresentation:
    """A valid presentation with flags, rot and tb data.

    Every tb lies above its finite coefficient, so stein_plan accepts the
    presentation unless a tb is missing.  Some carry a coefficient -1/n,
    n in 65..80, whose chain alone has n components, so their expansions
    pass 64 components.  About a fifth of the components are l0 unknots.
    """
    m = draw(st.integers(1, max_m))
    coeffs = draw(st.lists(coefficients, min_size=m, max_size=m))
    if draw(st.booleans()):
        coeffs[draw(st.integers(0, m - 1))] = rat(-1, draw(st.integers(65, 80)))
    lk = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            lk[i][j] = lk[j][i] = draw(st.integers(-2, 2))
    l0 = [draw(st.integers(0, 4)) == 0 for _ in range(m)]
    coeffs = [rat(0) if f else c for f, c in zip(l0, coeffs)]
    unknot = [f or draw(st.booleans()) for f in l0]
    rot = draw(st.lists(st.none() | st.integers(-3, 3), min_size=m, max_size=m))
    tb = [
        None if c.is_infinite else draw(st.none() | st.integers(1, 3).map(lambda k: c.num // c.den + k))
        for c in coeffs
    ]
    return SurgeryPresentation(coeffs=coeffs, lk=lk, unknot=unknot, l0=l0, rot=rot, tb=tb)
