"""Plane-field invariants of the boundary of a handle presentation.

A presentation with 1-handles is measured through its surgered link:
the m attaching circles carry a symmetric framing/linking matrix while
every 1-handle stands in as a 0-framed unknot whose linking row lists
algebraic run counts.  Spin structures of the boundary appear as
characteristic sublinks of that link, and the homotopy invariants of
the induced plane field come out of rotation numbers, the Euler
characteristic and the signature, all computed exactly.
"""

from functools import cached_property
from itertools import compress
from math import prod
from operator import add, sub

from .numerics import (
    ExtRational,
    Frozen,
    Gf2Solution,
    InternalError,
    SmithForm,
    _bordered_congruence,
    first_asymmetry,
    mat_vec,
    rat,
    smith_normal_form,
    solve_gf2_affine,
)
from .rational import int_entries
from .surgery import SurgeryPresentation, cokernel


class InvariantError(ValueError):
    pass


class SteinPresentation(Frozen):
    """Integer handle data: framings, linkings, runs and rotations.

    q is the m x m symmetric matrix of the 2-handles (framing on the
    diagonal, linking number off it), runs[h][i] counts algebraic runs
    of attaching circle i over 1-handle h, and rot[i] is the rotation
    number of circle i.

    Presentations are frozen: q and runs are stored as tuples of rows
    and rot as a tuple, each read by int_entries (the rows of q, then
    those of runs, then rot).  Construction validates the data once;
    from_presentation builds by Frozen._unchecked.  Q* (_qs, not a
    field), its Smith form, its characteristic solutions mod 2 and its
    congruence bordered by the Chern cocycle are each built at most
    once, on first use.
    """

    def __init__(self, q: tuple[tuple[int, ...], ...], runs: tuple[tuple[int, ...], ...],
                 rot: tuple[int, ...]):
        d = self.__dict__
        d["q"], d["runs"], d["rot"] = q, runs, rot
        self.__post_init__()

    def __post_init__(self):
        q, runs, rot = tuple(map(tuple, self.q)), tuple(map(tuple, self.runs)), tuple(self.rot)
        q, runs = (
            tuple(int_entries(row, lambda j, v: InvariantError(
                f"{name} entry ({i + 1}, {j + 1}) must be an int, got {v!r}")) for i, row in enumerate(rows))
            for name, rows in (("q", q), ("runs", runs))
        )
        rot = int_entries(rot, lambda i, v: InvariantError(f"rot entry {i + 1} must be an int, got {v!r}"))
        m = len(q)
        for i, row in enumerate(q):
            if len(row) != m:
                raise InvariantError(f"framing matrix row {i + 1} has length {len(row)}, want {m}")
        bad = first_asymmetry(q)
        if bad is not None:
            raise InvariantError(f"framing matrix is not symmetric at ({bad[0] + 1}, {bad[1] + 1})")
        for h, row in enumerate(runs):
            if len(row) != m:
                raise InvariantError(f"run row {h + 1} has length {len(row)}, want {m}")
        if len(rot) != m:
            raise InvariantError(f"got {len(rot)} rotation numbers for {m} circles")
        d = self.__dict__
        d["q"], d["runs"], d["rot"] = q, runs, rot

    @property
    def m(self) -> int:
        return len(self.q)

    @property
    def n1(self) -> int:
        return len(self.runs)

    @cached_property
    def _qs(self) -> tuple[tuple[int, ...], ...]:
        """Q*, as tuple rows, built on first use and kept."""
        runs = self.runs
        top = tuple(row + tuple(run[i] for run in runs) for i, row in enumerate(self.q))
        return top + tuple(run + (0,) * len(runs) for run in runs)

    def q_star(self) -> list[list[int]]:
        """The full linking matrix over circles and surgered 1-handles."""
        return [list(row) for row in self._qs]

    @cached_property
    def smith_form(self) -> SmithForm:
        """The Smith form of Q*, computed on first use and kept."""
        return smith_normal_form(self._qs)

    @cached_property
    def _characteristic_solutions(self) -> Gf2Solution:
        """The solutions v of Q* v = diag(Q*) mod 2, found on first use and kept."""
        qs = self._qs
        sol = solve_gf2_affine(qs, [qs[i][i] for i in range(len(qs))])
        if sol is None:
            # the diagonal of a symmetric matrix always lies in its column space mod 2
            raise InternalError("internal: the framing diagonal is not in the column space mod 2")
        return sol

    @cached_property
    def _chern_congruence(self) -> tuple[int, int, int, tuple[int, int] | None]:
        """_bordered_congruence of Q* by the Chern cocycle on both sides:
        the inertia of Q* and c^T Q*^+ c, computed on first use and kept."""
        c = chern_cocycle(self)
        return _bordered_congruence(self._qs, c, c)

    @cached_property
    def _rot_l0(self) -> tuple[int, ...]:
        """Per component of Q*, the part of twice gamma no sublink changes:
        rotation number (0 on a 1-handle) plus linking into the 1-handles."""
        return tuple(r + sum(row[self.m :]) for r, row in zip(chern_cocycle(self), self._qs))

    @classmethod
    def from_presentation(cls, p: SurgeryPresentation) -> "SteinPresentation":
        """Read handle data off an integer surgery presentation.

        Components flagged as the 0-framed sublink play the 1-handles
        and must sit after all others; they may not link each other.
        Every other component needs an integer coefficient and a known
        rotation number.  The result is built unchecked: p is valid.
        """
        n1 = sum(1 for flag in p.l0 if flag)
        m = p.m - n1
        if any(p.l0[:m]) or not all(p.l0[m:]):
            raise InvariantError("0-framed sublink components must come after all others")
        for i in range(m, p.m):
            for j in range(m, p.m):
                if i != j and p.lk[i][j] != 0:
                    raise InvariantError(
                        f"0-framed sublink components {i + 1} and {j + 1} may not link each other"
                    )
        for i in range(m):
            c = p.coeffs[i]
            if not c.is_integer:
                raise InvariantError(f"component {i + 1} has coefficient {c}, expand first")
            if p.rot[i] is None:
                raise InvariantError(f"component {i + 1} has no rotation number")
        q = tuple(row[:i] + (c.num,) + row[i + 1 : m] for i, (c, row) in enumerate(zip(p.coeffs, p.lk[:m])))
        return cls._unchecked(q, tuple(row[:m] for row in p.lk[m:]), p.rot[:m])


class SpinStructure(Frozen):
    """A characteristic sublink, as a 0/1 vector over the full link,
    stored as a tuple of ints (a bool as the int it equals); any other
    entry is refused."""

    def __init__(self, sublink: tuple[int, ...]):
        sublink = tuple(sublink)
        if not (set(map(type, sublink)) <= {int} and set(sublink) <= {0, 1}):
            for i, bit in enumerate(sublink, start=1):
                if not isinstance(bit, int) or bit not in (0, 1):
                    raise InvariantError(f"sublink entry {i} must be 0 or 1, got {bit!r}")
            sublink = tuple(map(int, sublink))
        self.__dict__["sublink"] = sublink

    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, bit in enumerate(self.sublink) if bit)


class CokernelClass(Frozen):
    """An element of coker(q_star) in canonical coordinates.

    orders lists the invariant factors (0 meaning infinite), and
    coords[i] is reduced mod orders[i] where that order is finite.
    Two classes are equal exactly when coords and orders agree; the
    integer representative is kept for inspection only.  All three are
    stored as tuples.
    """

    _uncompared = ("representative",)

    def __init__(self, coords: tuple[int, ...], orders: tuple[int, ...],
                 representative: tuple[int, ...] = ()):
        d = self.__dict__
        d["coords"], d["orders"], d["representative"] = (
            tuple(coords), tuple(orders), tuple(representative))


def _cokernel_class(snf: SmithForm, vec) -> CokernelClass:
    """The class of vec in the cokernel of the matrix whose Smith form is snf."""
    coords = mat_vec(snf.left, vec)
    orders = snf.diagonal
    reduced = tuple(c % d if d else c for c, d in zip(coords, orders))
    return CokernelClass(coords=reduced, orders=orders, representative=vec)


def chern_cocycle(x: SteinPresentation) -> list[int]:
    """Rotation numbers over the circles, zero over the 1-handle slots."""
    return list(x.rot) + [0] * x.n1


def characteristic_sublinks(x: SteinPresentation) -> list[SpinStructure]:
    """All sublinks whose linking row matches every framing mod 2.

    These classify the spin structures of the boundary, so the list is
    never empty; it has 2^k entries where k is the mod-2 nullity of the
    full linking matrix.
    """
    # each v is a tuple of 0/1 ints by construction
    return [SpinStructure._unchecked(v) for v in sorted(x._characteristic_solutions.enumerate())]


def characteristic_sublink_count(x: SteinPresentation) -> int:
    """len(characteristic_sublinks(x)), 2^k, without enumerating them."""
    return x._characteristic_solutions.count()


def gamma(x: SteinPresentation, s: SpinStructure) -> CokernelClass:
    """The half-Chern obstruction class attached to a spin structure.

    Over each link component the representative collects half of the
    rotation number plus the linking into the 0-framed sublink and into
    the characteristic sublink (framings counted for self-linking).
    The result is integral exactly when the presentation satisfies the
    rotation parity constraint, and is returned mod the column space of
    the full linking matrix.
    """
    qs = x._qs
    size = len(qs)
    if len(s.sublink) != size:
        raise InvariantError(f"spin structure has length {len(s.sublink)}, want {size}")
    # Q* is symmetric, so the linking into the sublink sums its member rows
    lk_sub = [*map(sum, zip(*compress(qs, s.sublink)))] or [0] * size
    odd = (1).__and__  # the parity of an int, mapped at C speed
    if any(map(odd, map(sub, lk_sub, map(tuple.__getitem__, qs, range(size))))):
        raise InvariantError(f"sublink {s.members()} is not characteristic")
    twice = [*map(add, x._rot_l0, lk_sub)]
    if any(map(odd, twice)):
        i = next(i for i, t in enumerate(twice) if t % 2)
        raise InvariantError(
            f"rotation parity violated on component {i + 1}: the class is half-integral"
        )
    return _cokernel_class(x.smith_form, [t // 2 for t in twice])


def _chi_sigma_term(x: SteinPresentation, sigma: int) -> int:
    """-2*chi - 3*sigma, with chi = 1 - n1 + m and sigma = signature(Q*)."""
    return -2 * (1 - x.n1 + x.m) - 3 * sigma


def theta(x: SteinPresentation) -> ExtRational:
    """Squared-Chern invariant of the boundary plane field.

    Defined only when the Chern cocycle is torsion in the cokernel of
    the full linking matrix; the value is the square of any rational
    preimage against the cocycle, corrected by Euler characteristic and
    signature.  The handlebody's signature, that of q on the kernel of
    runs, is signature(Q*): a congruence clears the q-blocks against an
    I_r block of runs (r its rank), which leaves a hyperbolic part of
    signature 0 plus q restricted to that kernel.  One bordered
    congruence of Q* by c gives both sigma and c^T Q*^+ c.
    """
    pos, _, neg, square = x._chern_congruence
    if square is None:
        raise InvariantError("theta undefined: c1 has infinite order")
    num, den = square
    return rat(num + _chi_sigma_term(x, pos - neg) * den, den)


def theta_f0_and_d(x: SteinPresentation) -> tuple[int, int]:
    """Divisibility of the Chern class and the 0-framed theta residue.

    d is the divisibility of the Chern cocycle in the free part of the
    cokernel (0 when the class is torsion): with coker Q* = T + Z^k and
    c = (t, d*u), u primitive, coker [Q* | c] = Z^(k-1) + (T + Z)/<(t, d)>
    has torsion of order d*|T|, so invariant factors give d, with no
    witness and no dimension cap.  The second value is -2*chi - 3*sigma
    reduced into [0, 2d) when d > 0, and exact when d = 0.  As in theta,
    sigma is signature(Q*), which equals that of q on the kernel of runs
    by a congruence that leaves a hyperbolic part of signature 0.
    """
    pos, _, neg, square = x._chern_congruence
    d = 0
    if square is None:  # c has infinite order
        bordered = [row + (ci,) for row, ci in zip(x._qs, chern_cocycle(x))]
        d = prod(cokernel(bordered).factors) // prod(cokernel(x._qs).factors)
    base = _chi_sigma_term(x, pos - neg)
    return d, (base % (2 * d) if d else base)
