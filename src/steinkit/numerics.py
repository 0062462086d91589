"""Exact arithmetic kernel: extended rationals, Moebius maps, integer matrices.

Everything in this module is integer or rational arithmetic.  No floating
point is used anywhere; surgery coefficients and cusp counts do not forgive
rounding.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm


class NumericsError(ValueError):
    pass


class InternalError(Exception):
    """A certificate check inside steinkit failed: a defect of the library,
    not of its input, so no ValueError.  The command line exits 3 on it."""


# ---------------------------------------------------------------------------
# extended rationals


@dataclass(frozen=True)
class ExtRational:
    """A rational number or the single point at infinity.

    Canonical form: den >= 0, gcd(num, den) == 1, and infinity is 1/0.
    Arithmetic and order run on num/den alone; int is the only other operand.
    Infinity is unsigned, so the order operators reject it; on the slope
    line it plays the role of -infinity, see slope_less.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        if not isinstance(self.num, int) or not isinstance(self.den, int):
            raise NumericsError(f"ExtRational needs ints, got {self.num!r}/{self.den!r}")
        num, den = self.num, self.den
        if den == 0:
            if num == 0:
                raise NumericsError("0/0 is not a point of the projective line")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g > 1:
                num, den = num // g, den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- predicates

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    # -- arithmetic (finite-only unless a rule below applies)

    def _coerce(self, other) -> "ExtRational":
        if isinstance(other, ExtRational):
            return other
        if isinstance(other, int):
            return ExtRational(other)
        raise NumericsError(f"cannot combine ExtRational with {other!r}")

    def __add__(self, other) -> "ExtRational":
        other = self._coerce(other)
        if self.is_infinite and other.is_infinite:
            raise NumericsError("inf + inf is undefined")
        if self.is_infinite or other.is_infinite:
            return INF
        return ExtRational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "ExtRational":
        if self.is_infinite:
            return INF
        return ExtRational(-self.num, self.den)

    def __sub__(self, other) -> "ExtRational":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "ExtRational":
        other = self._coerce(other)
        if self.is_infinite or other.is_infinite:
            if self == ZERO or other == ZERO:
                raise NumericsError("0 * inf is undefined")
            return INF
        return ExtRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "ExtRational":
        return ExtRational(self.den, self.num)

    def __truediv__(self, other) -> "ExtRational":
        other = self._coerce(other)
        if self.is_infinite and other.is_infinite:
            raise NumericsError("inf / inf is undefined")
        return self * other.reciprocal()

    # -- order (finite operands only; slope_less handles infinity)

    def _cross(self, other) -> tuple[int, int]:
        """(a*d, c*b) for self = a/b and other = c/d.  Both denominators
        are positive, so these products are ordered as the two values."""
        if self.is_infinite:
            raise NumericsError("infinity is not ordered; use slope_less")
        other = self._coerce(other)
        if other.is_infinite:
            raise NumericsError("infinity is not ordered; use slope_less")
        return self.num * other.den, other.num * self.den

    def __lt__(self, other):
        return operator.lt(*self._cross(other))

    def __le__(self, other):
        return operator.le(*self._cross(other))

    def __gt__(self, other):
        return operator.gt(*self._cross(other))

    def __ge__(self, other):
        return operator.ge(*self._cross(other))

    def __eq__(self, other):
        if isinstance(other, (int, ExtRational)):
            other = self._coerce(other)
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        # an integer value equals its int, so it must hash like one
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"ExtRational({self})"


INF = ExtRational(1, 0)
ZERO = ExtRational(0)


def rat(num, den: int = 1) -> ExtRational:
    """Shorthand constructor: an ExtRational as it is, or num/den from ints."""
    if isinstance(num, ExtRational):
        return num
    return ExtRational(num, den)


_INT_RE = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """An integer token, -?[0-9]+: unlike int(), no '1_0', no non-ASCII
    digits, no leading '+' and no surrounding whitespace."""
    if not _INT_RE.fullmatch(text):
        raise NumericsError(f"bad integer {text!r}")
    return int(text)


def parse_rational(text: str) -> ExtRational:
    """'inf', 'p' or 'p/q', with p and q read by parse_int, so no blanks."""
    if text == "inf":
        return INF
    num, slash, den = text.partition("/")
    try:
        return ExtRational(parse_int(num), parse_int(den) if slash else 1)
    except ValueError as exc:
        raise NumericsError(f"bad rational {text!r}") from exc


def floor_frac(r: ExtRational) -> tuple[int, ExtRational]:
    """Split a finite r as r = floor(r) + f with f in [0, 1)."""
    if r.is_infinite:
        raise NumericsError("floor_frac needs a finite rational")
    fl = r.num // r.den
    return fl, r - fl


def slope_less(x: ExtRational, bound: ExtRational) -> bool:
    """x < bound on the slope line, where infinity sits at the bottom.

    Coefficient normalization lands in [-inf, -1), whose infinite point
    is reached from below, so infinity compares below every rational.
    """
    if x.is_infinite:
        return not bound.is_infinite
    if bound.is_infinite:
        return False
    return x < bound


# ---------------------------------------------------------------------------
# Moebius maps


@dataclass(frozen=True)
class MobiusMap:
    """Determinant-one fractional linear map r -> (c + d r) / (a + b r).

    The layout matches slope coordinates: rows (a, b) and (c, d), acting on
    the projective rational line with inf -> d/b.  Maps are canonicalised to
    a single sign representative, so equal maps compare equal.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise NumericsError(
                f"MobiusMap needs determinant 1, got {self.a * self.d - self.b * self.c}"
            )
        for v in (self.a, self.b, self.c, self.d):
            if v != 0:
                if v < 0:
                    object.__setattr__(self, "a", -self.a)
                    object.__setattr__(self, "b", -self.b)
                    object.__setattr__(self, "c", -self.c)
                    object.__setattr__(self, "d", -self.d)
                break

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    def apply(self, r: ExtRational) -> ExtRational:
        if r.is_infinite:
            return ExtRational(self.d, self.b)
        # r = p/q with q > 0; image = (c q + d p) / (a q + b p)
        p, q = r.num, r.den
        return ExtRational(self.c * q + self.d * p, self.a * q + self.b * p)

    def __mul__(self, other: "MobiusMap") -> "MobiusMap":
        # (self * other).apply(r) == self.apply(other.apply(r))
        if not isinstance(other, MobiusMap):
            return NotImplemented
        return MobiusMap(
            a=self.b * other.c + self.a * other.a,
            b=self.b * other.d + self.a * other.b,
            c=self.d * other.c + self.c * other.a,
            d=self.d * other.d + self.c * other.b,
        )

    def __str__(self) -> str:
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


# ---------------------------------------------------------------------------
# continued fractions with all tail terms <= -2


@dataclass(frozen=True)
class ContinuedFraction:
    """Expansion r = a0 - 1/(a1 - 1/(... - 1/ak)) with a_j <= -2 for j >= 1.

    With that tail constraint the expansion of a rational is unique, which
    makes chain presentations canonical.
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise NumericsError("a continued fraction needs at least one term")
        for t in self.terms:
            if not isinstance(t, int):
                raise NumericsError(f"continued fraction terms must be ints, got {t!r}")
        for t in self.terms[1:]:
            if t > -2:
                raise NumericsError(f"tail term {t} violates the <= -2 normal form")

    def evaluate(self) -> ExtRational:
        num, den = self.terms[-1], 1
        for term in reversed(self.terms[:-1]):
            # a tail value num/den is <= -1, so term - den/num is finite
            num, den = term * num - den, num
        return ExtRational(num, den)


def neg_continued_fraction(r: ExtRational) -> ContinuedFraction:
    """The unique expansion of a finite rational with tail terms <= -2."""
    if r.is_infinite:
        raise NumericsError("infinity has no continued fraction expansion")
    num, den, terms = r.num, r.den, []
    while True:
        fl, rem = divmod(num, den)
        terms.append(fl)
        if rem == 0:
            return ContinuedFraction(tuple(terms))
        # r = fl + rem/den = fl - 1/r' means r' = -den/rem, in (-inf, -1)
        num, den = -den, rem


# ---------------------------------------------------------------------------
# Smith normal form with unimodular witnesses

# Guards only the witnessed form below, whose left and right witnesses can
# grow to thousands of bits on dense input.  invariant_factors builds no
# witness and takes no cap.
MAX_SNF_DIM = 64


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithForm:
    """D = left * M * right with left, right unimodular and D in Smith form."""

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix) -> SmithForm:
    """Smith normal form of an integer matrix, with transformation witnesses.

    Returns diag(d1..dr, 0..) with nonnegative d_i and d_i | d_{i+1},
    together with the unimodular row and column operations that realise it.
    Deterministic: pivots are chosen by minimal absolute value, first in
    row-major order, and are moved into place by a column swap before a row
    swap.  That pivot discipline is what makes cokernel coordinates
    reproducible, so do not change it casually.
    """
    m = [[int(v) for v in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    for row in m:
        if len(row) != ncols:
            raise NumericsError("ragged matrix")
    if nrows > MAX_SNF_DIM or ncols > MAX_SNF_DIM:
        raise NumericsError(f"smith_normal_form caps dimensions at {MAX_SNF_DIM}")

    left = _identity(nrows)
    right = _identity(ncols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        # row_dst += k * row_src
        m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]
        left[dst] = [x + k * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, k):
        for row in m:
            row[dst] += k * row[src]
        for row in right:
            row[dst] += k * row[src]

    def scale_row(i, k):
        m[i] = [k * x for x in m[i]]
        left[i] = [k * x for x in left[i]]

    def find_pivot(s):
        best = None
        for i in range(s, nrows):
            for j in range(s, ncols):
                v = abs(m[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    s = 0
    while s < min(nrows, ncols):
        found = find_pivot(s)
        if found is None:
            break
        _, pi, pj = found
        if pj != s:
            swap_cols(pj, s)
        if pi != s:
            swap_rows(pi, s)

        dirty = False
        for i in range(s + 1, nrows):
            if m[i][s]:
                q = m[i][s] // m[s][s]
                add_row(i, s, -q)
                if m[i][s]:
                    dirty = True
        for j in range(s + 1, ncols):
            if m[s][j]:
                q = m[s][j] // m[s][s]
                add_col(j, s, -q)
                if m[s][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller pivot candidates

        # enforce divisibility of the remaining block by the pivot
        p = m[s][s]
        offender = None
        for i in range(s + 1, nrows):
            for j in range(s + 1, ncols):
                if m[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(s, offender, 1)
            continue

        if p < 0:
            scale_row(s, -1)
        s += 1

    diag = tuple(m[i][i] for i in range(min(nrows, ncols)))
    return SmithForm(
        diagonal=diag,
        left=tuple(tuple(row) for row in left),
        right=tuple(tuple(row) for row in right),
    )


def _nearest_quotient(a: int, b: int) -> int:
    """The integer nearest a/b, so a - q*b lies in (-|b|/2, |b|/2]."""
    return (2 * a + b) // (2 * b)


def invariant_factors(matrix) -> tuple[int, ...]:
    """The diagonal of smith_normal_form(matrix), without the witnesses.

    Column-local Euclid: the smallest nonzero entry of the current column
    is the pivot, and row operations clear the rest of that column.  Then
    the column has one nonzero entry, so the column operations that reduce
    the pivot row mod |pivot| touch that row alone.  A nonzero remainder is
    a smaller pivot: its column becomes the current one.  Otherwise the
    pivot splits off as a 1x1 block.  The block values are then normalised
    to a divisor chain by gcd/lcm, which keeps the group they present.
    Taking the smallest pivot and rounded quotients keeps entries from the
    growth a plain extended-gcd sweep shows, and no witness is built, so
    no dimension cap applies.
    """
    rows = [[int(v) for v in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(row) != ncols for row in rows):
        raise NumericsError("ragged matrix")
    blocks = []
    while rows and rows[0]:
        c = len(rows[0]) - 1  # the current column is always the last one
        while True:
            live = [r for r in rows if r[c]]
            if not live:
                break  # a zero column contributes a zero factor
            while len(live) > 1:
                piv = min(live, key=lambda r: abs(r[c]))
                p, left = piv[c], [piv]
                support = [(j, y) for j, y in enumerate(piv) if y]
                for r in live:
                    if r is not piv:
                        q = _nearest_quotient(r[c], p)
                        for j, y in support:
                            r[j] -= q * y
                        if r[c]:
                            left.append(r)
                live = left
            piv = live[0]
            ap = abs(piv[c])
            rem = None
            if ap > 1:  # a unit pivot reduces its whole row to zero mod 1
                for j in range(c):
                    if piv[j]:
                        piv[j] -= ap * _nearest_quotient(piv[j], ap)
                rem = min((j for j in range(c) if piv[j]), key=lambda j: abs(piv[j]), default=None)
            if rem is None:
                rows = [r for r in rows if r is not piv]
                blocks.append(ap)
                break
            for r in rows:
                r[rem], r[c] = r[c], r[rem]
        for r in rows:
            r.pop()
    factors = sorted(d for d in blocks if d > 1)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    ones = len(blocks) - len(factors)
    return (1,) * ones + tuple(factors) + (0,) * (min(nrows, ncols) - len(blocks))


def first_asymmetry(matrix) -> tuple[int, int] | None:
    """The first (i, j), j < i in row-major order, where a square matrix
    differs from its transpose; None when it is symmetric."""
    n = len(matrix)
    return next(
        ((i, j) for i in range(n) for j in range(i) if matrix[i][j] != matrix[j][i]), None
    )


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan elimination


def solve_rational(matrix, *rhs) -> tuple[list[Fraction] | None, ...]:
    """Solve square integer linear systems over Q, one per right-hand side.

    One fraction-free (Bareiss) Gauss-Jordan elimination of the rows
    augmented by every right-hand side, pivots taken column by column from
    the first row with a nonzero entry.  Each entry stays a minor, so every
    division by the previous pivot is exact, and the only division into
    rationals is by the last pivot.  Free variables are set to zero; an
    inconsistent system gets None in place of its solution.
    """
    n = len(matrix)
    aug = [list(row) + [b[i] for b in rhs] for i, row in enumerate(matrix)]
    if not all(map(isinstance, chain.from_iterable(aug), repeat(int))):
        raise NumericsError("solve_rational needs integer entries")
    pivots, prev = [], 1
    for col in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, n) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        top = aug[r]
        p = top[col]
        for i, row in enumerate(aug):
            f = row[col]
            if f and i != r:
                aug[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
            elif not f and p != prev:
                aug[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(col)
    solutions = []
    for k in range(n, n + len(rhs)):
        if any(row[k] for row in aug[len(pivots):]):
            solutions.append(None)
        else:
            value = dict(zip(pivots, (row[k] for row in aug)))
            solutions.append([Fraction(value.get(col, 0), prev) for col in range(n)])
    return tuple(solutions)


# ---------------------------------------------------------------------------
# exact signature of a rational symmetric matrix


def inertia(matrix) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric matrix.

    Congruence diagonalisation on integers, after scaling Fraction entries
    by the lcm of their denominators.  A nonzero diagonal pivot d (made by
    adding a row and column to another if the diagonal is zero) leaves the
    trailing block as |d| times its Schur complement over its content: both
    positive scalings, which keep the inertia.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NumericsError("inertia needs a square matrix")
    scale = lcm(*{v.denominator for row in matrix for v in row})
    m = [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]
    if [list(col) for col in zip(*m)] != m:
        raise NumericsError("inertia needs a symmetric matrix")
    pos = neg = 0
    while m:
        if not m[0][0]:
            k = next((i for i in range(len(m)) if m[i][i]), None)
            if k is None:
                pair = next(((i, j) for i, row in enumerate(m) for j in range(i) if row[j]), None)
                if pair is None:
                    break  # the zero matrix
                k, j = pair
                for row in m:
                    row[k] += row[j]
                m[k] = [x + y for x, y in zip(m[k], m[j])]
            m[0], m[k] = m[k], m[0]
            for row in m:
                row[0], row[k] = row[k], row[0]
        d, *v = m[0]
        if d > 0:
            pos, sgn = pos + 1, 1
        else:
            neg, sgn = neg + 1, -1
        ad = sgn * d
        m = [
            [ad * x - sgn * vi * y for x, y in zip(row[1:], v)] if vi else [ad * x for x in row[1:]]
            for vi, row in zip(v, m[1:])
        ]
        g = gcd(*chain.from_iterable(m))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return pos, n - pos - neg, neg


def signature(matrix) -> int:
    pos, _, neg = inertia(matrix)
    return pos - neg


# ---------------------------------------------------------------------------
# affine systems over GF(2)


@dataclass(frozen=True)
class Gf2Solution:
    particular: tuple[int, ...]
    kernel_basis: tuple[tuple[int, ...], ...]

    def count(self) -> int:
        return 1 << len(self.kernel_basis)

    def enumerate(self):
        """All solutions, as 0/1 tuples, in a deterministic order."""
        n = len(self.particular)
        for mask in range(self.count()):
            v = list(self.particular)
            for bit, basis in enumerate(self.kernel_basis):
                if (mask >> bit) & 1:
                    v = [a ^ b for a, b in zip(v, basis)]
            yield tuple(v)


def solve_gf2_affine(matrix, rhs) -> Gf2Solution | None:
    """Solve A x = b over GF(2); None when inconsistent.

    Rows are any integer sequences (reduced mod 2).  The particular solution
    sets all free variables to 0, and the kernel basis vectors are indexed
    by free columns in increasing order.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rows = []
    for row, b in zip(matrix, rhs, strict=True):
        if len(row) != ncols:
            raise NumericsError("ragged GF(2) system")
        packed = 0
        for j, v in enumerate(row):
            if v & 1:
                packed |= 1 << j
        if b & 1:
            packed |= 1 << ncols
        rows.append(packed)

    pivots: dict[int, int] = {}
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, nrows) if (rows[i] >> col) & 1), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(nrows):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        pivots[col] = r
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if (rows[i] >> ncols) & 1:
            return None

    particular = [0] * ncols
    for col, row in pivots.items():
        particular[col] = (rows[row] >> ncols) & 1

    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for col, row in pivots.items():
            vec[col] = (rows[row] >> fc) & 1
        basis.append(tuple(vec))
    return Gf2Solution(particular=tuple(particular), kernel_basis=tuple(basis))
