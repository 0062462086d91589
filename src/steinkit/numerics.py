"""Exact arithmetic kernel: extended rationals, Moebius maps, integer matrices.

Everything in this module is integer or rational arithmetic.  No floating
point is used anywhere; surgery coefficients and cusp counts do not forgive
rounding.  A symmetric matrix has one elimination, a bordered fraction-free
congruence that gives its inertia and x^T Q^+ y together.  The scalars are
defined in steinkit.rational and bound here too; this module adds the
matrix kernels: Smith forms, the congruence and GF(2) solving.
"""

from __future__ import annotations

import operator
from itertools import chain
from math import gcd, lcm

from .rational import (  # the scalars, re-exported
    INF, ZERO, ContinuedFraction, ExtRational, Frozen, InternalError, MobiusMap, NumericsError,
    _first_asymmetry, first_asymmetry, int_entries, neg_continued_fraction, parse_int, parse_rational, rat,
)


# ---------------------------------------------------------------------------
# Smith normal form with unimodular witnesses

# Guards only the witnessed form below, whose left and right witnesses can
# grow to thousands of bits on dense input.  invariant_factors builds no
# witness and takes no cap.
MAX_SNF_DIM = 64


class SmithForm(Frozen):
    """D = left * M * right with left, right unimodular and D in Smith form."""

    def __init__(self, diagonal: tuple[int, ...], left: tuple[tuple[int, ...], ...],
                 right: tuple[tuple[int, ...], ...]):
        d = self.__dict__
        d["diagonal"], d["left"], d["right"] = diagonal, left, right


def _int_rows(matrix) -> list[list[int]]:
    """The rows of an integer matrix, copied.  A ragged matrix raises
    NumericsError rather than being truncated; then each row is read by
    int_entries."""
    rows = [*map(tuple, matrix)]
    if any(len(row) != len(rows[0]) for row in rows):
        raise NumericsError("ragged matrix")
    return [[*int_entries(row, lambda i, v: NumericsError(f"matrix entries must be ints, got {v!r}"))]
            for row in rows]


def smith_normal_form(matrix) -> SmithForm:
    """Smith normal form of an integer matrix, with transformation witnesses.

    Returns diag(d1..dr, 0..) with nonnegative d_i and d_i | d_{i+1},
    together with the unimodular row and column operations that realise it.
    Deterministic: pivots are chosen by minimal absolute value, first in
    row-major order, and are moved into place by a column swap before a row
    swap.  That pivot discipline is what makes cokernel coordinates
    reproducible, so do not change it casually.

    One working matrix A = [[M, I], [I, 0]] carries the witnesses: an
    operation on M's rows acts on the identity to their right, which ends
    as left, and one on M's columns on the identity below, which ends as
    right.  The zero block is never touched, so it is not stored.
    """
    a = _int_rows(matrix)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if nrows > MAX_SNF_DIM or ncols > MAX_SNF_DIM:
        raise NumericsError(f"smith_normal_form caps dimensions at {MAX_SNF_DIM}")
    for i, row in enumerate(a):
        row += [*(0,) * i, 1, *(0,) * (nrows - 1 - i)]
    a += ([*(0,) * j, 1, *(0,) * (ncols - 1 - j)] for j in range(ncols))

    s = 0
    while s < min(nrows, ncols):
        best = None
        for i in range(s, nrows):
            for j in range(s, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        break  # no entry is smaller, so this first unit is the pivot
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pj != s:
            for row in a:
                row[s], row[pj] = row[pj], row[s]
        a[s], a[pi] = a[pi], a[s]

        top = a[s]
        p = top[s]
        dirty = False
        for i in range(s + 1, nrows):
            if a[i][s]:
                q = a[i][s] // p
                a[i] = [x - q * y for x, y in zip(a[i], top)]
                dirty = dirty or a[i][s] != 0
        support = [row for row in a if row[s]]  # a column operation moves only these
        for j in range(s + 1, ncols):
            if top[j]:
                q = top[j] // p
                for row in support:
                    row[j] -= q * row[s]
                dirty = dirty or top[j] != 0
        if dirty:
            continue  # remainders became new, smaller pivot candidates

        # enforce divisibility of the remaining block by the pivot; a unit divides all
        offender = None if p in (1, -1) else next(
            (i for i in range(s + 1, nrows) if any(a[i][j] % p for j in range(s + 1, ncols))),
            None,
        )
        if offender is not None:
            a[s] = [x + y for x, y in zip(top, a[offender])]
            continue

        if p < 0:
            a[s] = [-x for x in top]
        s += 1

    return SmithForm(
        diagonal=tuple(a[i][i] for i in range(min(nrows, ncols))),
        left=tuple(tuple(row[ncols:]) for row in a[:nrows]),
        right=tuple(map(tuple, a[nrows:])),
    )


def invariant_factors(matrix) -> tuple[int, ...]:
    """The diagonal of smith_normal_form(matrix), without the witnesses.

    Column-local Euclid: the smallest nonzero entry of the current column
    is the pivot, and row operations by the nearest integer quotient clear
    the rest of that column.  Then the column has one nonzero entry, so
    the column operations that reduce the pivot row mod |pivot| touch that
    row alone.  A nonzero remainder is a smaller pivot: its column becomes
    the current one.  Otherwise the pivot splits off as a 1x1 block.  The
    block values are then normalised to a divisor chain by gcd/lcm, which
    keeps the group they present.  Taking the smallest pivot and rounded
    quotients keeps entries from the growth a plain extended-gcd sweep
    shows, and no witness is built, so no dimension cap applies.  The rows
    are never reshaped: a list of live column indices holds the current
    column last, a remainder's column trades places with it in that list,
    and a split-off column is popped from it.
    """
    return _invariant_factors(_int_rows(matrix))


def _invariant_factors(rows: list[list[int]]) -> tuple[int, ...]:
    """invariant_factors of fresh rows of plain ints, all of one length; it consumes them."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    cols = list(range(ncols))
    blocks = []
    while rows and cols:
        c = cols[-1]
        while True:
            live = [r for r in rows if r[c]]
            if not live:
                break  # a zero column contributes a zero factor
            while len(live) > 1:
                piv, ap = live[0], abs(live[0][c])
                for r in live:
                    if abs(r[c]) < ap:
                        piv, ap = r, abs(r[c])
                p, left = piv[c], [piv]
                support = [(j, piv[j]) for j in cols if piv[j]]
                for r in live:
                    if r is not piv:
                        q = (2 * r[c] + p) // (2 * p)  # the integer nearest r[c] / p
                        for j, y in support:
                            r[j] -= q * y
                        if r[c]:
                            left.append(r)
                live = left
            piv = live[0]
            ap, h = abs(piv[c]), abs(piv[c]) // 2
            rem = None
            if ap > 1:  # a unit pivot reduces its whole row to zero mod 1
                for k in range(len(cols) - 1):
                    j = cols[k]
                    if piv[j]:
                        piv[j] = v = (piv[j] + h) % ap - h  # by the nearest quotient, as above
                        if v and (rem is None or abs(v) < best):
                            rem, best = k, abs(v)
            if rem is None:
                rows = [r for r in rows if r is not piv]
                blocks.append(ap)
                break
            cols[rem], cols[-1] = c, cols[rem]
            c = cols[-1]
        cols.pop()
    factors = sorted(d for d in blocks if d > 1)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    ones = len(blocks) - len(factors)
    return (1,) * ones + tuple(factors) + (0,) * (min(nrows, ncols) - len(blocks))


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


# ---------------------------------------------------------------------------
# one fraction-free congruence: inertia and x^T Q^+ y of a symmetric matrix


def _bareiss_step(row, k, top, d, prev):
    """Drop f = row[k], and make each entry a (d*a - f*b) // prev, b from top."""
    f = row.pop(k)
    if f:
        return [(d * a - f * b) // prev for a, b in zip(row, top)]
    return [d * a // prev for a in row]


def _bordered_congruence(q, x, y):
    """(positive, zero, negative, value) for an integer symmetric Q bordered
    by a row x and a column y: A = [[Q, y], [x^T, 0]].  value is x^T Q^+ y
    as an int pair (num, den), x^T z for any z with Q z = y; it is None when
    x or y is nonzero on the zero block left at the end.

    Symmetric fraction-free (Bareiss) elimination; the border index is
    never a pivot.  The pivot is the first live index with a nonzero
    diagonal entry d.  If the live diagonal is all zero, row and column j
    are first added to row and column i, for the first (i, j), j < i, with
    a nonzero entry, so that d = 2*a_ij; if there is none, the trailing Q
    block is zero and the elimination stops.  Every other live entry a,
    the border's included, becomes (d*a - f*g) // prev, for f and g the
    entries in a's row and column on the pivot's, and prev the last pivot
    (1 at first).
    A pivot is positive when d and prev have the same sign: d/prev is the
    next entry of an LDL^T, so Sylvester's law of inertia applies.

    Exact division.  Without row-adds this is Bareiss: after the pivots K
    the entry (i, j) is the minor of A on rows K+i and columns K+j, and
    prev the minor on K, so Sylvester's identity makes each division
    exact.  A row-add on live i, j is the unimodular congruence
    A -> F A F^T, F = 1 + E_ij, which fixes the border and every pivot
    index.  A minor is linear in its last row and its last column, so the
    stored block then holds the minors of F A F^T, with the same minors on
    K: the state is Bareiss run on an integer matrix, and stays exact.

    The value.  F A F^T has borders F x and F y, and z = F^T z' maps the
    solutions of (F Q F^T) z' = F y onto those of Q z = y, with
    (F x)^T z' = x^T z; so take A as it is at the end, K the pivots and T
    the zero block.  The corner is det [[Q_K, y_K], [x_K^T, 0]] =
    -prev * x_K^T Q_K^-1 y_K.  The stored y_T is prev * (y_T - Q_TK Q_K^-1
    y_K), zero exactly when y lies in the column space of Q, which the
    columns K span, and then z = (Q_K^-1 y_K, 0) solves Q z = y; the same
    holds for x.  Then x = Q w, so x^T z = w^T Q z = w^T y for every
    solution z: the value -corner/prev does not depend on the solution.
    """
    rows = [[*row, b] for row, b in zip(q, y)]  # Q, with y as a last column
    border = [*x, 0]  # x, with the corner last
    pos = neg = 0
    prev = 1
    while rows:
        k = next((i for i, row in enumerate(rows) if row[i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(rows) for j in range(i) if row[j]), None)
            if pair is None:
                break  # the trailing Q block is zero
            k, j = pair
            rows[k] = [a + b for a, b in zip(rows[k], rows[j])]
            for row in chain(rows, (border,)):
                row[k] += row[j]
        top = rows.pop(k)
        d = top.pop(k)
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        rows = [_bareiss_step(row, k, top, d, prev) for row in rows]
        border = _bareiss_step(border, k, top, d, prev)
        prev = d
    if any(row[-1] for row in rows) or any(border[:-1]):
        return pos, len(rows), neg, None
    return pos, len(rows), neg, (-border[-1], prev)


def inertia(matrix) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric matrix.

    Entries are ints or Fractions, and anything else raises NumericsError.
    Fraction entries are scaled by the lcm of their denominators, a
    positive scale that keeps the inertia; the integer matrix then goes
    through _bordered_congruence with zero borders.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NumericsError("inertia needs a square matrix")
    m = matrix
    if not set(map(type, chain.from_iterable(matrix))) <= {int}:
        from fractions import Fraction  # here, so that importing numerics does not load it

        for v in chain.from_iterable(matrix):
            if not isinstance(v, (int, Fraction)):
                raise NumericsError(f"inertia needs int or Fraction entries, got {v!r}")
        scale = lcm(*{v.denominator for row in matrix for v in row})
        m = [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]
    if _first_asymmetry(m, True) is not None:
        raise NumericsError("inertia needs a symmetric matrix")
    return _bordered_congruence(m, [0] * n, [0] * n)[:3]


def signature(matrix) -> int:
    pos, _, neg = inertia(matrix)
    return pos - neg


# ---------------------------------------------------------------------------
# affine systems over GF(2)


class Gf2Solution(Frozen):
    def __init__(self, particular: tuple[int, ...], kernel_basis: tuple[tuple[int, ...], ...]):
        d = self.__dict__
        d["particular"], d["kernel_basis"] = particular, kernel_basis

    def count(self) -> int:
        return 1 << len(self.kernel_basis)

    def enumerate(self):
        """All solutions, as 0/1 tuples, in Gray order: the k-th adds to the
        particular solution the basis vectors at the set bits of k ^ (k >> 1),
        so it is the one before plus the vector at k's lowest set bit.  Packed
        into ints, one byte per entry, each costs one XOR and one unpacking."""
        n = len(self.particular)
        v, *basis = (int.from_bytes(bytes(bits), "big") for bits in (self.particular, *self.kernel_basis))
        yield tuple(v.to_bytes(n, "big"))
        for k in range(1, self.count()):
            v ^= basis[(k & -k).bit_length() - 1]
            yield tuple(v.to_bytes(n, "big"))


def solve_gf2_affine(matrix, rhs) -> Gf2Solution | None:
    """Solve A x = b over GF(2); None when inconsistent.

    Rows are int sequences, reduced mod 2, and bools count as ints; b has
    one entry per row, else NumericsError.  The particular solution sets
    all free variables to 0, and the kernel basis vectors are indexed by
    free columns in increasing order.
    """
    if len(matrix) != len(rhs):
        raise NumericsError(
            f"the matrix's row count {len(matrix)} and the right-hand side's length {len(rhs)} differ"
        )
    # column j is bit j of a packed row, and the right-hand side bit ncols
    rows = [
        sum((v & 1) << j for j, v in enumerate(row))
        for row in _int_rows([*row, b] for row, b in zip(matrix, rhs))
    ]
    nrows = len(rows)
    ncols = len(matrix[0]) if nrows else 0

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
