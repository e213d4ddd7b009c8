"""Exact integer linear algebra built around the Hermite normal form:
canonical lattice bases, kernels, lattice membership with checkable
certificates, indices, and the invariant-factor structure of finitely
generated abelian groups presented as subquotients of lattices.

All arithmetic uses arbitrary-precision integers.  Modular arithmetic
appears only in non-membership certificates, which are verified
independently of the code that produced them.

Conventions
-----------
* A :class:`Lattice` is a sublattice of the ambient ``Z^r`` held as its
  canonical basis, the column-style Hermite form: pivots positive, pivot
  rows strictly increasing, and every entry in a pivot row lying in
  ``[0, pivot)``.  ``Lattice.from_columns`` spans any generators with one
  Hermite form, so two lattices are equal iff ``==`` says so, which is how
  every "generated by" claim in this package is decided.

Hermite form does the routine work: YES membership is back-substitution down
the triangular basis, with coordinates in that basis; the index of a
full-rank lattice is the product of the pivots of its canonical basis;
a kernel is read off the Hermite form of vectors augmented by an identity
block.  Membership evidence is checked against the columns it is stated
for, with no Hermite form.

Smith normal form, computed with explicit transform accumulation so that the
decomposition is a certificate (``U * A * V == D``), comes from one
elimination that enforces ``d_i | d_{i+1}`` at each pivot, with no repair
pass.  It is kept where its output is needed: NO membership certificates
and the group structure and torsion witnesses of
``subquotient_presentation``, which runs it once.
Torsion witnesses are read from the columns of ``V``: the sublattice basis
times column i of ``V`` is exactly ``d_i`` times the witness, so the package
has no matrix inverse routine.  A witness's order is read off the rows of
``U`` (``SmithDecomposition.class_order``): ``U`` maps the subquotient onto
the sum of the ``Z/d_i``, so one matrix-vector product proves the order,
with nothing factored and no membership decided.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import NamedTuple

from .errors import ContainmentError, InputError, InternalInconsistencyError


# ---------------------------------------------------------------------------
# matrices


class IntMatrix:
    """Immutable dense integer matrix, stored row-major."""

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        if len({len(r) for r in entries}) > 1:
            raise InputError("ragged matrix")
        self.entries = entries

    def __eq__(self, other) -> bool:
        return type(other) is IntMatrix and self.entries == other.entries

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_columns(cls, cols) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if not cols:
            return cls(())
        return cls(tuple(zip(*cols)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        # row i is the rows of other weighted by the nonzeros of row i of self
        out = []
        for row in self.entries:
            acc = None
            for x, b in zip(row, other.entries):
                if x:
                    b = b if x == 1 else tuple(x * y for y in b)
                    acc = b if acc is None else tuple(map(operator.add, acc, b))
            out.append((0,) * other.cols if acc is None else acc)
        return IntMatrix(tuple(out))

    def matvec(self, v) -> tuple[int, ...]:
        if self.cols != len(v):
            raise InputError("matrix/vector shape mismatch")
        mul = operator.mul
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise InputError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        p, tail = a[k][k], a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            q = row[k]
            # with q == 0 the update is x * p // prev, the identity when p == prev
            if q or p != prev:
                row[k + 1:] = [(x * p - q * y) // prev for x, y in zip(row[k + 1:], tail)]
            row[k] = 0
        prev = p
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Hermite normal form (row style; the lattice code uses it on transposes)


def row_hermite(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite form with zero rows stripped.

    Pivots are positive, pivot columns strictly increase down the matrix and
    entries above a pivot are reduced into ``[0, pivot)``.  The output is the
    unique such basis of the row span, so it doubles as an equality test.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    top = 0
    for c in range(ncols):
        while True:
            pivots = [i for i in range(top, len(mat)) if mat[i][c]]
            if not pivots:
                break
            best = min(pivots, key=lambda i: (abs(mat[i][c]), i))
            mat[top], mat[best] = mat[best], mat[top]
            if mat[top][c] < 0:
                mat[top] = [-x for x in mat[top]]
            p = mat[top][c]
            # every row from ``top`` on is zero left of column c, so the
            # row operations only touch columns c onwards
            tail = mat[top][c:]
            dirty = False
            for i in range(top + 1, len(mat)):
                row = mat[i]
                if row[c]:
                    q = row[c] // p
                    row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
                    dirty = dirty or bool(row[c])
            if not dirty:
                for i in range(top):
                    q = mat[i][c] // p
                    if q:
                        mat[i][c:] = [x - q * y for x, y in zip(mat[i][c:], tail)]
                top += 1
                break
    return tuple(tuple(r) for r in mat[:top] if any(r))


# ---------------------------------------------------------------------------
# Smith normal form


class SmithDecomposition(NamedTuple):
    """``U * source * V == D`` with ``U``, ``V`` unimodular and ``D`` in
    Smith form (diagonal, nonnegative, divisibility chain, zeros trailing)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    source: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols))
        )

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)

    def class_order(self, coords) -> int | None:
        """Order of the class of ``coords`` in ``Z^rows / source Z^cols``, None
        when infinite.

        Once :meth:`verify` holds, ``x -> U x`` maps that quotient onto the
        sum of the ``Z/d_i`` (``d_i == 0`` past the rank), so the order is the
        lcm of ``d_i / gcd(d_i, (U x)_i)``, and infinite when ``(U x)_i != 0``
        at some ``d_i == 0``.
        """
        diag = self.diagonal
        order = 1
        for i, y in enumerate(self.U.matvec(coords)):
            d = diag[i] if i < len(diag) else 0
            if d:
                order = math.lcm(order, d // math.gcd(d, y))
            elif y:
                return None
        return order

    def verify(self) -> bool:
        if self.U.mul(self.source).mul(self.V).entries != self.D.entries:
            return False
        if abs(det(self.U)) != 1 or abs(det(self.V)) != 1:
            return False
        diag = self.diagonal
        for i in range(self.D.rows):
            for j in range(self.D.cols):
                if i != j and self.D.entries[i][j]:
                    return False
        if any(d < 0 for d in diag):
            return False
        # d_i | d_{i+1}, which also puts the zeros last
        return all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    nr, nc = m.rows, m.cols
    a = m.to_lists()
    u = IntMatrix.identity(nr).to_lists()
    v = IntMatrix.identity(nc).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def smallest_at(t):
        """First least nonzero ``abs(a[i][j])``, ``i, j >= t``; a unit ends the scan."""
        for i in range(t, nr):
            tail = a[i][t:]
            units = [tail.index(u) for u in (1, -1) if u in tail]
            if units:
                return i, t + min(units)
        cand = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        return min(cand)[1:] if cand else None

    def reduce_at(t):
        """Clear row ``t`` and column ``t`` outside the pivot position, with a
        pivot that divides every entry of the block below and to the right.

        A pivot that fails to divide some block entry takes that entry's row
        into row ``t``; the next clean pivot is then strictly smaller in
        absolute value, so the loop ends.  A unit pivot skips the scan.
        """
        while True:
            at = smallest_at(t)
            if at is None:
                return False
            pi, pj = at
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            p = a[t][t]
            clean = True
            for i in range(t + 1, nr):
                if a[i][t]:
                    add_row(i, t, a[i][t] // p)
                    clean = clean and a[i][t] == 0
            for j in range(t + 1, nc):
                if a[t][j]:
                    add_col(j, t, a[t][j] // p)
                    clean = clean and a[t][j] == 0
            if not clean:
                continue
            if p in (1, -1):
                return True
            for i in range(t + 1, nr):
                if any(x % p for x in a[i][t + 1:]):
                    add_row(t, i, -1)  # row_t += row_i
                    break
            else:
                return True

    t = 0
    while t < min(nr, nc) and reduce_at(t):
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    dec = SmithDecomposition(
        U=IntMatrix(tuple(map(tuple, u))),
        D=IntMatrix(tuple(map(tuple, a))),
        V=IntMatrix(tuple(map(tuple, v))),
        source=m,
    )
    if not dec.verify():
        raise InternalInconsistencyError("smith normal form failed self-check")
    return dec


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel ``{x : m @ x == 0}``.

    Read off the Hermite form of the columns of ``m`` augmented by an
    identity block (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.3) as the right parts of the rows whose left part is zero.
    Nothing is trusted; checked are (a) exactly ``m.cols`` rows of width
    ``m.rows + m.cols``, (b) every row is ``(m @ c, c)``, (c) the nonzero
    left parts have strictly increasing pivots and (d) the right parts form
    a matrix ``R`` with ``abs(det(R)) == 1``.  By (a), (b) and (d) the rows
    are a basis of the graph ``{(m @ c, c)}``.  By (c) a kernel vector, the
    graph element ``(0, c)``, uses only the zero-left rows; those are part of
    the unimodular ``R``, so the kernel they span is saturated.
    """
    n, r = m.cols, m.rows
    mt = m.transpose()
    # row j is column j of m followed by e_j, so each Hermite row is (m @ c, c)
    rows = row_hermite([col + tuple(int(i == j) for i in range(n)) for j, col in enumerate(mt.entries)])
    if len(rows) != n or any(len(row) != r + n for row in rows):
        raise InternalInconsistencyError("augmented Hermite form is not m.cols rows (m @ c, c)")
    right = IntMatrix(tuple(row[r:] for row in rows))
    # (b) for every row at once: R @ m^T is the matrix of left parts
    if right.mul(mt).entries != tuple(row[:r] for row in rows):
        raise InternalInconsistencyError("augmented Hermite form is not m.cols rows (m @ c, c)")
    if abs(det(right)) != 1:
        raise InternalInconsistencyError("augmented Hermite transform is not unimodular")
    # no row is zero, R being unimodular; a pivot below r is in the left part
    pivots = [next(i for i, x in enumerate(row) if x) for row in rows]
    left = [p for p in pivots if p < r]
    if any(a >= b for a, b in zip(left, left[1:])):
        raise InternalInconsistencyError("augmented Hermite form is not in echelon form")
    return [row[r:] for row, p in zip(rows, pivots) if p >= r]


# ---------------------------------------------------------------------------
# lattices


class Lattice:
    """Sublattice of ``Z^ambient_rank`` held as its canonical Hermite basis.

    Build one with :meth:`from_columns` or :meth:`standard`; both keep
    ``basis_columns`` canonical, so two lattices are equal exactly when
    ``==`` says so, and they hash alike.
    """

    def __init__(self, ambient_rank: int, basis_columns: tuple[tuple[int, ...], ...]) -> None:
        self.ambient_rank = ambient_rank
        self.basis_columns = basis_columns

    def __eq__(self, other) -> bool:
        return type(other) is Lattice and (self.ambient_rank, self.basis_columns) == (
            other.ambient_rank, other.basis_columns
        )

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.basis_columns))

    @classmethod
    def from_columns(cls, ambient_rank: int, cols) -> "Lattice":
        """The span of ``cols``: one row Hermite form of the columns."""
        cols = tuple(tuple(map(int, c)) for c in cols)
        if any(len(c) != ambient_rank for c in cols):
            raise InputError("generator length does not match ambient rank")
        return cls(ambient_rank, row_hermite(cols))

    @classmethod
    def standard(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, IntMatrix.identity(ambient_rank).entries)

    @cached_property
    def basis(self) -> IntMatrix:
        """Canonical Hermite basis, columns."""
        cols = self.basis_columns
        return IntMatrix(tuple(zip(*cols)) if cols else tuple(() for _ in range(self.ambient_rank)))

    @property
    def rank(self) -> int:
        return len(self.basis_columns)

    @cached_property
    def _basis_smith(self) -> SmithDecomposition:
        return smith_normal_form(self.basis)

    @cached_property
    def _echelon(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(pivot position, column)`` for each basis column."""
        return tuple(
            (next(i for i, x in enumerate(col) if x), col)
            for col in self.basis_columns
        )

    def _basis_coordinates(self, v) -> tuple[int, ...] | None:
        """Coordinates of ``v`` in the canonical basis, or None when ``v`` is
        outside; back-substitution down the triangular basis."""
        rest = list(v)
        coords = []
        start = 0
        for p, col in self._echelon:
            if any(rest[start:p]):
                return None
            q, r = divmod(rest[p], col[p])
            if r:
                return None
            if q:
                rest[p:] = [x - q * y for x, y in zip(rest[p:], col[p:])]
            coords.append(q)
            start = p + 1
        if any(rest[start:]):
            return None
        return tuple(coords)

    def membership(self, v) -> "MembershipResult":
        return lattice_membership(v, self)

    def contains(self, v) -> bool:
        return self._basis_coordinates(_ambient_vector(v, self)) is not None


def _integers(*vectors) -> bool:
    """Evidence is exact: a float would let rounding pass a false claim."""
    return all(type(x) is int for vec in vectors for x in vec)


def _pairing(functional, w) -> int:
    return sum(map(operator.mul, functional, w))


def _rebuilds(columns, coords, v) -> bool:
    """``sum_j coords[j] * columns[j] == v``, shapes and integrality included."""
    v = tuple(v)
    if len(coords) != len(columns) or any(len(c) != len(v) for c in columns):
        return False
    if not _integers(coords, v, *columns):
        return False
    if not columns:
        return not any(v)
    return tuple(sum(map(operator.mul, row, coords)) for row in zip(*columns)) == v


def _divisible_by_prime_power(x: int, p: int, e: int) -> bool:
    """``p**e`` divides ``x``, decided in at most ``log_p |x| + 1`` divisions
    without forming ``p**e``, so a huge stated ``e`` costs nothing."""
    if x == 0:
        return True
    while e:
        x, r = divmod(x, p)
        if r:
            return False
        e -= 1
    return True


class NonMembershipCertificate(NamedTuple):
    """Witness that a vector is outside the span of some columns.

    ``kind == "rank"``: ``functional @ g == 0`` for every column while
    ``functional @ v != 0``.  ``kind == "modular"``: the same pairing is
    ``0 mod prime**power`` on every column but not on ``v``, with integers
    ``prime >= 2`` and ``power >= 1``.
    """

    kind: str
    functional: tuple[int, ...]
    prime: int | None = None
    power: int | None = None

    def check(self, v, columns) -> bool:
        if not _integers(self.functional, v, *columns):
            return False
        pairs = [_pairing(self.functional, g) for g in columns]
        target = _pairing(self.functional, v)
        if self.kind == "rank":
            return target != 0 and not any(pairs)
        p, e = self.prime, self.power
        if self.kind != "modular" or type(p) is not int or type(e) is not int or p < 2 or e < 1:
            return False
        return not _divisible_by_prime_power(target, p, e) and all(
            _divisible_by_prime_power(x, p, e) for x in pairs
        )


class MembershipResult(NamedTuple):
    """YES carries coordinates in the canonical basis; NO a certificate."""

    member: bool
    coordinates: tuple[int, ...] | None = None
    certificate: NonMembershipCertificate | None = None

    def check(self, v, columns) -> bool:
        """The evidence against the lattice spanned by ``columns``."""
        if self.member:
            return _rebuilds(columns, self.coordinates, v)
        return self.certificate.check(v, columns)


def _ambient_vector(v, lattice: Lattice) -> tuple[int, ...]:
    v = tuple(int(x) for x in v)
    if len(v) != lattice.ambient_rank:
        raise InputError(
            f"vector has length {len(v)}, ambient rank is {lattice.ambient_rank}"
        )
    return v


def lattice_membership(v, lattice: Lattice) -> MembershipResult:
    """Decide ``v in lattice`` with an independently checkable certificate.

    YES is decided by back-substitution on the triangular canonical basis
    and answered with integer coordinates in that basis.  NO answers carry
    either a rank obstruction or a prime-power congruence that every lattice
    element satisfies and ``v`` violates, read off the Smith form of the
    basis.
    """
    v = _ambient_vector(v, lattice)
    coords = lattice._basis_coordinates(v)
    if coords is None:
        return MembershipResult(False, certificate=_non_membership_certificate(v, lattice))
    return MembershipResult(True, coordinates=coords)


def _non_membership_certificate(v, lattice: Lattice) -> NonMembershipCertificate:
    """The first Smith row of the basis on which ``v`` fails to be integral."""
    basis = lattice.basis
    dec = lattice._basis_smith
    w = dec.U.matvec(v)
    for i in range(basis.rows):
        d = dec.D.entries[i][i] if i < basis.cols else 0
        if d == 0:
            if w[i] != 0:
                return NonMembershipCertificate("rank", dec.U.row(i))
            continue
        if w[i] % d:
            # only a modular NO certificate factors: lattice commands skip _factor
            from ._factor import factorize

            p = factorize(d // math.gcd(d, w[i]))[0][0]
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            return NonMembershipCertificate("modular", dec.U.row(i), p, e)
    raise InternalInconsistencyError("smith form holds a vector the hermite basis rejects")


# ---------------------------------------------------------------------------
# finitely generated abelian groups as subquotients


class FinAbelianGroup:
    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...]) -> None:
        for i, d in enumerate(invariant_factors):
            if d < 2:
                raise InputError("invariant factors must be >= 2")
            if i and d % invariant_factors[i - 1]:
                raise InputError("invariant factors must form a divisibility chain")
        self.free_rank = free_rank
        self.invariant_factors = invariant_factors

    def __eq__(self, other) -> bool:
        return type(other) is FinAbelianGroup and (self.free_rank, self.invariant_factors) == (
            other.free_rank, other.invariant_factors
        )

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int | None:
        """Group order, or None for infinite groups."""
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def label(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    @classmethod
    def trivial(cls) -> "FinAbelianGroup":
        return cls(0, ())

    @classmethod
    def cyclic(cls, n: int) -> "FinAbelianGroup":
        return cls(0, (n,)) if n > 1 else cls.trivial()


class SubquotientData(NamedTuple):
    """Full presentation of ``sup/sub``: the Smith decomposition of the
    relation matrix, whose columns are the basis of the sublattice in the
    canonical basis of the superlattice, and the group read off it."""

    sub: Lattice
    sup: Lattice
    smith: SmithDecomposition
    group: FinAbelianGroup
    # witness i is a superlattice vector whose class has order
    # group.invariant_factors[i]
    witnesses: tuple[tuple[int, ...], ...]

    @property
    def relation(self) -> IntMatrix:
        return self.smith.source

    @property
    def torsion(self) -> FinAbelianGroup:
        return FinAbelianGroup(0, self.group.invariant_factors)


def subquotient_presentation(sub: Lattice, sup: Lattice) -> SubquotientData:
    if sub.ambient_rank != sup.ambient_rank:
        raise InputError("sub and sup live in different ambient ranks")
    # the basis of sub in the basis of sup, one column per vector
    cols = []
    for idx, g in enumerate(sub.basis_columns):
        coords = sup._basis_coordinates(g)
        if coords is None:
            raise ContainmentError(
                f"basis vector {idx} of the sublattice is outside the superlattice"
            )
        cols.append(coords)
    k = sup.rank
    relation = IntMatrix.from_columns(cols) if cols else IntMatrix(tuple(() for _ in range(k)))
    dec = smith_normal_form(relation)
    group = FinAbelianGroup(k - dec.rank, dec.invariant_factors())

    # U * relation * V == D and sub.basis == sup.basis * relation, so
    # sub.basis * V_i == d_i * (sup.basis * column i of U^-1): column i of V
    # gives d_i times the witness of the i-th cyclic factor, with no inverse.
    # Its coordinates map to e_i under U, so its order is d_i exactly.
    witnesses = []
    for i, d in enumerate(dec.diagonal):
        if d <= 1:
            continue
        scaled = sub.basis.matvec(dec.V.column(i))
        if any(x % d for x in scaled):
            raise InternalInconsistencyError("torsion witness is not integral")
        vec = tuple(x // d for x in scaled)
        coords = sup._basis_coordinates(vec)
        if coords is None or dec.class_order(coords) != d:
            raise InternalInconsistencyError("torsion witness does not have its factor's order")
        witnesses.append(vec)

    return SubquotientData(sub=sub, sup=sup, smith=dec, group=group, witnesses=tuple(witnesses))


def lattice_index(lattice: Lattice) -> int | None:
    """``[Z^r : lattice]`` when finite, None below full rank.

    At full rank the canonical basis is triangular with its pivots on the
    diagonal, so the index is the product of the pivots.
    """
    if lattice.rank != lattice.ambient_rank:
        return None
    return math.prod(col[j] for j, col in enumerate(lattice.basis_columns))
