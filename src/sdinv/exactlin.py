"""Exact integer linear algebra built around the Hermite normal form:
canonical lattice bases, kernels, lattice membership with checkable
certificates, indices, and the invariant-factor structure of finitely
generated abelian groups presented as subquotients of lattices.

All arithmetic uses arbitrary-precision integers.  Modular arithmetic
appears only in non-membership certificates, which are verified
independently of the code that produced them, and in the rank lower bound
that proves a kernel complete.

Conventions
-----------
* A :class:`Lattice` is the column span of its generator matrix inside the
  ambient ``Z^r``.
* The canonical representation of a lattice is the column-style Hermite
  form: pivots positive, pivot rows strictly increasing, and every entry in
  a pivot row lying in ``[0, pivot)``.  Two lattices are equal iff their
  canonical bases are identical, which is how every "generated by" claim in
  this package is decided.  ``Lattice.canonical()`` is idempotent and shares
  the cached basis data with the lattice it came from.

Hermite form does the routine work: YES membership is back-substitution down
the triangular canonical basis, with generator coordinates from one transform
kept per lattice; an index of equal-rank lattices is the product of the
diagonal of their triangular relation matrix; a kernel is computed from the
row-compressed (Hermite) matrix, so Smith form never sees more rows than
columns.

Smith normal form, computed with explicit transform accumulation so that the
decomposition is a certificate (``U * A * V == D``), is kept where its
output is needed: NO membership certificates, the group structure and
torsion witnesses of ``subquotient_presentation``, and the saturation of a
kernel.  Torsion witnesses are read from the columns of ``V``: the
sublattice basis times column i of ``V`` is exactly ``d_i`` times the
witness, so the package has no matrix inverse routine.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from ._factor import smallest_prime_factor


class InputError(ValueError):
    """Bad user-supplied data (dimension mismatch, unknown name, parse error)."""


class ContainmentError(InputError):
    """A claimed sublattice generator is not a member of the superlattice."""


class InternalInconsistencyError(RuntimeError):
    """A structural invariant failed; indicates a broken preset or a bug."""


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, stored row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise InputError("ragged matrix")

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
        bt = other.transpose().entries
        mul = operator.mul
        return IntMatrix(
            tuple(
                tuple(sum(map(mul, row, col)) for col in bt)
                for row in self.entries
            )
        )

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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
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


@dataclass(frozen=True)
class SmithDecomposition:
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
        for i in range(len(diag) - 1):
            if diag[i] < 0 or diag[i + 1] < 0:
                return False
            if diag[i] == 0 and diag[i + 1] != 0:
                return False
            if diag[i] and diag[i + 1] % diag[i]:
                return False
        return True


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

    def reduce_at(t):
        """Clear row ``t`` and column ``t`` outside the pivot position."""
        while True:
            cand = [
                (abs(a[i][j]), i, j)
                for i in range(t, nr)
                for j in range(t, nc)
                if a[i][j]
            ]
            if not cand:
                return False
            _, pi, pj = min(cand)
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
            if clean:
                return True

    k = min(nr, nc)
    t = 0
    while t < k and reduce_at(t):
        t += 1
    rank = t

    def fix_block(i):
        """Local Smith step on the 2x2 block {i, i+1} after a chain fix.

        Rows and columns i, i+1 vanish outside the block, so these
        operations cannot disturb the rest of the diagonal.  The block ends
        as diag(gcd, lcm) up to sign.
        """
        while a[i][i + 1] or a[i + 1][i]:
            entries = [
                (abs(a[r][c]), r, c)
                for r in (i, i + 1)
                for c in (i, i + 1)
                if a[r][c]
            ]
            _, r, c = min(entries)
            if r != i:
                swap_rows(i, r)
            if c != i:
                swap_cols(i, c)
            p = a[i][i]
            if a[i + 1][i]:
                add_row(i + 1, i, a[i + 1][i] // p)
            if a[i][i + 1]:
                add_col(i + 1, i, a[i][i + 1] // p)

    # Enforce the divisibility chain d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj % di:
                add_col(i, i + 1, -1)  # col_i += col_{i+1}
                fix_block(i)
                changed = True

    for i in range(rank):
        if a[i][i] < 0:
            negate_row(i)

    dec = SmithDecomposition(
        U=IntMatrix.from_rows(u),
        D=IntMatrix.from_rows(a),
        V=IntMatrix.from_rows(v),
        source=m,
    )
    if not dec.verify():
        raise InternalInconsistencyError("smith normal form failed self-check")
    return dec


# Moduli for the rank lower bound in ``kernel_basis``.  A prime falls short
# of the rank over Q only when it divides every minor of that size, so a
# later prime is almost never tried.
_RANK_PRIMES = (2**61 - 1, 2**31 - 1, 1_000_000_007)


def _rank_mod(rows, p: int, target: int) -> int:
    """Rank of ``rows`` over ``F_p``, counted up to ``target`` at most.

    It never exceeds the rank over Q, so it is a lower bound for that rank.
    """
    work = [[x % p for x in r] for r in rows]
    work = [r for r in work if any(r)]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        if rank >= target:
            break
        k = next((i for i, r in enumerate(work) if r[c]), None)
        if k is None:
            continue
        piv = work.pop(k)
        inv = pow(piv[c], -1, p)
        piv = [x * inv % p for x in piv]
        work = [
            [(x - f * y) % p for x, y in zip(r, piv)] if (f := r[c]) else r
            for r in work
        ]
        rank += 1
    return rank


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel ``{x : m @ x == 0}``.

    The rows are first compressed to their Hermite form, which has at most
    ``m.cols`` rows, and Smith form runs on that.  The answer is proved
    without trusting the compression: the returned vectors are columns of a
    verified unimodular ``V`` (so they span a saturated lattice), the
    original matrix annihilates each of them, and their number is
    ``cols - rank(compressed)`` with ``rank(m) >= rank(compressed)`` shown
    by a rank modulo a prime.  A saturated lattice inside the kernel with at
    least the kernel's rank is the kernel.
    """
    n = m.cols
    compressed = row_hermite(m.entries)
    if compressed:
        dec = smith_normal_form(IntMatrix(compressed))
        rank = dec.rank
        out = [dec.V.column(j) for j in range(rank, n)]
    else:
        rank = 0
        out = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    zero = (0,) * m.rows
    if any(m.matvec(v) != zero for v in out):
        raise InternalInconsistencyError("kernel vector is not annihilated by the matrix")
    if not any(_rank_mod(m.entries, p, rank) >= rank for p in _RANK_PRIMES):
        raise InternalInconsistencyError("compressed matrix has a larger rank than its source")
    return out


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class Lattice:
    """Column span of ``generators`` inside ``Z^ambient_rank``."""

    ambient_rank: int
    generators: IntMatrix

    def __post_init__(self) -> None:
        if self.generators.cols and self.generators.rows != self.ambient_rank:
            raise InputError("generator length does not match ambient rank")

    @classmethod
    def from_columns(cls, ambient_rank: int, cols) -> "Lattice":
        cols = tuple(tuple(map(int, c)) for c in cols)
        for c in cols:
            if len(c) != ambient_rank:
                raise InputError("generator length does not match ambient rank")
        if not cols:
            return cls(ambient_rank, IntMatrix(tuple(() for _ in range(ambient_rank))))
        lat = cls(ambient_rank, IntMatrix(tuple(zip(*cols))))
        lat.__dict__["generator_columns"] = cols
        return lat

    @classmethod
    def standard(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, IntMatrix.identity(ambient_rank))

    @cached_property
    def generator_columns(self) -> tuple[tuple[int, ...], ...]:
        """The generators as column tuples."""
        return tuple(self.generators.columns())

    @cached_property
    def basis_columns(self) -> tuple[tuple[int, ...], ...]:
        """Canonical Hermite basis as column tuples, the row Hermite form
        of the generator columns."""
        return row_hermite(self.generator_columns)

    @cached_property
    def basis(self) -> IntMatrix:
        """Canonical Hermite basis, columns."""
        cols = self.basis_columns
        return IntMatrix(tuple(zip(*cols)) if cols else tuple(() for _ in range(self.ambient_rank)))

    @property
    def rank(self) -> int:
        return len(self.basis_columns)

    def canonical(self) -> "Lattice":
        """The lattice generated by its canonical basis; ``self`` when the
        generators already are that basis, and the same object every call."""
        return self._canonical

    @cached_property
    def _canonical(self) -> "Lattice":
        if self.generators.entries == self.basis.entries:
            return self
        lat = Lattice(self.ambient_rank, self.basis)
        lat.__dict__["basis"] = self.basis
        lat.__dict__["basis_columns"] = lat.__dict__["generator_columns"] = self.basis_columns
        return lat

    def same_lattice(self, other: "Lattice") -> bool:
        return (
            self.ambient_rank == other.ambient_rank
            and self.basis.entries == other.basis.entries
        )

    @cached_property
    def _basis_smith(self) -> SmithDecomposition:
        canon = self.canonical()
        return smith_normal_form(self.basis) if canon is self else canon._basis_smith

    @cached_property
    def _echelon(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(pivot position, column)`` for each canonical basis column."""
        canon = self.canonical()
        if canon is not self:
            return canon._echelon
        return tuple(
            (next(i for i, x in enumerate(col) if x), col)
            for col in self.basis_columns
        )

    @cached_property
    def _generator_transform(self) -> tuple[tuple[int, ...], ...]:
        """Rows ``t_i`` with ``generators @ t_i == basis column i``.

        Read off the Hermite form of the generators augmented by an identity
        block: its first ``rank`` rows are the canonical basis followed by
        the combinations that produce it.
        """
        gens = self.generator_columns
        r = self.ambient_rank
        aug = [g + tuple(int(i == j) for i in range(len(gens))) for j, g in enumerate(gens)]
        rows = row_hermite(aug)[: self.rank]
        if tuple(row[:r] for row in rows) != self.basis_columns:
            raise InternalInconsistencyError("augmented Hermite form lost the basis")
        return tuple(row[r:] for row in rows)

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


@dataclass(frozen=True)
class NonMembershipCertificate:
    """Witness that a vector is outside a lattice.

    ``kind == "rank"``: ``functional @ g == 0`` for every generator while
    ``functional @ v != 0``.  ``kind == "modular"``: the same pairing is
    ``0 mod prime**power`` on the lattice but not on ``v``.
    """

    kind: str
    functional: tuple[int, ...]
    prime: int | None = None
    power: int | None = None

    def check(self, v, lattice: Lattice) -> bool:
        pair = lambda w: sum(a * b for a, b in zip(self.functional, w))
        if self.kind == "rank":
            return all(pair(g) == 0 for g in lattice.generator_columns) and pair(v) != 0
        mod = self.prime ** self.power
        if pair(v) % mod == 0:
            return False
        return all(pair(g) % mod == 0 for g in lattice.generator_columns)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    coordinates: tuple[int, ...] | None = None
    certificate: NonMembershipCertificate | None = None

    def check(self, v, lattice: Lattice) -> bool:
        if self.member:
            rebuilt = lattice.generators.matvec(self.coordinates)
            return rebuilt == tuple(v)
        return self.certificate.check(v, lattice)


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
    and answered with integer coordinates in the *generator* matrix, through
    a transform kept per lattice.  NO answers carry either a rank
    obstruction or a prime-power congruence that every lattice element
    satisfies and ``v`` violates, read off the Smith form of the basis.
    """
    v = _ambient_vector(v, lattice)
    coords = lattice._basis_coordinates(v)
    if coords is None:
        return MembershipResult(False, certificate=_non_membership_certificate(v, lattice))
    if lattice.generators.entries != lattice.basis.entries:
        transform = lattice._generator_transform
        coords = tuple(
            sum(c * t[j] for c, t in zip(coords, transform))
            for j in range(lattice.generators.cols)
        )
        if lattice.generators.matvec(coords) != v:
            raise InternalInconsistencyError("generator coordinates failed to rebuild")
    return MembershipResult(True, coordinates=coords)


def _non_membership_certificate(v, lattice: Lattice) -> NonMembershipCertificate:
    """The first Smith row of the basis on which ``v`` fails to be integral."""
    basis = lattice.basis
    if basis.cols == 0:
        first = next(i for i, x in enumerate(v) if x)
        return NonMembershipCertificate("rank", tuple(int(i == first) for i in range(len(v))))
    dec = lattice._basis_smith
    w = dec.U.matvec(v)
    for i in range(basis.rows):
        d = dec.D.entries[i][i] if i < basis.cols else 0
        if d == 0:
            if w[i] != 0:
                return NonMembershipCertificate("rank", dec.U.row(i))
            continue
        if w[i] % d:
            p = smallest_prime_factor(d // math.gcd(d, w[i]))
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            return NonMembershipCertificate("modular", dec.U.row(i), p, e)
    raise InternalInconsistencyError("smith form holds a vector the hermite basis rejects")


# ---------------------------------------------------------------------------
# finitely generated abelian groups as subquotients


@dataclass(frozen=True)
class FinAbelianGroup:
    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, d in enumerate(self.invariant_factors):
            if d < 2:
                raise InputError("invariant factors must be >= 2")
            if i and d % self.invariant_factors[i - 1]:
                raise InputError("invariant factors must form a divisibility chain")

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

    def __str__(self) -> str:
        return self.label()

    @classmethod
    def trivial(cls) -> "FinAbelianGroup":
        return cls(0, ())

    @classmethod
    def cyclic(cls, n: int) -> "FinAbelianGroup":
        return cls(0, (n,)) if n > 1 else cls.trivial()


@dataclass(frozen=True)
class TorsionWitness:
    """An element of the superlattice whose class has the stated exact order."""

    vector: tuple[int, ...]
    order: int
    # evidence: order * vector lies in the sublattice ...
    multiple_coordinates: tuple[int, ...]
    # ... and (order/p) * vector does not, for each prime p | order.
    proper_certificates: tuple[tuple[int, NonMembershipCertificate], ...]

    def check(self, sub: Lattice) -> bool:
        scaled = tuple(self.order * x for x in self.vector)
        if sub.generators.matvec(self.multiple_coordinates) != scaled:
            return False
        for p, cert in self.proper_certificates:
            frac = tuple((self.order // p) * x for x in self.vector)
            if not cert.check(frac, sub):
                return False
        return True


@dataclass(frozen=True)
class SubquotientData:
    """Full presentation of ``sup/sub``: the relation matrix of the sublattice
    in the canonical basis of the superlattice plus its Smith decomposition."""

    sub: Lattice
    sup: Lattice
    relation: IntMatrix
    smith: SmithDecomposition
    group: FinAbelianGroup
    torsion: FinAbelianGroup
    witnesses: tuple[TorsionWitness, ...]


def _relation_matrix(sub: Lattice, sup: Lattice) -> tuple[IntMatrix, list, Lattice]:
    """Columns: the canonical basis of ``sub`` in the canonical basis of
    ``sup``, each vector decided once."""
    if sub.ambient_rank != sup.ambient_rank:
        raise InputError("sub and sup live in different ambient ranks")
    sup = sup.canonical()
    # The canonical basis of the sublattice spans the same group as its
    # generators and keeps the relation matrix small.
    sub_c = sub.canonical()
    cols = []
    for g in sub_c.basis_columns:
        coords = sup._basis_coordinates(g)
        if coords is None:
            idx = next(i for i, h in enumerate(sub.generator_columns) if not sup.contains(h))
            raise ContainmentError(
                f"generator {idx} of the sublattice is outside the superlattice"
            )
        cols.append(coords)
    k = sup.rank
    mat = IntMatrix.from_columns(cols) if cols else IntMatrix(tuple(() for _ in range(k)))
    return mat, cols, sub_c


def subquotient_presentation(sub: Lattice, sup: Lattice) -> SubquotientData:
    relation, _, sub = _relation_matrix(sub, sup)
    k = sup.rank
    dec = smith_normal_form(relation)
    factors = dec.invariant_factors()
    free_rank = k - dec.rank
    group = FinAbelianGroup(free_rank, factors)
    torsion = FinAbelianGroup(0, factors)

    # U * relation * V == D and sub.basis == sup.basis * relation, so
    # sub.basis * V_i == d_i * (sup.basis * column i of U^-1): column i of V
    # gives d_i times the witness of the i-th cyclic factor, with no inverse.
    witnesses = []
    for i, d in enumerate(dec.diagonal):
        if d <= 1:
            continue
        scaled = sub.basis.matvec(dec.V.column(i))
        if any(x % d for x in scaled):
            raise InternalInconsistencyError("torsion witness is not integral")
        vec = tuple(x // d for x in scaled)
        yes = lattice_membership(scaled, sub)
        if not yes.member:
            raise InternalInconsistencyError("torsion witness failed to certify")
        proper = []
        t = d
        while t > 1:
            p = smallest_prime_factor(t)
            while t % p == 0:
                t //= p
            frac = tuple((d // p) * x for x in vec)
            res = lattice_membership(frac, sub)
            if res.member:
                raise InternalInconsistencyError(
                    "torsion witness has smaller order than claimed"
                )
            proper.append((p, res.certificate))
        witnesses.append(TorsionWitness(vec, d, yes.coordinates, tuple(proper)))

    return SubquotientData(
        sub=sub,
        sup=sup,
        relation=relation,
        smith=dec,
        group=group,
        torsion=torsion,
        witnesses=tuple(witnesses),
    )


def lattice_index(sub: Lattice, sup: Lattice) -> int | None:
    """``[sup : sub]`` when finite, None when the ranks differ.

    Equal ranks give both canonical bases the same pivot rows, so the
    relation matrix is triangular and the index is the product of its
    diagonal; no Smith form is needed.
    """
    _, cols, sub_c = _relation_matrix(sub, sup)
    if sub_c.rank != sup.rank:
        return None
    out = 1
    for j, col in enumerate(cols):
        if any(col[:j]):
            raise InternalInconsistencyError("relation matrix of equal ranks is not triangular")
        out *= col[j]
    return out
