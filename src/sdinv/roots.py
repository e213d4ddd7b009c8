"""Character lattices of central quotients, Weyl-invariant quadratic forms,
second Chern classes of invariant characters, and the indecomposable
degree-3 invariant group computed as a lattice subquotient.

The supported groups are quotients of products of rank-1 and rank-3 special
linear factors by a finite central subgroup; the registry exposes them under
the preset names ``gl2n:{n}`` / ``sl2n:{n}`` for 2 <= n <= 8 and ``gl4x4`` /
``sl4x4``.

Quadratic forms live in the degree-2 part of the symmetric algebra on a
character lattice.  A form "on the lattice" means one with integer
coefficients over the degree-2 monomials in a basis of the lattice; Weyl
invariance is computed as an exact integer kernel rather than by averaging,
which would leave the integral structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .exactlin import (
    ContainmentError,
    FinAbelianGroup,
    InputError,
    IntMatrix,
    InternalInconsistencyError,
    Lattice,
    SubquotientData,
    TorsionWitness,
    det,
    kernel_basis,
    lattice_index,
    subquotient_presentation,
)

# ---------------------------------------------------------------------------
# degree-2 monomial bookkeeping


def sym2_size(rank: int) -> int:
    return rank * (rank + 1) // 2


@lru_cache(maxsize=32)
def sym2_monomials(rank: int) -> tuple[tuple[int, int], ...]:
    """Ordered monomial index: (0,0), (0,1), ..., (0,r-1), (1,1), ..."""
    return tuple((i, j) for i in range(rank) for j in range(i, rank))


@lru_cache(maxsize=32)
def _sym2_pos(rank: int) -> dict[tuple[int, int], int]:
    return {m: k for k, m in enumerate(sym2_monomials(rank))}


def sym2_index(i: int, j: int, rank: int) -> int:
    if i > j:
        i, j = j, i
    return _sym2_pos(rank)[(i, j)]


def sym2_substitute(coeffs, matrix_cols, from_rank: int, to_rank: int):
    """Push a quadratic expression through a linear substitution.

    ``coeffs`` are coefficients over degree-2 monomials ``u_i u_j`` and
    column ``i`` of ``matrix_cols`` expresses ``u_i`` in the target
    variables ``v``.  Entries are integers; the result is a list
    over the target monomials.
    """
    out = [0] * sym2_size(to_rank)
    mons = sym2_monomials(from_rank)
    pos = _sym2_pos(to_rank)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        i, j = mons[k]
        ci = matrix_cols[i]
        cj = matrix_cols[j]
        for t in range(to_rank):
            a = ci[t]
            if not a:
                continue
            for s in range(to_rank):
                b = cj[s]
                if not b:
                    continue
                key = (t, s) if t <= s else (s, t)
                out[pos[key]] += c * a * b
    return out


def outer_square(vec, rank: int):
    """Monomial coefficients of ``(sum v_i e_i)^2``."""
    out = [0] * sym2_size(rank)
    pos = _sym2_pos(rank)
    for i in range(rank):
        a = vec[i]
        if not a:
            continue
        out[pos[(i, i)]] += a * a
        for j in range(i + 1, rank):
            b = vec[j]
            if b:
                out[pos[(i, j)]] += 2 * a * b
    return out


@dataclass(frozen=True)
class QuadSpaceElement:
    """Integer quadratic expression over degree-2 monomials in a fixed basis."""

    lattice_rank: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != sym2_size(self.lattice_rank):
            raise InputError("coefficient vector has the wrong monomial count")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class CentralQuotientDatum:
    """Ambient weight lattice plus the residue map onto the character group
    of the central subgroup being divided out.

    ``residue_rows[i]`` is understood modulo ``factor_moduli[i]``; the
    character lattice of the quotient torus is the kernel of the composite
    map to the direct sum of those cyclic groups.
    """

    ambient_rank: int
    factor_moduli: tuple[int, ...]
    residue_rows: IntMatrix

    def __post_init__(self) -> None:
        if self.residue_rows.rows != len(self.factor_moduli):
            raise InputError("one residue row per cyclic factor is required")
        if self.residue_rows.rows and self.residue_rows.cols != self.ambient_rank:
            raise InputError("residue rows must have ambient length")
        if not self._surjective():
            raise InputError("residue map is not surjective onto the center's characters")

    def _surjective(self) -> bool:
        k = len(self.factor_moduli)
        if k == 0:
            return True
        cols = list(self.residue_rows.transpose().entries)
        cols += [
            tuple(self.factor_moduli[i] if t == i else 0 for t in range(k))
            for i in range(k)
        ]
        return lattice_index(Lattice.from_columns(k, cols), Lattice.standard(k)) == 1

    def center_characters(self) -> FinAbelianGroup:
        sub = Lattice.from_columns(
            len(self.factor_moduli),
            [
                tuple(m if t == i else 0 for t in range(len(self.factor_moduli)))
                for i, m in enumerate(self.factor_moduli)
            ],
        )
        return subquotient_presentation(sub, Lattice.standard(len(self.factor_moduli))).group


@dataclass(frozen=True)
class CharacterLattice:
    ambient_rank: int
    lattice: Lattice
    named_basis: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        span = Lattice.from_columns(self.ambient_rank, [v for _, v in self.named_basis])
        if not span.same_lattice(self.lattice):
            raise InputError("named basis does not generate the lattice")

    @classmethod
    def from_named(cls, ambient_rank: int, named) -> "CharacterLattice":
        named = tuple((str(l), tuple(int(x) for x in v)) for l, v in named)
        lat = Lattice.from_columns(ambient_rank, [v for _, v in named]).canonical()
        return cls(ambient_rank, lat, named)

    @classmethod
    def from_lattice(cls, lat: Lattice) -> "CharacterLattice":
        named = tuple(
            (f"b{k + 1}", col) for k, col in enumerate(lat.basis.columns())
        )
        return cls(lat.ambient_rank, lat.canonical(), named)

    @property
    def rank(self) -> int:
        return self.lattice.rank


@dataclass(frozen=True)
class WeylAction:
    """Finite group of integer matrices acting on ambient coordinates."""

    generators: tuple[IntMatrix, ...]


@dataclass(frozen=True)
class WeightMultiset:
    """Weights of a character, with multiplicities, in ambient coordinates."""

    weights: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def of(cls, pairs) -> "WeightMultiset":
        return cls(tuple((tuple(int(x) for x in v), int(m)) for v, m in pairs))

    def first_chern(self) -> tuple[int, ...]:
        dim = len(self.weights[0][0])
        out = [0] * dim
        for v, m in self.weights:
            for i, x in enumerate(v):
                out[i] += m * x
        return tuple(out)

    def is_stable_under(self, weyl: WeylAction) -> bool:
        bag = {}
        for v, m in self.weights:
            bag[v] = bag.get(v, 0) + m
        for w in weyl.generators:
            image = {}
            for v, m in bag.items():
                wv = w.matvec(v)
                image[wv] = image.get(wv, 0) + m
            if image != bag:
                return False
        return True


# ---------------------------------------------------------------------------
# operations


def character_lattice(datum: CentralQuotientDatum) -> CharacterLattice:
    """Kernel of the composite map from the ambient weight lattice onto the
    center's character group, as a canonically based full-rank sublattice."""
    k = len(datum.factor_moduli)
    m = datum.ambient_rank
    if k == 0:
        return CharacterLattice.from_lattice(Lattice.standard(m))
    rows = [
        tuple(datum.residue_rows.entries[i]) + tuple(
            -datum.factor_moduli[i] if t == i else 0 for t in range(k)
        )
        for i in range(k)
    ]
    ker = kernel_basis(IntMatrix.from_rows(rows))
    gens = [v[:m] for v in ker]
    lat = Lattice.from_columns(m, gens).canonical()
    order = datum.center_characters().order()
    if lattice_index(lat, Lattice.standard(m)) != order:
        raise InternalInconsistencyError(
            "character lattice index does not match the center's order"
        )
    return CharacterLattice.from_lattice(lat)


def project_to_semisimple(L: CharacterLattice, projection: IntMatrix) -> CharacterLattice:
    """Image of a character lattice under the weight-space projection."""
    if projection.cols != L.ambient_rank:
        raise InputError("projection does not accept the lattice's ambient rank")
    cols = [projection.matvec(v) for v in L.lattice.generators.columns()]
    return CharacterLattice.from_lattice(Lattice.from_columns(projection.rows, cols))


def action_in_basis(
    L: CharacterLattice, w: IntMatrix, generator_index: int | None = None
) -> IntMatrix:
    """Matrix of ``w`` restricted to the lattice, in lattice-basis coordinates.

    Column ``i`` holds the coordinates of the image of the i-th basis vector.
    Raises when ``w`` does not map the lattice into itself or fails to be
    invertible on it.
    """
    name = f" {generator_index}" if generator_index is not None else ""
    basis = L.lattice.basis
    cols = []
    for i, b in enumerate(basis.columns()):
        img = w.matvec(b)
        res = L.lattice.membership(img)
        if not res.member:
            raise ContainmentError(
                f"weyl generator{name} moves basis vector {i} outside the lattice"
            )
        cols.append(res.coordinates)
    mat = IntMatrix.from_columns(cols)
    if abs(det(mat)) != 1:
        raise ContainmentError(f"weyl generator{name} is not unimodular on the lattice")
    return mat


def sym2_action_matrix(c: IntMatrix) -> IntMatrix:
    """Induced action on degree-2 monomials of the basis, as columns."""
    r = c.rows
    cols = []
    ccols = c.columns()
    for (i, j) in sym2_monomials(r):
        unit = [0] * sym2_size(r)
        unit[sym2_index(i, j, r)] = 1
        cols.append(tuple(sym2_substitute(unit, ccols, r, r)))
    return IntMatrix.from_columns(cols)


def invariant_quadratic_lattice(L: CharacterLattice, weyl: WeylAction) -> Lattice:
    """All integral quadratic expressions in the lattice basis fixed by every
    Weyl generator: the exact integer kernel of the stacked (w - 1) maps."""
    r = L.rank
    n = sym2_size(r)
    stacked = []
    for idx, w in enumerate(weyl.generators):
        c = action_in_basis(L, w, generator_index=idx)
        s2 = sym2_action_matrix(c)
        for i in range(n):
            row = list(s2.entries[i])
            row[i] -= 1
            stacked.append(tuple(row))
    if not stacked:
        return Lattice.standard(n)
    ker = kernel_basis(IntMatrix.from_rows(stacked))
    return Lattice.from_columns(n, ker).canonical()


def ambient_to_basis_quad(L: CharacterLattice, ambient_coeffs) -> QuadSpaceElement:
    """Rewrite a quadratic expression over ambient monomials in the lattice
    basis monomials; errors when the result is not integral."""
    m = L.ambient_rank
    r = L.rank
    if r != m:
        # Full-rank lattices only: every preset here has finite index.
        raise InputError("basis change requires a full-rank character lattice")
    # With n the index, n * e_i lies in the lattice; its basis coordinates
    # are n times those of e_i, so the substitution below is n^2 times the
    # rewritten expression.
    n = lattice_index(L.lattice, Lattice.standard(m))
    canon = L.lattice.canonical()
    cols = [canon.membership(tuple(n * int(t == i) for t in range(m))).coordinates
            for i in range(m)]
    out = sym2_substitute(list(ambient_coeffs), cols, m, r)
    if any(x % (n * n) for x in out):
        raise InputError("expression is not integral on the lattice")
    return QuadSpaceElement(r, tuple(x // (n * n) for x in out))


def chern2_of_character(mult: WeightMultiset, L: CharacterLattice) -> QuadSpaceElement:
    """Second elementary symmetric value of the weight multiset, as a
    quadratic expression in the lattice basis.

    Computed by polarization: ``e2 = ((sum w)^2 - sum w^2) / 2``.  The first
    Chern class (the plain weight sum) must vanish, and every weight must lie
    in the lattice.
    """
    m = L.ambient_rank
    s1 = mult.first_chern()
    if any(s1):
        raise InputError("first Chern class of the character is nonzero")
    for v, _ in mult.weights:
        if len(v) != m:
            raise InputError("weight length does not match the ambient rank")
        if not L.lattice.contains(v):
            raise InputError(f"weight {v} is outside the character lattice")
    total = [0] * sym2_size(m)
    square_sum = outer_square(s1, m)
    for v, mu in mult.weights:
        sq = outer_square(v, m)
        for k in range(len(total)):
            total[k] -= mu * sq[k]
    for k in range(len(total)):
        total[k] += square_sum[k]
        if total[k] % 2:
            raise InternalInconsistencyError("polarization produced an odd coefficient")
        total[k] //= 2
    return ambient_to_basis_quad(L, total)


def dec_subgroup(
    L: CharacterLattice,
    weyl: WeylAction,
    weight_multisets=(),
    explicit_generators=(),
    invariant_lattice: Lattice | None = None,
) -> Lattice:
    """Subgroup of the invariant quadratic forms generated by second Chern
    classes of the given characters plus any explicit generators.

    Explicit generators are given over ambient monomials.  The result is
    checked to lie inside the invariant lattice; failure signals a broken
    preset rather than bad user input.
    """
    cols = []
    for ws in weight_multisets:
        if not ws.is_stable_under(weyl):
            raise InputError("character is not stable under the Weyl action")
        q = chern2_of_character(ws, L)
        cols.append(q.coefficients)
    for g in explicit_generators:
        cols.append(ambient_to_basis_quad(L, g).coefficients)
    n = sym2_size(L.rank)
    lat = Lattice.from_columns(n, cols).canonical()
    inv = invariant_lattice if invariant_lattice is not None else invariant_quadratic_lattice(L, weyl)
    for idx, c in enumerate(lat.generators.columns()):
        if not inv.contains(c):
            raise InternalInconsistencyError(
                f"chern-class generator {idx} escapes the invariant lattice"
            )
    return lat


@dataclass(frozen=True)
class IndecomposableResult:
    preset: str
    group: FinAbelianGroup
    witnesses: tuple[TorsionWitness, ...]
    character_lattice: CharacterLattice
    invariant_lattice: Lattice
    dec_lattice: Lattice
    # the presentation the group was read from, kept for certificates
    presentation: SubquotientData = field(repr=False, compare=False)


def indecomposable_group(preset: "GroupData | str") -> IndecomposableResult:
    """Quotient of the Weyl-invariant quadratic forms by the Chern-class
    subgroup, with explicit torsion witnesses."""
    if isinstance(preset, str):
        return _indecomposable_cached(preset)
    return _indecomposable_impl(preset)


@lru_cache(maxsize=32)
def _indecomposable_cached(name: str) -> IndecomposableResult:
    return _indecomposable_impl(get_preset(name))


def _indecomposable_impl(data: "GroupData") -> IndecomposableResult:
    if data.kind != "semisimple" or data.weyl is None:
        raise InputError(
            f"preset {data.name} has no Weyl-invariant computation; "
            "use its semisimple companion"
        )
    lat = data.semisimple_lattice()
    inv = invariant_quadratic_lattice(lat, data.weyl)
    dec = dec_subgroup(
        lat,
        data.weyl,
        weight_multisets=data.dec_weights,
        explicit_generators=data.dec_explicit,
        invariant_lattice=inv,
    )
    pres = subquotient_presentation(dec, inv)
    return IndecomposableResult(
        preset=data.name,
        group=pres.group,
        witnesses=pres.witnesses,
        character_lattice=lat,
        invariant_lattice=inv,
        dec_lattice=dec,
        presentation=pres,
    )


# ---------------------------------------------------------------------------
# preset registry


@dataclass(frozen=True)
class GroupData:
    """Everything needed to run the lattice computations for one group."""

    name: str
    datum: CentralQuotientDatum
    display_basis: tuple[tuple[str, tuple[int, ...]], ...]
    projection: IntMatrix | None = None
    semisimple_display: tuple[tuple[str, tuple[int, ...]], ...] = ()
    weyl: WeylAction | None = None
    dec_weights: tuple[WeightMultiset, ...] = ()
    dec_explicit: tuple[tuple[int, ...], ...] = ()
    kind: str = "reductive"

    def reductive_lattice(self) -> CharacterLattice:
        return character_lattice(self.datum)

    def semisimple_lattice(self) -> CharacterLattice:
        if self.projection is None:
            raise InputError(f"preset {self.name} has no semisimple projection")
        return project_to_semisimple(self.reductive_lattice(), self.projection)

    def display_lattice(self) -> CharacterLattice:
        return CharacterLattice.from_named(self.datum.ambient_rank, self.display_basis)

    def semisimple_display_lattice(self) -> CharacterLattice:
        if self.projection is None:
            raise InputError(f"preset {self.name} has no semisimple side")
        return CharacterLattice.from_named(self.projection.rows, self.semisimple_display)


def _unit(n: int, i: int, value: int = 1) -> tuple[int, ...]:
    return tuple(value if t == i else 0 for t in range(n))


def _gl2n_data(n: int) -> GroupData:
    """Product of n rank-1 general linear factors, modulo the central
    subgroup of sign tuples with product one.

    Ambient coordinates are x1..xn then y1..yn (the two diagonal weights of
    each factor).  The center's characters form (Z/2)^(n-1); row i compares
    the parity of factor i with the parity of factor n.
    """
    amb = 2 * n
    rows = []
    for i in range(n - 1):
        row = [0] * amb
        row[i] = row[n + i] = 1
        row[n - 1] = row[2 * n - 1] = 1
        rows.append(tuple(row))
    datum = CentralQuotientDatum(amb, (2,) * (n - 1), IntMatrix.from_rows(rows))

    display = []
    for i in range(n):
        v = [0] * amb
        v[i] = 1
        v[n + i] = -1
        display.append((f"x{i + 1}-y{i + 1}", tuple(v)))
    for k in range(n - 1):
        display.append((f"2x{k + 1}", _unit(amb, k, 2)))
    sum_label = "+".join(f"x{i + 1}" for i in range(n))
    display.append((sum_label, tuple(1 if t < n else 0 for t in range(amb))))

    proj_rows = []
    for i in range(n):
        row = [0] * amb
        row[i] = 1
        row[n + i] = -1
        proj_rows.append(tuple(row))
    projection = IntMatrix.from_rows(proj_rows)

    ss_display = [(f"2x{k + 1}", _unit(n, k, 2)) for k in range(n - 1)]
    ss_display.append((sum_label, (1,) * n))

    flips = tuple(
        IntMatrix.from_rows(
            [[(-1 if (i == j == k) else (1 if i == j else 0)) for j in range(n)] for i in range(n)]
        )
        for k in range(n)
    )
    weyl = WeylAction(generators=flips)

    weights = []
    for i in range(n):
        weights.append(WeightMultiset.of([(_unit(n, i, 2), 1), (_unit(n, i, -2), 1)]))
    signs = [[]]
    for _ in range(n):
        signs = [s + [e] for s in signs for e in (1, -1)]
    weights.append(WeightMultiset.of([(tuple(s), 1) for s in signs]))

    return GroupData(
        name=f"gl2n:{n}",
        datum=datum,
        display_basis=tuple(display),
        projection=projection,
        semisimple_display=tuple(ss_display),
        weyl=weyl,
        dec_weights=tuple(weights),
    )


def _sym_q(rank6: int, block: int) -> tuple[int, ...]:
    """Killing-normalized invariant form of one rank-3 block inside Z^6:
    sum of squares plus sum of cross terms over that block's coordinates."""
    out = [0] * sym2_size(rank6)
    base = 3 * block
    for i in range(3):
        out[sym2_index(base + i, base + i, rank6)] = 1
        for j in range(i + 1, 3):
            out[sym2_index(base + i, base + j, rank6)] = 1
    return tuple(out)


def _perm_matrix_on_sl4_block(rank6: int, block: int, k: int) -> IntMatrix:
    """Adjacent transposition (k, k+1) of the four diagonal weights of one
    special linear factor of rank 3, written on the three free coordinates
    (the fourth weight is minus their sum)."""
    base = 3 * block
    cols = [list(_unit(rank6, i)) for i in range(rank6)]
    if k < 2:
        a, b = base + k, base + k + 1
        cols[a], cols[b] = cols[b], cols[a]
    else:
        # swap the third free weight with the dependent fourth one
        a = base + 2
        col = [0] * rank6
        for t in range(3):
            col[base + t] = -1
        cols[a] = col
    return IntMatrix.from_columns([tuple(c) for c in cols])


def _gl4x4_data() -> GroupData:
    """Two rank-3 general linear factors modulo the central subgroup of
    fourth-root pairs whose squares multiply to one.

    Ambient coordinates are x1..x4 then y1..y4.  The center's characters are
    Z/2 + Z/4: the Z/2 row reads the second factor's total weight mod 2, the
    Z/4 row the difference of the two total weights mod 4.
    """
    amb = 8
    rows = [
        (0, 0, 0, 0, 1, 1, 1, 1),
        (1, 1, 1, 1, -1, -1, -1, -1),
    ]
    datum = CentralQuotientDatum(amb, (2, 4), IntMatrix.from_rows(rows))

    def vec(pairs):
        v = [0] * amb
        for idx, val in pairs:
            v[idx] = val
        return tuple(v)

    display = (
        ("x1-x2", vec([(0, 1), (1, -1)])),
        ("x1-x3", vec([(0, 1), (2, -1)])),
        ("x1-x4", vec([(0, 1), (3, -1)])),
        ("y1-y2", vec([(4, 1), (5, -1)])),
        ("y1-y3", vec([(4, 1), (6, -1)])),
        ("y1-y4", vec([(4, 1), (7, -1)])),
        ("2x1+2y1", vec([(0, 2), (4, 2)])),
        ("2x1-2y1", vec([(0, 2), (4, -2)])),
    )

    # x_i -> xb_i, x_4 -> -(xb_1+xb_2+xb_3), same for the second block
    proj_rows = []
    for i in range(3):
        row = [0] * amb
        row[i] = 1
        row[3] = -1
        proj_rows.append(tuple(row))
    for i in range(3):
        row = [0] * amb
        row[4 + i] = 1
        row[7] = -1
        proj_rows.append(tuple(row))
    projection = IntMatrix.from_rows(proj_rows)

    def vec6(pairs):
        v = [0] * 6
        for idx, val in pairs:
            v[idx] = val
        return tuple(v)

    ss_display = (
        ("x1-x2", vec6([(0, 1), (1, -1)])),
        ("x1-x3", vec6([(0, 1), (2, -1)])),
        ("y1-y2", vec6([(3, 1), (4, -1)])),
        ("y1-y3", vec6([(3, 1), (5, -1)])),
        ("2x1+2y1", vec6([(0, 2), (3, 2)])),
        ("2x1-2y1", vec6([(0, 2), (3, -2)])),
    )

    weyl = WeylAction(
        generators=tuple(
            _perm_matrix_on_sl4_block(6, block, k) for block in (0, 1) for k in range(3)
        )
    )

    q1 = _sym_q(6, 0)
    q2 = _sym_q(6, 1)
    eight_q1 = tuple(8 * x for x in q1)
    four_q1_plus_4q2 = tuple(4 * a + 4 * b for a, b in zip(q1, q2))

    return GroupData(
        name="gl4x4",
        datum=datum,
        display_basis=display,
        projection=projection,
        semisimple_display=ss_display,
        weyl=weyl,
        dec_explicit=(eight_q1, four_q1_plus_4q2),
    )


@lru_cache(maxsize=32)
def _build(name: str) -> GroupData:
    if name.startswith("gl2n:") or name.startswith("sl2n:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise InputError(f"malformed preset name {name!r}")
        if not 2 <= n <= 8:
            raise InputError(f"preset {name!r}: n must be between 2 and 8")
        data = _gl2n_data(n)
        return data if name.startswith("gl") else _as_semisimple(data, f"sl2n:{n}")
    if name == "gl4x4":
        return _gl4x4_data()
    if name == "sl4x4":
        return _as_semisimple(_gl4x4_data(), "sl4x4")
    raise InputError(
        f"unknown group preset {name!r}; available: "
        + ", ".join(available_presets())
    )


def _as_semisimple(data: GroupData, name: str) -> GroupData:
    return GroupData(
        name=name,
        datum=data.datum,
        display_basis=data.display_basis,
        projection=data.projection,
        semisimple_display=data.semisimple_display,
        weyl=data.weyl,
        dec_weights=data.dec_weights,
        dec_explicit=data.dec_explicit,
        kind="semisimple",
    )


def get_preset(name: str) -> GroupData:
    return _build(name)


def available_presets() -> list[str]:
    names = [f"gl2n:{n}" for n in range(2, 9)] + [f"sl2n:{n}" for n in range(2, 9)]
    return names + ["gl4x4", "sl4x4"]


def sl4_block_form(block: int) -> tuple[int, ...]:
    """Public handle on the two generating invariant forms of the rank-3
    blocks (ambient monomial coefficients over Z^6)."""
    return _sym_q(6, block)
