"""Character lattices of central quotients, Weyl-invariant quadratic forms,
the subgroup spanned by second Chern classes of invariant characters, and the
indecomposable degree-3 invariant group computed as a lattice subquotient.

The supported groups are products of special linear blocks SL_m modulo a
finite central subgroup, each built by ``_type_a`` from its blocks and the
generators of that subgroup.  The registry exposes them under the preset
names ``gl2n:{n}`` / ``sl2n:{n}`` (n blocks SL_2) for n in
``errors.N_RANGE`` and ``gl4x4`` / ``sl4x4`` (two blocks SL_4).

Quadratic forms live in the degree-2 part of the symmetric algebra on a
character lattice.  A form "on the lattice" means one with integer
coefficients over the degree-2 monomials in a basis of the lattice, held as
a tuple in ``sym2_monomials`` order; a character lattice is an
``exactlin.Lattice`` and a Weyl action a tuple of integer matrices.  Weyl
invariance is computed as an exact integer kernel rather than by averaging,
which would leave the integral structure.

The Chern-class subgroup is the span of the c2 forms a preset states in the
block forms q_b: -4 q_i for the weight pair +-2e_i of ``sl2n:n`` and
-2^(n-1) (q_1 + ... + q_n) for the tensor product of its n standard
characters (the tests compare them with c2 of those characters); 8 q1 and
4 q1 + 4 q2 for ``sl4x4``.  Nothing proves that a preset's list generates
all of Dec, so the quotient computed is the one by the listed span.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

from .errors import N_RANGE, ContainmentError, InputError, InternalInconsistencyError
from .exactlin import (
    IntMatrix,
    Lattice,
    SubquotientData,
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


# ---------------------------------------------------------------------------
# domain types


class CentralQuotientDatum:
    """Ambient weight lattice plus the residue map onto the character group
    of the central subgroup being divided out.

    ``residue_rows[i]`` is understood modulo ``factor_moduli[i]``; the
    character lattice of the quotient torus is the kernel of the composite
    map to the direct sum of those cyclic groups.  The map must be onto;
    :func:`character_lattice` checks that through the index of the kernel.
    """

    def __init__(
        self, ambient_rank: int, factor_moduli: tuple[int, ...], residue_rows: IntMatrix
    ) -> None:
        if residue_rows.rows != len(factor_moduli):
            raise InputError("one residue row per cyclic factor is required")
        if residue_rows.rows and residue_rows.cols != ambient_rank:
            raise InputError("residue rows must have ambient length")
        self.ambient_rank = ambient_rank
        self.factor_moduli = factor_moduli
        self.residue_rows = residue_rows


# ---------------------------------------------------------------------------
# operations


def character_lattice(datum: CentralQuotientDatum) -> Lattice:
    """Kernel of the composite map from the ambient weight lattice onto the
    center's character group, as a canonically based full-rank sublattice.

    The kernel's index is the order of the image, so it is the order of the
    character group exactly when the residue map is onto.
    """
    k = len(datum.factor_moduli)
    m = datum.ambient_rank
    if k == 0:
        return Lattice.standard(m)
    rows = [
        tuple(datum.residue_rows.entries[i]) + tuple(
            -datum.factor_moduli[i] if t == i else 0 for t in range(k)
        )
        for i in range(k)
    ]
    ker = kernel_basis(IntMatrix.from_rows(rows))
    gens = [v[:m] for v in ker]
    lat = Lattice.from_columns(m, gens)
    if lattice_index(lat) != math.prod(datum.factor_moduli):
        raise InternalInconsistencyError(
            "character lattice index does not match the center's order"
        )
    return lat


def project_to_semisimple(L: Lattice, projection: IntMatrix) -> Lattice:
    """Image of a character lattice under the weight-space projection."""
    if projection.cols != L.ambient_rank:
        raise InputError("projection does not accept the lattice's ambient rank")
    cols = [projection.matvec(v) for v in L.basis_columns]
    return Lattice.from_columns(projection.rows, cols)


def action_in_basis(L: Lattice, w: IntMatrix, generator_index: int) -> IntMatrix:
    """Matrix of ``w`` restricted to the lattice, in lattice-basis coordinates.

    Column ``i`` holds the coordinates of the image of the i-th basis vector.
    Raises, naming the Weyl generator by its index, when ``w`` does not map
    the lattice into itself or fails to be invertible on it.
    """
    cols = []
    for i, b in enumerate(L.basis_columns):
        coords = L._basis_coordinates(w.matvec(b))
        if coords is None:
            raise ContainmentError(
                f"weyl generator {generator_index} moves basis vector {i} outside the lattice"
            )
        cols.append(coords)
    mat = IntMatrix.from_columns(cols)
    if abs(det(mat)) != 1:
        raise ContainmentError(f"weyl generator {generator_index} is not unimodular on the lattice")
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


def invariant_quadratic_lattice(
    L: Lattice, weyl: tuple[IntMatrix, ...]
) -> tuple[Lattice, tuple[IntMatrix, ...]]:
    """All integral quadratic expressions in the lattice basis fixed by every
    Weyl generator: the exact integer kernel of the stacked (w - 1) maps.
    Returned with the action of each generator on the quadratic monomials,
    the matrices the kernel was taken of."""
    n = sym2_size(L.rank)
    actions = tuple(sym2_action_matrix(action_in_basis(L, w, i)) for i, w in enumerate(weyl))
    stacked = []
    for s2 in actions:
        for i in range(n):
            row = list(s2.entries[i])
            row[i] -= 1
            stacked.append(tuple(row))
    if not stacked:
        return Lattice.standard(n), actions
    ker = kernel_basis(IntMatrix.from_rows(stacked))
    return Lattice.from_columns(n, ker), actions


def ambient_to_basis_quad(L: Lattice, ambient_coeffs) -> tuple[int, ...]:
    """Rewrite a quadratic expression over ambient monomials as coefficients
    over the lattice basis monomials; errors when it has the wrong length or
    is not integral on the lattice."""
    m = L.ambient_rank
    r = L.rank
    if len(ambient_coeffs) != sym2_size(m):
        raise InputError(
            f"a quadratic form in {m} variables has {sym2_size(m)} coefficients, "
            f"not {len(ambient_coeffs)}"
        )
    if r != m:
        # Full-rank lattices only: every preset here has finite index.
        raise InputError("basis change requires a full-rank character lattice")
    # With n the index, n * e_i lies in the lattice; its basis coordinates
    # are n times those of e_i, so the substitution below is n^2 times the
    # rewritten expression.
    n = lattice_index(L)
    cols = [L.membership(tuple(n * int(t == i) for t in range(m))).coordinates
            for i in range(m)]
    out = sym2_substitute(ambient_coeffs, cols, m, r)
    if any(x % (n * n) for x in out):
        raise InputError("expression is not integral on the lattice")
    return tuple(x // (n * n) for x in out)


def dec_subgroup(L: Lattice, forms) -> Lattice:
    """Span of the given second Chern classes, each an integral form over
    ambient monomials, as quadratic forms in the basis of ``L``.

    That the span lies in the invariant lattice is proved where the quotient
    is presented.  Nothing here checks that the forms span all of Dec: the
    subgroup is the span of the forms a preset states.
    """
    return Lattice.from_columns(sym2_size(L.rank), [ambient_to_basis_quad(L, f) for f in forms])


class IndecomposableResult(NamedTuple):
    """The group is ``presentation.group``, with its witnesses, presented as
    the invariant lattice (``presentation.sup``) over the Chern-class
    subgroup (``presentation.sub``).  The lattice the character lattice was
    projected from and the Weyl actions on the quadratic monomials, whose
    kernel is the invariant lattice, are kept for certificates."""

    preset: str
    character_lattice: Lattice
    presentation: SubquotientData
    reductive_lattice: Lattice
    weyl_actions: tuple[IntMatrix, ...]


@lru_cache(maxsize=32)
def indecomposable_group(name: str) -> IndecomposableResult:
    """Quotient of the Weyl-invariant quadratic forms by the Chern-class
    subgroup of a named preset, with explicit torsion witnesses."""
    data = get_preset(name)
    if data.kind != "semisimple":
        raise InputError(
            f"preset {data.name} has no Weyl-invariant computation; "
            "use its semisimple companion"
        )
    reductive = data.reductive_lattice()
    lat = project_to_semisimple(reductive, data.projection)
    inv, actions = invariant_quadratic_lattice(lat, data.weyl)
    dec = dec_subgroup(lat, data.dec_forms)
    return IndecomposableResult(
        preset=data.name,
        character_lattice=lat,
        presentation=subquotient_presentation(dec, inv),
        reductive_lattice=reductive,
        weyl_actions=actions,
    )


def sl4x4_witness_is_2q1_plus_6q2(res: IndecomposableResult) -> bool:
    """Whether the torsion witness of ``sl4x4`` is the class of 2 q1 + 6 q2
    modulo the Chern-class subgroup, q1 and q2 the forms of the two blocks."""
    q1, q2 = sl4_block_form(0), sl4_block_form(1)
    target = ambient_to_basis_quad(
        res.character_lattice, tuple(2 * a + 6 * b for a, b in zip(q1, q2))
    )
    diff = tuple(a - b for a, b in zip(res.presentation.witnesses[0], target))
    return res.presentation.sub.contains(diff)


# ---------------------------------------------------------------------------
# preset registry


class GroupData(NamedTuple):
    """Everything needed to run the lattice computations for one group.

    ``dec_forms`` are the stated second Chern classes whose span is the
    Chern-class subgroup, as integral forms over the monomials of the
    semisimple coordinates.
    """

    name: str
    datum: CentralQuotientDatum
    display_basis: tuple[tuple[str, tuple[int, ...]], ...]
    projection: IntMatrix
    semisimple_display: tuple[tuple[str, tuple[int, ...]], ...]
    weyl: tuple[IntMatrix, ...]  # Weyl generators on the semisimple coordinates
    dec_forms: tuple[tuple[int, ...], ...]
    kind: str = "reductive"

    def reductive_lattice(self) -> Lattice:
        return character_lattice(self.datum)


def _unit(n: int, i: int, value: int = 1) -> tuple[int, ...]:
    return tuple(value if t == i else 0 for t in range(n))


def _free_coordinates(sizes) -> list[range]:
    """Semisimple coordinates of each SL_m block, block by block: the block's
    first m - 1 weights (the last one is minus their sum)."""
    ends = list(itertools.accumulate(m - 1 for m in sizes))
    return [range(e - m + 1, e) for m, e in zip(sizes, ends)]


def _block_forms(sizes) -> tuple[tuple[int, ...], ...]:
    """Killing-normalized invariant form of each SL_m block, over the
    semisimple monomials: sum of squares plus sum of cross terms of the
    block's free coordinates."""
    free = _free_coordinates(sizes)
    mons = sym2_monomials(sum(sizes) - len(sizes))
    return tuple(tuple(int(i in f and j in f) for i, j in mons) for f in free)


def _block_weyl(sizes) -> tuple[IntMatrix, ...]:
    """Adjacent transpositions of each block's weights on the semisimple
    coordinates, block by block.  The last one swaps the last free weight
    with the dependent one, so it sends that coordinate to minus the sum of
    the block's free coordinates."""
    r = sum(sizes) - len(sizes)
    out = []
    for f in _free_coordinates(sizes):
        for k in f:
            cols = [_unit(r, i) for i in range(r)]
            if k + 1 in f:
                cols[k], cols[k + 1] = cols[k + 1], cols[k]
            else:
                cols[k] = tuple(-1 if t in f else 0 for t in range(r))
            out.append(IntMatrix.from_columns(cols))
    return tuple(out)


def sl4_block_form(block: int) -> tuple[int, ...]:
    """Invariant form of one rank-3 block of ``sl4x4`` over its six
    semisimple coordinates."""
    return _block_forms((4, 4))[block]


def _type_a(name, blocks, center, display, semisimple_display, dec) -> GroupData:
    """A product of special linear blocks modulo a central subgroup.

    ``blocks[b]`` lists the ambient coordinates of the diagonal weights of
    an SL_m block, m = len(blocks[b]).  Each generator in ``center`` gives
    the exponent c_b of the primitive m_b-th root of unity on block b; its
    order o is the lcm of m_b / gcd(c_b, m_b), and its residue row is
    c_b o / m_b on every coordinate of block b, mod o.  The projection
    drops each block's last weight.  ``dec`` states each Chern class as
    integer coefficients of the block forms.
    """
    amb = sum(len(b) for b in blocks)
    moduli, rows = [], []
    for gen in center:
        o = math.lcm(*(len(b) // math.gcd(c, len(b)) for b, c in zip(blocks, gen)))
        row = [0] * amb
        for b, c in zip(blocks, gen):
            for t in b:
                row[t] = c * o // len(b)
        moduli.append(o)
        rows.append(row)
    projection = IntMatrix.from_rows(
        [[int(u == t) - int(u == b[-1]) for u in range(amb)] for b in blocks for t in b[:-1]]
    )
    sizes = [len(b) for b in blocks]
    forms = _block_forms(sizes)
    return GroupData(
        name=name,
        datum=CentralQuotientDatum(amb, tuple(moduli), IntMatrix.from_rows(rows)),
        display_basis=tuple(display),
        projection=projection,
        semisimple_display=tuple(semisimple_display),
        weyl=_block_weyl(sizes),
        dec_forms=tuple(
            tuple(sum(c * x for c, x in zip(coeffs, column)) for column in zip(*forms))
            for coeffs in dec
        ),
    )


def _gl2n_data(n: int) -> GroupData:
    """Product of n rank-1 general linear factors, modulo the central
    subgroup of sign tuples with product one.

    Ambient coordinates are x1..xn then y1..yn (the two diagonal weights of
    each factor), so block i is (xi, yi).  The center is generated by the
    n - 1 sign tuples that are -1 on factors i and n, a group (Z/2)^(n-1).
    """
    amb = 2 * n
    display = [
        (f"x{i + 1}-y{i + 1}", tuple(int(t == i) - int(t == n + i) for t in range(amb)))
        for i in range(n)
    ]
    display += [(f"2x{k + 1}", _unit(amb, k, 2)) for k in range(n - 1)]
    sum_label = "+".join(f"x{i + 1}" for i in range(n))
    display.append((sum_label, tuple(int(t < n) for t in range(amb))))
    ss_display = [(f"2x{k + 1}", _unit(n, k, 2)) for k in range(n - 1)]
    ss_display.append((sum_label, (1,) * n))
    # A character with c1 = 0 has c2 = -(1/2) sum of its squared weights.  So
    # the weight pair +-2e_i gives -4 x_i^2, and the tensor product of the n
    # standard characters, whose 2^n weights are the sign vectors s with
    # sum_s (s.x)^2 = 2^n (x_1^2 + ... + x_n^2), gives -2^(n-1) sum x_i^2.
    return _type_a(
        f"gl2n:{n}",
        blocks=[(i, n + i) for i in range(n)],
        center=[tuple(int(b in (i, n - 1)) for b in range(n)) for i in range(n - 1)],
        display=display,
        semisimple_display=ss_display,
        dec=[_unit(n, i, -4) for i in range(n)] + [(-(2 ** (n - 1)),) * n],
    )


def _gl4x4_data() -> GroupData:
    """Two rank-3 general linear factors modulo the central subgroup of
    fourth-root pairs whose squares multiply to one.

    Ambient coordinates are x1..x4 then y1..y4, one block each.  The center,
    of order 8, is generated by (1, z^2) and (z, z^-1), z a primitive fourth
    root of unity; its characters are Z/2 + Z/4.
    """
    return _type_a(
        "gl4x4",
        blocks=[(0, 1, 2, 3), (4, 5, 6, 7)],
        center=[(0, 2), (1, -1)],
        display=[
            ("x1-x2", (1, -1, 0, 0, 0, 0, 0, 0)),
            ("x1-x3", (1, 0, -1, 0, 0, 0, 0, 0)),
            ("x1-x4", (1, 0, 0, -1, 0, 0, 0, 0)),
            ("y1-y2", (0, 0, 0, 0, 1, -1, 0, 0)),
            ("y1-y3", (0, 0, 0, 0, 1, 0, -1, 0)),
            ("y1-y4", (0, 0, 0, 0, 1, 0, 0, -1)),
            ("2x1+2y1", (2, 0, 0, 0, 2, 0, 0, 0)),
            ("2x1-2y1", (2, 0, 0, 0, -2, 0, 0, 0)),
        ],
        semisimple_display=[
            ("x1-x2", (1, -1, 0, 0, 0, 0)),
            ("x1-x3", (1, 0, -1, 0, 0, 0)),
            ("y1-y2", (0, 0, 0, 1, -1, 0)),
            ("y1-y3", (0, 0, 0, 1, 0, -1)),
            ("2x1+2y1", (2, 0, 0, 2, 0, 0)),
            ("2x1-2y1", (2, 0, 0, -2, 0, 0)),
        ],
        dec=[(8, 0), (4, 4)],
    )


@lru_cache(maxsize=32)
def get_preset(name: str) -> GroupData:
    if name.startswith("gl2n:") or name.startswith("sl2n:"):
        try:
            n = int(name[5:])
            if name[5:] != str(n):
                raise ValueError(name)
        except ValueError:
            raise InputError(f"malformed preset name {name!r}")
        if n not in N_RANGE:
            raise InputError(
                f"preset {name!r}: n must be between {N_RANGE[0]} and {N_RANGE[-1]}"
            )
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
    return data._replace(name=name, kind="semisimple")


def available_presets() -> list[str]:
    names = [f"{kind}:{n}" for kind in ("gl2n", "sl2n") for n in N_RANGE]
    return names + ["gl4x4", "sl4x4"]

