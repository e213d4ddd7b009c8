import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdinv import exactlin
from sdinv.exactlin import (
    ContainmentError,
    FinAbelianGroup,
    InputError,
    IntMatrix,
    InternalInconsistencyError,
    Lattice,
    det,
    kernel_basis,
    lattice_index,
    lattice_membership,
    row_hermite,
    smith_normal_form,
    subquotient_presentation,
)


# --- independent oracles -----------------------------------------------------


def rational_inverse(m: IntMatrix) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular square matrix, by Gauss-Jordan over Q.

    Rows of the result are rows of the inverse; a unimodular input gives
    integral entries.
    """
    n = m.rows
    if n != m.cols:
        raise InputError("inverse of a non-square matrix")
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m.entries)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise InputError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def snf_2x2_oracle(m: IntMatrix) -> tuple[int, int]:
    """Invariant factors of a 2x2 matrix: gcd of entries, then |det|/gcd."""
    flat = [x for row in m.entries for x in row]
    d1 = math.gcd(*flat)
    d2 = abs(det(m)) // d1 if d1 else 0
    return d1, d2


def test_snf_identity():
    dec = smith_normal_form(IntMatrix.identity(2))
    assert dec.diagonal == (1, 1)
    assert dec.verify()


def test_snf_diag_2_3():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert snf_2x2_oracle(m) == (1, 6)
    dec = smith_normal_form(m)
    assert dec.diagonal == (1, 6)


def test_snf_columns_44_26():
    m = IntMatrix.from_columns([(4, 4), (2, 6)])
    assert snf_2x2_oracle(m) == (2, 8)
    dec = smith_normal_form(m)
    assert dec.diagonal == (2, 8)


def test_snf_unsorted_diagonal_chain_repair():
    # oracle via determinantal divisors: gcd of entries, gcd of 2x2 minors, det
    m = IntMatrix.from_rows([[6, 0, 0], [0, 4, 0], [0, 0, 3]])
    dec = smith_normal_form(m)
    assert dec.diagonal == (1, 6, 12)
    assert dec.verify()
    dec = smith_normal_form(IntMatrix.from_rows([[4, 0], [0, 6]]))
    assert dec.diagonal == (2, 12)


def test_snf_rectangular_and_zero():
    dec = smith_normal_form(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    assert dec.diagonal == (0, 0)
    assert dec.verify()
    dec = smith_normal_form(IntMatrix.from_rows([[6, 4, 2]]))
    assert dec.diagonal == (2,)
    assert dec.verify()


matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda r: st.integers(min_value=1, max_value=12).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-50, max_value=50), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_snf_invariants_random(rows):
    dec = smith_normal_form(IntMatrix.from_rows(rows))
    assert dec.verify()


# --- membership --------------------------------------------------------------


def test_membership_zero_vector():
    lat = Lattice.from_columns(2, [(2, 0), (0, 2)])
    res = lattice_membership((0, 0), lat)
    assert res.member and res.coordinates == (0, 0)
    assert res.check((0, 0), lat)


def test_membership_parity_obstruction():
    lat = Lattice.from_columns(2, [(2, 0), (0, 2)])
    res = lattice_membership((1, 0), lat)
    assert not res.member
    cert = res.certificate
    assert cert.kind == "modular" and cert.prime == 2
    assert res.check((1, 0), lat)


def test_membership_solves_linear_system():
    # oracle: 4a + 2b = 8 and 4a + 6b = 0 has the unique solution (3, -2)
    lat = Lattice.from_columns(2, [(4, 4), (2, 6)])
    res = lattice_membership((8, 0), lat)
    assert res.member and res.coordinates == (3, -2)


def test_membership_rank_obstruction():
    lat = Lattice.from_columns(2, [(1, 1)])
    res = lattice_membership((1, 0), lat)
    assert not res.member
    assert res.certificate.kind == "rank"
    assert res.check((1, 0), lat)


def test_membership_dimension_mismatch():
    lat = Lattice.from_columns(2, [(1, 0)])
    with pytest.raises(InputError):
        lattice_membership((1, 0, 0), lat)


vectors2 = st.tuples(
    st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(vectors2, min_size=1, max_size=4),
    vectors2,
)
def test_membership_certificates_verify(gens, v):
    lat = Lattice.from_columns(2, gens)
    res = lattice_membership(v, lat)
    assert res.check(v, lat)
    if res.member:
        assert lat.generators.matvec(res.coordinates) == v


# --- canonical bases ----------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(vectors2, min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_hermite_basis_invariance(gens, rng):
    lat = Lattice.from_columns(2, gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    # appending a redundant generator (a sum of two others) changes nothing
    redundant = tuple(a + b for a, b in zip(shuffled[0], shuffled[-1]))
    lat2 = Lattice.from_columns(2, shuffled + [redundant])
    assert lat.same_lattice(lat2)
    assert lat.canonical().basis.entries == lat.basis.entries


def test_row_hermite_canonical_example():
    assert row_hermite([(2, 0), (0, 2), (1, 1)]) == ((1, 1), (0, 2))


# --- subquotients -------------------------------------------------------------


def test_subquotient_two_torsion_square():
    sub = Lattice.from_columns(2, [(2, 0), (0, 2)])
    sup = Lattice.standard(2)
    g = subquotient_presentation(sub, sup).group
    assert g.free_rank == 0 and g.invariant_factors == (2, 2)


def test_subquotient_paper_shape_n2():
    sub = Lattice.from_columns(2, [(2, 2), (4, 0), (0, 4)])
    sup = Lattice.from_columns(2, [(1, 3), (0, 4)])
    g = subquotient_presentation(sub, sup).group
    assert g.label() == "Z/2"


def test_subquotient_rank4_pair():
    sub = Lattice.from_columns(2, [(8, 0), (4, 4)])
    sup = Lattice.from_columns(2, [(4, 4), (2, 6)])
    g = subquotient_presentation(sub, sup).group
    assert g.label() == "Z/2"


def test_subquotient_self_trivial():
    lat = Lattice.from_columns(3, [(2, 1, 0), (0, 3, 1)])
    assert subquotient_presentation(lat, lat).group.is_trivial


@settings(max_examples=40, deadline=None)
@given(st.lists(vectors2, min_size=1, max_size=4))
def test_subquotient_self_trivial_random(gens):
    lat = Lattice.from_columns(2, gens)
    assert subquotient_presentation(lat, lat).group.is_trivial


def test_containment_error_names_generator():
    sub = Lattice.from_columns(2, [(2, 0), (1, 1)])
    sup = Lattice.from_columns(2, [(2, 0), (0, 2)])
    with pytest.raises(ContainmentError, match="generator 1"):
        subquotient_presentation(sub, sup)


# --- saturation torsion -------------------------------------------------------


def test_saturation_torsion_single_relation():
    sub = Lattice.from_columns(2, [(2, 0)])
    sup = Lattice.standard(2)
    data = subquotient_presentation(sub, sup)
    tors, wits = data.torsion, data.witnesses
    assert tors.label() == "Z/2"
    assert len(wits) == 1
    w = wits[0]
    assert w.order == 2 and w.vector == (1, 0)
    assert w.check(sub.canonical())


def test_saturation_torsion_mixed():
    sub = Lattice.from_columns(2, [(2, 0), (0, 1)])
    sup = Lattice.standard(2)
    data = subquotient_presentation(sub, sup)
    tors, wits = data.torsion, data.witnesses
    assert tors.label() == "Z/2"
    assert wits[0].vector == (1, 0) and wits[0].order == 2


def test_saturation_witness_orders():
    sub = Lattice.from_columns(3, [(2, 0, 0), (0, 12, 0), (0, 0, 3)])
    sup = Lattice.standard(3)
    data = subquotient_presentation(sub, sup)
    tors, wits = data.torsion, data.witnesses
    orders = sorted(w.order for w in wits)
    assert orders == [2, 3, 12] or orders == sorted(tors.invariant_factors)
    for w in wits:
        assert w.check(sub.canonical())


vectors3 = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(vectors3, min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4),
)
def test_witnesses_equal_columns_of_the_inverse_of_u(sup_gens, combos):
    """Each witness is sup.basis times column i of U^-1, computed here with
    the rational inverse oracle; the package reads it from V instead."""
    sup = Lattice.from_columns(3, sup_gens)
    sub = Lattice.from_columns(
        3, [tuple(sum(c * g[t] for c, g in zip(combo, sup_gens)) for t in range(3))
            for combo in combos]
    )
    data = subquotient_presentation(sub, sup)
    uinv = rational_inverse(data.smith.U)
    expected = [
        data.sup.basis.matvec([int(row[i]) for row in uinv])
        for i, d in enumerate(data.smith.diagonal)
        if d > 1
    ]
    assert [w.vector for w in data.witnesses] == expected
    for w in data.witnesses:
        assert w.check(data.sub)


# --- index --------------------------------------------------------------------


def test_index_doubled_square():
    assert lattice_index(Lattice.from_columns(2, [(2, 0), (0, 2)]), Lattice.standard(2)) == 4


def test_index_infinite():
    assert lattice_index(Lattice.from_columns(2, [(2, 0)]), Lattice.standard(2)) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(vectors2, min_size=2, max_size=4))
def test_index_matches_invariant_factor_product_and_determinants(gens):
    sup = Lattice.standard(2)
    sub = Lattice.from_columns(2, gens)
    idx = lattice_index(sub, sup)
    g = subquotient_presentation(sub, sup).group
    if idx is None:
        assert g.free_rank > 0
    else:
        prod = 1
        for d in g.invariant_factors:
            prod *= d
        assert idx == prod
        if sub.rank == 2:
            assert idx == abs(det(sub.basis))


# --- misc ---------------------------------------------------------------------


def test_fin_abelian_group_labels():
    assert FinAbelianGroup.trivial().label() == "0"
    assert FinAbelianGroup.cyclic(2).label() == "Z/2"
    assert FinAbelianGroup(1, (2, 4)).label() == "Z + Z/2 + Z/4"
    with pytest.raises(InputError):
        FinAbelianGroup(0, (4, 2))


def test_invert_unimodular_roundtrip():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = IntMatrix.from_rows(rational_inverse(m))
    assert m.mul(inv).entries == IntMatrix.identity(2).entries


def test_rational_inverse_of_a_non_unimodular_matrix():
    inv = rational_inverse(IntMatrix.from_rows([[2, 0], [1, 4]]))
    assert inv == [[Fraction(1, 2), 0], [Fraction(-1, 8), Fraction(1, 4)]]
    with pytest.raises(InputError):
        rational_inverse(IntMatrix.from_rows([[1, 2], [2, 4]]))


# --- Hermite-first kernels ----------------------------------------------------


def kernel_oracle(m: IntMatrix) -> list[tuple[int, ...]]:
    """The kernel read off the Smith form of the full, uncompressed matrix."""
    dec = smith_normal_form(m)
    return [
        dec.V.column(j)
        for j in range(m.cols)
        if (dec.D.entries[j][j] if j < m.rows else 0) == 0
    ]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


small = st.integers(min_value=-9, max_value=9)
tall_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda c: st.tuples(
        st.integers(min_value=c, max_value=c + 10),
        st.integers(min_value=1, max_value=c),
    ).flatmap(
        # rows x inner times inner x c: tall, and of rank at most ``inner``
        lambda shape: st.tuples(
            st.lists(st.lists(small, min_size=shape[1], max_size=shape[1]),
                     min_size=shape[0], max_size=shape[0]),
            st.lists(st.lists(small, min_size=c, max_size=c),
                     min_size=shape[1], max_size=shape[1]),
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(tall_matrices)
def test_kernel_basis_matches_full_smith_kernel(factors):
    m = IntMatrix.from_rows(_product(*factors))
    ker = kernel_basis(m)
    assert Lattice.from_columns(m.cols, ker).same_lattice(
        Lattice.from_columns(m.cols, kernel_oracle(m))
    )
    assert len(ker) == len(kernel_oracle(m))


def test_kernel_basis_rejects_a_compression_that_drops_a_row(monkeypatch):
    m = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3], [1, 1, 1]])
    honest = exactlin.row_hermite
    monkeypatch.setattr(exactlin, "row_hermite", lambda rows: honest(rows)[:-1])
    with pytest.raises(InternalInconsistencyError):
        kernel_basis(m)


def test_kernel_basis_rejects_a_compression_that_adds_rank(monkeypatch):
    m = IntMatrix.from_rows([[1, 1, 0], [2, 2, 0], [3, 3, 0]])
    honest = exactlin.row_hermite
    monkeypatch.setattr(exactlin, "row_hermite", lambda rows: honest(rows) + ((0, 0, 1),))
    with pytest.raises(InternalInconsistencyError):
        kernel_basis(m)


# --- canonical lattices and membership ------------------------------------------


def test_canonical_is_idempotent_and_shares_its_caches():
    lat = Lattice.from_columns(2, [(4, 4), (2, 6), (6, 10)])
    canon = lat.canonical()
    assert canon is not lat
    assert canon.canonical() is canon
    assert lat.canonical().canonical() is lat.canonical()
    assert canon.basis is lat.basis
    assert lat._basis_smith is canon._basis_smith


@settings(max_examples=60, deadline=None)
@given(st.lists(vectors2, min_size=1, max_size=4), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_yes_coordinates_on_redundant_generators_rebuild(gens, mix):
    # a vector known to lie in the lattice, and two redundant generators
    v = tuple(sum(c * g[i] for c, g in zip(mix, gens)) for i in range(2))
    extra = [tuple(a + b for a, b in zip(gens[0], gens[-1])), (0, 0)]
    lat = Lattice.from_columns(2, gens + extra)
    res = lattice_membership(v, lat)
    assert res.member
    assert lat.generators.matvec(res.coordinates) == v
    assert lat.contains(v)


# Certificates the Smith-form decision gave before YES moved to the Hermite
# basis: (ambient rank, generators, vector, kind, functional, prime, power).
NO_CERTIFICATES = [
    (2, [(2, 0), (0, 2)], (1, 0), "modular", (1, 0), 2, 1),
    (2, [(4, 4), (2, 6)], (1, 1), "modular", (1, 0), 2, 1),
    (2, [(1, 1)], (1, 0), "rank", (-1, 1), None, None),
    (3, [(2, 1, 0), (0, 3, 1), (2, 4, 1)], (1, 1, 1), "rank", (1, -2, 6), None, None),
    (3, [(6, 0, 0), (0, 4, 2)], (3, 2, 1), "modular", (0, 0, 1), 2, 1),
    (3, [(6, 0, 0), (0, 4, 2)], (0, 0, 1), "modular", (0, 0, 1), 2, 1),
    (3, [], (0, 5, 0), "rank", (0, 1, 0), None, None),
    (4, [(3, 0, 0, 0), (1, 9, 0, 0), (0, 0, 12, 6), (0, 0, 0, 5)], (1, 1, 6, 1),
     "modular", (-720, 80, 27, -324), 2, 2),
    (4, [(3, 0, 0, 0), (1, 9, 0, 0), (0, 0, 12, 6), (0, 0, 0, 5)], (0, 3, 0, 0),
     "modular", (-720, 80, 27, -324), 3, 3),
]


@pytest.mark.parametrize("rank, gens, v, kind, functional, prime, power", NO_CERTIFICATES)
def test_no_certificates_are_unchanged(rank, gens, v, kind, functional, prime, power):
    lat = Lattice.from_columns(rank, gens)
    res = lattice_membership(v, lat)
    assert not res.member and not lat.contains(v)
    cert = res.certificate
    assert (cert.kind, cert.functional, cert.prime, cert.power) == (kind, functional, prime, power)
    assert res.check(v, lat)


def test_kernel_basis_rejects_a_compression_that_drops_every_row(monkeypatch):
    monkeypatch.setattr(exactlin, "row_hermite", lambda rows: ())
    with pytest.raises(InternalInconsistencyError):
        kernel_basis(IntMatrix.from_rows([[0, 1], [0, 2]]))
    assert kernel_basis(IntMatrix.from_rows([[0, 0], [0, 0]])) == [(1, 0), (0, 1)]
