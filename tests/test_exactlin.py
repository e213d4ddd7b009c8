import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdinv import exactlin, kgamma, roots
from sdinv.certificate import CERT_FORMAT, check_certificate, membership_entry
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


def has_exact_order(vector, d: int, sub: Lattice) -> bool:
    """``d * vector`` lies in ``sub`` and ``(d/p) * vector`` does not, for
    each prime ``p`` dividing ``d``; decided by ``lattice_membership``."""
    if not lattice_membership(tuple(d * x for x in vector), sub).member:
        return False
    primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]
    return not any(lattice_membership(tuple(d // p * x for x in vector), sub).member for p in primes)


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


def int_matrices(max_dim: int, bound: int):
    """Row lists of matrices up to ``max_dim`` square, entries in ``[-bound, bound]``."""
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(min_value=-bound, max_value=bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


matrices = int_matrices(12, 50)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_snf_invariants_random(rows):
    dec = smith_normal_form(IntMatrix.from_rows(rows))
    assert dec.verify()


def determinantal_divisor(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors of ``m``."""
    g = 0
    for rows in itertools.combinations(m.entries, k):
        for cols in itertools.combinations(range(m.cols), k):
            g = math.gcd(g, det(IntMatrix(tuple(tuple(r[j] for j in cols) for r in rows))))
    return g


# unsorted diagonals such as diag(6, 4, 3) need divisibility at the pivot
small_diagonals = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4).map(
    lambda d: [[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)]
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(int_matrices(4, 12), small_diagonals))
def test_snf_diagonal_is_the_quotient_of_determinantal_divisors(rows):
    m = IntMatrix.from_rows(rows)
    dec = smith_normal_form(m)
    assert dec.verify()
    divisors = [1] + [determinantal_divisor(m, k) for k in range(1, min(m.rows, m.cols) + 1)]
    expected = tuple(
        divisors[k] // divisors[k - 1] if divisors[k - 1] else 0 for k in range(1, len(divisors))
    )
    assert dec.diagonal == expected


@pytest.mark.parametrize(
    "source, D",
    [([[2]], [[-2]]), ([[2], [0]], [[-2], [0]])],
    ids=["1x1", "2x1"],
)
def test_verify_refuses_a_negative_diagonal_of_any_length(source, D):
    """``U * source * V == D`` holds, yet -2 is no invariant factor."""
    dec = exactlin.SmithDecomposition(
        U=IntMatrix.identity(len(source)), D=IntMatrix.from_rows(D),
        V=IntMatrix.from_rows([[-1]]), source=IntMatrix.from_rows(source),
    )
    assert dec.U.mul(dec.source).mul(dec.V) == dec.D
    assert not dec.verify()


# --- membership --------------------------------------------------------------


def _evidence_holds(v, lattice, res) -> bool:
    """The checker's verdict, without replay, on the membership entry that a
    certificate writes for ``res``."""
    entry = membership_entry("membership", lattice, v, res)
    return check_certificate({"format": CERT_FORMAT, "entries": [entry]}, replay=False)[0]


def test_membership_zero_vector():
    lat = Lattice.from_columns(2, [(2, 0), (0, 2)])
    res = lattice_membership((0, 0), lat)
    assert res.member and res.coordinates == (0, 0)
    assert _evidence_holds((0, 0), lat, res)


def test_membership_parity_obstruction():
    lat = Lattice.from_columns(2, [(2, 0), (0, 2)])
    res = lattice_membership((1, 0), lat)
    assert not res.member
    cert = res.certificate
    assert cert.kind == "modular" and cert.prime == 2
    assert _evidence_holds((1, 0), lat, res)


def test_membership_solves_linear_system():
    # the canonical basis of (4, 4), (2, 6) is (2, 6), (0, 8); oracle:
    # 2a = 8 and 6a + 8b = 0 has the unique solution (4, -3)
    lat = Lattice.from_columns(2, [(4, 4), (2, 6)])
    assert lat.basis_columns == ((2, 6), (0, 8))
    res = lattice_membership((8, 0), lat)
    assert res.member and res.coordinates == (4, -3)


def test_membership_rank_obstruction():
    lat = Lattice.from_columns(2, [(1, 1)])
    res = lattice_membership((1, 0), lat)
    assert not res.member
    assert res.certificate.kind == "rank"
    assert _evidence_holds((1, 0), lat, res)


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
    assert _evidence_holds(v, lat, res)
    if res.member:
        assert lat.basis.matvec(res.coordinates) == v


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
    # a lattice is a value: equal spans are equal and hash alike
    assert lat == lat2 and hash(lat) == hash(lat2)
    assert lat.basis_columns == row_hermite(lat.basis_columns)


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
    # the canonical basis of the sublattice is (1, 1), (0, 2)
    with pytest.raises(ContainmentError, match="basis vector 0 of the sublattice"):
        subquotient_presentation(sub, sup)


# --- saturation torsion -------------------------------------------------------


def test_saturation_torsion_single_relation():
    sub = Lattice.from_columns(2, [(2, 0)])
    sup = Lattice.standard(2)
    data = subquotient_presentation(sub, sup)
    tors, wits = data.torsion, data.witnesses
    assert tors.label() == "Z/2"
    assert wits == ((1, 0),)
    assert has_exact_order(wits[0], 2, sub)


def test_saturation_torsion_mixed():
    sub = Lattice.from_columns(2, [(2, 0), (0, 1)])
    sup = Lattice.standard(2)
    data = subquotient_presentation(sub, sup)
    tors, wits = data.torsion, data.witnesses
    assert tors.label() == "Z/2"
    assert wits == ((1, 0),)


def test_saturation_witness_orders():
    sub = Lattice.from_columns(3, [(2, 0, 0), (0, 12, 0), (0, 0, 3)])
    sup = Lattice.standard(3)
    data = subquotient_presentation(sub, sup)
    tors, wits = data.torsion, data.witnesses
    assert tors.invariant_factors == (6, 12)
    for w, d in zip(wits, tors.invariant_factors, strict=True):
        assert has_exact_order(w, d, sub)


vectors3 = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


sup_generators = st.lists(vectors3, min_size=1, max_size=3)
combinations = st.lists(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4
)


def _sub_and_sup(sup_gens, combos) -> tuple[Lattice, Lattice]:
    """The span of ``sup_gens`` and the span of the combinations of them."""
    sup = Lattice.from_columns(3, sup_gens)
    sub = Lattice.from_columns(
        3, [tuple(sum(c * g[t] for c, g in zip(combo, sup_gens)) for t in range(3))
            for combo in combos]
    )
    return sub, sup


@settings(max_examples=60, deadline=None)
@given(sup_generators, combinations)
def test_witnesses_equal_columns_of_the_inverse_of_u(sup_gens, combos):
    """Each witness is sup.basis times column i of U^-1, computed here with
    the rational inverse oracle; the package reads it from V instead."""
    data = subquotient_presentation(*_sub_and_sup(sup_gens, combos))
    uinv = rational_inverse(data.smith.U)
    expected = [
        data.sup.basis.matvec([int(row[i]) for row in uinv])
        for i, d in enumerate(data.smith.diagonal)
        if d > 1
    ]
    assert list(data.witnesses) == expected


@settings(max_examples=60, deadline=None)
@given(sup_generators, combinations)
def test_witness_orders_are_read_off_the_smith_rows(sup_gens, combos):
    """``class_order`` of each witness's coordinates is its invariant factor,
    and the membership oracle agrees that the order is exact."""
    sub, sup = _sub_and_sup(sup_gens, combos)
    data = subquotient_presentation(sub, sup)
    factors = data.group.invariant_factors
    for w, d in zip(data.witnesses, factors, strict=True):
        assert data.smith.class_order(sup._basis_coordinates(w)) == d
        assert has_exact_order(w, d, sub)


@settings(max_examples=60, deadline=None)
@given(sup_generators, combinations, st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_class_order_matches_the_least_multiple_in_sub(sup_gens, combos, mix):
    """The order of any class is the least k up to the exponent of the
    torsion with k * v in sub, and infinite when there is none."""
    sub, sup = _sub_and_sup(sup_gens, combos)
    data = subquotient_presentation(sub, sup)
    coords = tuple(mix[: sup.rank])
    v = sup.basis.matvec(coords)
    exponent = max(data.group.invariant_factors, default=1)
    least = next(
        (k for k in range(1, exponent + 1) if lattice_membership(tuple(k * x for x in v), sub).member),
        None,
    )
    assert data.smith.class_order(coords) == least


@pytest.mark.parametrize(
    "presentation",
    [lambda: roots.indecomposable_group("sl2n:8").presentation,
     lambda: kgamma.chow2_torsion("conics4").piece],
    ids=["inv3 sl2n:8", "chow2 conics4"],
)
def test_subquotient_runs_one_smith_form_and_no_membership(presentation, monkeypatch):
    data = presentation()
    calls = []
    for name in ("smith_normal_form", "lattice_membership"):
        original = getattr(exactlin, name)
        monkeypatch.setattr(
            exactlin, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    assert subquotient_presentation(data.sub, data.sup) == data
    assert data.witnesses and calls == ["smith_normal_form"]


# --- index --------------------------------------------------------------------


def test_index_doubled_square():
    assert lattice_index(Lattice.from_columns(2, [(2, 0), (0, 2)])) == 4


def test_index_infinite():
    assert lattice_index(Lattice.from_columns(2, [(2, 0)])) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(vectors2, min_size=2, max_size=4))
def test_index_matches_invariant_factor_product_and_determinants(gens):
    sup = Lattice.standard(2)
    sub = Lattice.from_columns(2, gens)
    idx = lattice_index(sub)
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix(((1, 2), (3,))), "ragged matrix"),
        (lambda: IntMatrix.from_rows([[1], [2, 3], [4]]), "ragged matrix"),
        (lambda: FinAbelianGroup(0, (1,)), "invariant factors must be >= 2"),
        (lambda: FinAbelianGroup(2, (2, 0)), "invariant factors must be >= 2"),
        (lambda: FinAbelianGroup(0, (-4,)), "invariant factors must be >= 2"),
        (lambda: FinAbelianGroup(0, (2, 3)), "invariant factors must form a divisibility chain"),
        (lambda: FinAbelianGroup(1, (2, 4, 6)), "invariant factors must form a divisibility chain"),
    ],
    ids=["ragged", "ragged-rows", "factor-1", "factor-0", "factor-negative", "chain", "chain-third"],
)
def test_construction_checks(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattices_are_equal_exactly_when_rank_and_canonical_basis_agree(data):
    lattices = []
    for _ in range(2):
        r = data.draw(st.integers(1, 2))
        gens = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), max_size=3))
        lattices.append(Lattice.from_columns(r, gens))
    a, b = lattices
    same = a.ambient_rank == b.ambient_rank and a.basis_columns == b.basis_columns
    assert (a == b) is same and (a != b) is not same
    assert not same or hash(a) == hash(b)


def test_lattice_equality_examples():
    assert Lattice.from_columns(2, [(1, 1), (0, 1)]) == Lattice.standard(2)
    assert hash(Lattice.from_columns(2, [(1, 1), (0, 1)])) == hash(Lattice.standard(2))
    # the zero lattice of each ambient rank is its own value
    assert Lattice.from_columns(2, []) != Lattice.from_columns(3, [])
    assert Lattice.standard(1) != (1, ((1,),))


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
    assert Lattice.from_columns(m.cols, ker) == (
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


_honest_hermite = exactlin.row_hermite


def _rows_unchanged(rows):
    return tuple(tuple(r) for r in rows)


def _first_row_doubled(rows):
    out = _honest_hermite(rows)
    return (tuple(2 * x for x in out[0]),) + out[1:]


def _first_left_entry_plus_one(rows):
    out = _honest_hermite(rows)
    return ((out[0][0] + 1,) + out[0][1:],) + out[1:]


@pytest.mark.parametrize(
    "broken",
    [_rows_unchanged, _first_row_doubled, _first_left_entry_plus_one],
    ids=["not-echelon", "not-unimodular", "not-a-combination"],
)
def test_kernel_basis_rejects_a_broken_augmented_hermite_form(monkeypatch, broken):
    m = IntMatrix.from_rows([[1, 1, 0], [2, 2, 0], [3, 3, 0]])
    expected = Lattice.from_columns(3, [(1, -1, 0), (0, 0, 1)])
    assert Lattice.from_columns(3, kernel_basis(m)) == expected
    monkeypatch.setattr(exactlin, "row_hermite", broken)
    with pytest.raises(InternalInconsistencyError):
        kernel_basis(m)


# --- canonical lattices and membership ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(vectors3, min_size=1, max_size=4), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_yes_coordinates_rebuild_from_the_basis(gens, mix):
    v = tuple(sum(c * g[i] for c, g in zip(mix, gens)) for i in range(3))
    lat = Lattice.from_columns(3, gens)
    res = lattice_membership(v, lat)
    assert res.member and len(res.coordinates) == lat.rank
    assert tuple(
        sum(c * col[i] for c, col in zip(res.coordinates, lat.basis_columns)) for i in range(3)
    ) == v
    assert _evidence_holds(v, lat, res)


# Certificates the Smith-form decision gave before YES moved to the Hermite
# basis: (ambient rank, generators, vector, kind, functional, prime, power).
# On the rank-4 lattice a first elimination without divisibility at the pivot
# breaks the chain d_i | d_{i+1}; since the pivot enforces it, the Smith rows
# differ there and the functional moved from (-720, 80, 27, -324).
NO_CERTIFICATES = [
    (2, [(2, 0), (0, 2)], (1, 0), "modular", (1, 0), 2, 1),
    (2, [(4, 4), (2, 6)], (1, 1), "modular", (1, 0), 2, 1),
    (2, [(1, 1)], (1, 0), "rank", (-1, 1), None, None),
    (3, [(2, 1, 0), (0, 3, 1), (2, 4, 1)], (1, 1, 1), "rank", (1, -2, 6), None, None),
    (3, [(6, 0, 0), (0, 4, 2)], (3, 2, 1), "modular", (0, 0, 1), 2, 1),
    (3, [(6, 0, 0), (0, 4, 2)], (0, 0, 1), "modular", (0, 0, 1), 2, 1),
    (3, [], (0, 5, 0), "rank", (0, 1, 0), None, None),
    (4, [(3, 0, 0, 0), (1, 9, 0, 0), (0, 0, 12, 6), (0, 0, 0, 5)], (1, 1, 6, 1),
     "modular", (-180, 20, 27, -324), 2, 2),
    (4, [(3, 0, 0, 0), (1, 9, 0, 0), (0, 0, 12, 6), (0, 0, 0, 5)], (0, 3, 0, 0),
     "modular", (-180, 20, 27, -324), 3, 3),
    (3, [], (0, 0, 3), "rank", (0, 0, 1), None, None),
]


@pytest.mark.parametrize("rank, gens, v, kind, functional, prime, power", NO_CERTIFICATES)
def test_no_certificates_are_unchanged(rank, gens, v, kind, functional, prime, power):
    lat = Lattice.from_columns(rank, gens)
    res = lattice_membership(v, lat)
    assert not res.member and not lat.contains(v)
    cert = res.certificate
    assert (cert.kind, cert.functional, cert.prime, cert.power) == (kind, functional, prime, power)
    assert _evidence_holds(v, lat, res)


def test_kernel_basis_rejects_a_compression_that_drops_every_row(monkeypatch):
    zero = IntMatrix.from_rows([[0, 0], [0, 0]])
    assert kernel_basis(zero) == [(1, 0), (0, 1)]
    monkeypatch.setattr(exactlin, "row_hermite", lambda rows: ())
    for m in (IntMatrix.from_rows([[0, 1], [0, 2]]), zero):
        with pytest.raises(InternalInconsistencyError):
            kernel_basis(m)


# --- products and determinants against textbook oracles ---------------------------


def product_oracle(a: IntMatrix, b: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The textbook triple sum ``(a b)[i][j] = sum_t a[i][t] b[t][j]``."""
    return tuple(
        tuple(sum(a.entries[i][t] * b.entries[t][j] for t in range(a.cols)) for j in range(b.cols))
        for i in range(a.rows)
    )


def determinant_oracle(m: IntMatrix) -> int:
    """Determinant by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in m.entries]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert out.denominator == 1
    return int(out)


# mostly zeros, as the Smith transforms and gamma relation matrices are
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 7])


def _shaped(rows, cols, entries):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _square(n, entries):
    return _shaped(n, n, entries)


def _signed_permutation(n):
    return st.tuples(st.permutations(range(n)), st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)).map(
        lambda ps: [[ps[1][i] * int(j == ps[0][i]) for j in range(n)] for i in range(n)]
    )


def _triangular(n):
    """Upper or lower triangular, diagonal included."""
    def build(parts):
        rows, upper = parts
        return [[x if i == j or (j > i) == upper else 0 for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return st.tuples(_square(n, small), st.booleans()).map(build)


def _singular(n):
    """Row ``i`` replaced by a multiple of row ``j``, or by zeros when ``i == j``."""
    def build(parts):
        rows, i, j, f = parts
        rows[i] = [f * x for x in rows[j]] if i != j else [0] * n
        return rows
    return st.tuples(_square(n, small), st.integers(0, n - 1), st.integers(0, n - 1), small).map(build)


def _equal_leading_minors(n):
    """``L * U`` with ``L`` sparse unit lower triangular and ``U`` upper
    triangular with diagonal ``(c, 1, 1, ...)``, ``|c| >= 2``: every leading
    minor is ``c``, so elimination meets the same non-unit pivot twice in a
    row and skips the rows that are already zero in its column."""
    def build(parts):
        lower, upper, c = parts
        low = [[1 if i == j else (x if j < i else 0) for j, x in enumerate(row)] for i, row in enumerate(lower)]
        up = [[(c if i == 0 else 1) if i == j else (x if j > i else 0) for j, x in enumerate(row)]
              for i, row in enumerate(upper)]
        return _product(low, up)
    return st.tuples(_square(n, sparse_entries), _square(n, small), st.sampled_from([2, -2, 3, 6, -5])).map(build)


square_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.one_of(
        _square(n, small), _square(n, sparse_entries), _signed_permutation(n),
        _triangular(n), _singular(n), _equal_leading_minors(n),
    )
).map(IntMatrix.from_rows)


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_det_matches_the_rational_elimination_oracle(m):
    assert det(m) == determinant_oracle(m)


def test_det_skips_rows_under_a_repeated_non_unit_pivot():
    # the second pivot equals the first (2, then 3) and the last row is
    # already zero below it, so its update x * p // p is left out
    m = IntMatrix.from_rows([[2, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert det(m) == determinant_oracle(m) == 2
    m = IntMatrix.from_rows([[3, 0, 5], [0, 1, 0], [1, 0, 2]])
    assert det(m) == determinant_oracle(m) == 1


product_pairs = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda s: st.tuples(
        st.one_of(_shaped(s[0], s[1], small), _shaped(s[0], s[1], sparse_entries)),
        st.one_of(_shaped(s[1], s[2], small), _shaped(s[1], s[2], sparse_entries)),
    )
)


@settings(max_examples=200, deadline=None)
@given(product_pairs)
def test_mul_matches_the_triple_sum(pair):
    a, b = (IntMatrix.from_rows(x) for x in pair)
    assert a.mul(b).entries == product_oracle(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_signed_permutation(n), _square(n, small))))
def test_mul_by_a_signed_permutation_permutes_rows(pair):
    p, m = (IntMatrix.from_rows(x) for x in pair)
    assert p.mul(m).entries == product_oracle(p, m)
    assert m.mul(p).entries == product_oracle(m, p)


def test_mul_rejects_mismatched_shapes():
    with pytest.raises(InputError):
        IntMatrix.identity(2).mul(IntMatrix.identity(3))
