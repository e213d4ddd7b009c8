import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdinv.exactlin import InputError, IntMatrix, Lattice, det, lattice_index
from sdinv.roots import (
    CharacterLattice,
    WeightMultiset,
    WeylAction,
    action_in_basis,
    QuadSpaceElement,
    ambient_to_basis_quad,
    available_presets,
    character_lattice,
    chern2_of_character,
    dec_subgroup,
    get_preset,
    indecomposable_group,
    invariant_quadratic_lattice,
    outer_square,
    project_to_semisimple,
    sl4_block_form,
    sym2_action_matrix,
    sym2_index,
    sym2_size,
    sym2_substitute,
)


def basis_to_ambient_quad(L: CharacterLattice, q: QuadSpaceElement) -> tuple[int, ...]:
    """Inverse of ``ambient_to_basis_quad``: substitute the basis columns."""
    cols = [tuple(col) for col in L.lattice.basis.columns()]
    out = sym2_substitute(list(q.coefficients), cols, L.rank, L.ambient_rank)
    return tuple(int(x) for x in out)


def chern2_pairwise_oracle(mult: WeightMultiset, rank: int) -> tuple[int, ...]:
    """Literal sum over unordered pairs of weight instances."""
    flat = []
    for v, m in mult.weights:
        flat.extend([v] * m)
    out = [0] * sym2_size(rank)
    for a in range(len(flat)):
        for b in range(a + 1, len(flat)):
            va, vb = flat[a], flat[b]
            for i in range(rank):
                if not va[i]:
                    continue
                for j in range(rank):
                    if not vb[j]:
                        continue
                    out[sym2_index(i, j, rank)] += va[i] * vb[j]
    return tuple(out)


def quad_lattice_from_ambient(L, vectors):
    cols = [ambient_to_basis_quad(L, v).coefficients for v in vectors]
    return Lattice.from_columns(sym2_size(L.rank), cols).canonical()


# --- character lattices -------------------------------------------------------


def test_gl2n_2_matches_display_basis():
    data = get_preset("gl2n:2")
    computed = data.reductive_lattice()
    # span of {x1-y1, x2-y2, 2x1, x1+x2}
    expected = Lattice.from_columns(
        4, [(1, 0, -1, 0), (0, 1, 0, -1), (2, 0, 0, 0), (1, 1, 0, 0)]
    )
    assert computed.lattice.same_lattice(expected)
    assert computed.lattice.same_lattice(data.display_lattice().lattice)


@pytest.mark.parametrize("n", range(2, 9))
def test_gl2n_display_basis_all_n(n):
    data = get_preset(f"gl2n:{n}")
    assert data.reductive_lattice().lattice.same_lattice(data.display_lattice().lattice)


def test_trivial_center_gives_full_ambient():
    from sdinv.roots import CentralQuotientDatum

    datum = CentralQuotientDatum(3, (), IntMatrix(()))
    lat = character_lattice(datum)
    assert lat.lattice.same_lattice(Lattice.standard(3))


def test_gl4x4_display_basis():
    data = get_preset("gl4x4")
    assert data.reductive_lattice().lattice.same_lattice(data.display_lattice().lattice)
    assert lattice_index(data.reductive_lattice().lattice, Lattice.standard(8)) == 8


# --- projections ---------------------------------------------------------------


def test_sl2n_3_projection():
    data = get_preset("sl2n:3")
    th = data.semisimple_lattice()
    expected = Lattice.from_columns(3, [(2, 0, 0), (0, 2, 0), (1, 1, 1)])
    assert th.lattice.same_lattice(expected)
    assert th.lattice.same_lattice(data.semisimple_display_lattice().lattice)


@pytest.mark.parametrize("n", range(2, 9))
def test_sl2n_index_is_two_power(n):
    # determinant oracle: the semisimple lattice has index 2^(n-1) in Z^n
    data = get_preset(f"sl2n:{n}")
    th = data.semisimple_lattice()
    assert lattice_index(th.lattice, Lattice.standard(n)) == 2 ** (n - 1)
    assert abs(det(th.lattice.basis)) == 2 ** (n - 1)


def test_sl4x4_projection_display():
    data = get_preset("sl4x4")
    th = data.semisimple_lattice()
    assert th.lattice.same_lattice(data.semisimple_display_lattice().lattice)


# --- weyl actions ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["sl2n:2", "sl2n:4", "sl4x4"])
def test_weyl_preserves_lattice(name):
    data = get_preset(name)
    lat = data.semisimple_lattice()
    for idx, w in enumerate(data.weyl.generators):
        m = action_in_basis(lat, w, generator_index=idx)
        assert abs(det(m)) == 1


def test_weyl_violation_reports_generator():
    lat = CharacterLattice.from_named(2, [("a", (2, 0)), ("b", (0, 2))])
    bad = WeylAction(generators=(IntMatrix.from_rows([[0, 1], [1, 1]]),))
    # maps (2,0) to (0,2)+... -> (0, 2)? actually (2,0) -> (0,2) ok, (0,2) -> (2,2): in lattice
    # use a genuinely breaking matrix
    bad = WeylAction(generators=(IntMatrix.from_rows([[1, 0], [1, 1]]),))
    # (2,0) -> (2,2) in lattice; (0,2) -> (0,2); unimodular and preserving, so fine.
    good = invariant_quadratic_lattice(lat, bad)
    assert good.rank >= 1
    really_bad = WeylAction(generators=(IntMatrix.from_rows([[2, 0], [0, 1]]),))
    with pytest.raises(Exception, match="generator 0"):
        invariant_quadratic_lattice(lat, really_bad)


# --- invariant quadratic forms ---------------------------------------------------


def test_invariant_forms_rank1_trivial_weyl():
    lat = CharacterLattice.from_named(1, [("e", (1,))])
    inv = invariant_quadratic_lattice(lat, WeylAction(generators=()))
    assert inv.same_lattice(Lattice.standard(1))


def test_invariant_forms_sl2n2_congruence():
    data = get_preset("sl2n:2")
    lat = data.semisimple_lattice()
    inv = invariant_quadratic_lattice(lat, data.weyl)
    # expected: diagonal forms d1 x1^2 + d2 x2^2 with d1 + d2 = 0 mod 4
    amb = [basis_to_ambient_quad(lat, __q(lat, c)) for c in inv.basis.columns()]
    # all invariant forms are supported on the two square monomials
    for v in amb:
        assert v[sym2_index(0, 1, 2)] == 0
    pairs = [(v[sym2_index(0, 0, 2)], v[sym2_index(1, 1, 2)]) for v in amb]
    mat = IntMatrix.from_columns(pairs)
    assert abs(det(mat)) == 4
    for d1, d2 in pairs:
        assert (d1 + d2) % 4 == 0


def __q(lat, coeffs):
    return QuadSpaceElement(lat.rank, tuple(coeffs))


@pytest.mark.parametrize("n", [3, 5])
def test_invariant_forms_sl2n_expected_span(n):
    data = get_preset(f"sl2n:{n}")
    lat = data.semisimple_lattice()
    inv = invariant_quadratic_lattice(lat, data.weyl)
    vectors = []
    for k in range(n - 1):
        v = [0] * sym2_size(n)
        v[sym2_index(k, k, n)] = 4
        vectors.append(tuple(v))
    v = [0] * sym2_size(n)
    for i in range(n):
        v[sym2_index(i, i, n)] = 2
    vectors.append(tuple(v))
    assert inv.same_lattice(quad_lattice_from_ambient(lat, vectors))


def test_invariant_forms_fixed_pointwise():
    data = get_preset("sl2n:4")
    lat = data.semisimple_lattice()
    inv = invariant_quadratic_lattice(lat, data.weyl)
    for w in data.weyl.generators:
        c = action_in_basis(lat, w)
        s2 = sym2_action_matrix(c)
        for col in inv.basis.columns():
            assert s2.matvec(col) == col


def test_sl4x4_invariant_lattice_is_expected_span():
    data = get_preset("sl4x4")
    lat = data.semisimple_lattice()
    inv = invariant_quadratic_lattice(lat, data.weyl)
    q1 = sl4_block_form(0)
    q2 = sl4_block_form(1)
    v1 = tuple(4 * a + 4 * b for a, b in zip(q1, q2))
    v2 = tuple(2 * a + 6 * b for a, b in zip(q1, q2))
    assert inv.same_lattice(quad_lattice_from_ambient(lat, [v1, v2]))
    # integrality of the generator class on the lattice basis
    ambient_to_basis_quad(lat, v2)


# --- chern classes ----------------------------------------------------------------


def test_chern2_single_pair():
    data = get_preset("sl2n:3")
    lat = data.semisimple_lattice()
    ws = WeightMultiset.of([((2, 0, 0), 1), ((-2, 0, 0), 1)])
    q = chern2_of_character(ws, lat)
    amb = basis_to_ambient_quad(lat, q)
    expected = [0] * sym2_size(3)
    expected[sym2_index(0, 0, 3)] = -4
    assert amb == tuple(expected)


def test_chern2_sign_vectors_closed_form():
    n = 3
    data = get_preset(f"sl2n:{n}")
    lat = data.semisimple_lattice()
    ws = data.dec_weights[-1]
    q = chern2_of_character(ws, lat)
    amb = basis_to_ambient_quad(lat, q)
    expected = [0] * sym2_size(n)
    for i in range(n):
        expected[sym2_index(i, i, n)] = -(2 ** (n - 1))
    assert amb == tuple(expected)


def test_chern2_against_pairwise_oracle():
    ws = WeightMultiset.of([((2, 0), 1), ((-2, 0), 1), ((0, 2), 2), ((0, -2), 2)])
    data = get_preset("sl2n:2")
    lat = data.semisimple_lattice()
    q = chern2_of_character(ws, lat)
    amb = basis_to_ambient_quad(lat, q)
    assert amb == chern2_pairwise_oracle(ws, 2)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.integers(1, 2),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_chern2_polarization_matches_pairwise(pairs):
    # symmetrize so the first chern class vanishes
    sym = []
    for v, m in pairs:
        sym.append((tuple(2 * x for x in v), m))
        sym.append((tuple(-2 * x for x in v), m))
    ws = WeightMultiset.of(sym)
    data = get_preset("sl2n:2")
    lat = data.semisimple_lattice()
    q = chern2_of_character(ws, lat)
    assert basis_to_ambient_quad(lat, q) == chern2_pairwise_oracle(ws, 2)


def test_chern2_rejects_nonzero_first_chern():
    data = get_preset("sl2n:2")
    lat = data.semisimple_lattice()
    ws = WeightMultiset.of([((2, 0), 1)])
    with pytest.raises(InputError, match="first Chern"):
        chern2_of_character(ws, lat)


def test_chern2_rejects_weight_outside_lattice():
    data = get_preset("sl2n:2")
    lat = data.semisimple_lattice()
    ws = WeightMultiset.of([((1, 0), 1), ((-1, 0), 1)])
    with pytest.raises(InputError, match="outside"):
        chern2_of_character(ws, lat)


def test_preset_weights_are_stable_with_zero_first_chern():
    for name in [f"sl2n:{n}" for n in range(2, 9)]:
        data = get_preset(name)
        for ws in data.dec_weights:
            assert not any(ws.first_chern())
            assert ws.is_stable_under(data.weyl)


# --- dec subgroup and the indecomposable quotient ---------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dec_subgroup_expected_span(n):
    data = get_preset(f"sl2n:{n}")
    lat = data.semisimple_lattice()
    dec = dec_subgroup(lat, data.weyl, weight_multisets=data.dec_weights)
    vectors = []
    for i in range(n):
        v = [0] * sym2_size(n)
        v[sym2_index(i, i, n)] = 4
        vectors.append(tuple(v))
    v = [0] * sym2_size(n)
    for i in range(n):
        v[sym2_index(i, i, n)] = 2 ** (n - 1)
    vectors.append(tuple(v))
    assert dec.same_lattice(quad_lattice_from_ambient(lat, vectors))


def test_dec_subgroup_empty_is_zero():
    data = get_preset("sl2n:2")
    lat = data.semisimple_lattice()
    dec = dec_subgroup(lat, data.weyl)
    assert dec.rank == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_indecomposable_group_sl2n(n):
    res = indecomposable_group(f"sl2n:{n}")
    assert res.group.label() == "Z/2"
    assert len(res.witnesses) == 1 and res.witnesses[0].order == 2


def test_indecomposable_group_sl4x4():
    res = indecomposable_group("sl4x4")
    assert res.group.label() == "Z/2"
    q1 = sl4_block_form(0)
    q2 = sl4_block_form(1)
    target = ambient_to_basis_quad(
        res.character_lattice, tuple(2 * a + 6 * b for a, b in zip(q1, q2))
    )
    w = res.witnesses[0]
    diff = tuple(a - b for a, b in zip(w.vector, target.coefficients))
    assert res.dec_lattice.contains(diff)


def test_indecomposable_group_requires_semisimple_preset():
    with pytest.raises(InputError, match="semisimple"):
        indecomposable_group("gl2n:3")


def test_unknown_preset_lists_names():
    with pytest.raises(InputError, match="sl4x4"):
        get_preset("nonsense")
    assert "sl2n:2" in available_presets()


# --- small helpers -----------------------------------------------------------------


def test_outer_square():
    assert outer_square((1, 2), 2) == [1, 4, 4]
