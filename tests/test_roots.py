import itertools
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdinv import exactlin
from sdinv.errors import InternalInconsistencyError
from sdinv.exactlin import InputError, IntMatrix, Lattice, det, kernel_basis, lattice_index
from sdinv.roots import (
    _type_a,
    action_in_basis,
    ambient_to_basis_quad,
    available_presets,
    character_lattice,
    dec_subgroup,
    get_preset,
    indecomposable_group,
    invariant_quadratic_lattice,
    project_to_semisimple,
    sl4_block_form,
    sym2_action_matrix,
    sym2_index,
    sym2_size,
    sym2_substitute,
)


def basis_to_ambient_quad(L: Lattice, q) -> tuple[int, ...]:
    """Inverse of ``ambient_to_basis_quad``: substitute the basis columns."""
    cols = [tuple(col) for col in L.basis.columns()]
    out = sym2_substitute(list(q), cols, L.rank, L.ambient_rank)
    return tuple(int(x) for x in out)


def semisimple_lattice(data) -> Lattice:
    """A preset's character lattice projected to its semisimple coordinates."""
    return project_to_semisimple(data.reductive_lattice(), data.projection)


def display_lattice(ambient_rank: int, named) -> Lattice:
    """Span of a preset's displayed (label, vector) basis."""
    return Lattice.from_columns(ambient_rank, [v for _, v in named])


def reductive_display(data) -> Lattice:
    return display_lattice(data.datum.ambient_rank, data.display_basis)


def semisimple_display(data) -> Lattice:
    return display_lattice(data.projection.rows, data.semisimple_display)


class WeightMultiset(NamedTuple):
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

    def is_stable_under(self, weyl) -> bool:
        bag = {}
        for v, m in self.weights:
            bag[v] = bag.get(v, 0) + m
        for w in weyl:
            image = {}
            for v, m in bag.items():
                wv = w.matvec(v)
                image[wv] = image.get(wv, 0) + m
            if image != bag:
                return False
        return True


def chern2_of_character(mult: WeightMultiset, L: Lattice) -> tuple[int, ...]:
    """Second elementary symmetric value of the weight multiset, as a
    quadratic expression in the lattice basis.

    Computed by polarization, ``e2 = ((sum w)^2 - sum w^2) / 2``, for a
    character whose first Chern class (the plain weight sum) is zero and
    whose weights lie in the lattice.
    """
    m = L.ambient_rank
    assert not any(mult.first_chern())
    assert all(L.contains(v) for v, _ in mult.weights)
    total = [0] * sym2_size(m)
    for v, mu in mult.weights:
        for k, x in enumerate(sym2_substitute((1,), (v,), 1, m)):
            total[k] -= mu * x
    assert not any(x % 2 for x in total)
    return ambient_to_basis_quad(L, [x // 2 for x in total])


def _unit(n: int, i: int, value: int) -> tuple[int, ...]:
    return tuple(value if t == i else 0 for t in range(n))


def sl2n_characters(n: int) -> list[WeightMultiset]:
    """The characters of ``sl2n:n`` whose c2 its ``dec_forms`` state, in
    order: the n weight pairs +-2e_i, then the tensor product of the n
    standard characters, whose weights are the 2^n sign vectors."""
    pairs = [
        WeightMultiset.of([(_unit(n, i, 2), 1), (_unit(n, i, -2), 1)]) for i in range(n)
    ]
    signs = itertools.product((1, -1), repeat=n)
    return pairs + [WeightMultiset.of([(s, 1) for s in signs])]


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
    cols = [ambient_to_basis_quad(L, v) for v in vectors]
    return Lattice.from_columns(sym2_size(L.rank), cols)


# --- character lattices -------------------------------------------------------


def test_gl2n_2_matches_display_basis():
    data = get_preset("gl2n:2")
    computed = data.reductive_lattice()
    # span of {x1-y1, x2-y2, 2x1, x1+x2}
    expected = Lattice.from_columns(
        4, [(1, 0, -1, 0), (0, 1, 0, -1), (2, 0, 0, 0), (1, 1, 0, 0)]
    )
    assert computed == expected
    assert computed == reductive_display(data)


@pytest.mark.parametrize("n", range(2, 9))
def test_gl2n_display_basis_all_n(n):
    data = get_preset(f"gl2n:{n}")
    assert data.reductive_lattice() == reductive_display(data)


def test_non_surjective_residue_map_is_refused():
    """x -> 2x mod 2 misses the nonzero character, so the kernel has index 1, not 2."""
    from sdinv.roots import CentralQuotientDatum

    datum = CentralQuotientDatum(1, (2,), IntMatrix.from_rows([(2,)]))
    with pytest.raises(InternalInconsistencyError, match="index does not match"):
        character_lattice(datum)


@pytest.mark.parametrize(
    "ambient, moduli, rows, message",
    [
        (2, (2, 2), [(1, 1)], "one residue row per cyclic factor is required"),
        (2, (), [(1, 1)], "one residue row per cyclic factor is required"),
        (3, (2,), [(1, 1)], "residue rows must have ambient length"),
    ],
    ids=["too-few-rows", "row-without-factor", "short-row"],
)
def test_central_quotient_datum_checks(ambient, moduli, rows, message):
    from sdinv.roots import CentralQuotientDatum

    with pytest.raises(InputError) as exc:
        CentralQuotientDatum(ambient, moduli, IntMatrix.from_rows(rows))
    assert str(exc.value) == message


def test_trivial_center_gives_full_ambient():
    from sdinv.roots import CentralQuotientDatum

    datum = CentralQuotientDatum(3, (), IntMatrix(()))
    lat = character_lattice(datum)
    assert lat == Lattice.standard(3)


def test_gl4x4_display_basis():
    data = get_preset("gl4x4")
    assert data.reductive_lattice() == reductive_display(data)
    assert lattice_index(data.reductive_lattice()) == 8


# --- projections ---------------------------------------------------------------


def test_sl2n_3_projection():
    data = get_preset("sl2n:3")
    th = semisimple_lattice(data)
    expected = Lattice.from_columns(3, [(2, 0, 0), (0, 2, 0), (1, 1, 1)])
    assert th == expected
    assert th == semisimple_display(data)


@pytest.mark.parametrize("n", range(2, 9))
def test_sl2n_index_is_two_power(n):
    # determinant oracle: the semisimple lattice has index 2^(n-1) in Z^n
    data = get_preset(f"sl2n:{n}")
    th = semisimple_lattice(data)
    assert lattice_index(th) == 2 ** (n - 1)
    assert abs(det(th.basis)) == 2 ** (n - 1)


def test_sl4x4_projection_display():
    data = get_preset("sl4x4")
    th = semisimple_lattice(data)
    assert th == semisimple_display(data)


# --- weyl actions ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["sl2n:2", "sl2n:4", "sl4x4"])
def test_weyl_preserves_lattice(name):
    data = get_preset(name)
    lat = semisimple_lattice(data)
    for idx, w in enumerate(data.weyl):
        m = action_in_basis(lat, w, generator_index=idx)
        assert abs(det(m)) == 1


@pytest.mark.parametrize("name", [f"sl2n:{n}" for n in range(2, 9)] + ["sl4x4"])
def test_weyl_generators_are_reflections(name):
    """w w = 1 and w - 1 has rank 1 for every Weyl generator."""
    for w in get_preset(name).weyl:
        r = w.rows
        assert w.mul(w) == IntMatrix.identity(r)
        cols = [tuple(w.entries[i][j] - (i == j) for i in range(r)) for j in range(r)]
        assert Lattice.from_columns(r, cols).rank == 1  # the columns of w - 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_type_a_weyl_generators_are_the_block_transpositions(data):
    """For 1-3 blocks of sizes 2-5 on shuffled ambient coordinates, the k-th
    generator of block b is a reflection, is the transposition of weights
    b[k] and b[k + 1] seen through the projection, and fixes every block
    form."""
    sizes = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    coords = iter(data.draw(st.permutations(range(sum(sizes)))))
    blocks = [tuple(itertools.islice(coords, m)) for m in sizes]
    one_per_block = [_unit(len(blocks), b, 1) for b in range(len(blocks))]
    group = _type_a("blocks", blocks, (), (), (), one_per_block)
    proj, amb, r = group.projection, sum(sizes), sum(sizes) - len(sizes)
    swaps = [(b[k], b[k + 1]) for b in blocks for k in range(len(b) - 1)]
    assert len(group.weyl) == len(swaps)
    assert [sum(q) for q in group.dec_forms] == [m * (m - 1) // 2 for m in sizes]
    for w, (s, t) in zip(group.weyl, swaps):
        assert w.mul(w) == IntMatrix.identity(r)
        cols = [tuple(w.entries[i][j] - (i == j) for i in range(r)) for j in range(r)]
        assert Lattice.from_columns(r, cols).rank == 1  # the columns of w - 1
        perm = {s: t, t: s}
        swap = IntMatrix.from_columns([_unit(amb, perm.get(i, i), 1) for i in range(amb)])
        assert proj.mul(swap) == w.mul(proj)
        for q in group.dec_forms:
            assert tuple(sym2_substitute(q, w.columns(), r, r)) == q


def test_weyl_violation_reports_generator():
    lat = Lattice.from_columns(2, [(2, 0), (0, 2)])
    bad = (IntMatrix.from_rows([[0, 1], [1, 1]]),)
    # maps (2,0) to (0,2)+... -> (0, 2)? actually (2,0) -> (0,2) ok, (0,2) -> (2,2): in lattice
    # use a genuinely breaking matrix
    bad = (IntMatrix.from_rows([[1, 0], [1, 1]]),)
    # (2,0) -> (2,2) in lattice; (0,2) -> (0,2); unimodular and preserving, so fine.
    good, _ = invariant_quadratic_lattice(lat, bad)
    assert good.rank >= 1
    really_bad = (IntMatrix.from_rows([[2, 0], [0, 1]]),)
    with pytest.raises(Exception, match="generator 0"):
        invariant_quadratic_lattice(lat, really_bad)


# --- invariant quadratic forms ---------------------------------------------------


@pytest.mark.parametrize("name", ["sl2n:5", "sl4x4"])
def test_kernels_and_character_lattices_run_no_smith_form(name, monkeypatch):
    def no_smith(m):
        raise AssertionError("smith_normal_form ran")

    monkeypatch.setattr(exactlin, "smith_normal_form", no_smith)
    data = get_preset(name)
    assert character_lattice(data.datum) == reductive_display(data)
    inv, _ = invariant_quadratic_lattice(semisimple_lattice(data), data.weyl)
    assert inv.rank >= 1
    ker = Lattice.from_columns(3, kernel_basis(IntMatrix.from_rows([[2, 4, 6]])))
    assert ker == Lattice.from_columns(3, [(-2, 1, 0), (-3, 0, 1)])


def test_action_outside_the_lattice_builds_no_smith_form(monkeypatch):
    """A shear that moves a basis vector out is refused by back-substitution:
    no NO certificate is built only to be thrown away."""
    calls = []
    original = exactlin.smith_normal_form

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(exactlin, "smith_normal_form", counting)
    lat = Lattice.from_columns(2, [(2, 0), (0, 1)])
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])  # (0, 1) -> (1, 1), outside
    with pytest.raises(exactlin.ContainmentError, match="weyl generator 3 moves basis vector 1 outside"):
        action_in_basis(lat, shear, generator_index=3)
    assert calls == []


def test_invariant_forms_rank1_trivial_weyl():
    lat = Lattice.standard(1)
    assert invariant_quadratic_lattice(lat, ()) == (Lattice.standard(1), ())


def test_invariant_forms_sl2n2_congruence():
    data = get_preset("sl2n:2")
    lat = semisimple_lattice(data)
    inv, _ = invariant_quadratic_lattice(lat, data.weyl)
    # expected: diagonal forms d1 x1^2 + d2 x2^2 with d1 + d2 = 0 mod 4
    amb = [basis_to_ambient_quad(lat, c) for c in inv.basis.columns()]
    # all invariant forms are supported on the two square monomials
    for v in amb:
        assert v[sym2_index(0, 1, 2)] == 0
    pairs = [(v[sym2_index(0, 0, 2)], v[sym2_index(1, 1, 2)]) for v in amb]
    mat = IntMatrix.from_columns(pairs)
    assert abs(det(mat)) == 4
    for d1, d2 in pairs:
        assert (d1 + d2) % 4 == 0


@pytest.mark.parametrize("n", [3, 5])
def test_invariant_forms_sl2n_expected_span(n):
    data = get_preset(f"sl2n:{n}")
    lat = semisimple_lattice(data)
    inv, _ = invariant_quadratic_lattice(lat, data.weyl)
    vectors = []
    for k in range(n - 1):
        v = [0] * sym2_size(n)
        v[sym2_index(k, k, n)] = 4
        vectors.append(tuple(v))
    v = [0] * sym2_size(n)
    for i in range(n):
        v[sym2_index(i, i, n)] = 2
    vectors.append(tuple(v))
    assert inv == quad_lattice_from_ambient(lat, vectors)


def test_invariant_forms_fixed_pointwise():
    data = get_preset("sl2n:4")
    lat = semisimple_lattice(data)
    inv, actions = invariant_quadratic_lattice(lat, data.weyl)
    assert actions == tuple(
        sym2_action_matrix(action_in_basis(lat, w, idx)) for idx, w in enumerate(data.weyl)
    )
    for s2 in actions:
        for col in inv.basis.columns():
            assert s2.matvec(col) == col


def test_sl4x4_invariant_lattice_is_expected_span():
    data = get_preset("sl4x4")
    lat = semisimple_lattice(data)
    inv, _ = invariant_quadratic_lattice(lat, data.weyl)
    q1 = sl4_block_form(0)
    q2 = sl4_block_form(1)
    v1 = tuple(4 * a + 4 * b for a, b in zip(q1, q2))
    v2 = tuple(2 * a + 6 * b for a, b in zip(q1, q2))
    assert inv == quad_lattice_from_ambient(lat, [v1, v2])
    # integrality of the generator class on the lattice basis
    ambient_to_basis_quad(lat, v2)


# --- chern classes ----------------------------------------------------------------


def test_chern2_single_pair():
    data = get_preset("sl2n:3")
    lat = semisimple_lattice(data)
    ws = WeightMultiset.of([((2, 0, 0), 1), ((-2, 0, 0), 1)])
    q = chern2_of_character(ws, lat)
    amb = basis_to_ambient_quad(lat, q)
    expected = [0] * sym2_size(3)
    expected[sym2_index(0, 0, 3)] = -4
    assert amb == tuple(expected)


def test_chern2_sign_vectors_closed_form():
    n = 3
    data = get_preset(f"sl2n:{n}")
    lat = semisimple_lattice(data)
    ws = sl2n_characters(n)[-1]
    q = chern2_of_character(ws, lat)
    amb = basis_to_ambient_quad(lat, q)
    expected = [0] * sym2_size(n)
    for i in range(n):
        expected[sym2_index(i, i, n)] = -(2 ** (n - 1))
    assert amb == tuple(expected)


def test_chern2_against_pairwise_oracle():
    ws = WeightMultiset.of([((2, 0), 1), ((-2, 0), 1), ((0, 2), 2), ((0, -2), 2)])
    data = get_preset("sl2n:2")
    lat = semisimple_lattice(data)
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
    lat = semisimple_lattice(data)
    q = chern2_of_character(ws, lat)
    assert basis_to_ambient_quad(lat, q) == chern2_pairwise_oracle(ws, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_sl2n_dec_forms_are_c2_of_their_characters(n):
    """Each closed-form class is c2 of its character, sign included, and each
    character has c1 = 0 and is stable under the Weyl generators."""
    data = get_preset(f"sl2n:{n}")
    lat = semisimple_lattice(data)
    characters = sl2n_characters(n)
    assert len(data.dec_forms) == len(characters)
    for form, ws in zip(data.dec_forms, characters):
        assert not any(ws.first_chern())
        assert ws.is_stable_under(data.weyl)
        assert form == basis_to_ambient_quad(lat, chern2_of_character(ws, lat))


@pytest.mark.parametrize("form", [(4,), (4, 0, 0, 0, 0)], ids=["short", "long"])
def test_ambient_form_of_wrong_length_is_refused(form):
    lat = semisimple_lattice(get_preset("sl2n:2"))
    with pytest.raises(InputError, match="has 3 coefficients, not"):
        ambient_to_basis_quad(lat, form)


# --- dec subgroup and the indecomposable quotient ---------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dec_subgroup_expected_span(n):
    data = get_preset(f"sl2n:{n}")
    lat = semisimple_lattice(data)
    dec = dec_subgroup(lat, data.dec_forms)
    oracle = [chern2_of_character(ws, lat) for ws in sl2n_characters(n)]
    assert dec == Lattice.from_columns(sym2_size(n), oracle)


def test_dec_subgroup_empty_is_zero():
    data = get_preset("sl2n:2")
    dec = dec_subgroup(semisimple_lattice(data), ())
    assert dec.rank == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_indecomposable_group_sl2n(n):
    res = indecomposable_group(f"sl2n:{n}").presentation
    assert res.group.label() == "Z/2"
    assert len(res.witnesses) == 1
    coords = res.sup._basis_coordinates(res.witnesses[0])
    assert res.smith.class_order(coords) == 2


def test_indecomposable_group_sl4x4():
    res = indecomposable_group("sl4x4")
    assert res.presentation.group.label() == "Z/2"
    q1 = sl4_block_form(0)
    q2 = sl4_block_form(1)
    target = ambient_to_basis_quad(
        res.character_lattice, tuple(2 * a + 6 * b for a, b in zip(q1, q2))
    )
    w = res.presentation.witnesses[0]
    diff = tuple(a - b for a, b in zip(w, target))
    assert res.presentation.sub.contains(diff)


def test_indecomposable_group_requires_semisimple_preset():
    with pytest.raises(InputError, match="semisimple"):
        indecomposable_group("gl2n:3")


def test_unknown_preset_lists_names():
    with pytest.raises(InputError, match="sl4x4"):
        get_preset("nonsense")
    assert "sl2n:2" in available_presets()


# --- small helpers -----------------------------------------------------------------


def test_outer_square():
    """The square of a vector is the square of one variable pushed through it."""
    assert sym2_substitute((1,), ((1, 2),), 1, 2) == [1, 4, 4]
