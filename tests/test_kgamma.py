import io
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdinv import cli, kgamma, roots
from sdinv.exactlin import InputError, Lattice, lattice_index, lattice_membership
from sdinv.kgamma import (
    ParseError,
    RingElement,
    TruncatedPolyRing,
    chern_class,
    chow2_torsion,
    filtration_membership,
    gamma_filtration,
    gamma_op,
    gamma_series,
    get_config,
    graded_torsion,
    parse_element,
    quillen_lattice,
    parse_element as parse,
)


def ring_of(name):
    return get_config(name).ring


def elem(name, expr):
    return parse_element(expr, ring_of(name))


def from_x(ring, coeffs):
    """The element with the given x-monomial coefficients: a sum of
    x-monomials."""
    out = ring.zero()
    for e, c in zip(ring.exponents(), coeffs):
        if c:
            out = out + ring.monomial(e, "x", c)
    return out


def pretty(el, basis="y"):
    """``el`` spelled in the parser's grammar on the x or the y basis."""
    coeffs = el.x_coefficients() if basis == "x" else el.coefficients
    names = []
    for e, c in zip(el.ring.exponents(), coeffs):
        if not c:
            continue
        mono = "*".join(
            f"{basis}{j + 1}" + (f"^{k}" if k > 1 else "")
            for j, k in enumerate(e)
            if k
        )
        if not mono:
            names.append(str(c))
        elif c == 1:
            names.append(mono)
        elif c == -1:
            names.append(f"-{mono}")
        else:
            names.append(f"{c}*{mono}")
    return " + ".join(names).replace("+ -", "- ") if names else "0"


# --- ring arithmetic ------------------------------------------------------------


def test_basis_roundtrip_involutive():
    ring = TruncatedPolyRing((2, 2, 2))
    e = parse("2*x1*x2 - 3*x3", ring)
    assert from_x(ring, e.x_coefficients()).y_vector() == e.y_vector()
    assert from_x(ring, e.x_coefficients()).x_coefficients() == e.x_coefficients()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=8, max_size=8))
def test_basis_roundtrip_random(coeffs):
    ring = TruncatedPolyRing((2, 2, 2))
    e = RingElement(ring, tuple(coeffs))
    assert from_x(ring, e.x_coefficients()).y_vector() == tuple(coeffs)
    f = from_x(ring, coeffs)
    assert f.x_coefficients() == tuple(coeffs)


def test_truncation_kills_high_powers():
    ring = TruncatedPolyRing((2, 2))
    assert parse("y1^2", ring).is_zero()
    y1x = parse("x1", ring) - ring.one()
    assert (y1x * y1x).is_zero()


def test_rank_homomorphism():
    ring = TruncatedPolyRing((2, 2))
    assert parse("x1*x2", ring).rank_value() == 1
    assert parse("3*x1 - 1", ring).rank_value() == 2
    assert parse("y1*y2", ring).rank_value() == 0


# --- the index-additive product against the exponent-tuple product ---------------


PRODUCT_RINGS = [(2, 3, 5), (6, 6), (4, 4), (2, 2, 2, 2, 2), (7,)]


def tuple_product(a, b):
    """Reference product: add exponent tuples, drop what truncates, look the
    sum up by its tuple."""
    ring = a.ring
    exps = ring.exponents()
    out = [0] * ring.rank
    for i, ca in enumerate(a.y_vector()):
        if not ca:
            continue
        for j, cb in enumerate(b.y_vector()):
            if not cb:
                continue
            ne = tuple(p + q for p, q in zip(exps[i], exps[j]))
            if all(p < d for p, d in zip(ne, ring.factor_degrees)):
                out[ring.index_of(ne)] += ca * cb
    return tuple(out)


def sparse_elements(ring):
    return st.dictionaries(
        st.integers(0, ring.rank - 1), st.integers(-60, 60), max_size=8
    ).map(lambda terms: RingElement(ring, tuple(terms.get(i, 0) for i in range(ring.rank))))


@pytest.mark.parametrize("degrees", PRODUCT_RINGS, ids=str)
def test_product_of_every_monomial_pair(degrees):
    ring = TruncatedPolyRing(degrees)
    monomials = [ring.monomial(e, "y") for e in ring.exponents()]
    for a in monomials:
        for b in monomials:
            assert (a * b).coefficients == tuple_product(a, b)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_matches_tuple_product(data):
    ring = TruncatedPolyRing(data.draw(st.sampled_from(PRODUCT_RINGS)))
    a = data.draw(sparse_elements(ring))
    b = data.draw(sparse_elements(ring))
    assert (a * b).coefficients == tuple_product(a, b)


# --- parser ----------------------------------------------------------------------


def test_parse_quillen_style_element():
    ring = TruncatedPolyRing((2, 2, 2))
    e = parse("2*(y1*y2*y3 + y1*y2 + y1*y3 + y2*y3)", ring)
    expected = (
        parse("y1*y2*y3", ring).scaled(2)
        + parse("y1*y2", ring).scaled(2)
        + parse("y1*y3", ring).scaled(2)
        + parse("y2*y3", ring).scaled(2)
    )
    assert e.y_vector() == expected.y_vector()


def test_parse_zero_and_power():
    ring = TruncatedPolyRing((2, 2))
    assert parse("0", ring).is_zero()
    assert parse("x1^2", ring).y_vector() == parse("2*y1 + 1", ring).y_vector()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 12))
def test_parsed_power_equals_repeated_multiplication(data, e):
    ring = TruncatedPolyRing(data.draw(st.sampled_from(PRODUCT_RINGS)))
    b = data.draw(sparse_elements(ring))
    expected = ring.one()
    for _ in range(e):
        expected = expected * b
    assert parse(f"({pretty(b)})^{e}", ring).y_vector() == expected.y_vector()


@pytest.mark.parametrize("element", ["y1^1000000000", "x1^1000000000"])
def test_huge_exponent_answers_quickly(element):
    start = time.perf_counter()
    code = cli.run(
        ["gamma", "member", "--preset", "conics4", "--element", element, "--degree", "1"],
        out=io.StringIO(),
    )
    assert code == 0
    assert time.perf_counter() - start < 2.0


def test_parse_mixed_bases_rejected():
    ring = TruncatedPolyRing((2, 2))
    with pytest.raises(ParseError) as e:
        parse("x1 + y2", ring)
    assert e.value.position == 5


def test_parse_error_positions():
    ring = TruncatedPolyRing((2, 2))
    with pytest.raises(ParseError) as e:
        parse("2*y1 + $", ring)
    assert e.value.position == 7
    with pytest.raises(ParseError):
        parse("y9", ring)
    with pytest.raises(ParseError):
        parse("y1 +", ring)


# --- parser robustness: coefficient budget, round trips, arbitrary text ----------


BUDGET = kgamma.MAX_COEFF_BITS


@pytest.mark.parametrize(
    "element, message",
    [
        ("2^100000", f"{BUDGET}-bit budget"),
        ("(2*x1)^30000", f"{BUDGET}-bit budget"),
        ("7" * 5000, f"{BUDGET}-bit budget"),
        ("y1 + 0000" + "9" * 5000, f"{BUDGET}-bit budget"),
        ("x1" + "1" * 5000, f"{BUDGET}-bit budget"),
        (f"{2 ** 4000}*{2 ** 4000}", f"{BUDGET}-bit budget"),
        ("(" * 5000 + "y1" + ")" * 5000, "nests too deeply"),
        ("-" * 5000 + "y1", "nests too deeply"),
    ],
    ids=["power", "power-of-x", "literal", "zero-padded", "index", "product", "parens", "minus"],
)
def test_oversized_element_exits_2(element, message, capsys):
    start = time.perf_counter()
    code = cli.run(
        ["gamma", "member", "--preset", "conics4", f"--element={element}", "--degree", "1"],
        out=io.StringIO(),
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert time.perf_counter() - start < 2.0


def test_budget_edge():
    ring = TruncatedPolyRing((2, 2))
    top = 2**BUDGET - 1
    assert parse(f"{top}*y1", ring).coefficients[ring.index_of((1, 0))] == top
    assert parse(f"000{top}", ring).rank_value() == top
    with pytest.raises(ParseError, match="budget"):
        parse(f"{top + 1}", ring)
    with pytest.raises(ParseError, match="budget") as e:
        parse(f"x2 + (2*x1)^{BUDGET}", ring)
    assert e.value.position == 11


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["x", "y"]))
def test_parse_of_pretty_recovers_the_element(data, basis):
    ring = TruncatedPolyRing(data.draw(st.sampled_from(PRODUCT_RINGS)))
    e = data.draw(sparse_elements(ring))
    assert parse(pretty(e, basis), ring) == e


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), st.text(alphabet="xy0123456789+-*^() ", max_size=40)))
@example("\u00b2")  # a digit to str.isdigit, not to int()
@example("y\u0663")
def test_arbitrary_text_raises_only_input_error(text):
    try:
        parse(text, TruncatedPolyRing((2, 4)))
    except InputError:
        pass


def test_roots_and_kgamma_caches_are_bounded():
    """A ring is a value, so its methods are cached by value; every cache,
    module-level or on a class, has a finite size."""
    caches = []
    for module in (roots, kgamma):
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
            for attr, fn in members:
                if hasattr(fn, "cache_info"):
                    caches.append(attr)
                    assert fn.cache_info().maxsize is not None, attr
    assert len(caches) >= 11, caches


# --- configurations ---------------------------------------------------------------


def test_config_validation_catches_bad_tables():
    from sdinv.kgamma import SeveriBrauerConfig

    with pytest.raises(InputError):
        SeveriBrauerConfig("bad", (2,), (2,), (((0,), 2), ((1,), 2)))


def test_split_index_values():
    assert get_config("conics3").split_index() == 2 ** 10
    assert get_config("conics4").split_index() == 2 ** 25
    assert get_config("deg4pair").split_index() == 2 ** 34
    assert get_config("split:2,2").split_index() == 1


def test_unknown_config():
    with pytest.raises(InputError, match="conics3"):
        get_config("conics99")


# --- quillen lattice ---------------------------------------------------------------


def test_quillen_conics3_basis_and_index():
    lat = quillen_lattice(get_config("conics3"))
    ring = ring_of("conics3")
    gens = [
        "1",
        "2*x1", "2*x2", "2*x3",
        "4*x1*x2", "4*x1*x3", "4*x2*x3",
        "2*x1*x2*x3",
    ]
    expected = Lattice.from_columns(
        ring.rank, [parse(g, ring).y_vector() for g in gens]
    )
    assert lat.same_lattice(expected)
    assert lattice_index(lat, Lattice.standard(ring.rank)) == 2 ** 10


def test_quillen_split_is_everything():
    lat = quillen_lattice(get_config("split:2,2"))
    assert lat.same_lattice(Lattice.standard(4))


def test_quillen_conics4_index():
    lat = quillen_lattice(get_config("conics4"))
    assert lattice_index(lat, Lattice.standard(16)) == 2 ** 25


# --- gamma operations ---------------------------------------------------------------


def test_gamma_one_is_identity():
    ring = ring_of("conics3")
    a = parse("2*x1*x2*x3 - 2", ring)
    assert gamma_op(a, 1).y_vector() == a.y_vector()


def test_gamma_golden_triple_product():
    ring = ring_of("conics3")
    c2 = chern_class(parse("2*x1*x2*x3", ring), 2)
    expected = parse("6*y1*y2*y3 + 2*(y1*y2 + y1*y3 + y2*y3)", ring)
    assert c2.y_vector() == expected.y_vector()


def test_gamma_golden_quadruple_product():
    ring = ring_of("conics4")
    c2 = chern_class(parse("2*x1*x2*x3*x4", ring), 2)
    expected = parse(
        "14*y1*y2*y3*y4"
        " + 6*(y1*y2*y3 + y1*y2*y4 + y1*y3*y4 + y2*y3*y4)"
        " + 2*(y1*y2 + y1*y3 + y1*y4 + y2*y3 + y2*y4 + y3*y4)",
        ring,
    )
    assert c2.y_vector() == expected.y_vector()


def test_gamma_golden_pairs_triples():
    ring = ring_of("conics4")
    assert chern_class(parse("4*x1*x2", ring), 2).y_vector() == parse("12*y1*y2", ring).y_vector()
    c2 = chern_class(parse("4*x1*x2*x3", ring), 2)
    expected = parse("36*y1*y2*y3 + 12*(y1*y2 + y1*y3 + y2*y3)", ring)
    assert c2.y_vector() == expected.y_vector()


def test_gamma_golden_degree4_line_powers():
    ring = ring_of("deg4pair")
    assert chern_class(parse("4*x1", ring), 2).y_vector() == parse("6*y1^2", ring).y_vector()
    assert chern_class(parse("4*x1", ring), 3).y_vector() == parse("4*y1^3", ring).y_vector()


@pytest.mark.parametrize("m", range(0, 7))
def test_gamma_binomial_law(m):
    """Oracle: c_d(m * L) = C(m, d) * (L - 1)^d for a line class."""
    import math

    ring = ring_of("deg4pair")
    x = parse(f"{m}*x1", ring) if m else ring.zero()
    y1 = parse("y1", ring)
    for d in range(0, min(m, 3) + 1):
        lhs = chern_class(x, d)
        rhs = ring.one()
        for _ in range(d):
            rhs = rhs * y1
        rhs = rhs.scaled(math.comb(m, d))
        assert lhs.y_vector() == rhs.y_vector()


def test_gamma_negative_multiplicity():
    ring = ring_of("conics3")
    a = parse("2*x1 - 2", ring)
    series = gamma_series(-a, 3)
    # gamma_t(-a) is the truncated inverse of gamma_t(a)
    fwd = gamma_series(a, 3)
    conv = [ring.zero() for _ in range(4)]
    for i in range(4):
        for j in range(4 - i):
            conv[i + j] = conv[i + j] + fwd[i] * series[j]
    assert conv[0].y_vector() == ring.one().y_vector()
    for k in range(1, 4):
        assert conv[k].is_zero()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=7, max_size=7),
    st.lists(st.integers(-2, 2), min_size=7, max_size=7),
)
def test_gamma_multiplicativity(ca, cb):
    config = get_config("conics3")
    ring = config.ring
    from sdinv.kgamma import _gamma_generators

    gens = _gamma_generators(config)
    a = ring.zero()
    b = ring.zero()
    for c, g in zip(ca, gens):
        a = a + g.scaled(c)
    for c, g in zip(cb, gens):
        b = b + g.scaled(c)
    sa = gamma_series(a, ring.dim)
    sb = gamma_series(b, ring.dim)
    sab = gamma_series(a + b, ring.dim)
    for k in range(ring.dim + 1):
        conv = ring.zero()
        for i in range(k + 1):
            conv = conv + sa[i] * sb[k - i]
        assert conv.y_vector() == sab[k].y_vector()


def test_gamma_rejects_nonzero_rank():
    ring = ring_of("conics3")
    with pytest.raises(InputError, match="rank-zero"):
        gamma_op(parse("x1", ring), 2)
    with pytest.raises(InputError, match="nonnegative"):
        gamma_op(parse("2*y1", ring), -1)


# --- filtration ---------------------------------------------------------------------


def test_split_filtration_is_monomial_degree():
    filt = gamma_filtration("split:2,2,2")
    ring = filt.config.ring
    for d in range(0, 4):
        rows = [i for i, deg in enumerate(ring.degrees()) if deg >= d]
        expected = Lattice.from_columns(
            ring.rank,
            [tuple(int(i == r) for i in range(ring.rank)) for r in rows],
        )
        assert filt.level(d).same_lattice(expected)


def test_filtration_partial_depth():
    partial = gamma_filtration("conics4", 2)
    full = gamma_filtration("conics4")
    assert partial.depth == 3
    assert partial.level(2).same_lattice(full.level(2))
    with pytest.raises(InputError):
        partial.level(4)
    assert full.level(99).rank == 0


def test_filtration_nesting_and_vanishing():
    for name in ["conics3", "conics4", "conic1"]:
        filt = gamma_filtration(name)
        for d in range(1, filt.dim + 2):
            for col in filt.level(d).basis.columns():
                assert filt.level(d - 1).contains(col)
        assert filt.level(filt.dim + 1).rank == 0


def test_conics4_membership_verdicts():
    _, res = filtration_membership("conics4", "4*y1*y2*y3*y4", 3)
    assert not res.member
    assert res.certificate.prime == 2

    _, res = filtration_membership("conics4", "4*y1*y2*y3", 2)
    assert res.member

    _, res = filtration_membership("conics4", "8*y1*y2*y3", 3)
    assert res.member

    _, res = filtration_membership("conics4", "8*y1*y2*y3*y4", 4)
    assert res.member

    # z_l for l = 4 (triple 123)
    z = (
        "4*(y1*y2*y3*y4 + y1*y2*y3 + y1*y2*y4 + y1*y3*y4 + y2*y3*y4)"
        " - 4*y1*y2*y3"
    )
    _, res = filtration_membership("conics4", z, 3)
    assert res.member

    _, res = filtration_membership("conics4", "0", 3)
    assert res.member


def test_membership_certificates_check_out():
    filt = gamma_filtration("conics4")
    el, res = filtration_membership("conics4", "4*y1*y2*y3*y4", 3)
    assert res.check(el.y_vector(), filt.level(3))
    el, res = filtration_membership("conics4", "4*y1*y2*y3", 2)
    assert res.check(el.y_vector(), filt.level(2))


def test_filtration_parse_errors_surface():
    with pytest.raises(ParseError):
        filtration_membership("conics3", "2*(y1", 1)


# --- graded reports -----------------------------------------------------------------


def test_conics3_graded_report():
    rep = graded_torsion("conics3")
    assert rep.total_torsion_order == 1
    assert rep.split_index == 2 ** 10
    assert rep.counting_identity_holds
    assert rep.epsilon == (8, 32, 4)


def test_conics4_graded_report():
    rep = graded_torsion("conics4")
    assert rep.total_torsion_order == 2
    assert rep.split_index == 2 ** 25
    assert rep.counting_identity_holds
    piece = next(p for p in rep.pieces if p.degree == 2)
    assert piece.torsion.label() == "Z/2"
    assert len(piece.witnesses) == 1


def test_conics4_torsion_witness_is_triple_class():
    filt = gamma_filtration("conics4")
    rep = graded_torsion("conics4")
    piece = next(p for p in rep.pieces if p.degree == 2)
    w = piece.witnesses[0]
    ring = filt.config.ring
    triples = ["y1*y2*y3", "y1*y2*y4", "y1*y3*y4", "y2*y3*y4"]
    hits = 0
    for t in triples:
        target = parse(f"4*{t}", ring).y_vector()
        diff = tuple(a - b for a, b in zip(w.vector, target))
        if filt.level(3).contains(diff):
            hits += 1
    assert hits >= 1


def test_deg4pair_graded_report():
    rep = graded_torsion("deg4pair")
    assert rep.total_torsion_order == 1
    assert rep.split_index == 2 ** 34
    assert rep.counting_identity_holds
    # the monomial filtration refines the same total index
    prod = 1
    for h in rep.eta:
        prod *= h
    assert prod == rep.split_index
    # delta is a reporting ratio; its product collapses to the torsion order
    dprod = Fraction(1)
    for x in rep.delta:
        dprod *= x
    assert dprod == rep.total_torsion_order


def test_split_graded_everything_free():
    rep = graded_torsion("split:2,2")
    assert rep.total_torsion_order == 1
    assert all(p.torsion.is_trivial for p in rep.pieces)
    assert all(e == 1 for e in rep.epsilon)
    # each graded quotient is free of rank the number of degree-d monomials
    ring = rep.config.ring
    for p in rep.pieces:
        monomials = sum(1 for deg in ring.degrees() if deg == p.degree)
        assert p.structure.free_rank == monomials
        assert not p.structure.invariant_factors


@pytest.mark.parametrize(
    "name",
    ["split:2,2", "split:2,3", "split:3,4", "split:2,2,2", "split:2,2,3", "split:5,5",
     "split:2,2,2,2"],
)
def test_split_known_answers(name):
    rep = graded_torsion(name)
    assert rep.split_index == 1
    assert all(p.torsion.is_trivial for p in rep.pieces)
    assert rep.epsilon == (1,) * rep.config.dim
    assert rep.total_torsion_order == 1
    assert rep.counting_identity_holds


# --- chow2 ---------------------------------------------------------------------------


def test_chow2_verdicts():
    assert chow2_torsion("conics3").torsion.is_trivial
    assert chow2_torsion("conics4").torsion.label() == "Z/2"
    assert chow2_torsion("deg4pair").torsion.is_trivial
    assert chow2_torsion("conic1").torsion.is_trivial
    assert len(chow2_torsion("conics4").provenance) == 2
    assert all(chow2_torsion("conics3").provenance)
