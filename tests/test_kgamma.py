import io
import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdinv import cli, kgamma, roots
from sdinv.certificate import CERT_FORMAT, check_certificate, membership_entry
from sdinv.exactlin import (
    InputError,
    IntMatrix,
    Lattice,
    kernel_basis,
    lattice_index,
    lattice_membership,
)
from sdinv.kgamma import (
    MAX_COEFF_BITS,
    ParseError,
    RingElement,
    TruncatedPolyRing,
    _line_gamma,
    _tokenize,
    chow2_torsion,
    filtration_membership,
    gamma_filtration,
    get_config,
    graded_torsion,
    parse_element,
    quillen_lattice,
    parse_element as parse,
)


# --- oracles: dense ring arithmetic, gamma series and the dense parser ----------------
#
# The package evaluates parsed expressions on sparse terms and reads gamma
# values off line classes; these are the dense routines it used before, kept
# as the references the tests compare against.


def zero(ring):
    return RingElement(ring, (0,) * ring.rank)


def add(a, b):
    assert a.ring == b.ring
    return RingElement(a.ring, tuple(map(operator.add, a.coefficients, b.coefficients)))


def rank_value(el):
    """Value of the rank homomorphism (constant y-coefficient)."""
    return el.coefficients[0]


def x_coefficients(el):
    """Coefficients on the x-monomial basis: the x^t coefficient of
    y^s = prod (x_j - 1)^{s_j} is prod (-1)^{s_j - t_j} C(s_j, t_j)."""
    exps = el.ring.exponents()
    terms = [(exps[i], c) for i, c in enumerate(el.coefficients) if c]
    return tuple(
        sum(c * math.prod(math.comb(a, b) * (-1) ** ((a - b) & 1) for a, b in zip(s, t))
            for s, c in terms)
        for t in exps
    )


def gamma_series(a, top):
    """Coefficients of gamma_t(a) for t^0..t^top.

    A rank-zero element is the integer combination of x^m - 1 read off its
    x coefficients; gamma_t is multiplicative, so the series is the product
    of the line-class factors of ``_line_gamma``, in exponent order.
    """
    if top < 0:
        raise InputError("gamma degree must be nonnegative")
    if rank_value(a):
        raise InputError("gamma operations require a rank-zero argument")
    ring = a.ring
    one = ring.one()
    series = [one] + [zero(ring)] * top
    # index 0 is the exponent of 1, where x^0 - 1 vanishes
    for exps, c in zip(ring.exponents()[1:], x_coefficients(a)[1:]):
        if not c:
            continue
        factor = _line_gamma(ring.monomial(exps) - one, c, top)
        new = [zero(ring)] * (top + 1)
        for i, s in enumerate(series):
            if s.is_zero():
                continue
            for j, f in enumerate(factor[: top + 1 - i]):
                new[i + j] = add(new[i + j], s * f)
        series = new
    return series


def gamma_op(a, d):
    """d-th gamma operation of a rank-zero element."""
    return gamma_series(a, d)[d]


def chern_class(x, i):
    """c_i(x) = gamma_i(x - rank(x))."""
    return gamma_op(x - x.ring.one().scaled(rank_value(x)), i)


def _check_budget(el, at):
    if any(c.bit_length() > MAX_COEFF_BITS for c in el.coefficients):
        raise ParseError(f"coefficient exceeds the {MAX_COEFF_BITS}-bit budget", at)
    return el


class DenseParser:
    """The grammar of ``kgamma._Parser`` evaluated on dense ring elements,
    every atom a full coefficient vector and every ``*`` and ``^`` a ring
    product."""

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.family = None

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = add(node, rhs) if val == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = node * self.factor()
            else:
                return node

    def factor(self):
        kind, val, at = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return self.factor().scaled(-1)
        base = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind2, e, at2 = self.advance()
            if kind2 != "int":
                raise ParseError("exponent must be an integer literal", at2)
            return dense_power(base, e, at)
        return base

    def atom(self):
        kind, val, at = self.advance()
        if kind == "int":
            return self.ring.one().scaled(val)
        if kind == "ident":
            fam, idx = val
            if self.family is None:
                self.family = fam
            elif self.family != fam:
                raise ParseError("mixed x/y identifiers in one expression", at)
            if not 1 <= idx <= self.ring.nvars:
                raise ParseError(f"index {idx} out of range", at)
            exps = [0] * self.ring.nvars
            exps[idx - 1] = 1
            return self.ring.monomial(exps) if fam == "x" else y_monomial(self.ring, exps)
        if kind == "lparen":
            node = self.expr()
            kind2, _, at2 = self.advance()
            if kind2 != "rparen":
                raise ParseError("expected closing parenthesis", at2)
            return node
        raise ParseError("expected a value", at)


def dense_power(base, e, at):
    """``base ** e`` by repeated squaring, zero as soon as a square is."""
    out = None
    square = base
    while True:
        if e & 1:
            out = square if out is None else out * square
        e >>= 1
        if not e:
            return base.ring.one() if out is None else out
        square = _check_budget(square * square, at)
        if square.is_zero():
            return square


def dense_parse(expr, ring):
    """``parse_element`` evaluated by :class:`DenseParser`."""
    parser = DenseParser(_tokenize(expr), ring)
    try:
        node = parser.expr()
    except RecursionError:
        raise ParseError("expression nests too deeply", 0) from None
    kind, _, at = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", at)
    return _check_budget(node, 0)


def y_monomial(ring, exps):
    """y^exps on the y basis, zero at or above the truncation: the y
    spelling, which the package's ``monomial`` does not build."""
    return RingElement(ring, tuple(int(t == tuple(exps)) for t in ring.exponents()))


def ring_of(name):
    return get_config(name).ring


def elem(name, expr):
    return parse_element(expr, ring_of(name))


def from_x(ring, coeffs):
    """The element with the given x-monomial coefficients: a sum of
    x-monomials."""
    out = zero(ring)
    for e, c in zip(ring.exponents(), coeffs):
        if c:
            out = add(out, ring.monomial(e, c))
    return out


def x_power(ring, exps):
    """x^exps as the ring product of the factors 1 + y_j, e_j of each."""
    out = ring.one()
    for j, e in enumerate(exps):
        line = add(ring.one(), y_monomial(ring, [int(i == j) for i in range(ring.nvars)]))
        for _ in range(e):
            out = out * line
    return out


def generators(config):
    """The rank-zero generators ind(e) * x^e - ind(e), e != 0, with x^e built
    by ring products: an oracle independent of the line-class path."""
    ring = config.ring
    return [
        (x_power(ring, e) - ring.one()).scaled(config.ind(e))
        for e in ring.exponents()
        if any(e)
    ]


def pretty(el, basis="y"):
    """``el`` spelled in the parser's grammar on the x or the y basis."""
    coeffs = x_coefficients(el) if basis == "x" else el.coefficients
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
    assert from_x(ring, x_coefficients(e)).y_vector() == e.y_vector()
    assert x_coefficients(from_x(ring, x_coefficients(e))) == x_coefficients(e)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=8, max_size=8))
def test_basis_roundtrip_random(coeffs):
    ring = TruncatedPolyRing((2, 2, 2))
    e = RingElement(ring, tuple(coeffs))
    assert from_x(ring, x_coefficients(e)).y_vector() == tuple(coeffs)
    f = from_x(ring, coeffs)
    assert x_coefficients(f) == tuple(coeffs)


# --- the closed binomial rules -------------------------------------------------


CLOSED_FORM_PRESETS = ["conics3", "deg4pair", "split:2,3"]


@pytest.mark.parametrize("name", CLOSED_FORM_PRESETS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_x_monomial_is_the_product_of_its_line_factors(name, data):
    """Exponents run past the truncation, up to twice each degree."""
    ring = ring_of(name)
    exps = tuple(data.draw(st.integers(0, 2 * d)) for d in ring.factor_degrees)
    coeff = data.draw(st.integers(-5, 5))
    expected = x_power(ring, exps).scaled(coeff)
    assert ring.monomial(exps, coeff).coefficients == expected.coefficients


@pytest.mark.parametrize("name", CLOSED_FORM_PRESETS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_x_coefficients_invert_the_x_rule(name, data):
    ring = ring_of(name)
    coeffs = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=ring.rank, max_size=ring.rank)))
    assert x_coefficients(from_x(ring, coeffs)) == coeffs
    assert from_x(ring, x_coefficients(RingElement(ring, coeffs))).coefficients == coeffs


def coefficients(series):
    return [el.coefficients for el in series]


def series_product(a, b, top):
    """Product of two power series in t, as coefficient lists, through t^top."""
    out = [zero(a[0].ring)] * (top + 1)
    for i, f in enumerate(a[: top + 1]):
        for j, g in enumerate(b[: top + 1 - i]):
            out[i + j] = add(out[i + j], f * g)
    return out


@pytest.mark.parametrize("name", CLOSED_FORM_PRESETS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_line_gamma_is_the_gamma_series_of_a_line_class(name, data):
    """The closed form of (1 + w t)^c is the product of c factors 1 + w t
    for c >= 0, and for c < 0 the inverse of the product of -c of them."""
    ring = ring_of(name)
    e = data.draw(st.sampled_from(ring.exponents()[1:]))
    c = data.draw(st.integers(-3, 5))
    top = data.draw(st.integers(1, ring.dim + 1))
    w = ring.monomial(e) - ring.one()
    one = [ring.one()] + [zero(ring)] * top

    factor = _line_gamma(w, c, top)
    padded = factor + [zero(ring)] * (top + 1 - len(factor))
    power = one
    for _ in range(abs(c)):
        power = series_product(power, [ring.one(), w], top)
    if c >= 0:
        assert coefficients(padded) == coefficients(power)
    else:
        assert coefficients(series_product(padded, power, top)) == coefficients(one)


def test_truncation_kills_high_powers():
    ring = TruncatedPolyRing((2, 2))
    assert parse("y1^2", ring).is_zero()
    y1x = parse("x1", ring) - ring.one()
    assert (y1x * y1x).is_zero()


def test_rank_homomorphism():
    ring = TruncatedPolyRing((2, 2))
    assert rank_value(parse("x1*x2", ring)) == 1
    assert rank_value(parse("3*x1 - 1", ring)) == 2
    assert rank_value(parse("y1*y2", ring)) == 0


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
                out[ring.exponents().index(ne)] += ca * cb
    return tuple(out)


def sparse_elements(ring):
    return st.dictionaries(
        st.integers(0, ring.rank - 1), st.integers(-60, 60), max_size=8
    ).map(lambda terms: RingElement(ring, tuple(terms.get(i, 0) for i in range(ring.rank))))


@pytest.mark.parametrize("degrees", PRODUCT_RINGS, ids=str)
def test_product_of_every_monomial_pair(degrees):
    ring = TruncatedPolyRing(degrees)
    monomials = [y_monomial(ring, e) for e in ring.exponents()]
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
    expected = zero(ring)
    for monomial in ("y1*y2*y3", "y1*y2", "y1*y3", "y2*y3"):
        expected = add(expected, parse(monomial, ring).scaled(2))
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
    assert parse(f"{top}*y1", ring).coefficients[ring.exponents().index((1, 0))] == top
    assert rank_value(parse(f"000{top}", ring)) == top
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
    assert parse(pretty(e, basis), ring).coefficients == e.coefficients


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), st.text(alphabet="xy0123456789+-*^() ", max_size=40)))
@example("\u00b2")  # a digit to str.isdigit, not to int()
@example("y\u0663")
def test_arbitrary_text_raises_only_input_error(text):
    try:
        parse(text, TruncatedPolyRing((2, 4)))
    except InputError:
        pass


ORACLE_PARSE_PRESETS = ["conics4", "deg4pair", "split:3,3,3", "split:2,3"]


@st.composite
def _expressions(draw, ring):
    """Expression text in one family (now and then both), with parentheses,
    unary minus, exponents at and past the truncation and past the budget,
    literals at the budget and indices out of range."""
    family = draw(st.sampled_from(["x", "y", "xy"]))
    top = max(ring.factor_degrees)
    leaf = st.one_of(
        st.integers(0, 12).map(str),
        st.sampled_from([str(2 ** (BUDGET - 1)), str(2 ** BUDGET), "007"]),
        st.tuples(st.sampled_from(family), st.integers(0, ring.nvars + 1)).map(
            lambda t: f"{t[0]}{t[1]}"
        ),
    )
    exponent = st.one_of(st.integers(0, 2 * top + 1), st.sampled_from([BUDGET, 10 ** 9]))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " - ", " * "]), inner).map(
                "".join
            ),
            inner.map(lambda e: f"-{e}"),
            inner.map(lambda e: f"({e})"),
            st.tuples(inner, exponent).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(inner, exponent).map(lambda t: f"{t[0]}^{t[1]}"),
        )

    return draw(st.recursive(leaf, extend, max_leaves=12))


def _outcome(parser, text, ring):
    try:
        return parser(text, ring).coefficients
    except ParseError as exc:
        return str(exc), exc.position


@pytest.mark.parametrize("name", ORACLE_PARSE_PRESETS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_evaluation_equals_the_dense_oracle(name, data):
    """The element, or the error and its offset, of every expression is the
    one the dense ring evaluation gives."""
    ring = ring_of(name)
    text = data.draw(_expressions(ring))
    assert _outcome(parse, text, ring) == _outcome(dense_parse, text, ring), text


@pytest.mark.parametrize("name", ORACLE_PARSE_PRESETS)
@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "y1" + ")" * 3000, "-" * 3000 + "x1", "(2*x1 + y2)^4096", "2^4096",
     "(x1 - 1)^3 * 2^4095", "x2 + (2*x1)^4096 + $", "(y1 + 1)^12 - x1^12", "x1*x2*x3*x4^9"],
    ids=["parens", "minus", "power-budget", "literal-power", "unit-power", "budget-before-char",
         "cancel", "index"],
)
def test_sparse_evaluation_equals_the_dense_oracle_at_the_edges(name, text):
    ring = ring_of(name)
    assert _outcome(parse, text, ring) == _outcome(dense_parse, text, ring)


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
    assert len(caches) >= 10, caches


# --- configurations ---------------------------------------------------------------


def test_config_validation_catches_bad_tables():
    from sdinv.kgamma import SeveriBrauerConfig

    with pytest.raises(InputError):
        SeveriBrauerConfig("bad", (2,), (2,), (((0,), 2), ((1,), 2)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TruncatedPolyRing((2, 1)), "factor degrees must be at least 2"),
        (lambda: TruncatedPolyRing((0,)), "factor degrees must be at least 2"),
        (lambda: RingElement(TruncatedPolyRing((2,)), (1,)), "coefficient vector length mismatch"),
        (lambda: RingElement(TruncatedPolyRing((2, 3)), (0,) * 7), "coefficient vector length mismatch"),
        (
            lambda: kgamma.SeveriBrauerConfig("bad", (2,), (2,), (((1,), 2),)),
            "index of the trivial class must be 1",
        ),
        (
            lambda: kgamma.SeveriBrauerConfig("bad", (3,), (3,), (((0,), 1), ((1,), 3), ((2,), 9))),
            "index table breaks ind(i) == ind(-i) at (1,)",
        ),
        (
            lambda: kgamma.SeveriBrauerConfig("bad", (4,), (4,), (((0,), 1), ((1,), 4), ((3,), 4))),
            "index table misses class (2,)",
        ),
        (
            lambda: kgamma.SeveriBrauerConfig(
                "bad", (4,), (4,), (((0,), 1), ((1,), 2), ((2,), 8), ((3,), 2))
            ),
            "index table breaks divisibility at (1,) + (1,)",
        ),
    ],
    ids=[
        "ring-degree-1", "ring-degree-0", "element-short", "element-long", "trivial-missing",
        "negation", "missing-class", "divisibility",
    ],
)
def test_construction_checks(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


def test_split_index_values():
    assert get_config("conics3").split_index() == 2 ** 10
    assert get_config("conics4").split_index() == 2 ** 25
    assert get_config("deg4pair").split_index() == 2 ** 34
    assert get_config("split:2,2").split_index() == 1


def test_ring_rank_limit():
    assert get_config("split:8,16").ring.rank == 128
    with pytest.raises(InputError, match="limit of 128"):
        get_config("split:3,43")


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
    assert lat == expected
    assert lattice_index(lat) == 2 ** 10


def test_quillen_split_is_everything():
    lat = quillen_lattice(get_config("split:2,2"))
    assert lat == Lattice.standard(4)


def test_quillen_conics4_index():
    lat = quillen_lattice(get_config("conics4"))
    assert lattice_index(lat) == 2 ** 25


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
    x = parse(f"{m}*x1", ring) if m else zero(ring)
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
    series = gamma_series(a.scaled(-1), 3)
    # gamma_t(-a) is the truncated inverse of gamma_t(a)
    fwd = gamma_series(a, 3)
    conv = [zero(ring) for _ in range(4)]
    for i in range(4):
        for j in range(4 - i):
            conv[i + j] = add(conv[i + j], fwd[i] * series[j])
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
    gens = generators(config)
    a = zero(ring)
    b = zero(ring)
    for c, g in zip(ca, gens):
        a = add(a, g.scaled(c))
    for c, g in zip(cb, gens):
        b = add(b, g.scaled(c))
    sa = gamma_series(a, ring.dim)
    sb = gamma_series(b, ring.dim)
    sab = gamma_series(add(a, b), ring.dim)
    for k in range(ring.dim + 1):
        conv = zero(ring)
        for i in range(k + 1):
            conv = add(conv, sa[i] * sb[k - i])
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
        assert filt.level(d) == expected


def test_filtration_nesting_and_vanishing():
    for name in ["conics3", "conics4", "conic1"]:
        filt = gamma_filtration(name)
        dim = filt.config.ring.dim
        for d in range(1, dim + 2):
            for col in filt.level(d).basis.columns():
                assert filt.level(d - 1).contains(col)
        assert filt.level(dim + 1).rank == 0
        assert filt.level(99).rank == 0
        assert filt.level(-1) == filt.level(0)


# The filtration as it was built from every raw gamma value, and eta as it was
# read from one kernel per degree: oracles for the span-basis construction
# and the single echelon form of the descended subring.
ORACLE_PRESETS = ["conic1", "conics3", "conics4", "deg4pair", "split:2,2", "split:2,3",
                  "split:3,3,3", "split:2,2,2,2,2", "split:6,6", "split:4,4,4"]


def oracle_filtration(name):
    """Level d >= 2 spans every raw gamma_k(g) times the basis of level
    max(d - k, 1), plus the bare gamma_k(g) with k >= d; level 1 spans the
    generators and every gamma value lies in the descended subring."""
    config = get_config(name)
    ring = config.ring
    dim = ring.dim
    k0 = quillen_lattice(config)
    gens = generators(config)
    values = []
    for g in gens:
        for k, gk in enumerate(gamma_series(g, dim)[1:], start=1):
            assert lattice_membership(gk.y_vector(), k0).member
            if not gk.is_zero():
                values.append((k, gk))
    levels = [k0, Lattice.from_columns(ring.rank, [g.y_vector() for g in gens])]
    for d in range(2, dim + 2):
        cols = {gk.coefficients: None for k, gk in values if k >= d}
        for k, gk in values:
            for b in levels[max(d - k, 1)].basis_columns:
                cols[(gk * RingElement(ring, b)).coefficients] = None
        levels.append(Lattice.from_columns(ring.rank, cols))
    return tuple(levels)


def oracle_eta(name):
    """Index of the degree-d part of the kernel of the rows of degree < d."""
    k0 = gamma_filtration(name).level(0)
    degrees = get_config(name).ring.degrees()
    out = []
    for d in range(1, max(degrees) + 1):
        low = IntMatrix(tuple(k0.basis.entries[i] for i, deg in enumerate(degrees) if deg < d))
        top = [i for i, deg in enumerate(degrees) if deg == d]
        piece = [tuple(k0.basis.matvec(v)[i] for i in top) for v in kernel_basis(low)]
        out.append(lattice_index(Lattice.from_columns(len(top), piece)))
    return tuple(out)


@pytest.mark.parametrize("name", ORACLE_PRESETS)
def test_filtration_equals_the_raw_product_oracle(name):
    assert gamma_filtration(name).lattices == oracle_filtration(name)


@pytest.mark.parametrize("name", ORACLE_PRESETS)
def test_eta_equals_the_kernel_oracle(name):
    assert graded_torsion(name).eta == oracle_eta(name)


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
    """Each answer's evidence passes the checker, without replay, on the
    membership entry that a certificate writes for it."""
    filt = gamma_filtration("conics4")
    for expr, degree in (("4*y1*y2*y3*y4", 3), ("4*y1*y2*y3", 2)):
        el, res = filtration_membership("conics4", expr, degree)
        entry = membership_entry("membership", filt.level(degree), el.y_vector(), res)
        assert check_certificate({"format": CERT_FORMAT, "entries": [entry]}, replay=False)[0]


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
    piece = rep.pieces[2]
    assert piece.torsion.label() == "Z/2"
    assert len(piece.witnesses) == 1


def test_conics4_torsion_witness_is_triple_class():
    filt = gamma_filtration("conics4")
    rep = graded_torsion("conics4")
    piece = rep.pieces[2]
    w = piece.witnesses[0]
    ring = filt.config.ring
    triples = ["y1*y2*y3", "y1*y2*y4", "y1*y3*y4", "y2*y3*y4"]
    hits = 0
    for t in triples:
        target = parse(f"4*{t}", ring).y_vector()
        diff = tuple(a - b for a, b in zip(w, target))
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
        dprod *= Fraction(x)
    assert dprod == rep.total_torsion_order


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 10 ** 6), st.integers(-(10 ** 6), 10 ** 6).filter(bool)),
        max_size=5,
    )
)
@example([(12, 8), (8, 12), (5, 1), (3, -6), (7, 7)])
def test_delta_is_written_as_fraction_writes_it(pairs):
    # epsilon_d is the index of a split image; a rank-1 lattice spanned by e has index e
    rep = kgamma.GradedTorsionReport(
        config=None,
        pieces=(),
        split_images=tuple(Lattice.from_columns(1, [(e,)]) for e, _ in pairs),
        eta=tuple(h for _, h in pairs),
    )
    assert rep.delta == tuple(str(Fraction(e, h)) for e, h in pairs)


def test_split_graded_everything_free():
    rep = graded_torsion("split:2,2")
    assert rep.total_torsion_order == 1
    assert all(p.torsion.is_trivial for p in rep.pieces)
    assert all(e == 1 for e in rep.epsilon)
    # each graded quotient is free of rank the number of degree-d monomials
    ring = rep.config.ring
    for d, p in enumerate(rep.pieces):
        monomials = sum(1 for deg in ring.degrees() if deg == d)
        assert p.group.free_rank == monomials
        assert not p.group.invariant_factors


@pytest.mark.parametrize(
    "name",
    ["split:2,2", "split:2,3", "split:3,4", "split:2,2,2", "split:2,2,3", "split:5,5",
     "split:2,2,2,2"],
)
def test_split_known_answers(name):
    rep = graded_torsion(name)
    assert rep.split_index == 1
    assert all(p.torsion.is_trivial for p in rep.pieces)
    assert rep.epsilon == (1,) * rep.config.ring.dim
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


@pytest.mark.parametrize("name, limit", [("split:6,6", 2256), ("deg4pair", 927)])
def test_filtration_skips_products_past_the_dimension(name, limit, monkeypatch):
    """A product whose factors' lowest y-degrees sum past ``dim`` is zero in
    the truncated ring, so the filtration never forms it; the spans are
    checked by ``test_filtration_equals_the_raw_product_oracle``."""
    calls = []
    honest = RingElement.__mul__

    def counting(self, other):
        calls.append(None)
        return honest(self, other)

    monkeypatch.setattr(RingElement, "__mul__", counting)
    gamma_filtration.cache_clear()
    get_config.cache_clear()
    gamma_filtration(name)
    gamma_filtration.cache_clear()
    assert len(calls) <= limit
