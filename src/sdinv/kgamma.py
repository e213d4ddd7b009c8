"""Grothendieck-ring arithmetic for products of Severi-Brauer varieties.

The split Grothendieck ring of a product of projective spaces of dimensions
``d_j - 1`` is the truncated polynomial ring with relations
``(x_j - 1)^{d_j} = 0``; substituting ``y_j = x_j - 1`` turns the relations
into plain truncation, so ring elements hold y-monomial coordinates only.
The x spelling is an input form of the parser and of
:meth:`TruncatedPolyRing.monomial`; ``RingElement.x_coefficients`` reads an
element back in it.

A :class:`SeveriBrauerConfig` records the index of every tensor power
combination of the underlying algebras.  The subring that descends to the
twisted form is spanned by ``ind(i) * x^i`` over all monomial exponents
(the Quillen basis); the gamma filtration is generated by products of gamma
operations of rank-zero elements of that subring, enumerated finitely via
the observation that gamma_k lands in y-degree >= k (machine-checked) and
everything above the total degree truncates to zero.

Products are index-additive.  Monomials are indexed in mixed-radix order
with the last variable fastest, so when no factor truncates, the product of
monomials i and k sits at index i + k.  A per-ring table of packed exponents
with one guard bit per variable decides truncation with a single integer
test.  The filtration builds the ring elements of each level's basis and
each gamma value once, and drops repeated product columns before the Hermite
form, which leaves the span unchanged.

Each graded piece keeps the subquotient presentation its structure was read
from.  Certificate entries are built from it, and only when a certificate is
written or replayed; a plain report builds none.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .exactlin import (
    FinAbelianGroup,
    InputError,
    IntMatrix,
    InternalInconsistencyError,
    Lattice,
    MembershipResult,
    SubquotientData,
    TorsionWitness,
    kernel_basis,
    lattice_index,
    lattice_membership,
    subquotient_presentation,
)


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# ---------------------------------------------------------------------------
# truncated polynomial ring


@dataclass(frozen=True)
class TruncatedPolyRing:
    """Integral polynomial ring in x_1..x_n with (x_j - 1)^{d_j} = 0."""

    factor_degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d < 2 for d in self.factor_degrees):
            raise InputError("factor degrees must be at least 2")

    @property
    def nvars(self) -> int:
        return len(self.factor_degrees)

    @property
    def rank(self) -> int:
        return math.prod(self.factor_degrees)

    @property
    def dim(self) -> int:
        return sum(d - 1 for d in self.factor_degrees)

    @lru_cache(maxsize=32)
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """All monomial exponents in mixed-radix order, last variable fastest."""
        outs = [()]
        for d in self.factor_degrees:
            outs = [e + (k,) for e in outs for k in range(d)]
        return tuple(outs)

    @lru_cache(maxsize=32)
    def _index(self) -> dict[tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.exponents())}

    def index_of(self, exps: tuple[int, ...]) -> int:
        return self._index()[exps]

    @lru_cache(maxsize=32)
    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(e) for e in self.exponents())

    @lru_cache(maxsize=32)
    def _product_table(self) -> tuple[tuple[int, ...], int, int]:
        """``(packed, bias, guard)`` for the index-additive product.

        Exponent ``e_j`` sits in a field of ``b_j + 1`` bits with
        ``2**b_j >= d_j``.  ``bias`` puts ``2**b_j - d_j`` into every field,
        so in ``packed[i] + packed[k] + bias`` the top bit of field j is set
        exactly when the two exponents sum to ``d_j`` or more, and no field
        carries into the next: the product of monomials i and k survives
        the truncation iff that sum has no bit of ``guard`` set.
        """
        shifts, bias, guard, at = [], 0, 0, 0
        for d in self.factor_degrees:
            b = (d - 1).bit_length()
            shifts.append(at)
            bias += ((1 << b) - d) << at
            guard |= 1 << (at + b)
            at += b + 1
        packed = tuple(
            sum(e << s for e, s in zip(exps, shifts)) for exps in self.exponents()
        )
        return packed, bias, guard

    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * self.rank)

    def one(self) -> "RingElement":
        c = [0] * self.rank
        c[self.index_of((0,) * self.nvars)] = 1
        return RingElement(self, tuple(c))

    def monomial(self, exps, basis: str, coeff: int = 1) -> "RingElement":
        """``coeff * basis^exps`` for ``basis`` "x" or "y", the two spellings
        the parser reads; the element itself is stored on the y basis."""
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars:
            raise InputError("wrong number of exponents")
        if basis == "y":
            if any(e >= d for e, d in zip(exps, self.factor_degrees)):
                return self.zero()
            c = [0] * self.rank
            c[self.index_of(exps)] = coeff
            return RingElement(self, tuple(c))
        if basis == "x":
            # expand prod (1 + y_j)^{e_j}; exponents above the truncation
            # are fine, the binomial rows simply stop at degree d_j - 1
            out = self.one().coefficients
            for j, e in enumerate(exps):
                row = [math.comb(e, t) for t in range(self.factor_degrees[j])]
                out = self._mul_single_var(out, j, row)
            return RingElement(self, tuple(c * coeff for c in out))
        raise InputError("basis must be 'x' or 'y'")

    def _mul_single_var(self, coeffs, j: int, row) -> tuple[int, ...]:
        """Multiply a y-coefficient vector by a polynomial in y_j alone."""
        out = [0] * self.rank
        exps = self.exponents()
        dj = self.factor_degrees[j]
        for i, c in enumerate(coeffs):
            if not c:
                continue
            e = exps[i]
            for t, r in enumerate(row):
                if not r:
                    continue
                nt = e[j] + t
                if nt >= dj:
                    break
                out[self.index_of(e[:j] + (nt,) + e[j + 1:])] += c * r
        return tuple(out)

    def line_class(self, j: int) -> "RingElement":
        exps = [0] * self.nvars
        exps[j] = 1
        return self.monomial(tuple(exps), "x")


@dataclass(frozen=True)
class RingElement:
    """Element with integer coefficients on the y-monomial basis."""

    ring: TruncatedPolyRing
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.ring.rank:
            raise InputError("coefficient vector length mismatch")

    def x_coefficients(self) -> tuple[int, ...]:
        """Coefficients on the x-monomial basis."""
        # y_j^e = (x_j - 1)^e expands with signed binomials, no truncation
        out = [0] * self.ring.rank
        exps = self.ring.exponents()
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            parts = [(tuple(), 1)]
            for j, e in enumerate(exps[i]):
                parts = [
                    (p + (t,), s * math.comb(e, t) * ((-1) ** (e - t)))
                    for p, s in parts
                    for t in range(e + 1)
                ]
            for p, s in parts:
                out[self.ring.index_of(p)] += c * s
        return tuple(out)

    # -- arithmetic (same-ring only)

    def _check_ring(self, other: "RingElement") -> None:
        if self.ring != other.ring:
            raise InputError("mixed rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_ring(other)
        return RingElement(self.ring, tuple(map(operator.add, self.coefficients, other.coefficients)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check_ring(other)
        return RingElement(self.ring, tuple(map(operator.sub, self.coefficients, other.coefficients)))

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, tuple(-x for x in self.coefficients))

    def scaled(self, c: int) -> "RingElement":
        return RingElement(self.ring, tuple(c * x for x in self.coefficients))

    def __mul__(self, other: "RingElement") -> "RingElement":
        # Monomial indices are mixed-radix with the last variable fastest, so
        # a product that no factor truncates sits at the sum of the indices.
        self._check_ring(other)
        ring = self.ring
        _, bias, guard = ring._product_table()
        out = [0] * ring.rank
        terms_b = other._terms
        for i, ca, pa in self._terms:
            pa += bias
            for k, cb, pb in terms_b:
                if not (pa + pb) & guard:
                    out[i + k] += ca * cb
        return RingElement(ring, tuple(out))

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int], ...]:
        """``(index, coefficient, packed exponent)`` of each nonzero term."""
        packed = self.ring._product_table()[0]
        return tuple((i, c, packed[i]) for i, c in enumerate(self.coefficients) if c)

    # -- structure

    def rank_value(self) -> int:
        """Value of the rank homomorphism (constant y-coefficient)."""
        return self.coefficients[self.ring.index_of((0,) * self.ring.nvars)]

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def min_y_degree(self) -> int | None:
        degs = self.ring.degrees()
        present = [degs[i] for i, c in enumerate(self.coefficients) if c]
        return min(present) if present else None

    def y_vector(self) -> tuple[int, ...]:
        return self.coefficients


# ---------------------------------------------------------------------------
# expression parser

# Largest coefficient, in bits, of a literal, of a square taken by ``^`` and
# of a parsed element.  It stays far below the 4300-digit limit of int/str
# conversion, so every answer prints, and it bounds the work of ``^``.
MAX_COEFF_BITS = 4096
_DIGITS = re.compile("[0-9]*")


def _literal(expr: str, i: int, j: int) -> int:
    """The digits ``expr[i:j]`` as an int within the coefficient budget.  A
    digit carries more than 3 bits, so a longer string is rejected unread."""
    digits = expr[i:j].lstrip("0")
    if 3 * len(digits) <= MAX_COEFF_BITS:
        value = int(digits or "0")
        if value.bit_length() <= MAX_COEFF_BITS:
            return value
    raise ParseError(f"integer exceeds the {MAX_COEFF_BITS}-bit budget", i)


def _check_budget(el: RingElement, at: int) -> RingElement:
    if any(c.bit_length() > MAX_COEFF_BITS for c in el.coefficients):
        raise ParseError(f"coefficient exceeds the {MAX_COEFF_BITS}-bit budget", at)
    return el


def _tokenize(expr: str):
    tokens = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = _DIGITS.match(expr, i).end()
            tokens.append(("int", _literal(expr, i, j), i))
            i = j
            continue
        if ch in "xy":
            j = _DIGITS.match(expr, i + 1).end()
            if j == i + 1:
                raise ParseError(f"identifier {ch!r} needs an index", i)
            tokens.append(("ident", (ch, _literal(expr, i + 1, j)), i))
            i = j
            continue
        if ch in "+-*^":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("rparen", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(expr)))
    return tokens


class _Parser:
    """Recursive descent over +, -, *, ^ with a single identifier family."""

    def __init__(self, tokens, ring: TruncatedPolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.family: str | None = None

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self):
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("trailing input", at)

    def expr(self) -> RingElement:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def term(self) -> RingElement:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = node * self.factor()
            else:
                return node

    def factor(self) -> RingElement:
        kind, val, at = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.factor()
        base = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind2, e, at2 = self.advance()
            if kind2 != "int":
                raise ParseError("exponent must be an integer literal", at2)
            return _power(base, e, at)
        return base

    def atom(self) -> RingElement:
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
            if fam == "y":
                return self.ring.monomial(tuple(exps), "y")
            return self.ring.line_class(idx - 1)
        if kind == "lparen":
            node = self.expr()
            kind2, _, at2 = self.advance()
            if kind2 != "rparen":
                raise ParseError("expected closing parenthesis", at2)
            return node
        raise ParseError("expected a value", at)


def _power(base: RingElement, e: int, at: int) -> RingElement:
    """``base ** e`` by repeated squaring, zero as soon as a square is.

    Never more products than ``e - 1``, so a huge exponent on a nilpotent
    element costs a few products and on a unit ``log2(e)`` of them.  A square
    over the coefficient budget raises a :class:`ParseError` at ``at``.
    """
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


def parse_element(expr: str, ring: TruncatedPolyRing) -> RingElement:
    """Parse an integer polynomial in x1..xn or y1..yn into the ring.

    Exponents at or above the truncation are accepted and reduced.  Mixing x
    and y identifiers in one expression is rejected, and so is any
    coefficient over ``MAX_COEFF_BITS``; errors carry the byte offset of the
    offending token.
    """
    parser = _Parser(_tokenize(expr), ring)
    try:
        node = parser.expr()
    except RecursionError:
        raise ParseError("expression nests too deeply", 0) from None
    parser.expect_end()
    return _check_budget(node, 0)


# ---------------------------------------------------------------------------
# Severi-Brauer configurations


@dataclass(frozen=True)
class SeveriBrauerConfig:
    """Index data for a product of Severi-Brauer varieties.

    ``index_table`` maps exponent classes (componentwise mod ``periods``) to
    the index of the corresponding tensor product of the algebras.
    """

    name: str
    factor_degrees: tuple[int, ...]
    periods: tuple[int, ...]
    index_table: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        table = dict(self.index_table)
        zero = (0,) * len(self.factor_degrees)
        if table.get(zero) != 1:
            raise InputError("index of the trivial class must be 1")
        for cls, v in table.items():
            neg = tuple((-c) % p for c, p in zip(cls, self.periods))
            if table.get(neg) != v:
                raise InputError(f"index table breaks ind(i) == ind(-i) at {cls}")
        keys = list(table)
        for a in keys:
            for b in keys:
                s = tuple((x + y) % p for x, y, p in zip(a, b, self.periods))
                if s not in table:
                    raise InputError(f"index table misses class {s}")
                if (table[a] * table[b]) % table[s]:
                    raise InputError(
                        f"index table breaks divisibility at {a} + {b}"
                    )

    @property
    def ring(self) -> TruncatedPolyRing:
        return TruncatedPolyRing(self.factor_degrees)

    @property
    def dim(self) -> int:
        return self.ring.dim

    def ind(self, exps) -> int:
        cls = tuple(e % p for e, p in zip(exps, self.periods))
        return dict(self.index_table)[cls]

    def split_index(self) -> int:
        out = 1
        for e in self.ring.exponents():
            out *= self.ind(e)
        return out


def _table_from_rule(degrees, periods, rule) -> tuple:
    classes = [()]
    for p in periods:
        classes = [c + (k,) for c in classes for k in range(p)]
    return tuple((c, rule(c)) for c in classes)


@lru_cache(maxsize=32)
def get_config(name: str) -> SeveriBrauerConfig:
    """Named index configurations.

    ``conics3`` and ``conics4`` are the generic three- and four-conic
    products, ``conic1`` is a single nonsplit conic, ``deg4pair`` the pair of
    generic degree-4 algebras whose squares are inverse quaternions, and
    ``split:d1,...,dn`` the fully split reference.
    """
    if name == "conics3":
        def rule(c):
            w = sum(c)
            return {0: 1, 1: 2, 2: 4, 3: 2}[w]

        return SeveriBrauerConfig("conics3", (2, 2, 2), (2, 2, 2), _table_from_rule((2, 2, 2), (2, 2, 2), rule))
    if name == "conics4":
        def rule(c):
            w = sum(c)
            return {0: 1, 1: 2, 2: 4, 3: 4, 4: 2}[w]

        return SeveriBrauerConfig("conics4", (2, 2, 2, 2), (2, 2, 2, 2), _table_from_rule((2,) * 4, (2,) * 4, rule))
    if name == "conic1":
        return SeveriBrauerConfig("conic1", (2,), (2,), (((0,), 1), ((1,), 2)))
    if name == "deg4pair":
        def rule(c):
            i, j = c
            if (i, j) in ((0, 0), (2, 2)):
                return 1
            if (i, j) in ((2, 0), (0, 2)):
                return 2
            if 0 in (i, j) or 2 in (i, j):
                return 4
            return 16

        return SeveriBrauerConfig("deg4pair", (4, 4), (4, 4), _table_from_rule((4, 4), (4, 4), rule))
    if name.startswith("split:"):
        try:
            degrees = tuple(int(t) for t in name.split(":", 1)[1].split(","))
        except ValueError:
            raise InputError(f"malformed split preset {name!r}")
        if not degrees or any(d < 2 for d in degrees):
            raise InputError("split preset needs degrees >= 2")
        periods = (1,) * len(degrees)
        return SeveriBrauerConfig(name, degrees, periods, (((0,) * len(degrees), 1),))
    raise InputError(
        f"unknown variety preset {name!r}; available: "
        + ", ".join(available_configs())
    )


def available_configs() -> list[str]:
    return ["conics3", "conics4", "conic1", "deg4pair", "split:{d1,...,dn}"]


# ---------------------------------------------------------------------------
# Quillen basis and gamma operations


def quillen_basis_elements(config: SeveriBrauerConfig) -> list[RingElement]:
    ring = config.ring
    return [
        ring.monomial(e, "x", config.ind(e)) for e in ring.exponents()
    ]


def quillen_lattice(config: SeveriBrauerConfig) -> Lattice:
    """Span of ``ind(i) x^i`` in y-monomial coordinates."""
    ring = config.ring
    cols = [el.y_vector() for el in quillen_basis_elements(config)]
    lat = Lattice.from_columns(ring.rank, cols).canonical()
    expected = config.split_index()
    if lattice_index(lat, Lattice.standard(ring.rank)) != expected:
        raise InternalInconsistencyError("quillen lattice index mismatch")
    return lat


def _rank_zero_x_coefficients(a: RingElement) -> dict[tuple[int, ...], int]:
    """Decompose a rank-zero element as an integer combination of x^m - 1."""
    ring = a.ring
    zero = (0,) * ring.nvars
    coeffs = {}
    total = 0
    for i, c in enumerate(a.x_coefficients()):
        e = ring.exponents()[i]
        total += c
        if c and e != zero:
            coeffs[e] = c
    if total != 0:
        raise InputError("gamma operations require a rank-zero argument")
    return coeffs


def gamma_series(a: RingElement, d_max: int) -> list[RingElement]:
    """Coefficients of gamma_t(a) for t^0..t^d_max.

    Uses gamma_t(L - 1) = 1 + (L - 1) t on line classes and multiplicativity;
    negative multiplicities go through the generalized binomial series, which
    is the truncated inverse power series.
    """
    if d_max < 0:
        raise InputError("gamma degree must be nonnegative")
    ring = a.ring
    series = [ring.one()] + [ring.zero() for _ in range(d_max)]
    for exps, c in sorted(_rank_zero_x_coefficients(a).items()):
        w = ring.monomial(exps, "x") - ring.one()
        powers = [ring.one()]
        for _ in range(d_max):
            powers.append(powers[-1] * w)
        factor = [powers[k].scaled(math.comb(c, k) if c >= 0 else
                                   (-1) ** k * math.comb(-c + k - 1, k))
                  for k in range(d_max + 1)]
        new = [ring.zero() for _ in range(d_max + 1)]
        for i in range(d_max + 1):
            if series[i].is_zero():
                continue
            for j in range(d_max + 1 - i):
                if not factor[j].is_zero():
                    new[i + j] = new[i + j] + series[i] * factor[j]
        series = new
    return series


def gamma_op(a: RingElement, d: int) -> RingElement:
    """d-th gamma operation of a rank-zero element."""
    return gamma_series(a, d)[d]


def chern_class(x: RingElement, i: int) -> RingElement:
    """c_i(x) = gamma_i(x - rank(x))."""
    return gamma_op(x - x.ring.one().scaled(x.rank_value()), i)


# ---------------------------------------------------------------------------
# gamma filtration


@dataclass(frozen=True)
class GammaFiltration:
    config: SeveriBrauerConfig
    lattices: tuple[Lattice, ...]  # indices 0 .. depth

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def depth(self) -> int:
        return len(self.lattices) - 1

    def level(self, d: int) -> Lattice:
        if d < 0:
            d = 0
        if d > self.depth:
            if self.depth == self.dim + 1:
                return self.lattices[-1]  # everything above the top is zero
            raise InputError(
                f"filtration was built to degree {self.depth} only"
            )
        return self.lattices[d]


def _gamma_generators(config: SeveriBrauerConfig) -> list[RingElement]:
    """Rank-zero generators ind(i)(x^i - 1) of the first filtration step."""
    ring = config.ring
    out = []
    for e in ring.exponents():
        if any(e):
            out.append(ring.monomial(e, "x", config.ind(e)) - ring.one().scaled(config.ind(e)))
    return out


@lru_cache(maxsize=32)
def gamma_filtration(config_name: str, d_max: int | None = None) -> GammaFiltration:
    """Filtration lattices through degree ``min(d_max, dim) + 1``.

    The default builds the whole filtration including the vanishing top
    level, which is what the graded reports need.
    """
    config = get_config(config_name)
    ring = config.ring
    dim = ring.dim
    top = dim if d_max is None else max(0, min(d_max, dim))

    k0 = quillen_lattice(config)
    gens = _gamma_generators(config)

    # gamma values of every generator through degree dim, with the y-order
    # bound and membership in the descended subring checked as we go
    nonzero = []  # (k, gamma_k(g)) over all generators g, nonzero values only
    for g in gens:
        series = gamma_series(g, dim)
        for k in range(1, dim + 1):
            gk = series[k]
            mind = gk.min_y_degree()
            if mind is not None and mind < k:
                raise InternalInconsistencyError(
                    "gamma value violates the y-degree lower bound"
                )
            if not lattice_membership(gk.y_vector(), k0).member:
                raise InternalInconsistencyError(
                    "gamma value escapes the descended subring"
                )
            if mind is not None:
                nonzero.append((k, gk))

    one_cols = [g.y_vector() for g in gens]
    gamma1 = Lattice.from_columns(ring.rank, one_cols).canonical()

    # Each level for d >= 2 is spanned by gamma_k(g) * basis(level[max(d-k,1)])
    # over all generators g and 1 <= k <= dim, plus the bare gamma_k(g) with
    # k >= d.  Peeling one factor off any product of gamma operations of
    # total degree >= d lands the remainder in one of those lower levels, so
    # the finite span equals the full ideal.  Many products coincide; the
    # span, and so the canonical basis, is the same without the repeats.
    levels: dict[int, Lattice] = {0: k0, 1: gamma1}
    basis_elements = {1: [RingElement(ring, b) for b in gamma1.basis_columns]}
    for d in range(2, top + 2):
        cols: dict[tuple[int, ...], None] = {}
        for k, gk in nonzero:
            if k >= d:
                cols[gk.coefficients] = None
            for b in basis_elements[max(d - k, 1)]:
                prod = (gk * b).coefficients
                if any(prod):
                    cols[prod] = None
        levels[d] = Lattice.from_columns(ring.rank, cols).canonical()
        basis_elements[d] = [RingElement(ring, b) for b in levels[d].basis_columns]
        for col in levels[d].basis_columns:
            if not levels[d - 1].contains(col):
                raise InternalInconsistencyError("filtration levels fail to nest")

    if top == dim and levels[dim + 1].rank != 0:
        raise InternalInconsistencyError("filtration fails to vanish above the dimension")

    lattices = tuple(levels[d] for d in range(0, top + 2))
    return GammaFiltration(config=config, lattices=lattices)


def filtration_membership(config_name: str, element, degree: int) -> tuple[RingElement, MembershipResult]:
    """Decide membership of a ring element in the degree-d filtration step."""
    filt = gamma_filtration(config_name)
    ring = filt.config.ring
    if isinstance(element, str):
        element = parse_element(element, ring)
    if degree < 0:
        raise InputError("filtration degree must be nonnegative")
    lat = filt.level(degree)
    res = lattice_membership(element.y_vector(), lat)
    return element, res


# ---------------------------------------------------------------------------
# graded structure, counting identity, torsion


@dataclass(frozen=True)
class GradedPiece:
    degree: int
    structure: FinAbelianGroup
    torsion: FinAbelianGroup
    witnesses: tuple[TorsionWitness, ...]
    # the presentation the structure was read from, kept for certificates
    presentation: SubquotientData = field(repr=False, compare=False)


@dataclass(frozen=True)
class GradedTorsionReport:
    config: SeveriBrauerConfig
    pieces: tuple[GradedPiece, ...]
    epsilon: tuple[int, ...]           # degrees 1..dim
    # the split images epsilon indexes, kept for certificates
    split_images: tuple[Lattice, ...] = field(repr=False, compare=False)
    eta: tuple[int, ...]               # same grading of the monomial filtration
    delta: tuple[Fraction, ...]        # epsilon_d / eta_d, reporting only
    split_index: int
    total_torsion_order: int
    counting_identity_holds: bool

    def torsion_orders(self) -> tuple[int, ...]:
        return tuple(p.torsion.order() for p in self.pieces)


def _degree_slice(ring: TruncatedPolyRing, d: int) -> list[int]:
    return [i for i, deg in enumerate(ring.degrees()) if deg == d]


def _project_to_degree(ring: TruncatedPolyRing, cols, d: int) -> Lattice:
    rows = _degree_slice(ring, d)
    proj = [tuple(c[i] for i in rows) for c in cols]
    return Lattice.from_columns(len(rows), proj).canonical()


@lru_cache(maxsize=32)
def graded_torsion(config_name: str) -> GradedTorsionReport:
    """Per-degree torsion, image indices, and the exact counting identity.

    The identity states that the total graded torsion order times the index
    of the descended subring equals the product over degrees of the index of
    the image of the filtration step in the split graded piece.
    """
    filt = gamma_filtration(config_name)
    config = filt.config
    ring = config.ring
    dim = ring.dim

    pieces = []
    total = 1
    for d in range(0, dim + 1):
        data = subquotient_presentation(filt.level(d + 1), filt.level(d))
        tor = data.torsion
        total *= tor.order()
        pieces.append(
            GradedPiece(
                degree=d,
                structure=data.group,
                torsion=tor,
                witnesses=data.witnesses,
                presentation=data,
            )
        )

    epsilon = []
    images = []
    for d in range(1, dim + 1):
        proj = _project_to_degree(ring, filt.level(d).basis_columns, d)
        idx = lattice_index(proj, Lattice.standard(proj.ambient_rank))
        if idx is None:
            raise InternalInconsistencyError("split image of a filtration step has deficient rank")
        epsilon.append(idx)
        images.append(proj)

    # monomial-degree filtration of the descended subring, for the delta report
    k0 = filt.level(0)
    eta = []
    for d in range(1, dim + 1):
        low_rows = [i for i, deg in enumerate(ring.degrees()) if deg < d]
        if low_rows:
            sel = IntMatrix.from_rows(
                [tuple(int(i == r) for i in range(ring.rank)) for r in low_rows]
            )
            ker = kernel_basis(sel.mul(k0.basis))
            cols = [k0.basis.matvec(v) for v in ker]
        else:
            cols = k0.basis_columns
        piece = _project_to_degree(ring, cols, d)
        idx = lattice_index(piece, Lattice.standard(len(_degree_slice(ring, d))))
        eta.append(idx)

    split = config.split_index()
    eps_prod = 1
    for e in epsilon:
        eps_prod *= e
    holds = total * split == eps_prod
    delta = tuple(Fraction(e, h) for e, h in zip(epsilon, eta))

    return GradedTorsionReport(
        config=config,
        pieces=tuple(pieces),
        epsilon=tuple(epsilon),
        split_images=tuple(images),
        eta=tuple(eta),
        delta=delta,
        split_index=split,
        total_torsion_order=total,
        counting_identity_holds=holds,
    )


@dataclass(frozen=True)
class Chow2Result:
    config: SeveriBrauerConfig
    torsion: FinAbelianGroup
    witnesses: tuple[TorsionWitness, ...]
    provenance: tuple[str, ...]
    report: GradedTorsionReport


def chow2_torsion(config_name: str) -> Chow2Result:
    """Torsion of the degree-2 graded piece, read as codimension-2 cycle
    torsion of the generic variety through two standard identifications."""
    report = graded_torsion(config_name)
    piece = next(p for p in report.pieces if p.degree == 2) if report.config.dim >= 2 else None
    torsion = piece.torsion if piece else FinAbelianGroup.trivial()
    witnesses = piece.witnesses if piece else ()
    provenance = (
        "replacing the variety by a smaller product generating the same "
        "subgroup of the Brauer group preserves codimension-2 torsion "
        "(projective bundle theorem, Izhboldin-Karpenko)",
        "on a generic flag variety the Chow ring is generated by Chern "
        "classes, so codimension-2 torsion agrees with the degree-2 graded "
        "torsion of the gamma filtration (Karpenko)",
    )
    return Chow2Result(
        config=report.config,
        torsion=torsion,
        witnesses=witnesses,
        provenance=provenance,
        report=report,
    )
