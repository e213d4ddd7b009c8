"""Grothendieck-ring arithmetic for products of Severi-Brauer varieties.

The split Grothendieck ring of a product of projective spaces of dimensions
``d_j - 1`` is the truncated polynomial ring with relations
``(x_j - 1)^{d_j} = 0``; substituting ``y_j = x_j - 1`` turns the relations
into plain truncation, so ring elements hold y-monomial coordinates only.
:meth:`TruncatedPolyRing.monomial` builds x-monomials by one closed binomial
rule: the y^t coefficient of x^e = prod (1 + y_j)^{e_j} is prod C(e_j, t_j).
The parser reads an atom x_j itself, as 1 + y_j.

A :class:`SeveriBrauerConfig` records the index of every tensor power
combination of the underlying algebras.  The subring that descends to the
twisted form is spanned by ``ind(i) * x^i`` over all monomial exponents
(the Quillen basis); the gamma filtration is generated by products of gamma
operations of the rank-zero elements ``ind(i) * (x^i - 1)``, enumerated
finitely via the observation that gamma_k lands in y-degree >= k
(machine-checked) and everything above the total degree truncates to zero.
Their gamma values are read straight from the line class ``x^i``:
gamma_t(c (L - 1)) = (1 + (L - 1) t)^c.

Products are index-additive.  Monomials are indexed in mixed-radix order
with the last variable fastest, so when no factor truncates, the product of
monomials i and k sits at index i + k.  A per-ring table of packed exponents
with one guard bit per variable decides truncation with a single integer
test.  The filtration multiplies canonical bases, of the span of each
gamma_k and of each level, building their ring elements once; it skips pairs
whose lowest y-degrees sum past the total degree (zero products) and drops
repeated product columns before the Hermite form.

Each graded piece is the subquotient presentation its structure is read
from.  Certificate entries are built from it, and only when a certificate is
written or replayed; a plain report builds none.
"""

from __future__ import annotations

import math
import operator
import re
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import MAX_AMBIENT_RANK, InputError, InternalInconsistencyError
from .exactlin import (
    FinAbelianGroup,
    Lattice,
    MembershipResult,
    SubquotientData,
    lattice_index,
    lattice_membership,
    row_hermite,
    subquotient_presentation,
)


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# ---------------------------------------------------------------------------
# truncated polynomial ring


class TruncatedPolyRing:
    """Integral polynomial ring in x_1..x_n with (x_j - 1)^{d_j} = 0; a
    value, so its methods are cached by value."""

    def __init__(self, factor_degrees: tuple[int, ...]) -> None:
        if any(d < 2 for d in factor_degrees):
            raise InputError("factor degrees must be at least 2")
        self.factor_degrees = factor_degrees

    def __eq__(self, other) -> bool:
        return type(other) is TruncatedPolyRing and self.factor_degrees == other.factor_degrees

    def __hash__(self) -> int:
        return hash(self.factor_degrees)

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
        """All monomial exponents in mixed-radix order, last variable fastest;
        the exponent of 1 comes first."""
        outs = [()]
        for d in self.factor_degrees:
            outs = [e + (k,) for e in outs for k in range(d)]
        return tuple(outs)

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

    def one(self) -> "RingElement":
        return RingElement(self, (1,) + (0,) * (self.rank - 1))

    def monomial(self, exps, coeff: int = 1) -> "RingElement":
        """``coeff * x^exps`` stored on the y basis: the y^t coefficient of
        x^e = prod (1 + y_j)^{e_j} is prod C(e_j, t_j).  Exponents at or above
        the truncation are fine."""
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars:
            raise InputError("wrong number of exponents")
        return RingElement(self, tuple(
            coeff * math.prod(map(math.comb, exps, t)) for t in self.exponents()
        ))


class RingElement:
    """Element with integer coefficients on the y-monomial basis."""

    def __init__(self, ring: TruncatedPolyRing, coefficients: tuple[int, ...]) -> None:
        if len(coefficients) != ring.rank:
            raise InputError("coefficient vector length mismatch")
        self.ring = ring
        self.coefficients = coefficients

    # -- arithmetic (same-ring only)

    def _check_ring(self, other: "RingElement") -> None:
        if self.ring != other.ring:
            raise InputError("mixed rings")

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check_ring(other)
        return RingElement(self.ring, tuple(map(operator.sub, self.coefficients, other.coefficients)))

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


def _check_budget(terms: dict[int, int], at: int) -> dict[int, int]:
    if any(c.bit_length() > MAX_COEFF_BITS for c in terms.values()):
        raise ParseError(f"coefficient exceeds the {MAX_COEFF_BITS}-bit budget", at)
    return terms


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
    """Recursive descent over +, -, *, ^ with a single identifier family.

    Values are sparse, ``{packed exponent: coefficient}`` with no zero
    coefficient, in the packing of :meth:`TruncatedPolyRing._product_table`:
    a product adds packed exponents, and the guard bits drop each term past
    the truncation.
    """

    def __init__(self, tokens, ring: TruncatedPolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.family: str | None = None
        self.packed, self.bias, self.guard = ring._product_table()

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

    def expr(self) -> dict[int, int]:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                sign = 1 if val == "+" else -1
                for k, c in rhs.items():
                    node[k] = node.get(k, 0) + sign * c
                node = {k: c for k, c in node.items() if c}
            else:
                return node

    def term(self) -> dict[int, int]:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = self.product(node, self.factor())
            else:
                return node

    def factor(self) -> dict[int, int]:
        kind, val, at = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return {k: -c for k, c in self.factor().items()}
        base = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind2, e, at2 = self.advance()
            if kind2 != "int":
                raise ParseError("exponent must be an integer literal", at2)
            return self.power(base, e, at)
        return base

    def atom(self) -> dict[int, int]:
        kind, val, at = self.advance()
        if kind == "int":
            return {0: val} if val else {}
        if kind == "ident":
            fam, idx = val
            if self.family is None:
                self.family = fam
            elif self.family != fam:
                raise ParseError("mixed x/y identifiers in one expression", at)
            if not 1 <= idx <= self.ring.nvars:
                raise ParseError(f"index {idx} out of range", at)
            # y_idx sits at the mixed-radix stride of its variable
            y = self.packed[math.prod(self.ring.factor_degrees[idx:])]
            return {0: 1, y: 1} if fam == "x" else {y: 1}
        if kind == "lparen":
            node = self.expr()
            kind2, _, at2 = self.advance()
            if kind2 != "rparen":
                raise ParseError("expected closing parenthesis", at2)
            return node
        raise ParseError("expected a value", at)

    def product(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        bias, guard = self.bias, self.guard
        out: dict[int, int] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                if not (k + bias) & guard:
                    out[k] = out.get(k, 0) + ca * cb
        return {k: c for k, c in out.items() if c}

    def power(self, base: dict[int, int], e: int, at: int) -> dict[int, int]:
        """``base ** e`` by repeated squaring, zero as soon as a square is.

        Never more products than ``e - 1``, so a huge exponent on a nilpotent
        element costs a few products and on a unit ``log2(e)`` of them.  A
        square over the coefficient budget raises a :class:`ParseError` at
        ``at``.
        """
        out = None
        square = base
        while True:
            if e & 1:
                out = square if out is None else self.product(out, square)
            e >>= 1
            if not e:
                return {0: 1} if out is None else out
            square = _check_budget(self.product(square, square), at)
            if not square:
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
    _check_budget(node, 0)
    return RingElement(ring, tuple(node.get(p, 0) for p in parser.packed))


# ---------------------------------------------------------------------------
# Severi-Brauer configurations


class SeveriBrauerConfig:
    """Index data for a product of Severi-Brauer varieties.

    ``index_table`` maps exponent classes (componentwise mod ``periods``) to
    the index of the corresponding tensor product of the algebras.
    """

    def __init__(
        self,
        name: str,
        factor_degrees: tuple[int, ...],
        periods: tuple[int, ...],
        index_table: tuple[tuple[tuple[int, ...], int], ...],
    ) -> None:
        table = dict(index_table)
        zero = (0,) * len(factor_degrees)
        if table.get(zero) != 1:
            raise InputError("index of the trivial class must be 1")
        for cls, v in table.items():
            neg = tuple((-c) % p for c, p in zip(cls, periods))
            if table.get(neg) != v:
                raise InputError(f"index table breaks ind(i) == ind(-i) at {cls}")
        keys = list(table)
        for a in keys:
            for b in keys:
                s = tuple((x + y) % p for x, y, p in zip(a, b, periods))
                if s not in table:
                    raise InputError(f"index table misses class {s}")
                if (table[a] * table[b]) % table[s]:
                    raise InputError(f"index table breaks divisibility at {a} + {b}")
        self.name = name
        self.factor_degrees = factor_degrees
        self.periods = periods
        self.index_table = table

    @property
    def ring(self) -> TruncatedPolyRing:
        return TruncatedPolyRing(self.factor_degrees)

    def ind(self, exps) -> int:
        cls = tuple(e % p for e, p in zip(exps, self.periods))
        return self.index_table[cls]

    def split_index(self) -> int:
        out = 1
        for e in self.ring.exponents():
            out *= self.ind(e)
        return out


def _table_from_rule(periods, rule) -> tuple:
    classes = [()]
    for p in periods:
        classes = [c + (k,) for c in classes for k in range(p)]
    return tuple((c, rule(c)) for c in classes)


@lru_cache(maxsize=32)
def get_config(name: str) -> SeveriBrauerConfig:
    """Named index configurations.

    ``conic1``, ``conics3`` and ``conics4`` are the generic products of
    k = 1, 3 and 4 conics, where a subset S of the k conics has index
    2^min(|S|, k + 1 - |S|), so ``conic1`` is a single nonsplit conic;
    ``deg4pair`` the pair of generic degree-4 algebras whose squares are
    inverse quaternions, and ``split:d1,...,dn`` the fully split reference.
    """
    if name in ("conic1", "conics3", "conics4"):
        k = int(name[-1])
        table = _table_from_rule((2,) * k, lambda c: 2 ** min(sum(c), k + 1 - sum(c)))
        return SeveriBrauerConfig(name, (2,) * k, (2,) * k, table)
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

        return SeveriBrauerConfig("deg4pair", (4, 4), (4, 4), _table_from_rule((4, 4), rule))
    if name.startswith("split:"):
        try:
            degrees = tuple(int(t) for t in name[6:].split(","))
            if name != "split:" + ",".join(map(str, degrees)):
                raise ValueError(name)
        except ValueError:
            raise InputError(f"malformed split preset {name!r}")
        if not degrees or any(d < 2 for d in degrees):
            raise InputError("split preset needs degrees >= 2")
        if math.prod(degrees) > MAX_AMBIENT_RANK:
            raise InputError(f"split preset ring rank exceeds the limit of {MAX_AMBIENT_RANK}")
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
        ring.monomial(e, config.ind(e)) for e in ring.exponents()
    ]


def quillen_lattice(config: SeveriBrauerConfig) -> Lattice:
    """Span of ``ind(i) x^i`` in y-monomial coordinates."""
    ring = config.ring
    cols = [el.y_vector() for el in quillen_basis_elements(config)]
    lat = Lattice.from_columns(ring.rank, cols)
    expected = config.split_index()
    if lattice_index(lat) != expected:
        raise InternalInconsistencyError("quillen lattice index mismatch")
    return lat


def _line_gamma(w: RingElement, c: int, top: int) -> list[RingElement]:
    """The nonzero coefficients of gamma_t(c * w) = (1 + w t)^c through t^top,
    for the line class L = 1 + w.

    gamma_t(L - 1) = 1 + (L - 1) t, so the t^k coefficient is C(c, k) w^k,
    and for c < 0 the generalized binomial (-1)^k C(-c + k - 1, k) w^k of
    the truncated inverse series.  It stops past k = c >= 0 and at the
    first zero power of w, after which every power is zero.
    """
    ring = w.ring
    factor = [ring.one()]
    power = ring.one()
    for k in range(1, (min(top, c) if c >= 0 else top) + 1):
        power = power * w
        if power.is_zero():
            break
        factor.append(power.scaled(
            math.comb(c, k) if c >= 0 else (-1) ** k * math.comb(-c + k - 1, k)
        ))
    return factor


# ---------------------------------------------------------------------------
# gamma filtration


class GammaFiltration(NamedTuple):
    config: SeveriBrauerConfig
    lattices: tuple[Lattice, ...]  # degrees 0 .. dim + 1, the last one zero

    def level(self, d: int) -> Lattice:
        """Step ``d``; below 0 it is step 0, above ``dim + 1`` the zero step."""
        return self.lattices[min(max(d, 0), len(self.lattices) - 1)]


@lru_cache(maxsize=32)
def gamma_filtration(name: str) -> GammaFiltration:
    """Filtration lattices through degree ``dim + 1``, the vanishing top
    level included."""
    config = get_config(name)
    ring = config.ring
    dim = ring.dim

    k0 = quillen_lattice(config)

    # gamma values of every generator g = ind(e) (x^e - 1), e != 0, read off
    # its line class x^e through degree dim, with the y-order bound checked
    # on each; values[k] collects the distinct nonzero gamma_k(g)
    values: dict[int, dict[tuple[int, ...], None]] = {k: {} for k in range(1, dim + 1)}
    one = ring.one()
    for e in ring.exponents()[1:]:
        series = _line_gamma(ring.monomial(e) - one, config.ind(e), dim)
        for k, gk in enumerate(series[1:], start=1):
            if gk.min_y_degree() < k:
                raise InternalInconsistencyError(
                    "gamma value violates the y-degree lower bound"
                )
            values[k][gk.coefficients] = None

    # G_k = span{gamma_k(g)}.  Level 1 is G_1, and every basis vector of G_k
    # with k >= 2 is a bare generator of level 2, so the presentations of
    # step d + 1 in step d that graded_torsion builds for every d prove each
    # gamma value in k0 and every level nested; nothing is checked here.
    spans = {k: Lattice.from_columns(ring.rank, cols) for k, cols in values.items()}
    span_elements = {k: _elements(ring, span) for k, span in spans.items()}

    # Each level for d >= 2 is spanned by gamma_k(g) * basis(level[max(d-k,1)])
    # over all generators g and 1 <= k <= dim, plus the bare gamma_k(g) with
    # k >= d.  Peeling one factor off any product of gamma operations of
    # total degree >= d lands the remainder in one of those lower levels, so
    # the finite span equals the full ideal.  Products are Z-bilinear, so the
    # span is the same when gamma_k(g) runs over the basis of G_k instead,
    # and so is the canonical basis.  gamma_1 is the identity on rank-zero
    # elements, so G_1 is level 1, and the k = 1 products at d = 2 need only
    # the pairs i <= j.  Zero and repeated product columns are dropped, and a
    # pair whose lowest y-degrees sum past dim, a zero product, is not formed.
    levels: dict[int, Lattice] = {0: k0, 1: spans[1]}
    basis_elements = {1: span_elements[1]}
    for d in range(2, dim + 2):
        cols: dict[tuple[int, ...], None] = {}
        for k, elements in span_elements.items():
            low = basis_elements[max(d - k, 1)]
            for i, (c, deg_c) in enumerate(elements):
                if k >= d:
                    cols[c.coefficients] = None
                for b, deg_b in low[i:] if k == 1 and d == 2 else low:
                    if deg_c + deg_b <= dim and any(prod := (c * b).coefficients):
                        cols[prod] = None
        levels[d] = Lattice.from_columns(ring.rank, cols)
        basis_elements[d] = _elements(ring, levels[d])

    if levels[dim + 1].rank != 0:
        raise InternalInconsistencyError("filtration fails to vanish above the dimension")

    lattices = tuple(levels[d] for d in range(0, dim + 2))
    return GammaFiltration(config=config, lattices=lattices)


def _elements(ring: TruncatedPolyRing, lat: Lattice) -> list[tuple[RingElement, int]]:
    """Each basis column of ``lat`` as an element, with its lowest y-degree."""
    return [(el, el.min_y_degree()) for el in (RingElement(ring, b) for b in lat.basis_columns)]


def filtration_membership(name: str, element, degree: int) -> tuple[RingElement, MembershipResult]:
    """Decide membership of a ring element in the degree-d filtration step."""
    filt = gamma_filtration(name)
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


class GradedTorsionReport(NamedTuple):
    """The graded pieces of a gamma filtration with the counting identity.

    ``pieces[d]`` presents step d + 1 inside step d, the graded piece of
    degree d; ``split_images[d - 1]`` is the image of step d in the split
    degree-d piece, whose index is epsilon_d; ``eta`` is the same grading of
    the monomial filtration of the descended subring.
    """

    config: SeveriBrauerConfig
    pieces: tuple[SubquotientData, ...]
    split_images: tuple[Lattice, ...]
    eta: tuple[int, ...]

    @property
    def epsilon(self) -> tuple[int, ...]:
        return tuple(map(lattice_index, self.split_images))

    @property
    def delta(self) -> tuple[str, ...]:
        """epsilon_d / eta_d in lowest terms, written as ``str(Fraction)``
        writes it ("n" or "n/d", the sign on n); reporting only."""
        out = []
        for e, h in zip(self.epsilon, self.eta):
            g = math.gcd(e, h) if h > 0 else -math.gcd(e, h)
            n, d = e // g, h // g
            out.append(str(n) if d == 1 else f"{n}/{d}")
        return tuple(out)

    @property
    def split_index(self) -> int:
        return self.config.split_index()

    def torsion_orders(self) -> tuple[int, ...]:
        return tuple(p.torsion.order() for p in self.pieces)

    @property
    def total_torsion_order(self) -> int:
        return math.prod(self.torsion_orders())

    @property
    def counting_identity_holds(self) -> bool:
        return self.total_torsion_order * self.split_index == math.prod(self.epsilon)


def _project_to_degree(ring: TruncatedPolyRing, cols, d: int) -> Lattice:
    rows = [i for i, deg in enumerate(ring.degrees()) if deg == d]
    proj = [tuple(c[i] for i in rows) for c in cols]
    return Lattice.from_columns(len(rows), proj)


@lru_cache(maxsize=32)
def graded_torsion(name: str) -> GradedTorsionReport:
    """Per-degree torsion, image indices, and the exact counting identity.

    The identity states that the total graded torsion order times the index
    of the descended subring equals the product over degrees of the index of
    the image of the filtration step in the split graded piece.
    """
    filt = gamma_filtration(name)
    config = filt.config
    ring = config.ring
    dim = ring.dim

    levels = filt.lattices
    pieces = tuple(subquotient_presentation(levels[d + 1], levels[d]) for d in range(dim + 1))
    images = tuple(
        _project_to_degree(ring, levels[d].basis_columns, d) for d in range(1, dim + 1)
    )
    if any(im.rank != im.ambient_rank for im in images):
        raise InternalInconsistencyError("split image of a filtration step has deficient rank")

    # monomial-degree filtration of the descended subring, for the delta
    # report.  With coordinates ordered by (degree, index), the Hermite rows
    # of k0 whose pivot lies in degree >= d span the vectors of k0 that
    # vanish in every degree below d: an integer combination of echelon rows
    # is nonzero at the pivot of the first row it uses.  k0 has full rank, so
    # the echelon form is square, and the degree-d part of that sublattice
    # has index the product of the pivots in degree d, the rows with later
    # pivots being zero there.
    degrees = ring.degrees()
    order = sorted(range(ring.rank), key=lambda i: (degrees[i], i))
    echelon = row_hermite([tuple(col[i] for i in order) for col in levels[0].basis_columns])
    if len(echelon) != ring.rank:
        raise InternalInconsistencyError("descended subring has deficient rank")
    by_degree = [1] * (dim + 1)
    for j, row in enumerate(echelon):
        by_degree[degrees[order[j]]] *= row[j]
    return GradedTorsionReport(
        config=config, pieces=pieces, split_images=images, eta=tuple(by_degree[1:])
    )


class Chow2Result(NamedTuple):
    """Codimension-2 torsion, read off the degree-2 piece of a graded report;
    below dimension 2 there is no such piece and the torsion is trivial."""

    report: GradedTorsionReport
    # unannotated, so a class attribute, not a field
    provenance = (
        "replacing the variety by a smaller product generating the same "
        "subgroup of the Brauer group preserves codimension-2 torsion "
        "(projective bundle theorem, Izhboldin-Karpenko)",
        "on a generic flag variety the Chow ring is generated by Chern "
        "classes, so codimension-2 torsion agrees with the degree-2 graded "
        "torsion of the gamma filtration (Karpenko)",
    )

    @property
    def piece(self) -> SubquotientData | None:
        """The graded piece of degree 2, None below dimension 2."""
        pieces = self.report.pieces
        return pieces[2] if len(pieces) > 2 else None

    @property
    def torsion(self) -> FinAbelianGroup:
        return FinAbelianGroup.trivial() if self.piece is None else self.piece.torsion

    @property
    def witnesses(self) -> tuple[tuple[int, ...], ...]:
        return () if self.piece is None else self.piece.witnesses


def chow2_torsion(name: str) -> Chow2Result:
    """Torsion of the degree-2 graded piece, read as codimension-2 cycle
    torsion of the generic variety through two standard identifications."""
    return Chow2Result(graded_torsion(name))
