"""Quadratic form arithmetic over the rationals: Hilbert symbols, the full
classifying invariant set (dimension, signed discriminant, local Hasse
symbols, signature), Witt equivalence, fundamental-ideal membership, and
randomized verification of the Witt-ring identities behind the degree-3
invariants of quaternion tuples.

Conventions and named assumptions
---------------------------------
* ``pfister([a1, .., ak])`` expands ``<<a1, .., ak>>`` as the tensor product
  of the binary forms ``<1, -ai>``, so the 2-fold form is the reduced norm
  form of the quaternion algebra ``(a1, a2)``.
* Isometry and hyperbolicity over Q are decided by comparing the complete
  invariant set; correctness rests on the Hasse-Minkowski classification of
  forms over number fields.
* Degree-3 cohomology of Q is a single Z/2 carried by the real place, so the
  Arason value of a form in the third ideal power is ``signature/8 mod 2``
  and fourth-power membership adds the condition ``signature = 0 mod 16``.
Both assumptions are surfaced in reports and in the package documentation.

Square classes are values
-------------------------
* A rational square class is its canonical squarefree integer.  The product
  of two classes is ``(a // g) * (b // g)`` with ``g = gcd(a, b)``, so no
  class carries a prime list.
* Only the sampled slot values of an identity are factored.  Every entry of
  a form built from them is +-1 times a product of slot classes, so the odd
  primes of the slots contain every place where its Hasse symbol can differ
  from that of the hyperbolic form.
* Hasse exponents are summed over the distinct entries of a form weighted by
  their multiplicities; a squarefree entry has valuation 1 at p exactly when
  p divides it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._factor import factorize, is_probable_prime
from .exactlin import InputError, InternalInconsistencyError

Place = object  # "inf" or a prime number


# ---------------------------------------------------------------------------
# square classes and Hilbert symbols


def _num_den(value) -> int:
    """Numerator times denominator of a nonzero rational: an integer in the
    same square class, with the same valuation parity at every prime."""
    if isinstance(value, int):
        n = value
    else:
        f = Fraction(value)
        n = f.numerator * f.denominator
    if n == 0:
        raise InputError("square classes are defined for nonzero values only")
    return n


def square_class(value) -> int:
    """Canonical squarefree integer representative of a rational square class."""
    n = _num_den(value)
    out = -1 if n < 0 else 1
    for p, e in factorize(n):
        if e % 2:
            out *= p
    return out


def square_class_mul(a: int, b: int) -> int:
    """Product of two canonical square classes: the primes they share square
    away, so the result is squarefree with no factoring."""
    g = gcd(a, b)
    return (a // g) * (b // g)


@lru_cache(maxsize=256)
def _is_odd_prime(p: int) -> bool:
    return p > 2 and p % 2 == 1 and is_probable_prime(p)


def _check_place(place) -> None:
    if place == "inf":
        return
    if isinstance(place, int) and (place == 2 or _is_odd_prime(place)):
        return
    raise InputError(f"place must be 'inf', 2, or an odd prime, got {place!r}")


def _legendre_bit(u: int, p: int) -> int:
    """0 when the unit u is a square mod the odd prime p, else 1."""
    return 0 if pow(u, (p - 1) // 2, p) == 1 else 1


def _eps(u: int) -> int:
    """(u - 1)/2 mod 2 for an odd integer u."""
    return 1 if u % 4 == 3 else 0


def _omega(u: int) -> int:
    """(u^2 - 1)/8 mod 2 for an odd integer u."""
    return 1 if u % 8 in (3, 5) else 0


def _local_data(a: int, p: int) -> tuple[int, int]:
    """Valuation and unit part of a nonzero integer at p."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a place of the rationals.

    Returns +1 when z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion, -1 otherwise.  Symmetric and bimultiplicative.  The local
    formula holds for any valuation, so the arguments are not reduced to
    their square classes.
    """
    _check_place(place)
    a = _num_den(a)
    b = _num_den(b)
    if place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = place
    alpha, u = _local_data(a, p)
    beta, v = _local_data(b, p)
    if p == 2:
        exp = _eps(u) * _eps(v) + alpha * _omega(v) + beta * _omega(u)
    else:
        exp = alpha * beta * (((p - 1) // 2) % 2)
        exp += beta * _legendre_bit(u, p) + alpha * _legendre_bit(v, p)
    return -1 if exp % 2 else 1


def relevant_places(entries) -> tuple:
    """inf, 2, and every odd prime dividing a canonical entry."""
    primes = set()
    for e in set(entries):
        primes.update(p for p, _ in factorize(e) if p > 2)
    return ("inf", 2) + tuple(sorted(primes))


# ---------------------------------------------------------------------------
# diagonal forms and their invariants


@dataclass(frozen=True)
class DiagonalForm:
    """Nondegenerate diagonal quadratic form with canonical squarefree entries."""

    entries: tuple[int, ...]

    @classmethod
    def of(cls, values) -> "DiagonalForm":
        return cls(tuple(square_class(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def perp(self, other: "DiagonalForm") -> "DiagonalForm":
        return DiagonalForm(self.entries + other.entries)

    def neg(self) -> "DiagonalForm":
        return DiagonalForm(tuple(-e for e in self.entries))

    def scaled(self, q) -> "DiagonalForm":
        c = square_class(q)
        return DiagonalForm(tuple(square_class_mul(c, e) for e in self.entries))

    def signature(self) -> int:
        return sum(1 if e > 0 else -1 for e in self.entries)


def pfister(slots) -> DiagonalForm:
    """k-fold multiplicative form <<a1, ..., ak>> of dimension 2^k."""
    return _pfister([square_class(s) for s in slots])


def _pfister(classes) -> DiagonalForm:
    """``pfister`` of slots that are already canonical square classes."""
    entries = [1]
    for c in classes:
        entries += [square_class_mul(-c, e) for e in entries]
    return DiagonalForm(tuple(entries))


@dataclass(frozen=True)
class PfisterSpec:
    """Slot description of a multiplicative form, kept separate from its
    2^k-dimensional expansion."""

    slots: tuple[int, ...]

    @classmethod
    def of(cls, values) -> "PfisterSpec":
        return cls(tuple(square_class(v) for v in values))

    def expand(self) -> DiagonalForm:
        form = pfister(self.slots)
        if form.dim != 2 ** len(self.slots):
            raise InternalInconsistencyError("pfister expansion has the wrong dimension")
        return form


def hyperbolic(half_dim: int) -> DiagonalForm:
    return DiagonalForm((1, -1) * half_dim)


@dataclass(frozen=True)
class QuaternionDatum:
    a: int
    b: int

    @classmethod
    def of(cls, a, b) -> "QuaternionDatum":
        return cls(square_class(a), square_class(b))

    @property
    def norm_form(self) -> DiagonalForm:
        form = pfister((self.a, self.b))
        expected = DiagonalForm.of((1, -self.a, -self.b, self.a * self.b))
        if form != expected:
            raise InternalInconsistencyError("norm form convention drifted")
        return form

    def label(self) -> str:
        return f"({self.a},{self.b})"


@dataclass(frozen=True)
class WittInvariants:
    dimension: int
    signed_discriminant: int
    hasse: tuple[tuple[object, int], ...]
    signature: int

    def hasse_at(self, place) -> int:
        table = dict(self.hasse)
        return table.get(place, 1)


def _hasse_exponent_at(counts, place) -> int:
    """Parity of the sum over pairs of Hilbert-symbol exponents.

    ``counts`` holds the distinct entries with their multiplicities.  An
    entry is squarefree, so its valuation at p is 1 exactly when p divides
    it.  With A the number of entries of valuation 1, the pairwise sum at an
    odd p is (p-1)/2 * C(A, 2) + A * L - L1, where L sums the Legendre bits
    of all unit parts and L1 those of the entries of valuation 1; at 2 it is
    C(E, 2) + A * W - W1 with the eps and omega bits in place of Legendre
    bits.  Mod 2 the last two terms leave the units if A is odd, and the
    divisible entries if A is even.
    """
    if place == "inf":
        negs = sum(m for e, m in counts if e < 0)
        return (negs * (negs - 1) // 2) % 2
    p = place
    if p == 2:
        A = E = W_unit = W_div = 0
        for e, m in counts:
            if e % 2:
                E += m * _eps(e)
                W_unit += m * _omega(e)
            else:
                A += m
                E += m * _eps(e // 2)
                W_div += m * _omega(e // 2)
        return (E * (E - 1) // 2 + (W_unit if A % 2 else W_div)) % 2
    A = sum(m for e, m in counts if e % p == 0)
    if A == 0:
        return 0
    total = (A * (A - 1) // 2) * (((p - 1) // 2) % 2)
    if A % 2:
        total += sum(m * _legendre_bit(e, p) for e, m in counts if e % p)
    else:
        total += sum(m * _legendre_bit(e // p, p) for e, m in counts if e % p == 0)
    return total % 2


def witt_invariants(f: DiagonalForm, places=None) -> WittInvariants:
    """Dimension, signed discriminant, Hasse symbol family, and signature.

    Without ``places`` the Hasse symbols are taken at inf, 2 and every odd
    prime dividing an entry; elsewhere they are +1.
    """
    m = f.dim
    counts = Counter(f.entries)
    signed = 1 if (m * (m - 1) // 2) % 2 == 0 else -1
    for e, k in counts.items():
        if k % 2:
            signed = square_class_mul(signed, e)
    if places is None:
        places = relevant_places(counts)
    else:
        for v in places:
            _check_place(v)
    items = tuple(counts.items())
    hasse = tuple((v, -1 if _hasse_exponent_at(items, v) else 1) for v in places)
    return WittInvariants(
        dimension=m,
        signed_discriminant=signed,
        hasse=hasse,
        signature=f.signature(),
    )


def is_hyperbolic(f: DiagonalForm, places=None) -> bool:
    """Full invariant comparison against the hyperbolic form of equal rank.

    ``places`` must include every odd prime dividing an entry of ``f``;
    extra places are harmless, since there both forms have Hasse symbol +1.
    Without it the entries are factored.
    """
    if f.dim % 2:
        return False
    if places is None:
        places = relevant_places(f.entries)
    mine = witt_invariants(f, places)
    ref = witt_invariants(hyperbolic(f.dim // 2), places)
    return (
        mine.signed_discriminant == ref.signed_discriminant
        and mine.signature == ref.signature
        and mine.hasse == ref.hasse
    )


def witt_equivalent(f: DiagonalForm, g: DiagonalForm, places=None) -> bool:
    """Exact equality in the Witt group: f + (-g) is hyperbolic.  ``places``
    is as in :func:`is_hyperbolic`, for the entries of both forms."""
    if (f.dim + g.dim) % 2:
        return False
    return is_hyperbolic(f.perp(g.neg()), places)


def isometric(f: DiagonalForm, g: DiagonalForm) -> bool:
    if f.dim != g.dim:
        return False
    return witt_equivalent(f, g)


def in_power_of_i(f: DiagonalForm, n: int, places=None) -> bool:
    """Membership of the Witt class in the n-th power of the fundamental
    ideal, for n up to 4.

    n=1 is even dimension; n=2 adds trivial signed discriminant; n=3 adds a
    Hasse family matching the hyperbolic reference everywhere (trivial
    Clifford invariant); n=4 adds signature divisible by 16, which is the
    vanishing of the degree-3 cohomology class at the real place.
    ``places`` is as in :func:`is_hyperbolic`.
    """
    if n not in (1, 2, 3, 4):
        raise InputError("only ideal powers 1 through 4 are supported")
    if f.dim % 2:
        return False
    if places is None:
        places = relevant_places(f.entries)
    inv = witt_invariants(f, places)
    if n == 1:
        return True
    if inv.signed_discriminant != 1:
        return False
    if n == 2:
        return True
    ref = witt_invariants(hyperbolic(f.dim // 2), places)
    if inv.hasse != ref.hasse:
        return False
    if n == 3:
        return True
    return inv.signature % 16 == 0



def e3_real(f: DiagonalForm) -> int:
    """Arason value of a class in the third ideal power.

    Over the rationals degree-3 cohomology is one Z/2 carried by the real
    place, so the value is signature/8 mod 2.
    """
    sig = f.signature()
    if sig % 8:
        raise InternalInconsistencyError(
            "arason evaluation needs a class of the third ideal power"
        )
    return (sig // 8) % 2


# ---------------------------------------------------------------------------
# quaternion tuples


def brauer_relation_holds(quats, places=None) -> bool:
    """Whether the classes of the quaternions sum to zero: at every relevant
    place the product of local symbols is +1.  ``places`` must include every
    odd prime dividing a slot; without it the slots are factored."""
    if places is None:
        places = relevant_places([q.a for q in quats] + [q.b for q in quats])
    for v in places:
        prod = 1
        for q in quats:
            prod *= hilbert_symbol(q.a, q.b, v)
        if prod != 1:
            return False
    return True


def alpha_eval(quats) -> int:
    """Arason value of the sum of the reduced norm forms of a quaternion
    tuple whose Brauer classes sum to zero."""
    quats = list(quats)
    if not brauer_relation_holds(quats):
        raise InputError("quaternion classes do not sum to zero in the Brauer group")
    total = DiagonalForm(())
    for q in quats:
        total = total.perp(q.norm_form)
    if not in_power_of_i(total, 3):
        raise InternalInconsistencyError(
            "norm-form sum escaped the third ideal power despite the relation"
        )
    return e3_real(total)


@dataclass(frozen=True)
class AlbertComparison:
    similar: bool
    real_cup_vanishes: bool

    @property
    def agree(self) -> bool:
        return self.similar == self.real_cup_vanishes


def albert_similarity_check(a, b, c, d, q) -> AlbertComparison:
    """Is q a similarity factor of the Albert form <a, b, -ab, -c, -d, cd>?

    Decided by full invariant comparison of the scaled form against the form
    itself, at every relevant place.  The companion bit is the real-place
    vanishing of the degree-3 class of the biquaternion pair cupped with q;
    the two verdicts agree by the similarity-factor theorem for Albert forms
    together with the real-place principle for degree-3 cohomology of Q.
    """
    a, b, c, d = (square_class(t) for t in (a, b, c, d))
    phi = DiagonalForm.of((a, b, -a * b, -c, -d, c * d))
    scaled = phi.scaled(q)
    similar = isometric(scaled, phi)
    cup = pfister((a, b, q)).perp(pfister((c, d, q)).neg())
    if not in_power_of_i(cup, 3):
        raise InternalInconsistencyError("cup comparison form escaped the third power")
    return AlbertComparison(similar=similar, real_cup_vanishes=e3_real(cup) == 0)


# ---------------------------------------------------------------------------
# deterministic sampling


class SplitMix64:
    """Tiny deterministic PRNG; stable across platforms and Python versions."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]."""
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


_SLOT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def sample_square_class(rng: SplitMix64) -> int:
    """Signed product of distinct primes up to 23, at most three of them."""
    k = rng.randint(0, 3)
    primes = list(_SLOT_PRIMES)
    value = 1
    for _ in range(k):
        p = rng.choice(primes)
        primes.remove(p)
        value *= p
    if rng.randint(0, 1):
        value = -value
    return value


def sample_norm(rng: SplitMix64, radicand: int, tries: int = 64) -> int:
    """Nonzero value of the form u^2 - radicand * v^2."""
    for _ in range(tries):
        u = rng.randint(1, 9)
        v = rng.randint(1, 9)
        x = u * u - radicand * v * v
        if x != 0:
            return x
    raise InternalInconsistencyError("norm sampling failed to find a nonzero value")


@dataclass(frozen=True)
class ChainConfiguration:
    q1: QuaternionDatum
    q2: QuaternionDatum
    q3: QuaternionDatum
    q4: QuaternionDatum
    x: int
    y: int
    z: int
    sample: tuple[tuple[str, str], ...]


def sample_chain_configuration(seed: int) -> ChainConfiguration:
    """Quadruple of quaternions with vanishing Brauer sum, built so the
    biquaternion chain constraints hold by construction.

    The slots x, y, z are norms from the quadratic extension by the product
    of the first slots, which forces the three linking classes to vanish;
    the family fixes the third and fourth quaternions to share the first and
    second first-slots, the closed-form case of the chain construction.
    """
    rng = SplitMix64(seed)
    a = sample_square_class(rng)
    b = sample_square_class(rng)
    c = sample_square_class(rng)
    d = sample_square_class(rng)
    ac = a * c
    x = sample_norm(rng, ac)
    y = sample_norm(rng, ac)
    z = sample_norm(rng, ac)
    slots = (a, b, c, d, x, y, z)
    A, B, C, D, X, Y, Z = (square_class(s) for s in slots)
    mul = square_class_mul
    w = mul(mul(X, Y), Z)
    q1 = QuaternionDatum(A, B)
    q2 = QuaternionDatum(C, D)
    q3 = QuaternionDatum(A, mul(B, w))
    q4 = QuaternionDatum(C, mul(D, w))
    quats = (q1, q2, q3, q4)
    # every slot of the quaternions is a product of the sampled classes
    if not brauer_relation_holds(quats, relevant_places((A, B, C, D, X, Y, Z))):
        raise InternalInconsistencyError("constructed chain violates the Brauer relation")
    for radicand in (x, y, z):
        if hilbert_symbol(ac, radicand, 2) != 1:
            # norms are split everywhere by construction; spot check
            raise InternalInconsistencyError("norm slot fails its local check")
    sample = tuple((k, str(v)) for k, v in zip("abcdxyz", slots))
    return ChainConfiguration(q1, q2, q3, q4, x, y, z, sample)


# ---------------------------------------------------------------------------
# identity suites


@dataclass(frozen=True)
class IdentityCase:
    identity_id: str
    trial: int
    seed: int
    sample: tuple[tuple[str, str], ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    congruence_level: str  # "exact-Witt" or "mod-I4"
    verdict: bool


def _case_sides(identity_id: str, C: dict[str, int]):
    """Both sides of an identity as diagonal forms, from the canonical square
    classes of the sampled slots."""
    mul = square_class_mul
    if identity_id == "twofold":
        lhs = _pfister((C["x"], C["y"])).perp(_pfister((C["x"], C["z"])))
        rhs = _pfister((C["x"], C["y"], C["z"])).perp(
            _pfister((C["x"], mul(C["y"], C["z"])))
        )
        return lhs, rhs, "exact-Witt"
    if identity_id == "square_slot":
        return _pfister((C["a"], C["a"])), _pfister((C["a"], -1)), "exact-Witt"
    if identity_id == "double":
        s = mul(C["b"], C["c"])
        lhs = _pfister((C["a"], s)).perp(_pfister((C["a"], s)))
        return lhs, _pfister((C["a"], s, -1)), "exact-Witt"
    if identity_id == "alpha2":
        n = _pfister((C["a"], C["b"]))
        return n.perp(n), _pfister((C["a"], C["b"], -1)), "exact-Witt"
    if identity_id == "lemma_alpha3_exact":
        a, b, c = C["a"], C["b"], C["c"]
        bc = mul(b, c)
        lhs = _pfister((a, b)).perp(_pfister((a, c))).perp(_pfister((a, bc)))
        rhs = _pfister((a, b, c)).perp(_pfister((a, bc))).perp(_pfister((a, bc)))
        return lhs, rhs, "exact-Witt"
    if identity_id == "lemma_alpha3_modI4":
        a, b, c = C["a"], C["b"], C["c"]
        lhs = _pfister((a, b)).perp(_pfister((a, c))).perp(_pfister((a, mul(b, c))))
        rhs = _pfister((a, b, -c)).perp(_pfister((a, c, -1)))
        return lhs, rhs, "mod-I4"
    if identity_id == "prop_step_Qonetwo":
        a, b, c, d, x = C["a"], C["b"], C["c"], C["d"], C["x"]
        bx, dx = mul(b, x), mul(d, x)
        lhs = (
            _pfister((a, b)).perp(_pfister((c, d))).perp(_pfister((a, bx))).perp(_pfister((c, dx)))
        )
        rhs = _pfister((a, b, x)).perp(_pfister((c, d, -x))).perp(_pfister((a, bx, -1)))
        return lhs, rhs, "mod-I4"
    if identity_id == "alpha4_full":
        a, b, c, d = C["a"], C["b"], C["c"], C["d"]
        w = mul(mul(C["x"], C["y"]), C["z"])
        bw, dw = mul(b, w), mul(d, w)
        lhs = (
            _pfister((a, b)).perp(_pfister((c, d))).perp(_pfister((a, bw))).perp(_pfister((c, dw)))
        )
        rhs = _pfister((a, b, w)).perp(_pfister((c, d, -w))).perp(_pfister((a, bw, -1)))
        return lhs, rhs, "mod-I4"
    raise InputError(
        f"unknown identity {identity_id!r}; available: " + ", ".join(IDENTITY_IDS)
    )


IDENTITY_IDS = (
    "twofold",
    "square_slot",
    "double",
    "alpha2",
    "lemma_alpha3_exact",
    "lemma_alpha3_modI4",
    "prop_step_Qonetwo",
    "alpha4_full",
)


def _sample_for(identity_id: str, rng: SplitMix64) -> tuple[tuple[str, str], ...]:
    def cls():
        return sample_square_class(rng)

    if identity_id == "twofold":
        return (("x", str(cls())), ("y", str(cls())), ("z", str(cls())))
    if identity_id == "square_slot":
        return (("a", str(cls())),)
    if identity_id in ("double", "lemma_alpha3_exact", "lemma_alpha3_modI4"):
        return (("a", str(cls())), ("b", str(cls())), ("c", str(cls())))
    if identity_id == "alpha2":
        return (("a", str(cls())), ("b", str(cls())))
    if identity_id == "prop_step_Qonetwo":
        a, b, c, d = cls(), cls(), cls(), cls()
        x = sample_norm(rng, a * c)
        return (
            ("a", str(a)), ("b", str(b)), ("c", str(c)), ("d", str(d)), ("x", str(x)),
        )
    if identity_id == "alpha4_full":
        # delegate to the chain sampler for a fully constrained configuration
        chain = sample_chain_configuration(rng.next_u64() or 1)
        return chain.sample
    raise InputError(
        f"unknown identity {identity_id!r}; available: " + ", ".join(IDENTITY_IDS)
    )


def verify_case(identity_id: str, sample) -> IdentityCase:
    """Decide one case.  Every entry of both sides is +-1 times a product of
    slot classes, so the odd primes of the slots are the only places where
    the Hasse symbols can differ, and only the slots are factored."""
    classes = {k: square_class(v) for k, v in sample}
    lhs, rhs, level = _case_sides(identity_id, classes)
    places = relevant_places(classes.values())
    if level == "exact-Witt":
        verdict = witt_equivalent(lhs, rhs, places)
    else:
        verdict = in_power_of_i(lhs.perp(rhs.neg()), 4, places)
    return IdentityCase(
        identity_id=identity_id,
        trial=-1,
        seed=-1,
        sample=tuple(sample),
        lhs=lhs.entries,
        rhs=rhs.entries,
        congruence_level=level,
        verdict=verdict,
    )


def verify_identity(identity_id: str, trials: int, seed: int) -> list[IdentityCase]:
    """Run the named identity on deterministically sampled rational slots.

    Every case carries its full sample, so any verdict can be replayed
    bit-for-bit from the report alone.
    """
    if identity_id not in IDENTITY_IDS:
        raise InputError(
            f"unknown identity {identity_id!r}; available: " + ", ".join(IDENTITY_IDS)
        )
    if trials < 1:
        raise InputError("trials must be at least 1")
    rng = SplitMix64((seed << 8) ^ 0x5D)
    cases = []
    for t in range(trials):
        case = verify_case(identity_id, _sample_for(identity_id, rng))
        cases.append(replace(case, trial=t, seed=seed))
    return cases
