"""Quadratic form arithmetic over the rationals: Hilbert symbols, the full
classifying invariant set (dimension, signed discriminant, local Hasse
symbols, signature), Witt equivalence, fundamental-ideal membership, and
randomized verification of the Witt-ring identities behind the degree-3
invariants of quaternion tuples.

Conventions and named assumptions
---------------------------------
* ``_pfisters((a1, .., ak))`` expands ``<<a1, .., ak>>`` of canonical slot
  classes as the tensor product of the binary forms ``<1, -ai>``, so the
  2-fold form is the reduced norm form of the quaternion algebra
  ``(a1, a2)``.
* Ideal-power membership, and with it Witt equivalence over Q, is decided
  on the Witt class: pairs of entries e, -e are cancelled as hyperbolic
  planes, and the complete invariant set of what is left is compared with
  that of the hyperbolic form; correctness rests on the Hasse-Minkowski
  classification of forms over number fields.
* Degree-3 cohomology of Q is a single Z/2 carried by the real place, where
  the Arason value of a form in the third ideal power is ``signature/8 mod 2``,
  so fourth-power membership adds the condition ``signature = 0 mod 16``.
Both assumptions are surfaced in reports and in the package documentation.

Square classes are values
-------------------------
* Slot values are nonzero integers, from the sampler to the decision: a
  rational p/q lies in the square class of the integer p*q, so integer
  representatives reach every class.  A certificate writes a value as its
  integer text.
* A square class is its canonical squarefree integer.  The product of two
  classes is ``(a // g) * (b // g)`` with ``g = gcd(a, b)``, so no class
  carries a prime list.
* Only the sampled slot values of an identity are factored, each once: the
  factoring gives its class and its odd primes of odd exponent.  Every
  entry of a form built from them is +-1 times a product of slot classes,
  so the odd primes of the slots contain every place where its Hasse symbol
  can differ from that of the hyperbolic form.
* The hyperbolic reference h<1, -1> has entries +-1 only, so its Hasse
  symbol is (-1)^C(h, 2) at inf and at 2 and +1 at every odd prime; it is
  written down, not computed.
* A list of pairs, a Brauer relation or the prefix pairs of a form, reads
  one Legendre symbol at an odd place: the symbols of its pairs multiply to
  that of the product of the unit parts whose partner has odd valuation,
  times (-1)^((p-1)/2) for each pair whose two valuations are odd.
* Places are validated once per form or relation, and the symbols of a
  form or relation are then evaluated on integers.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import lru_cache
from math import gcd, prod
from typing import NamedTuple

from ._factor import factorize, is_probable_prime
from .errors import MAX_TRIALS, InputError, InternalInconsistencyError

Place = object  # "inf" or a prime number


# ---------------------------------------------------------------------------
# square classes and Hilbert symbols


def _nonzero(n: int) -> int:
    """``n``, which has a square class only when it is nonzero."""
    if n == 0:
        raise InputError("square classes are defined for nonzero values only")
    return n


def _classes_and_places(values) -> tuple[list[int], tuple]:
    """Canonical square classes of ``values`` and inf, 2 and the odd primes
    dividing one of them, each value factored once: its primes of odd
    exponent give both."""
    classes, primes = [], set()
    for n in map(_nonzero, values):
        odd = [p for p, e in factorize(n) if e % 2]
        classes.append((-1 if n < 0 else 1) * prod(odd))
        primes.update(odd)
    primes.discard(2)
    return classes, ("inf", 2) + tuple(sorted(primes))


def square_class_mul(a: int, b: int) -> int:
    """Product of two canonical square classes: the primes they share square
    away, so the result is squarefree with no factoring."""
    g = gcd(a, b)
    return (a // g) * (b // g)


# An alpha4_full suite at MAX_TRIALS checks 5,062 to 5,195 distinct odd
# places (seeds 1, 2, 3, 7, 11, 12345), so one suite tests each prime once.
@lru_cache(maxsize=8192)
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


def _brauer_bit(pairs, place) -> int:
    """Parity of the sum of the Hilbert-symbol exponents of ``pairs`` at a
    checked place (Serre, A Course in Arithmetic, III.1.2): the one local
    symbol routine.  One pair gives ``hilbert_symbol``, the pairs of a
    quaternion tuple its Brauer relation, and the prefix pairs
    (a_1 ... a_{j-1}, a_j) of a form its Hasse symbol, since the symbol of
    phi + <a> is that of phi times (d phi, a).  With a = p^alpha u and
    b = p^beta v the exponent is [a, b < 0] at inf,
    eps(u) eps(v) + alpha omega(v) + beta omega(u) at 2, and at an odd p
    alpha * beta * (p-1)/2 plus the Legendre bits of u when beta is odd and
    of v when alpha is odd; those bits add up to the bit of the product of
    the unit parts, so one Legendre symbol serves the sum."""
    if place == "inf":
        return sum(1 for a, b in pairs if a < 0 and b < 0) % 2
    if place == 2:
        exp = 0
        for a, b in pairs:
            alpha, u = _local_data(a, 2)
            beta, v = _local_data(b, 2)
            exp += _eps(u) * _eps(v) + alpha * _omega(v) + beta * _omega(u)
        return exp % 2
    p = place
    valuations = 0
    units = 1
    for a, b in pairs:
        if a % p and b % p:
            continue  # both units: exponent 0
        alpha, u = _local_data(a, p)
        beta, v = _local_data(b, p)
        valuations += alpha * beta
        if beta % 2:
            units = units * u % p
        if alpha % 2:
            units = units * v % p
    return (valuations * ((p - 1) // 2) + _legendre_bit(units, p)) % 2


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) of nonzero integers at a place of the rationals.

    Returns +1 when z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion, -1 otherwise.  Symmetric and bimultiplicative.  The local
    formula holds for any valuation, so the arguments are not reduced to
    their square classes.
    """
    _check_place(place)
    return -1 if _brauer_bit([(_nonzero(a), _nonzero(b))], place) else 1


# ---------------------------------------------------------------------------
# diagonal forms and their invariants


class DiagonalForm(NamedTuple):
    """Nondegenerate diagonal quadratic form with canonical squarefree entries."""

    entries: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def perp(self, other: DiagonalForm) -> DiagonalForm:
        return DiagonalForm(self.entries + other.entries)

    def neg(self) -> DiagonalForm:
        return DiagonalForm(tuple(-e for e in self.entries))

    def signature(self) -> int:
        return sum(1 if e > 0 else -1 for e in self.entries)


def _pfisters(*slot_tuples) -> DiagonalForm:
    """Orthogonal sum of the Pfister forms of canonical slot tuples."""
    entries = []
    for classes in slot_tuples:
        block = [1]
        for c in classes:
            block += [square_class_mul(-c, e) for e in block]
        entries += block
    return DiagonalForm(tuple(entries))


class WittInvariants(NamedTuple):
    dimension: int
    signed_discriminant: int
    hasse: tuple[tuple[object, int], ...]
    signature: int


def _hyperbolic_hasse(half_dim: int, places) -> tuple[tuple[object, int], ...]:
    """Hasse family at ``places`` of h<1, -1> with h = ``half_dim``: its
    entries are the units 1 and -1, so it is +1 at every odd prime, and
    C(h, 2) pairs of entries -1 give (-1)^C(h, 2) at inf and at 2."""
    sign = -1 if (half_dim * (half_dim - 1) // 2) % 2 else 1
    return tuple((v, sign if v in ("inf", 2) else 1) for v in places)


def witt_invariants(f: DiagonalForm, places) -> WittInvariants:
    """Dimension, signed discriminant, Hasse symbol family at ``places``, and
    signature.

    The Hasse symbols are those of the prefix pairs (a_1 ... a_{j-1}, a_j),
    whose first slots are running products of square classes; the last
    product gives the signed discriminant.  Each place is checked once.
    """
    m = f.dim
    pairs, d = [], 1
    for e in f.entries:
        pairs.append((d, e))
        d = square_class_mul(d, e)
    signed = d if (m * (m - 1) // 2) % 2 == 0 else -d
    for v in places:
        _check_place(v)
    hasse = tuple((v, -1 if _brauer_bit(pairs, v) else 1) for v in places)
    return WittInvariants(m, signed, hasse, f.signature())


def witt_equivalent(f: DiagonalForm, g: DiagonalForm, places) -> bool:
    """Exact equality in the Witt group: f + (-g) is hyperbolic, that is in
    the third ideal power with signature 0, since the hyperbolic form of
    equal rank has signed discriminant 1 and signature 0.  ``places`` is as
    in :func:`in_power_of_i`, for the entries of both forms."""
    h = f.perp(g.neg())
    return in_power_of_i(h, 3, places) and h.signature() == 0


def _cancel_hyperbolic_planes(f: DiagonalForm) -> DiagonalForm:
    """f with every pair of entries e, -e cancelled: each pair is a
    hyperbolic plane, so the result lies in the Witt class of f."""
    counts = Counter(f.entries)
    kept = []
    for e, m in counts.items():
        kept += [e] * (m - counts.get(-e, 0))
    return DiagonalForm(tuple(kept))


def in_power_of_i(f: DiagonalForm, n: int, places) -> bool:
    """Membership of the Witt class in the n-th power of the fundamental
    ideal, for n up to 4.

    Membership depends only on the Witt class, so the invariants are those
    of f with its pairs of entries e, -e cancelled.  n=1 is even dimension;
    n=2 adds trivial signed discriminant; n=3 adds a Hasse family matching
    the hyperbolic reference everywhere (trivial Clifford invariant); n=4
    adds signature divisible by 16, which is the vanishing of the degree-3
    cohomology class at the real place.  ``places`` must include every odd
    prime dividing an entry of ``f``; extra places are harmless, since there
    both f and the hyperbolic reference have Hasse symbol +1.
    """
    if n not in (1, 2, 3, 4):
        raise InputError("only ideal powers 1 through 4 are supported")
    if f.dim % 2:
        return False
    f = _cancel_hyperbolic_planes(f)
    inv = witt_invariants(f, places)
    if n == 1:
        return True
    if inv.signed_discriminant != 1:
        return False
    if n == 2:
        return True
    if inv.hasse != _hyperbolic_hasse(f.dim // 2, places):
        return False
    if n == 3:
        return True
    return inv.signature % 16 == 0


# ---------------------------------------------------------------------------
# quaternion tuples


def brauer_relation_holds(pairs, places) -> bool:
    """Whether the quaternions (a, b) of the nonzero integer ``pairs`` sum to
    zero in the Brauer group: at every relevant place the product of local
    symbols is +1.  ``places`` must include every odd prime dividing a
    slot."""
    for v in places:
        _check_place(v)
    return not any(_brauer_bit(pairs, v) for v in places)


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


def sample_norm(rng: SplitMix64, radicand: int) -> int:
    """Nonzero value of the form u^2 - radicand * v^2, in at most 64 draws."""
    for _ in range(64):
        u = rng.randint(1, 9)
        v = rng.randint(1, 9)
        x = u * u - radicand * v * v
        if x != 0:
            return x
    raise InternalInconsistencyError("norm sampling failed to find a nonzero value")


def sample_chain_configuration(seed: int) -> tuple[tuple[str, int], ...]:
    """Sample of the slots a, b, c, d, x, y, z of the quaternions (a, b),
    (c, d), (a, b w), (c, d w) with w = x y z, whose Brauer sum vanishes and
    whose biquaternion chain constraints hold by construction.

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
    (A, B, C, D, X, Y, Z), places = _classes_and_places(slots)
    mul = square_class_mul
    w = mul(mul(X, Y), Z)
    quats = ((A, B), (C, D), (A, mul(B, w)), (C, mul(D, w)))
    # every slot of the quaternions is a product of the sampled classes
    if not brauer_relation_holds(quats, places):
        raise InternalInconsistencyError("constructed chain violates the Brauer relation")
    for radicand in (x, y, z):
        if hilbert_symbol(ac, radicand, 2) != 1:
            # norms are split everywhere by construction; spot check
            raise InternalInconsistencyError("norm slot fails its local check")
    return tuple(zip("abcdxyz", slots))


# ---------------------------------------------------------------------------
# identity suites


class IdentityCase(NamedTuple):
    identity_id: str
    trial: int
    seed: int
    sample: tuple[tuple[str, int], ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    congruence_level: str  # "exact-Witt" or "mod-I4"
    verdict: bool


def _doubled(a: int, s: int):
    """<<a, s>> twice against <<a, s, -1>>."""
    return _pfisters((a, s), (a, s)), _pfisters((a, s, -1))


def _alpha3(a: int, b: int, c: int, *rhs):
    """<<a, b>> + <<a, c>> + <<a, bc>> against a sum of Pfister forms."""
    return _pfisters((a, b), (a, c), (a, square_class_mul(b, c))), _pfisters(*rhs)


def _linked(a: int, b: int, c: int, d: int, w: int):
    """Both sides of a chain identity with linking class w: w = x in
    prop_step_Qonetwo and w = x*y*z in alpha4_full."""
    bw, dw = square_class_mul(b, w), square_class_mul(d, w)
    lhs = _pfisters((a, b), (c, d), (a, bw), (c, dw))
    return lhs, _pfisters((a, b, w), (c, d, -w), (a, bw, -1))


def _sample_linked(rng: SplitMix64) -> tuple[tuple[str, int], ...]:
    """Square classes a, b, c, d and a norm x from the extension by a*c."""
    a, b, c, d = (sample_square_class(rng) for _ in "abcd")
    return tuple(zip("abcdx", (a, b, c, d, sample_norm(rng, a * c))))


class _Identity(NamedTuple):
    """One Witt identity: ``sides`` maps the canonical classes of the slots,
    in the order of ``slots``, to both sides as diagonal forms, and ``draw``
    samples the slots when they are not independent square classes."""

    identity_id: str
    slots: str
    level: str  # "exact-Witt" or "mod-I4"
    sides: Callable
    draw: Callable[[SplitMix64], tuple[tuple[str, int], ...]] | None = None

    def sample(self, rng: SplitMix64) -> tuple[tuple[str, int], ...]:
        if self.draw is not None:
            return self.draw(rng)
        return tuple((k, sample_square_class(rng)) for k in self.slots)


_IDENTITIES = (
    _Identity("twofold", "xyz", "exact-Witt", lambda x, y, z: (
        _pfisters((x, y), (x, z)), _pfisters((x, y, z), (x, square_class_mul(y, z))))),
    _Identity("square_slot", "a", "exact-Witt", lambda a: (_pfisters((a, a)), _pfisters((a, -1)))),
    _Identity("double", "abc", "exact-Witt", lambda a, b, c: _doubled(a, square_class_mul(b, c))),
    _Identity("alpha2", "ab", "exact-Witt", _doubled),
    _Identity("lemma_alpha3_exact", "abc", "exact-Witt", lambda a, b, c: _alpha3(
        a, b, c, (a, b, c), (a, square_class_mul(b, c)), (a, square_class_mul(b, c)))),
    _Identity("lemma_alpha3_modI4", "abc", "mod-I4", lambda a, b, c: _alpha3(
        a, b, c, (a, b, -c), (a, c, -1))),
    _Identity("prop_step_Qonetwo", "abcdx", "mod-I4", _linked, _sample_linked),
    # the chain sampler gives a fully constrained configuration
    _Identity("alpha4_full", "abcdxyz", "mod-I4", lambda a, b, c, d, x, y, z: _linked(
        a, b, c, d, square_class_mul(square_class_mul(x, y), z)),
        lambda rng: sample_chain_configuration(rng.next_u64() or 1)),
)

IDENTITY_IDS = tuple(row.identity_id for row in _IDENTITIES)


def _identity(identity_id: str) -> _Identity:
    for row in _IDENTITIES:
        if row.identity_id == identity_id:
            return row
    raise InputError(
        f"unknown identity {identity_id!r}; available: " + ", ".join(IDENTITY_IDS)
    )


def verify_case(identity_id: str, sample, trial: int = -1, seed: int = -1) -> IdentityCase:
    """Decide one case, numbered ``trial`` of the suite run with ``seed``.
    Every entry of both sides is +-1 times a product of slot classes, so the
    odd primes of the slots are the only places where the Hasse symbols can
    differ, and only the slots are factored, each once."""
    values, places = _classes_and_places(v for _, v in sample)
    classes = dict(zip((k for k, _ in sample), values))
    row = _identity(identity_id)
    lhs, rhs = row.sides(*(classes[k] for k in row.slots))
    if row.level == "exact-Witt":
        verdict = witt_equivalent(lhs, rhs, places)
    else:
        verdict = in_power_of_i(lhs.perp(rhs.neg()), 4, places)
    return IdentityCase(
        identity_id, trial, seed, tuple(sample), lhs.entries, rhs.entries, row.level, verdict
    )


def verify_identity(identity_id: str, trials: int, seed: int) -> list[IdentityCase]:
    """Run the named identity on deterministically sampled integer slots.

    Every case carries its full sample, so any verdict can be replayed
    bit-for-bit from the report alone.
    """
    row = _identity(identity_id)
    if not 1 <= trials <= MAX_TRIALS:
        raise InputError(f"trials must be between 1 and {MAX_TRIALS}")
    rng = SplitMix64((seed << 8) ^ 0x5D)
    return [verify_case(identity_id, row.sample(rng), t, seed) for t in range(trials)]
