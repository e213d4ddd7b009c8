import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdinv.certificate import _SAMPLE_TEXT
from sdinv.exactlin import InputError
from sdinv.wittq import (
    IDENTITY_IDS,
    DiagonalForm,
    SplitMix64,
    _brauer_bit,
    _classes_and_places,
    _hyperbolic_hasse,
    _pfisters,
    brauer_relation_holds,
    hilbert_symbol,
    in_power_of_i,
    sample_chain_configuration,
    sample_square_class,
    square_class_mul,
    verify_case,
    verify_identity,
    witt_equivalent,
    witt_invariants,
)


# --- helpers: the package takes canonical classes and the places read off
# the factored slots; tests build both from raw values here -------------------------


def integer(value) -> int:
    """Numerator times denominator of a nonzero rational: an integer in its
    square class, the values the package takes."""
    f = Fraction(value)
    return f.numerator * f.denominator


def square_class(value) -> int:
    """Canonical squarefree integer representative of a rational square class."""
    return _classes_and_places([integer(value)])[0][0]


def relevant_places(entries) -> tuple:
    """inf, 2, and every odd prime dividing a canonical entry."""
    return _classes_and_places(set(entries))[1]


def places_of(*forms) -> tuple:
    """The relevant places of the entries of ``forms``, each entry factored."""
    return relevant_places([e for f in forms for e in f.entries])


def form_of(values) -> DiagonalForm:
    """The diagonal form of the square classes of rational ``values``."""
    return DiagonalForm(tuple(square_class(v) for v in values))


def pfister(slots) -> DiagonalForm:
    """k-fold Pfister form <<a1, ..., ak>> of rational slots."""
    return _pfisters([square_class(s) for s in slots])


def hasse_at(inv, place) -> int:
    """The Hasse symbol of ``inv`` at ``place``: +1 off its family."""
    return dict(inv.hasse).get(place, 1)


def is_hyperbolic(f: DiagonalForm) -> bool:
    """Whether f is Witt equivalent to the zero form."""
    return witt_equivalent(f, DiagonalForm(()), places_of(f))


# --- oracles ---------------------------------------------------------------------


def hyperbolic(half_dim: int) -> DiagonalForm:
    """The hyperbolic form h<1, -1> with h = ``half_dim``."""
    return DiagonalForm((1, -1) * half_dim)


def hilbert2_oracle(a: int, b: int) -> int:
    """Exhaustive solvability of z^2 = a x^2 + b y^2 over the 2-adics.

    Searches primitive solutions modulo 2^7; for squarefree coefficients a
    primitive approximate solution at that precision lifts by Hensel's lemma
    and conversely.
    """
    mod = 2 ** 7
    for x in range(mod):
        for y in range(mod):
            for z in range(mod):
                if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                    continue
                if (z * z - a * x * x - b * y * y) % mod == 0:
                    return 1
    return -1


def legendre_oracle(u: int, p: int) -> int:
    return 1 if any((t * t - u) % p == 0 for t in range(1, p)) else -1


def hasse_oracle_pairwise(f: DiagonalForm, place) -> int:
    """Literal product over pairs i < j of the symbols of ``_hilbert_bit``,
    which shares no code with the package."""
    bits = sum(_hilbert_bit(a, b, place) for a, b in combinations(f.entries, 2))
    return -1 if bits % 2 else 1


def hyperbolic_oracle(f: DiagonalForm, places=None) -> bool:
    """Full invariant comparison against the hyperbolic form of equal rank."""
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


def ideal_power_oracle(f: DiagonalForm, n: int) -> bool:
    """Membership in I^n from the invariants of f itself, with no hyperbolic
    plane cancelled, against those of the hyperbolic form of equal rank."""
    if f.dim % 2:
        return False
    places = relevant_places(f.entries)
    mine = witt_invariants(f, places)
    ref = witt_invariants(hyperbolic(f.dim // 2), places)
    conditions = (
        mine.signed_discriminant == ref.signed_discriminant,
        mine.hasse == ref.hasse,
        mine.signature % 16 == 0,
    )
    return all(conditions[: n - 1])


def _valuation_and_unit(a: int, p: int) -> tuple[int, int]:
    v = 0
    while a % p == 0:
        a, v = a // p, v + 1
    return v, a


def _hilbert_bit(a: int, b: int, place) -> int:
    """Serre's local formula for one pair (A Course in Arithmetic, III.1.2):
    0 when the Hilbert symbol of the nonzero integers a and b at a place is
    +1, 1 when it is -1.  eps and omega are taken from their definitions and
    the Legendre symbol by search, not from the package's helpers."""
    if place == "inf":
        return 1 if (a < 0 and b < 0) else 0
    p = place
    alpha, u = _valuation_and_unit(a, p)
    beta, v = _valuation_and_unit(b, p)
    if p == 2:
        def eps(w):
            return (w - 1) // 2

        def omega(w):
            return (w * w - 1) // 8

        exp = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
    else:
        exp = alpha * beta * ((p - 1) // 2)
        if beta % 2:
            exp += legendre_oracle(u, p) == -1
        if alpha % 2:
            exp += legendre_oracle(v, p) == -1
    return exp % 2


def brauer_oracle(pairs, place) -> int:
    """Parity of the sum of the pairwise Hilbert-symbol exponents."""
    return sum(_hilbert_bit(a, b, place) for a, b in pairs) % 2


def test_hilbert_golden_values():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(1, 7, "inf") == 1
    assert hilbert_symbol(1, -5, 2) == 1
    assert hilbert_symbol(-1, -1, 2) == -1


def test_hilbert_at_two_matches_exhaustive_oracle():
    pairs = [(-1, -1), (2, 3), (3, 3), (-2, 5), (6, -10), (2, 2), (15, 14), (7, -7)]
    for a, b in pairs:
        assert hilbert_symbol(a, b, 2) == hilbert2_oracle(a, b), (a, b)


def test_hilbert_at_odd_prime_matches_legendre_oracle():
    for p in (3, 5, 7, 11):
        for u in range(1, p):
            assert hilbert_symbol(p, u, p) == legendre_oracle(u, p), (p, u)


def test_hilbert_rejects_bad_place():
    with pytest.raises(InputError):
        hilbert_symbol(2, 3, 4)
    with pytest.raises(InputError):
        hilbert_symbol(0, 3, 2)


@pytest.mark.parametrize("place", [9, 15, 4])
def test_composite_places_are_rejected(place):
    with pytest.raises(InputError, match="odd prime"):
        hilbert_symbol(3, 2, place)
    with pytest.raises(InputError, match="odd prime"):
        hilbert_symbol(2, 3, place)
    with pytest.raises(InputError, match="odd prime"):
        witt_invariants(form_of((3, 2, -6)), (place,))
    with pytest.raises(InputError, match="odd prime"):
        in_power_of_i(form_of((3, -3)), 3, ("inf", 2, place))


rationals = st.fractions(
    min_value=Fraction(-60), max_value=Fraction(60), max_denominator=30
).filter(lambda f: f != 0)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals)
def test_hilbert_symmetry_and_product_formula(a, b):
    ca, cb = square_class(a), square_class(b)
    places = relevant_places((ca, cb))
    prod = 1
    for v in places:
        s = hilbert_symbol(integer(a), integer(b), v)
        assert s == hilbert_symbol(integer(b), integer(a), v)
        prod *= s
    assert prod == 1


@settings(max_examples=80, deadline=None)
@given(rationals, rationals)
def test_hilbert_on_raw_rationals_matches_square_classes(a, b):
    ca, cb = square_class(a), square_class(b)
    for v in relevant_places((ca, cb)) + (3, 5, 7):
        assert hilbert_symbol(integer(a), integer(b), v) == hilbert_symbol(ca, cb, v)


@settings(max_examples=50, deadline=None)
@given(rationals, rationals, rationals)
def test_hilbert_bimultiplicative(a, b, c):
    a, b, c, ac = integer(a), integer(b), integer(c), integer(a * c)
    for v in ("inf", 2, 3, 5, 7):
        assert hilbert_symbol(ac, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v)


# --- square classes -----------------------------------------------------------------


def test_square_class_examples():
    assert square_class(Fraction(8, 9)) == 2
    assert square_class(-12) == -3
    assert square_class(Fraction(1, 2)) == 2


@settings(max_examples=60, deadline=None)
@given(rationals, rationals)
def test_square_class_mul_matches_direct(a, b):
    assert square_class_mul(square_class(a), square_class(b)) == square_class(a * b)


# Sample text the certificate checker reads: ASCII integer text.
_CHECKER_READS = {"7", "+7", "-07"}


@pytest.mark.parametrize("text", ["7", " 7 ", "+7", "-07", "1_0", "\u0663", "3/4", "-9/8"])
def test_square_class_of_text_matches_fraction(text):
    """Sample text reaches a square class only through the certificate
    checker, which reads integer text with ``int`` and refuses any other
    text; what it reads is in the class of ``Fraction(text)``."""
    read = _SAMPLE_TEXT.fullmatch(text) is not None
    assert read == (text in _CHECKER_READS)
    if read:
        assert square_class(int(text)) == square_class(Fraction(text))


def test_square_class_of_bad_text_raises_as_fraction_does():
    with pytest.raises(InputError, match="nonzero"):
        square_class("0")
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'x'"):
        square_class("x")
    assert _SAMPLE_TEXT.fullmatch("x") is None


def test_small_prime_table_matches_trial_division():
    from sdinv._factor import _SMALL_PRIMES

    assert _SMALL_PRIMES == tuple(
        p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))
    )


# --- forms and invariants ------------------------------------------------------------


def test_pfister_expansion_convention():
    assert pfister((2, 3)).entries == (1, -2, -3, 6)
    assert pfister((-1, -1)).entries == (1, 1, 1, 1)
    assert pfister((-1, -1, -1)).dim == 8
    assert pfister((-1, -1, -1)).signature() == 8


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, max_size=5))
def test_canonical_slot_pfister_matches_expansion(slots):
    classes = [square_class(s) for s in slots]
    # entry j is the product of -slot_i over the bits i of j, classed directly
    oracle = tuple(
        square_class(math.prod((-s for i, s in enumerate(slots) if j >> i & 1), start=Fraction(1)))
        for j in range(2 ** len(slots))
    )
    assert _pfisters(classes).entries == oracle


def test_quaternion_norm_form():
    assert _pfisters((2, 3)).entries == (1, -2, -3, 6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_norm_form_is_written_out_from_its_slots(seed):
    """The norm form of (a, b) is <1, -a, -b, ab>, for sampled square classes."""
    rng = SplitMix64(seed)
    a, b = sample_square_class(rng), sample_square_class(rng)
    expected = DiagonalForm((1, -a, -b, square_class_mul(a, b)))
    assert _pfisters((a, b)) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4))
def test_symbols_outside_relevant_places_trivial(vals):
    f = form_of(vals)
    places = relevant_places(f.entries)
    # the next few odd primes beyond the relevant set carry symbol +1
    fresh = []
    p = max([q for q in places if q != "inf"]) if len(places) > 1 else 2
    while len(fresh) < 2:
        p += 1
        from sdinv._factor import is_probable_prime

        if p % 2 and is_probable_prime(p) and p not in places:
            fresh.append(p)
    inv = witt_invariants(f, tuple(fresh))
    assert all(hasse_at(inv, q) == 1 for q in fresh)


def test_witt_invariants_hyperbolic_plane():
    f = form_of((1, -1))
    inv = witt_invariants(f, places_of(f))
    assert inv.dimension == 2
    assert inv.signed_discriminant == 1
    assert inv.signature == 0


def test_witt_invariants_four_ones():
    f = pfister((-1, -1))
    inv = witt_invariants(f, places_of(f))
    assert inv.signature == 4
    assert inv.signed_discriminant == 1
    assert hasse_at(inv, "inf") == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=6))
def test_hasse_prefix_sums_match_pairwise_oracle(vals):
    f = form_of(vals)
    for v in relevant_places(f.entries)[:5]:
        inv = witt_invariants(f, (v,))
        assert hasse_at(inv, v) == hasse_oracle_pairwise(f, v)


# Square classes from -1 and the primes up to 11, with at most two primes.
_CLASSES = sorted({
    sign * math.prod(ps) for sign in (1, -1) for k in range(3)
    for ps in combinations((2, 3, 5, 7, 11), k)
})
# (class, multiplicity) blocks of a form with repeated entries
_BLOCKS = st.lists(st.tuples(st.sampled_from(_CLASSES), st.integers(1, 4)), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(_BLOCKS, st.randoms(use_true_random=False))
def test_hasse_of_repeated_entries_matches_pairwise_oracle(blocks, random):
    entries = [c for c, m in blocks for _ in range(m)]
    random.shuffle(entries)
    f = DiagonalForm(tuple(entries))
    places = relevant_places(f.entries)
    inv = witt_invariants(f, places)
    for v in places:
        assert hasse_at(inv, v) == hasse_oracle_pairwise(f, v), v


@settings(max_examples=80, deadline=None)
@given(_BLOCKS, st.randoms(use_true_random=False))
def test_signed_discriminant_of_repeated_entries_is_the_signed_product(blocks, random):
    entries = [c for c, m in blocks for _ in range(m)]
    random.shuffle(entries)
    m = len(entries)
    f = DiagonalForm(tuple(entries))
    inv = witt_invariants(f, places_of(f))
    assert inv.signed_discriminant == square_class((-1) ** (m * (m - 1) // 2) * math.prod(entries))


def test_closed_form_hyperbolic_reference():
    places = ("inf", 2, 3, 5, 7, 11, 13)
    for h in range(1, 17):
        assert _hyperbolic_hasse(h, places) == witt_invariants(hyperbolic(h), places).hasse, h


def test_e2_consistency_norm_forms():
    # image of the norm form under the degree-2 invariant is the symbol class
    rng = SplitMix64(11)
    for _ in range(25):
        a = sample_square_class(rng)
        b = sample_square_class(rng)
        nq = _pfisters((a, b))
        places = relevant_places(nq.entries)
        ref = witt_invariants(hyperbolic(2), places)
        inv = witt_invariants(nq, places)
        for v in places:
            assert hasse_at(inv, v) * hasse_at(ref, v) == hilbert_symbol(a, b, v)


# --- witt equivalence ------------------------------------------------------------------


def test_witt_equivalent_reflexive():
    f = form_of((2, -3, 5))
    assert witt_equivalent(f, f, places_of(f))


def test_witt_twofold_identity_at_2_3_5():
    lhs = pfister((2, 3)).perp(pfister((2, 5)))
    rhs = pfister((2, 3, 5)).perp(pfister((2, 15)))
    assert witt_equivalent(lhs, rhs, places_of(lhs, rhs))


def test_witt_distinguishes_signatures():
    f, g = form_of((1, 1)), form_of((1, -1))
    assert not witt_equivalent(f, g, places_of(f, g))


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=5))
def test_f_perp_minus_f_hyperbolic(vals):
    f = form_of(vals)
    assert is_hyperbolic(f.perp(f.neg()))
    assert witt_equivalent(f, f, places_of(f))


# few square classes, so that f + (-g) is often hyperbolic
small_classes = st.lists(
    st.sampled_from((1, -1, 2, -2, 3, -3, 6, -6, 5, -5, 10, -10, 15, -15)), max_size=6
)


@settings(max_examples=200, deadline=None)
@given(small_classes, small_classes, st.booleans())
@example([1, 2], [2, 1], False)  # hyperbolic
@example([1, 1, 1, 1], [-1, -1, -1, -1], False)  # in I^3 with signature 8
@example([3, 5, -15], [1], True)  # minus the norm form of the division algebra (3, 5)
def test_is_hyperbolic_matches_invariant_comparison(a, b, extra_places):
    f, g = form_of(a), form_of(b)
    h = f.perp(g.neg())
    places = places_of(h) + ((7, 11) if extra_places else ())
    assert witt_equivalent(f, g, places) == hyperbolic_oracle(h, places)


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=3), st.lists(rationals, min_size=1, max_size=3))
def test_witt_equivalent_symmetric(a, b):
    f, g = form_of(a), form_of(b)
    places = places_of(f, g)
    assert witt_equivalent(f, g, places) == witt_equivalent(g, f, places)


def test_odd_dimension_never_equivalent():
    f, g = form_of((1,)), form_of((1, -1))
    assert not witt_equivalent(f, g, places_of(f, g))


def _slot_word(data, classes):
    """+-1 times the class of a random product of slots."""
    out = data.draw(st.sampled_from((1, -1)))
    for c in classes:
        if data.draw(st.booleans()):
            out = square_class_mul(out, c)
    return out


def _slot_form(data, classes):
    """Sum of Pfister forms and diagonal forms whose slots are slot words."""
    form = DiagonalForm(())
    for _ in range(data.draw(st.integers(1, 3))):
        words = [_slot_word(data, classes) for _ in range(data.draw(st.integers(1, 3)))]
        term = _pfisters(words) if data.draw(st.booleans()) else DiagonalForm(tuple(words))
        form = form.perp(term)
    return form


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4), st.data())
def test_slot_places_give_the_same_verdicts(slots, data):
    classes = [square_class(s) for s in slots]
    places = relevant_places(classes)
    f = _slot_form(data, classes)
    g = _slot_form(data, classes)
    for n in (1, 2, 3, 4):
        assert in_power_of_i(f, n, places) == in_power_of_i(f, n, places_of(f))
    assert witt_equivalent(f, g, places) == witt_equivalent(f, g, places_of(f, g))
    assert witt_equivalent(f, f, places)


# --- hyperbolic planes cancelled -------------------------------------------------------


def _with_planted_pairs(data, base):
    """``base`` with pairs e, -e of classes from ``_CLASSES`` mixed in."""
    entries = list(base)
    for e in data.draw(st.lists(st.sampled_from(_CLASSES), max_size=4)):
        entries += [e, -e]
    return DiagonalForm(tuple(data.draw(st.permutations(entries))))


def test_planted_planes_leave_a_pfister_form_in_its_power():
    # <<-1, -1, -1>> has signature 8: in I^3, not in I^4, not hyperbolic
    f = DiagonalForm((3, 1, -3, 1, 5, 1, -5, 1, 1, 1, 1, 1))
    assert [in_power_of_i(f, n, places_of(f)) for n in (1, 2, 3, 4)] == [True, True, True, False]
    assert not is_hyperbolic(f)
    assert is_hyperbolic(DiagonalForm((3, -3, 5, -5, -3, 3)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_CLASSES), max_size=6), st.data())
def test_cancelled_planes_keep_every_verdict(base, data):
    f = _with_planted_pairs(data, base)
    for n in (1, 2, 3, 4):
        assert in_power_of_i(f, n, places_of(f)) == ideal_power_oracle(f, n), n
    assert is_hyperbolic(f) == hyperbolic_oracle(f)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_CLASSES), max_size=5), st.data())
def test_isometry_with_planted_pairs_matches_invariant_comparison(base, data):
    f = _with_planted_pairs(data, base)
    other = data.draw(st.lists(st.sampled_from(_CLASSES), max_size=2))
    g = _with_planted_pairs(data, base[len(other):] + other)
    # by Witt cancellation, forms of equal dimension are isometric exactly
    # when they are Witt equivalent
    expected = hyperbolic_oracle(f.perp(g.neg()))
    assert witt_equivalent(f, g, places_of(f, g)) == expected


def test_cancelled_forms_still_report_their_own_invariants():
    f = DiagonalForm((3, -3, 5, 1, -1))
    inv = witt_invariants(f, places_of(f))
    assert inv.dimension == 5
    assert inv.signature == 1
    assert hasse_at(inv, 3) == hasse_oracle_pairwise(f, 3)


# --- one Legendre symbol per place in a Brauer relation ----------------------------------

# signed values with repeated small primes, so that many are divisible by a
# place, some by its square, and few are squarefree
_RAW = st.tuples(
    st.sampled_from((1, -1)),
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=5),
    st.integers(1, 40),
).map(lambda t: t[0] * math.prod(t[1]) * t[2])
_PLACES = st.sampled_from(("inf", 2, 3, 5, 7, 11, 13))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_RAW, _RAW), min_size=1, max_size=5), _PLACES)
@example([(3, 3)], 3)  # (p, p) = (p, -1): a pair of odd valuations
@example([(9, 5), (18, 3)], 3)  # even valuation, then a unit against 3
def test_one_pass_brauer_sum_matches_pairwise_symbols(pairs, place):
    assert _brauer_bit(pairs, place) == brauer_oracle(pairs, place)


# signed values with valuations 0 to 3 at each of 2..13, times a unit there
_VALUED = st.tuples(
    st.sampled_from((1, -1)),
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
    st.sampled_from((1, 17, 19, 23, 29, 31, 37, 41)),
).map(lambda t: t[0] * math.prod(p**e for p, e in zip((2, 3, 5, 7, 11, 13), t[1])) * t[2])


@settings(max_examples=400, deadline=None)
@given(_VALUED, _VALUED, _PLACES)
@example(-8, -27, 2)
@example(-125, 3, 5)
def test_hilbert_symbol_matches_pairwise_oracle(a, b, place):
    assert hilbert_symbol(a, b, place) == (-1 if _hilbert_bit(a, b, place) else 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RAW, _RAW), min_size=1, max_size=4))
def test_brauer_relation_matches_pairwise_symbols(pairs):
    places = relevant_places([square_class(x) for pair in pairs for x in pair])
    expected = all(brauer_oracle(pairs, v) == 0 for v in places)
    assert brauer_relation_holds(pairs, places) == expected
    # a tuple next to its own copy always sums to zero
    assert brauer_relation_holds(pairs + pairs, places)


# --- ideal powers ----------------------------------------------------------------------


def test_hyperbolic_in_all_powers():
    h = hyperbolic(1)
    for n in (1, 2, 3, 4):
        assert in_power_of_i(h, n, places_of(h))


def test_three_fold_pfister_in_i3():
    f, g = pfister((2, 3, 5)), pfister((-1, -1, -1))
    assert in_power_of_i(f, 3, places_of(f))
    assert in_power_of_i(g, 3, places_of(g))
    assert not in_power_of_i(g, 4, places_of(g))


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4))
def test_pfister_in_matching_power(slots):
    form = pfister(slots)
    assert in_power_of_i(form, min(len(slots), 4), places_of(form))


def test_power_chain_monotone():
    rng = SplitMix64(3)
    for _ in range(20):
        f = form_of([sample_square_class(rng) for _ in range(4)])
        flags = [in_power_of_i(f, n, places_of(f)) for n in (1, 2, 3, 4)]
        for lower, higher in zip(flags, flags[1:]):
            assert lower or not higher


# --- chain configurations ------------------------------------------------------------------


def test_chain_configuration_norm_example():
    # (a, c) = (2, 3), (u, v) = (5, 1): x = 25 - 6 = 19 and (6, 19) splits
    for v in relevant_places((6, 19)):
        assert hilbert_symbol(6, 19, v) == 1


@pytest.mark.parametrize("seed", [1, 2, 3, 9, 77])
def test_chain_configuration_brauer_relation(seed):
    """From the sample alone: the quaternions (A, B), (C, D), (A, B w),
    (C, D w) with w = X Y Z, built from the seven sampled classes, sum to
    zero at every relevant place, and the norms x, y, z from the extension by
    ac satisfy (ac, x) = (ac, y) = (ac, z) = 1 at every place, not only at 2,
    where the sampler spot-checks them."""
    sample = sample_chain_configuration(seed)
    assert [k for k, _ in sample] == list("abcdxyz")
    values = [v for _, v in sample]
    # inf, 2 and every odd prime dividing a slot: at any other prime each
    # symbol below has two unit arguments and is +1
    (A, B, C, D, X, Y, Z), places = _classes_and_places(values)
    w = square_class_mul(square_class_mul(X, Y), Z)
    quats = [(A, B), (C, D), (A, square_class_mul(B, w)), (C, square_class_mul(D, w))]
    assert brauer_relation_holds(quats, places)
    for v in places:
        assert brauer_oracle(quats, v) == 0, v
        for norm in values[4:]:
            assert _hilbert_bit(values[0] * values[2], norm, v) == 0, (norm, v)


def test_chain_configuration_reproducible():
    a = sample_chain_configuration(42)
    b = sample_chain_configuration(42)
    assert a == b


def test_chain_same_first_slots_degenerate():
    sample = sample_chain_configuration(1)
    (A, B, C, D, X, Y, Z), places = _classes_and_places([v for _, v in sample])
    w = square_class_mul(square_class_mul(X, Y), Z)
    quats = [(A, B), (C, D), (A, square_class_mul(B, w)), (C, square_class_mul(D, w))]
    # relation reduces along shared slots: (A, B) + (A, B w) = (A, w) and
    # (C, D) + (C, D w) = (C, w), so the four quaternions sum to (A C, w),
    # which splits at every place because w is a norm from the extension by ac
    reduced = [(square_class_mul(A, C), w)]
    for v in places:
        assert _brauer_bit(quats, v) == _brauer_bit(reduced, v), v
    assert brauer_relation_holds(reduced, places)
    assert brauer_relation_holds(quats, places)


# --- identities --------------------------------------------------------------------------


def test_identity_registry_complete():
    assert len(IDENTITY_IDS) == 8


@pytest.mark.parametrize("identity", IDENTITY_IDS)
def test_identity_fifty_trials(identity):
    cases = verify_identity(identity, 50, 1)
    assert len(cases) == 50
    assert all(c.verdict for c in cases)


def test_identity_trivial_slots_hyperbolic():
    case = verify_case("twofold", (("x", 2), ("y", 1), ("z", 1)))
    assert case.verdict
    assert is_hyperbolic(DiagonalForm(case.lhs).perp(DiagonalForm(case.rhs).neg()))


def test_identity_alpha2_all_minus_one():
    case = verify_case("alpha2", (("a", -1), ("b", -1)))
    assert case.verdict
    assert DiagonalForm(case.rhs).signature() == 8


def test_identity_reproducible_bit_for_bit():
    a = verify_identity("alpha4_full", 5, 3)
    b = verify_identity("alpha4_full", 5, 3)
    assert a == b


def test_identity_unknown_id():
    with pytest.raises(InputError, match="twofold"):
        verify_identity("nope", 1, 1)
    with pytest.raises(InputError):
        verify_identity("twofold", 0, 1)


def test_identity_cases_carry_replayable_samples():
    for case in verify_identity("prop_step_Qonetwo", 5, 2):
        replay = verify_case(case.identity_id, case.sample)
        assert replay.verdict == case.verdict
        assert replay.lhs == case.lhs and replay.rhs == case.rhs


# --- albert forms: the decisions on forms no identity builds -----------------------


def albert_comparison(a, b, c, d, q) -> tuple[bool, bool]:
    """Whether q is a similarity factor of the Albert form
    <a, b, -ab, -c, -d, cd>, decided by Witt equivalence of the scaled form
    with the form itself (equal dimensions, so isometry), and whether the
    degree-3 class of the biquaternion pair cupped with q vanishes at the
    real place, decided by fourth-power membership of the cup form.  The two
    agree by the similarity-factor theorem for Albert forms together with the
    real-place principle for degree-3 cohomology of Q."""
    a, b, c, d, q = (square_class(t) for t in (a, b, c, d, q))
    places = relevant_places((a, b, c, d, q))
    phi = DiagonalForm((a, b, -square_class_mul(a, b), -c, -d, square_class_mul(c, d)))
    scaled = DiagonalForm(tuple(square_class_mul(q, e) for e in phi.entries))
    cup = _pfisters((a, b, q)).perp(_pfisters((c, d, q)).neg())
    assert in_power_of_i(cup, 3, places)
    assert cup.signature() % 8 == 0
    return witt_equivalent(scaled, phi, places), in_power_of_i(cup, 4, places)


def test_albert_identity_scaling():
    similar, _ = albert_comparison(2, 3, 5, 7, 1)
    assert similar


def test_albert_negative_scaling_definite_mismatch():
    similar, real_cup_vanishes = albert_comparison(-1, -1, 1, 1, -1)
    # phi = <-1,-1,-1,-1,-1,1>: signature -4; scaling by -1 flips it
    assert not similar
    assert similar == real_cup_vanishes


@pytest.mark.parametrize("seed", [4, 8, 15, 16, 23, 42])
def test_albert_agreement_with_real_cup(seed):
    rng = SplitMix64(seed)
    for _ in range(12):
        a, b, c, d = (sample_square_class(rng) for _ in range(4))
        q = sample_square_class(rng)
        similar, real_cup_vanishes = albert_comparison(a, b, c, d, q)
        assert similar == real_cup_vanishes


# --- product formula at scale (acceptance backs this, keep a smaller copy here) -----------


def test_product_formula_batch():
    rng = SplitMix64(99)
    for _ in range(200):
        a = sample_square_class(rng)
        b = sample_square_class(rng)
        prod = 1
        for v in relevant_places((a, b)):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


# --- only the sampled slots are factored ---------------------------------------------


@pytest.mark.parametrize(
    "identity, seed", [("alpha4_full", 1), ("alpha4_full", 4)] + [(i, 2) for i in IDENTITY_IDS[:-1]]
)
def test_only_sampled_slots_are_factored(monkeypatch, identity, seed):
    from sdinv import wittq

    trials = []
    sample, factorize = wittq._Identity.sample, wittq.factorize

    def sampling(row, rng):
        trials.append([])
        return sample(row, rng)

    def recording(n):
        trials[-1].append(n)
        return factorize(n)

    monkeypatch.setattr(wittq._Identity, "sample", sampling)
    monkeypatch.setattr(wittq, "factorize", recording)
    cases = verify_identity(identity, 100, seed)
    assert len(trials) == len(cases) == 100
    for case, args in zip(cases, trials):
        products = [abs(v) for _, v in case.sample]
        assert args
        for n in args:
            assert any(m % n == 0 for m in products), (case.sample, n)


# --- each place is checked once per form or relation ---------------------------------


def test_places_checked_once_per_form_or_relation(monkeypatch):
    from sdinv import wittq

    checked, listed = [], []
    check, classes_and_places = wittq._check_place, wittq._classes_and_places

    def counting(place):
        checked.append(place)
        return check(place)

    def listing(values):
        classes, places = classes_and_places(values)
        listed.append(len(places))
        return classes, places

    monkeypatch.setattr(wittq, "_check_place", counting)
    monkeypatch.setattr(wittq, "_classes_and_places", listing)
    trials = 200
    verify_identity("alpha4_full", trials, 5)
    # per trial: the chain's Brauer relation, the form of the case, and the
    # three norm spot checks, each through ``hilbert_symbol`` at 2; the
    # places come from the one factoring of the sampled values
    assert len(listed) == 2 * trials
    assert len(checked) <= sum(listed) + 3 * trials


def test_odd_prime_cache_tests_each_place_once_per_suite(monkeypatch):
    """The prime test of the places is cached for a whole suite: it misses
    once for each distinct odd place checked, and hits after that."""
    from sdinv import wittq

    places = set()
    check = wittq._check_place

    def recording(place):
        places.add(place)
        return check(place)

    monkeypatch.setattr(wittq, "_check_place", recording)
    wittq._is_odd_prime.cache_clear()
    verify_identity("alpha4_full", 500, 1)
    odd = {p for p in places if isinstance(p, int) and p > 2}
    assert len(odd) > 256
    assert wittq._is_odd_prime.cache_info().misses == len(odd)


# --- bounded memory ---------------------------------------------------------------------


def test_wittq_keeps_no_unbounded_state():
    from sdinv import wittq

    verify_identity("alpha4_full", 300, 1)
    caches = 0
    for name, obj in vars(wittq).items():
        if name.startswith("__"):
            continue
        if hasattr(obj, "cache_info"):
            info = obj.cache_info()
            assert info.maxsize is not None, name
            assert info.currsize <= info.maxsize, name
            caches += 1
        # module-level containers are constants
        assert not isinstance(obj, (dict, list, set, bytearray)), name
        if isinstance(obj, tuple):
            assert len(obj) <= 16, name
    assert caches >= 2  # the prime-place check and the shared factorize cache
