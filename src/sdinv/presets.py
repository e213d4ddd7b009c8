"""Assembly of the main classification table from computed pieces.

A row is a preset, the variety of its group or a cited torsion, the Witt
identity suites that exhibit its invariants, and, for the theorem rows, the
column of the reductive quotient G.  The indecomposable invariant group and
the codimension-2 torsion are computed live; the handful of facts that are
functorial arguments rather than finite computations (comparison along the
derived subgroup, the two-factor adjoint identification, restriction and
induction above five factors) enter as tagged citations and are never
presented as machine-verified.

``_assemble`` builds every row, the theorem rows and the rank-3 pair alike,
and is the one place that states the bookkeeping across the short exact
sequence

    0 -> Sdec/Dec -> Inv3_ind -> CH2_tors -> 0

the left quotient has the order of the middle group over the torsion order,
and a torsion order that does not divide it is an internal inconsistency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import MAX_TRIALS, N_RANGE, InputError, InternalInconsistencyError
from .exactlin import FinAbelianGroup

# The compute modules are imported where a row runs them: the cited facts
# serve ``chow2`` without roots, and a row with neither a configuration nor a
# suite below runs neither kgamma nor wittq.
if TYPE_CHECKING:
    from .kgamma import Chow2Result
    from .roots import IndecomposableResult
    from .wittq import IdentityCase


class CitedFact(NamedTuple):
    fact_id: str
    statement: str
    reference: str


_FACTS = {
    "exact_sequence": CitedFact(
        "exact_sequence",
        "for a split semisimple group the semi-decomposable invariants modulo "
        "decomposable ones, the indecomposable degree-3 invariants, and the "
        "codimension-2 torsion of the generic flag variety form a short exact sequence",
        "Merkurjev-Neshitov-Zainoulline exact sequence",
    ),
    "reductive_comparison": CitedFact(
        "reductive_comparison",
        "invariants of the reductive quotient restrict injectively to its derived "
        "subgroup, compatibly with the torsion sequence, and degree-2 invariants agree",
        "functoriality of torsors along the derived-subgroup inclusion",
    ),
    "pgl2_case": CitedFact(
        "pgl2_case",
        "with two factors the reductive quotient has the torsor theory of the "
        "rank-1 adjoint group, whose indecomposable degree-3 invariants vanish",
        "degree-3 invariants of adjoint groups (Merkurjev)",
    ),
    "g_upper_bound": CitedFact(
        "g_upper_bound",
        "indecomposable degree-3 invariants of the reductive quotient embed into "
        "the cyclic group of order 2 computed for the semisimple quotient",
        "derived-subgroup comparison",
    ),
    "alpha_not_decomposable": CitedFact(
        "alpha_not_decomposable",
        "the explicit norm-form invariant stays nontrivial over an algebraic "
        "closure, so it is not decomposable",
        "triviality of decomposable invariants over closed fields",
    ),
    "chow_reduction": CitedFact(
        "chow_reduction",
        "products of Severi-Brauer varieties generating the same subgroup of the "
        "Brauer group share their codimension-2 torsion",
        "projective bundle theorem (Izhboldin-Karpenko)",
    ),
    "chow_gamma": CitedFact(
        "chow_gamma",
        "on generic flag varieties the Chow ring is generated by Chern classes, "
        "so codimension-2 torsion equals the degree-2 graded torsion of the "
        "gamma filtration",
        "comparison of gamma and topological filtrations (Karpenko)",
    ),
    "restriction_induction": CitedFact(
        "restriction_induction",
        "specializing the last quaternion to the split algebra restricts the "
        "n-fold invariant to the (n-1)-fold one, semi-decomposability is "
        "inherited, and induction settles every n >= 6",
        "restriction of torsor invariants",
    ),
    "torsion_high_n": CitedFact(
        "torsion_high_n",
        "for five or more factors the generic variety's codimension-2 torsion "
        "is cyclic of order 2; rows above five cite the propagation rather than "
        "a fresh computation",
        "propagation from the five-factor computation",
    ),
    "index_tables": CitedFact(
        "index_tables",
        "the generic configurations carry the stated tensor-power index tables",
        "index computations for generic quaternion and degree-4 products",
    ),
}


def cited_fact(fact_id: str) -> CitedFact:
    return _FACTS[fact_id]


# the generic variety of each semisimple quotient, reduced to a product of
# Severi-Brauer varieties generating the same Brauer subgroup; rows of
# ``sl2n:n`` missing here cite their torsion instead of computing it
CHOW_CONFIG_BY_N = {2: "conic1", 3: "split:2,2", 4: "conics3", 5: "conics4"}

ALPHA_SUITES_BY_N = {
    2: ("alpha2",),
    3: ("twofold", "lemma_alpha3_exact", "lemma_alpha3_modI4"),
    4: ("prop_step_Qonetwo", "alpha4_full"),
}


class GroupValue(NamedTuple):
    group: FinAbelianGroup
    provenance: str  # "computed" or "cited" or "computed+cited"
    note: str = ""


# The _h groups belong to the preset's semisimple group, the _g groups to the
# reductive quotient (None for the rank-3 pair); chow is None where the
# torsion is cited.
class Row(NamedTuple):
    inv3_ind_h: GroupValue
    chow2_tors: GroupValue
    sdec_mod_dec_h: GroupValue
    inv3_ind_g: GroupValue | None
    sdec_mod_dec_g: GroupValue | None
    alpha_suites: tuple[tuple[IdentityCase, ...], ...]  # the decided cases of each suite
    cited_facts: tuple[CitedFact, ...]
    indecomposable: IndecomposableResult
    chow: Chow2Result | None


def _assemble(preset: str, config: str | None, suites: Iterable, g_column: tuple | None) -> Row:
    """The row of ``preset``: its torsion from the variety ``config``, or the
    cited cyclic group of order 2 when ``config`` is None, the left quotient
    by order bookkeeping, the cases of each ``(identity id, cases)`` suite,
    each of which must pass, and the G column (Inv3_ind, Sdec/Dec, fact ids).
    Raises InternalInconsistencyError when the torsion order does not divide
    the indecomposable order or a suite fails.
    """
    from .roots import indecomposable_group

    ind = indecomposable_group(preset)
    inv = ind.presentation.group
    facts = ["exact_sequence"]
    if g_column is not None:
        facts.append("reductive_comparison")
    chow: Chow2Result | None = None
    if config is None:
        tors = GroupValue(FinAbelianGroup.cyclic(2), "cited", "propagated from the five-factor case")
        facts += ["torsion_high_n", "restriction_induction"]
    else:
        from .kgamma import chow2_torsion

        chow = chow2_torsion(config)
        tors = GroupValue(chow.torsion, "computed", f"gamma filtration of {chow.report.config.name}")
        facts += ["chow_reduction", "chow_gamma", "index_tables"]

    # every group in this table is trivial or cyclic of order 2, so the
    # order determines the isomorphism type
    oi, ot = inv.order(), tors.group.order()
    if oi is None or ot is None or oi % ot:
        raise InternalInconsistencyError(
            "torsion order does not divide the indecomposable order; "
            "the exact-sequence bookkeeping cannot hold"
        )
    # the left term is computed exactly when the torsion is
    sdec = GroupValue(FinAbelianGroup.cyclic(oi // ot), tors.provenance, "exact-sequence bookkeeping")

    decided = []
    for identity_id, cases in suites:
        if not all(c.verdict for c in cases):
            raise InternalInconsistencyError(f"identity suite {identity_id} failed during assembly")
        decided.append(cases)

    inv_g, sdec_g, g_facts = g_column or (None, None, ())
    return Row(
        inv3_ind_h=GroupValue(inv, "computed", "lattice subquotient"),
        chow2_tors=tors,
        sdec_mod_dec_h=sdec,
        inv3_ind_g=inv_g,
        sdec_mod_dec_g=sdec_g,
        alpha_suites=tuple(decided),
        cited_facts=tuple(_FACTS[f] for f in dict.fromkeys(facts + list(g_facts))),
        indecomposable=ind,
        chow=chow,
    )


def _suites(identity_ids: tuple[str, ...], trials: int, seed: int):
    """Each suite's id and cases, run when the assembly reaches it; a row
    without suites loads no wittq."""
    for identity_id in identity_ids:
        from .wittq import verify_identity

        yield identity_id, tuple(verify_identity(identity_id, trials, seed))


def _g_column(n: int) -> tuple[GroupValue, GroupValue, tuple[str, ...]]:
    """Inv3_ind and Sdec/Dec of the reductive quotient of ``sl2n:n``, and the
    ids of the facts they cite."""
    z2, zero = FinAbelianGroup.cyclic(2), FinAbelianGroup.trivial()
    if n == 2:
        return (
            GroupValue(zero, "cited", "two-factor adjoint identification"),
            GroupValue(zero, "cited", "forced by the trivial middle term"),
            ("pgl2_case",),
        )
    if n in (3, 4):
        return (
            GroupValue(z2, "computed+cited", "nontrivial class exhibited by the live identity "
                       "suites; upper bound cited"),
            GroupValue(z2, "computed+cited", "explicit semi-decomposable expression verified "
                       "live; nondecomposability cited"),
            ("g_upper_bound", "alpha_not_decomposable"),
        )
    return (
        GroupValue(z2, "cited", "stable in the number of factors"),
        GroupValue(zero, "cited", "vanishing forced through the comparison with the "
                   "semisimple quotient"),
        ("g_upper_bound", "restriction_induction"),
    )


def assemble_theorem(n: int, trials: int = 12, seed: int = 1) -> Row:
    """One row of the classification table.

    Rows with a configuration in ``CHOW_CONFIG_BY_N`` (2..5) are fully
    live: the invariant group comes from the lattice computation, the
    torsion from the gamma filtration of the reduced variety, the left
    quotient by exact bookkeeping, and the explicit invariant expressions
    from the randomized Witt suites.  The other rows carry the cited
    restriction and propagation facts instead of a live torsion
    computation.  The trial count is checked on every row, also on rows
    that run no suite.
    """
    if n not in N_RANGE:
        raise InputError(
            f"theorem rows are available for n between {N_RANGE[0]} and {N_RANGE[-1]}"
        )
    if not 1 <= trials <= MAX_TRIALS:
        raise InputError(f"trials must be between 1 and {MAX_TRIALS}")
    suites = _suites(ALPHA_SUITES_BY_N.get(n, ()), trials, seed)
    return _assemble(f"sl2n:{n}", CHOW_CONFIG_BY_N.get(n), suites, _g_column(n))


def theorem_table(ns=N_RANGE, trials: int = 12, seed: int = 1) -> list[Row]:
    return [assemble_theorem(n, trials=trials, seed=seed) for n in ns]


def sl4x4_report() -> Row:
    """The rank-3 pair's invariant group with the torsion of its generic
    variety: a row with no identity suite and no G column."""
    return _assemble("sl4x4", "deg4pair", (), None)
