"""Assembly of the main classification table from computed pieces.

Each supported group pairs a character-lattice preset with the index
configuration of its generic variety.  The indecomposable invariant group
and the codimension-2 torsion are computed live; the handful of facts that
are functorial arguments rather than finite computations (comparison along
the derived subgroup, the two-factor adjoint identification, restriction
and induction above five factors) enter as tagged citations and are never
presented as machine-verified.

Bookkeeping across the short exact sequence

    0 -> Sdec/Dec -> Inv3_ind -> CH2_tors -> 0

is one step, shared by the theorem rows and the rank-3 pair: the left
quotient has the order of the middle group over the torsion order, and a
torsion order that does not divide it is an internal inconsistency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

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
SL4X4_CONFIG = "deg4pair"

ALPHA_SUITES_BY_N = {
    2: ("alpha2",),
    3: ("twofold", "lemma_alpha3_exact", "lemma_alpha3_modI4"),
    4: ("prop_step_Qonetwo", "alpha4_full"),
}


class GroupValue(NamedTuple):
    group: FinAbelianGroup
    provenance: str  # "computed" or "cited" or "computed+cited"
    note: str = ""


class TheoremRow(NamedTuple):
    n: int
    inv3_ind_h: GroupValue
    inv3_ind_g: GroupValue
    chow2_tors: GroupValue
    sdec_mod_dec_h: GroupValue
    sdec_mod_dec_g: GroupValue
    alpha_suites: tuple[tuple[IdentityCase, ...], ...]  # the decided cases of each suite
    cited_facts: tuple[CitedFact, ...]
    indecomposable: IndecomposableResult
    chow: Chow2Result | None

    @property
    def exactness_holds(self) -> bool:
        return _exact(self.sdec_mod_dec_h.group, self.chow2_tors.group, self.inv3_ind_h.group)


def _exact(sdec: FinAbelianGroup, tors: FinAbelianGroup, inv: FinAbelianGroup) -> bool:
    """|Sdec/Dec| * |CH2_tors| == |Inv3_ind|, the identity the bookkeeping states."""
    so, to = sdec.order(), tors.order()
    return so is not None and to is not None and so * to == inv.order()


def _sdec_from_exactness(inv: FinAbelianGroup, tors: FinAbelianGroup) -> FinAbelianGroup:
    """Left term of the exact sequence, by order bookkeeping; raises
    InternalInconsistencyError when the torsion order does not divide the
    indecomposable order.

    Every group in this table is trivial or cyclic of order 2, so the order
    determines the isomorphism type.
    """
    oi, ot = inv.order(), tors.order()
    if oi is None or ot is None or oi % ot:
        raise InternalInconsistencyError(
            "torsion order does not divide the indecomposable order; "
            "the exact-sequence bookkeeping cannot hold"
        )
    return FinAbelianGroup.cyclic(oi // ot)


def assemble_theorem(n: int, trials: int = 12, seed: int = 1) -> TheoremRow:
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

    from .roots import indecomposable_group

    ind = indecomposable_group(f"sl2n:{n}")
    inv_h = GroupValue(ind.presentation.group, "computed", "lattice subquotient")

    facts = [_FACTS["exact_sequence"], _FACTS["reductive_comparison"]]
    chow: Chow2Result | None = None
    if n in CHOW_CONFIG_BY_N:
        from .kgamma import chow2_torsion

        chow = chow2_torsion(CHOW_CONFIG_BY_N[n])
        chow_value = GroupValue(
            chow.torsion,
            "computed",
            f"gamma filtration of {chow.report.config.name}",
        )
        facts += [_FACTS["chow_reduction"], _FACTS["chow_gamma"], _FACTS["index_tables"]]
    else:
        chow_value = GroupValue(
            FinAbelianGroup.cyclic(2), "cited", "propagated from the five-factor case"
        )
        facts += [_FACTS["torsion_high_n"], _FACTS["restriction_induction"]]

    sdec_h = GroupValue(
        _sdec_from_exactness(inv_h.group, chow_value.group),
        "cited" if chow is None else "computed",
        "exact-sequence bookkeeping",
    )

    suites = []
    for identity_id in ALPHA_SUITES_BY_N.get(n, ()):
        from .wittq import verify_identity

        cases = tuple(verify_identity(identity_id, trials, seed))
        if not all(c.verdict for c in cases):
            raise InternalInconsistencyError(
                f"identity suite {identity_id} failed during assembly"
            )
        suites.append(cases)

    if n == 2:
        inv_g = GroupValue(FinAbelianGroup.trivial(), "cited", "two-factor adjoint identification")
        sdec_g = GroupValue(FinAbelianGroup.trivial(), "cited", "forced by the trivial middle term")
        facts.append(_FACTS["pgl2_case"])
    elif n in (3, 4):
        inv_g = GroupValue(
            FinAbelianGroup.cyclic(2),
            "computed+cited",
            "nontrivial class exhibited by the live identity suites; upper bound cited",
        )
        sdec_g = GroupValue(
            FinAbelianGroup.cyclic(2),
            "computed+cited",
            "explicit semi-decomposable expression verified live; "
            "nondecomposability cited",
        )
        facts += [_FACTS["g_upper_bound"], _FACTS["alpha_not_decomposable"]]
    else:
        inv_g = GroupValue(FinAbelianGroup.cyclic(2), "cited", "stable in the number of factors")
        sdec_g = GroupValue(
            FinAbelianGroup.trivial(),
            "cited",
            "vanishing forced through the comparison with the semisimple quotient",
        )
        facts += [_FACTS["g_upper_bound"], _FACTS["restriction_induction"]]

    return TheoremRow(
        n=n,
        inv3_ind_h=inv_h,
        inv3_ind_g=inv_g,
        chow2_tors=chow_value,
        sdec_mod_dec_h=sdec_h,
        sdec_mod_dec_g=sdec_g,
        alpha_suites=tuple(suites),
        cited_facts=tuple(dict.fromkeys(facts)),
        indecomposable=ind,
        chow=chow,
    )


def theorem_table(ns=N_RANGE, trials: int = 12, seed: int = 1) -> list[TheoremRow]:
    return [assemble_theorem(n, trials=trials, seed=seed) for n in ns]


class Sl4x4Report(NamedTuple):
    indecomposable: IndecomposableResult
    chow: Chow2Result
    sdec_mod_dec: FinAbelianGroup
    cited_facts: tuple[CitedFact, ...]

    @property
    def consistent(self) -> bool:
        return _exact(self.sdec_mod_dec, self.chow.torsion, self.indecomposable.presentation.group)

    @property
    def all_normalized_semi_decomposable(self) -> bool:
        return self.chow.torsion.is_trivial


def sl4x4_report() -> Sl4x4Report:
    """Combination of the rank-3 pair's invariant group with the torsion of
    its generic variety."""
    from .kgamma import chow2_torsion
    from .roots import indecomposable_group

    ind = indecomposable_group("sl4x4")
    chow = chow2_torsion(SL4X4_CONFIG)
    return Sl4x4Report(
        indecomposable=ind,
        chow=chow,
        sdec_mod_dec=_sdec_from_exactness(ind.presentation.group, chow.torsion),
        cited_facts=(
            _FACTS["exact_sequence"],
            _FACTS["chow_reduction"],
            _FACTS["chow_gamma"],
            _FACTS["index_tables"],
        ),
    )
