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

is enforced exactly: the order of the left quotient times the torsion order
must equal the order of the middle group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import FinAbelianGroup, InputError, InternalInconsistencyError
from .kgamma import Chow2Result, chow2_torsion
from .roots import IndecomposableResult, indecomposable_group
from .wittq import IdentityCase, verify_identity


@dataclass(frozen=True)
class CitedFact:
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
# Severi-Brauer varieties generating the same Brauer subgroup
CHOW_CONFIG_BY_N = {2: "conic1", 3: "split:2,2", 4: "conics3", 5: "conics4"}

ALPHA_SUITES_BY_N = {
    2: ("alpha2",),
    3: ("twofold", "lemma_alpha3_exact", "lemma_alpha3_modI4"),
    4: ("prop_step_Qonetwo", "alpha4_full"),
}


@dataclass(frozen=True)
class GroupPreset:
    """Pairing of a character-lattice preset with its generic-variety config.

    ``sb_config`` is None when the torsion row is cited rather than computed.
    """

    name: str
    sb_config: str | None


GROUP_PRESETS: dict[str, GroupPreset] = {
    **{
        f"sl2n:{n}": GroupPreset(f"sl2n:{n}", CHOW_CONFIG_BY_N.get(n))
        for n in range(2, 9)
    },
    "sl4x4": GroupPreset("sl4x4", "deg4pair"),
}


@dataclass(frozen=True)
class GroupValue:
    group: FinAbelianGroup
    provenance: str  # "computed" or "cited" or "computed+cited"
    note: str = ""


@dataclass(frozen=True)
class SuiteSummary:
    identity_id: str
    trials: int
    seed: int
    passes: int
    congruence_level: str
    # the decided cases, kept for certificates
    cases: tuple[IdentityCase, ...] = field(repr=False, compare=False)

    @property
    def all_pass(self) -> bool:
        return self.passes == self.trials


def _run_suite(identity_id: str, trials: int, seed: int) -> SuiteSummary:
    cases = verify_identity(identity_id, trials, seed)
    return SuiteSummary(
        identity_id=identity_id,
        trials=trials,
        seed=seed,
        passes=sum(1 for c in cases if c.verdict),
        congruence_level=cases[0].congruence_level,
        cases=tuple(cases),
    )


@dataclass(frozen=True)
class TheoremRow:
    n: int
    inv3_ind_h: GroupValue
    inv3_ind_g: GroupValue
    chow2_tors: GroupValue
    sdec_mod_dec_h: GroupValue
    sdec_mod_dec_g: GroupValue
    alpha_suites: tuple[SuiteSummary, ...]
    cited_facts: tuple[CitedFact, ...]
    indecomposable: IndecomposableResult
    chow: Chow2Result | None

    @property
    def exactness_holds(self) -> bool:
        sdec = self.sdec_mod_dec_h.group.order()
        tors = self.chow2_tors.group.order()
        inv = self.inv3_ind_h.group.order()
        return sdec is not None and tors is not None and sdec * tors == inv


def _sdec_from_exactness(inv: FinAbelianGroup, tors: FinAbelianGroup) -> FinAbelianGroup:
    """Left term of the exact sequence, by order bookkeeping.

    Every group in this table is trivial or cyclic of order 2, so the order
    determines the isomorphism type.
    """
    oi, ot = inv.order(), tors.order()
    if oi is None or ot is None or ot == 0 or oi % ot:
        raise InternalInconsistencyError(
            "torsion order does not divide the indecomposable order; "
            "the exact-sequence bookkeeping cannot hold"
        )
    return FinAbelianGroup.cyclic(oi // ot)


def assemble_theorem(n: int, trials: int = 12, seed: int = 1) -> TheoremRow:
    """One row of the classification table.

    Rows 2..5 are fully live: the invariant group comes from the lattice
    computation, the torsion from the gamma filtration of the reduced
    variety, the left quotient by exact bookkeeping, and the explicit
    invariant expressions from the randomized Witt suites.  Rows above 5
    carry the cited restriction and propagation facts instead of a live
    torsion computation.
    """
    if not 2 <= n <= 8:
        raise InputError("theorem rows are available for n between 2 and 8")

    preset = GROUP_PRESETS[f"sl2n:{n}"]
    ind = indecomposable_group(preset.name)
    inv_h = GroupValue(ind.group, "computed", "lattice subquotient")

    facts = [_FACTS["exact_sequence"], _FACTS["reductive_comparison"]]
    chow: Chow2Result | None = None
    if preset.sb_config is not None:
        chow = chow2_torsion(preset.sb_config)
        chow_value = GroupValue(
            chow.torsion,
            "computed",
            f"gamma filtration of {chow.config.name}",
        )
        facts += [_FACTS["chow_reduction"], _FACTS["chow_gamma"], _FACTS["index_tables"]]
    else:
        chow_value = GroupValue(
            FinAbelianGroup.cyclic(2), "cited", "propagated from the five-factor case"
        )
        facts += [_FACTS["torsion_high_n"], _FACTS["restriction_induction"]]

    sdec_h = GroupValue(
        _sdec_from_exactness(inv_h.group, chow_value.group),
        "computed" if n <= 5 else "cited",
        "exact-sequence bookkeeping",
    )

    suites = []
    for identity_id in ALPHA_SUITES_BY_N.get(n, ()):
        summary = _run_suite(identity_id, trials, seed)
        suites.append(summary)
        if not summary.all_pass:
            raise InternalInconsistencyError(
                f"identity suite {identity_id} failed during assembly"
            )

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

    row = TheoremRow(
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
    if not row.exactness_holds:
        raise InternalInconsistencyError("assembled row violates exact bookkeeping")
    return row


def theorem_table(ns=range(2, 9), trials: int = 12, seed: int = 1) -> list[TheoremRow]:
    return [assemble_theorem(n, trials=trials, seed=seed) for n in ns]


@dataclass(frozen=True)
class Sl4x4Report:
    indecomposable: IndecomposableResult
    chow: Chow2Result
    torsion_used: FinAbelianGroup
    sdec_mod_dec: FinAbelianGroup
    all_normalized_semi_decomposable: bool
    inconsistencies: tuple[str, ...]
    cited_facts: tuple[CitedFact, ...]

    @property
    def consistent(self) -> bool:
        return not self.inconsistencies


def sl4x4_report(
    torsion_override: FinAbelianGroup | None = None,
    config_name: str | None = None,
) -> Sl4x4Report:
    """Combination of the rank-3 pair's invariant group with the torsion of
    its generic variety.

    ``torsion_override`` replaces the computed torsion (test hook for the
    failure path); ``config_name`` may point at any registered variety
    configuration, e.g. a split reference.
    """
    preset = GROUP_PRESETS["sl4x4"]
    ind = indecomposable_group(preset.name)
    chow = chow2_torsion(config_name or preset.sb_config)
    torsion = torsion_override if torsion_override is not None else chow.torsion

    inconsistencies = []
    oi = ind.group.order()
    ot = torsion.order()
    if ot is None or ot == 0 or oi is None or oi % ot:
        inconsistencies.append(
            "torsion order does not divide the indecomposable order; exact "
            "bookkeeping fails"
        )
        sdec = FinAbelianGroup.trivial()
    else:
        sdec = FinAbelianGroup.cyclic(oi // ot)

    if torsion_override is not None and torsion_override != chow.torsion:
        inconsistencies.append(
            "override disagrees with the live gamma-filtration torsion"
        )

    return Sl4x4Report(
        indecomposable=ind,
        chow=chow,
        torsion_used=torsion,
        sdec_mod_dec=sdec,
        all_normalized_semi_decomposable=(sdec.order() == oi and torsion.is_trivial),
        inconsistencies=tuple(inconsistencies),
        cited_facts=(
            _FACTS["exact_sequence"],
            _FACTS["chow_reduction"],
            _FACTS["chow_gamma"],
            _FACTS["index_tables"],
        ),
    )
