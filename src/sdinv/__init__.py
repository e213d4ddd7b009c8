"""Exact computational algebra for degree-3 cohomological invariants.

Subpackages cover exact integer lattice arithmetic, character lattices with
Weyl-invariant quadratic forms, gamma filtrations on Grothendieck rings of
Severi-Brauer products, and randomized Witt-ring identity verification over
the rationals, together with a certificate-emitting command line front end.
"""

__version__ = "0.1.0"

from .exactlin import (  # noqa: F401
    ContainmentError,
    FinAbelianGroup,
    InputError,
    IntMatrix,
    InternalInconsistencyError,
    Lattice,
    MembershipResult,
    SmithDecomposition,
    lattice_index,
    lattice_membership,
    smith_normal_form,
    subquotient_presentation,
)
from .kgamma import (  # noqa: F401
    chern_class,
    chow2_torsion,
    filtration_membership,
    gamma_filtration,
    gamma_op,
    get_config,
    graded_torsion,
    parse_element,
    quillen_lattice,
)
from .presets import assemble_theorem, sl4x4_report, theorem_table  # noqa: F401
from .roots import (  # noqa: F401
    character_lattice,
    chern2_of_character,
    dec_subgroup,
    get_preset,
    indecomposable_group,
    invariant_quadratic_lattice,
    project_to_semisimple,
)
from .wittq import (  # noqa: F401
    DiagonalForm,
    PfisterSpec,
    QuaternionDatum,
    albert_similarity_check,
    alpha_eval,
    hilbert_symbol,
    in_power_of_i,
    pfister,
    sample_chain_configuration,
    verify_identity,
    witt_equivalent,
    witt_invariants,
)
