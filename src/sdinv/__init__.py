"""Exact computational algebra for degree-3 cohomological invariants.

Subpackages cover exact integer lattice arithmetic, character lattices with
Weyl-invariant quadratic forms, gamma filtrations on Grothendieck rings of
Severi-Brauer products, and randomized Witt-ring identity verification over
the rationals, together with a certificate-emitting command line front end.

The names below are exported lazily (PEP 562): ``import sdinv`` loads no
compute module, and ``sdinv.NAME`` reads ``NAME`` from the module that
defines it, importing that module on first access.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ContainmentError", "InputError", "InternalInconsistencyError"),
    "exactlin": (
        "FinAbelianGroup",
        "IntMatrix",
        "Lattice",
        "MembershipResult",
        "SmithDecomposition",
        "lattice_index",
        "lattice_membership",
        "smith_normal_form",
        "subquotient_presentation",
    ),
    "kgamma": (
        "chow2_torsion",
        "filtration_membership",
        "gamma_filtration",
        "get_config",
        "graded_torsion",
        "parse_element",
        "quillen_lattice",
    ),
    "presets": ("assemble_theorem", "sl4x4_report", "theorem_table"),
    "roots": (
        "character_lattice",
        "dec_subgroup",
        "get_preset",
        "indecomposable_group",
        "invariant_quadratic_lattice",
        "project_to_semisimple",
    ),
    "wittq": (
        "DiagonalForm",
        "QuaternionDatum",
        "hilbert_symbol",
        "sample_chain_configuration",
        "verify_identity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
