"""Exact computational algebra for degree-3 cohomological invariants.

Subpackages cover exact integer lattice arithmetic, character lattices with
Weyl-invariant quadratic forms, gamma filtrations on Grothendieck rings of
Severi-Brauer products, and randomized Witt-ring identity verification over
the rationals, together with a certificate-emitting command line front end.

The modules are the API: each name is imported from the module that defines
it, as in ``from sdinv.roots import indecomposable_group``.  ``import sdinv``
loads no submodule.
"""

__version__ = "0.1.0"
