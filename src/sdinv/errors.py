"""Exceptions and input budgets shared by every sdinv module.

A leaf module: it imports nothing from the package, so a command can check
its input against a budget, or raise one of these errors, without loading
the compute modules that would do the work.
"""


class InputError(ValueError):
    """Bad user-supplied data (dimension mismatch, unknown name, parse error)."""


class InternalInconsistencyError(RuntimeError):
    """A structural invariant failed; indicates a broken preset or a bug."""


class ContainmentError(InternalInconsistencyError):
    """A computed lattice vector lies outside the lattice it must lie in; no
    user input reaches the two checks that raise it."""


# Largest ambient rank of a lattice built from outside input: a ring rank
# above it is refused, and so is a certificate entry that states one.  Every
# lattice the package writes fits.
MAX_AMBIENT_RANK = 128

# Largest trial count of an identity suite; at this size the slowest
# identity, alpha4_full, runs for about 3 s on one core of a 2-vCPU VM
# (Python 3.11, a fresh process).
MAX_TRIALS = 10_000

# Numbers n of rank-1 factors of the ``gl2n:{n}`` / ``sl2n:{n}`` presets and
# of the theorem rows; a preset or row outside the range is refused.
N_RANGE = range(2, 9)

# Largest certificate file the checker reads, in bytes; a larger file exits
# with code 2 before it is read.  The largest certificate a command writes,
# that of ``gamma report --preset split:128``, is 291,515,230 bytes.
MAX_CERTIFICATE_BYTES = 300_000_000
