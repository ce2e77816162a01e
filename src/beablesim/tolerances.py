"""Central numerical tolerance record.

Every structural operator check (idempotency, orthogonality, completeness,
unitarity) shares one threshold and every scalar check (normalization,
hermiticity residues, imaginary parts) another, so the whole library can be
tightened or relaxed through a single record.  Conditional-probability
denominators below ``branch_cutoff`` are treated as physically impossible
rather than divided through, and tensor constructions refuse to grow past
``dimension_cap``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Bundle of thresholds consumed throughout the library."""

    structural: float = 1e-10
    scalar: float = 1e-12
    branch_cutoff: float = 1e-14
    dimension_cap: int = 2 ** 20


#: Default record.  Rebind this module attribute to reconfigure globally.
TOL = Tolerances()
