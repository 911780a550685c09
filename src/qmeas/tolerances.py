"""Every numerical bound the package compares a computed residual against,
and the one rule that compares them.

A bound has one meaning, so two bounds stay separate even where their values
are equal. Size limits such as ``linalg.PRODUCT_DIM_GUARD`` live with their code.
Every check that raises passes its residual and bound to ``_require``.
"""

import numpy as np

#: Adjacent eigenvalues closer than this merge into one spectral branch.
MERGE_TOL = 1e-8
#: Entrywise bound on A - A^H for a matrix to be eigendecomposed.
HERMITIAN_TOL = 1e-12
#: Entrywise bound on V^H V - I for a coupling or isometry.
UNITARY_TOL = 1e-10
#: Twice the Frobenius bound on B^H B - I for a spectral family's eigenbasis.
PROJECTOR_TOL = 1e-10
#: Bound on | ||psi|| - 1 | for a state.
STATE_NORM_TOL = 1e-12
#: Schmidt coefficients at or below this are dropped.
SCHMIDT_CUTOFF = 1e-12
#: An effect eigenvalue at or below this many d u max|lambda| (u the unit
#: roundoff, d the dimension) is rounding noise and is set to 0 before a root.
EFFECT_RANK_FACTOR = 16.0

#: Entrywise bound on an effect's Hermiticity, spectrum, idempotence and
#: orthogonality residuals and on sum_x E_x - I; Frobenius bound on an
#: observable's matrix against its spectral family.
EFFECT_TOL = 1e-10
#: Bound on |sum p - 1| for a computed distribution, single or joint.
PROBABILITY_SUM_TOL = 1e-10
#: Rounding slack outside [0, 1] that a computed probability is clamped from.
PROBABILITY_CLAMP_TOL = 1e-12
#: Frobenius bound on the commutator of a scenario's two evolved meters.
COMMUTATOR_TOL = 1e-9

#: Default width within which two outcome labels count as one value.
DEFAULT_LABEL_TOL = 1e-8
#: Default bound of every check a caller can set: off-diagonal mass, effect
#: gaps, correlation conditions and the dilation round trip.
DEFAULT_TOL = 1e-9


def _require(check: str, residual, bound: float, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the check, the residual and the bound unless the
    largest residual (a float or an array of them) is at most ``bound``.

    A NaN residual never passes, since NaN <= bound is false.
    """
    r = float(np.max(residual, initial=-np.inf))
    if not r <= bound:
        raise error(f"{check}: residual {r!r} exceeds the bound {bound!r}")
