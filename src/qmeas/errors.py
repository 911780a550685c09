"""Exception types shared across the package."""


class NumericalConsistencyError(RuntimeError):
    """An internally computed quantity violated a hard numerical bound.

    Raised when a result is wrong by far more than rounding can explain,
    for example a probability below -``PROBABILITY_CLAMP_TOL``, or a
    constructed process that fails its own reproducibility precondition.
    These indicate a bug or a numerically hostile input, never a legitimate
    "check failed" outcome.
    """


class LocalityError(ValueError):
    """Two evolved meter observables fail to commute within tolerance."""
