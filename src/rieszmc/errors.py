"""Exception hierarchy shared by all rieszmc modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""

from __future__ import annotations


class RieszmcError(Exception):
    """Base class for all rieszmc errors."""


class ConfigError(RieszmcError):
    """Invalid or inconsistent experiment configuration."""


class DataError(RieszmcError):
    """Problem with input data files."""


class NumericalError(RieszmcError):
    """Numerical failure inside an algorithm."""


# -- energy -----------------------------------------------------------------

class NonPositiveBracket(NumericalError):
    """Weight bracket alpha*k_i*k_j + beta*r is not positive."""


class DegenerateDistance(NumericalError):
    """Pair distance below the eps_dist guard."""


class TooFewPoints(NumericalError):
    """Operation requires at least two points."""


class EmptyReference(NumericalError):
    """Covering radius needs a non-empty reference set."""


class DimensionMismatch(NumericalError):
    """Point sets with incompatible dimensions."""


class DimensionUnsupported(NumericalError):
    """Operation only defined for dimension one."""


# -- sampler ----------------------------------------------------------------

class DegenerateDensity(NumericalError):
    """Target density is identically zero on the evaluation grid."""


class NoValidCandidate(NumericalError):
    """Every candidate violates the eps_dist guard after all redraws."""


class BudgetExhausted(NumericalError):
    """Candidate budget spent before the configuration was complete."""


class OriginReference(NumericalError):
    """Acceptance ratio denominator is zero and no fallback was supplied."""


# -- smc --------------------------------------------------------------------

class AllWeightsZero(NumericalError):
    """Every particle weight underflowed to zero."""


class LengthMismatch(NumericalError):
    """Series of unequal length."""


# -- pmh --------------------------------------------------------------------

class SeriesTooShort(NumericalError):
    """Series shorter than the requested maximum lag."""


class BurnInTooLarge(NumericalError):
    """Burn-in does not leave any post burn-in samples."""


# -- cli --------------------------------------------------------------------

class MissingColumn(DataError):
    """Required CSV column is absent."""


class NonPositivePrice(DataError):
    """Close price is zero or negative."""


class EmptyFile(DataError):
    """CSV contains no data rows."""
