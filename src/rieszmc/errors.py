"""Exception hierarchy shared by all rieszmc modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4, and prints the class name in its JSON
error line.  A failure has a class of its own only where a caller tells it
apart, by catching it or by that name; invalid arguments raise ValueError.
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


class DegenerateDensity(NumericalError):
    """Target density is identically zero on the evaluation grid."""


# -- sampler ----------------------------------------------------------------

class BudgetExhausted(NumericalError):
    """Candidate pools spent before the configuration was complete."""


# -- smc --------------------------------------------------------------------

class AllWeightsZero(NumericalError):
    """Every particle weight underflowed to zero."""


# -- cli --------------------------------------------------------------------

class MissingColumn(DataError):
    """Required CSV column is absent."""


class NonPositivePrice(DataError):
    """Close price is zero or negative."""


class EmptyFile(DataError):
    """CSV contains no data rows."""
