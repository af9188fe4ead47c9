"""Exception types shared across the package, and the count check."""

import numbers


class AdialabError(Exception):
    """Base class for all library-specific failures."""


class DomainError(AdialabError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class IntegrityError(AdialabError):
    """A value violates a structural invariant (e.g. a non-Hermitian matrix)."""


class NumericalError(AdialabError):
    """A numerical routine failed or produced an untrustworthy result."""


class NumericalInstabilityError(NumericalError):
    """State-norm drift exceeded its guard, aggregated over the steps to each
    reported state: every snapshot, the final and the half-grid state."""


class GapCollapseError(NumericalError):
    """The tracked eigenvalue became (near-)degenerate somewhere on the grid."""


class UnderResolvedGridError(NumericalError):
    """The grid is too coarse: consecutive eigenpath samples overlap too
    little to identify the branch, or the spline of the tracked eigenvalue
    overshoots the eigenvalue lemma's bounds."""


class NonConvergenceError(NumericalError):
    """An adaptive refinement loop hit its ceiling before reaching tolerance."""


class FeasibilityError(AdialabError):
    """The requested computation exceeds the configured resource ceilings."""


class ConfigError(AdialabError):
    """A run configuration file is malformed or inconsistent."""


def require_count(value, name: str, minimum: int) -> None:
    """``DomainError`` unless value is an integer >= minimum, bool excluded."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
