"""Exception types shared across the package."""


class NagdynError(Exception):
    """Base class for all package-specific failures."""


class DomainError(NagdynError):
    """Argument lies outside the mathematical domain of the operation."""


class OverflowSaturation(NagdynError):
    """An exponentially growing factor exceeded the representable range."""


class SingularBasis(NagdynError):
    """The fundamental system collapsed and initial data cannot be matched."""


class EigensolverNoConvergence(NagdynError):
    """LAPACK ``geev`` did not converge on the matrix."""


class NoEquilibrium(NagdynError):
    """The stationarity system G x + b = 0 has no solution."""


class NonFiniteField(NagdynError):
    """A user-supplied vector field returned NaN or infinity."""


class NotApplicable(NagdynError):
    """The requested quantity is undefined for this configuration."""


class TrivialNullspace(NagdynError):
    """The matrix has no null space to project onto."""


class InsufficientPoints(NagdynError):
    """Too few samples survive windowing/envelope extraction to fit."""


class NonPositiveSeries(NagdynError):
    """A series that must be positive for log fitting has entries <= 0."""


class ConfigError(NagdynError):
    """An experiment configuration is malformed or inconsistent."""


class GridTooLarge(ConfigError):
    """A parameter sweep requests more grid points than the safety cap."""
