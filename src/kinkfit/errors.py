"""Exception hierarchy.

Every error raised by the library derives from :class:`KinkfitError`,
so callers (notably the CLI) can map failure classes to exit codes
without string matching.
"""


class KinkfitError(Exception):
    """Base class for all kinkfit errors."""


class DomainError(KinkfitError, ValueError):
    """An argument is outside the domain of the operation (non-finite,
    wrong sign, wrong shape)."""


class DataError(KinkfitError):
    """A dataset violates its invariants (support, size, missing values)."""


class ValidationError(KinkfitError):
    """A user-supplied kernel or configuration failed validation."""


class IdentifiabilityError(KinkfitError):
    """The slope-change coefficient is (numerically) zero, so the change
    point is not identified."""


class InitializationError(KinkfitError):
    """No grid candidate produced a usable fixed-change-point GLM fit."""


class ConvergenceError(KinkfitError):
    """The Newton ascent could not make progress (indefinite curvature
    that ridge escalation failed to repair)."""


class BoundaryError(KinkfitError):
    """The change-point estimate ran into the edge of the covariate range."""


class NumericError(KinkfitError):
    """A non-finite intermediate appeared during evaluation.

    Attributes:
        index: position of the offending observation, when known.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InferenceError(KinkfitError):
    """Variance estimation failed (singular information matrix, or the fit
    did not converge)."""


class BootstrapError(KinkfitError):
    """The stratified bootstrap could not run (undersized stratum or too
    many failed refits)."""
