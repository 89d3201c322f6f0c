"""Exception hierarchy shared by all modules."""


class EslnError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EslnError):
    """Base class for configuration problems (CLI exit code 2)."""


class ParseError(ConfigError):
    """The configuration document is not structurally readable."""


class ValidationError(ConfigError):
    """A configuration value is invalid.  Carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NumericalError(EslnError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class AsymmetricInput(NumericalError):
    """A matrix required to be symmetric fails the symmetry tolerance."""


class NonPositiveMode(NumericalError):
    """The bath dynamical matrix has a non-positive eigenvalue."""


class DimensionMismatch(NumericalError):
    """Array shapes are inconsistent with the declared system/bath sizes."""


class FactorizationFailure(NumericalError):
    """No factor a with a @ a.T = sigma met the residual bound."""


class TooManyFailures(NumericalError):
    """More than the tolerated fraction of trajectories diverged."""


class CapExceeded(NumericalError):
    """A configured size cap (covariance dimension, Hilbert dimension) was exceeded."""


class TruncationWarning(UserWarning):
    """The oscillator Fock truncation looks unconverged for the requested temperature."""
