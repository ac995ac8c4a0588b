"""Exception types shared across the package."""


class MinfolError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(MinfolError):
    pass


class InvalidSupportError(MinfolError):
    pass


class IntegrationFailureError(MinfolError):
    """Integration aborted; carries the last good state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class InsufficientRangeError(MinfolError):
    pass


class InapplicableError(MinfolError):
    pass


class DegenerateFitError(MinfolError):
    pass


class AccuracyError(MinfolError):
    """Quadrature did not converge; carries the achieved estimate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class PartialFamilyError(MinfolError):
    """Some foliation leaves failed to integrate."""

    def __init__(self, message, failed_alphas=()):
        super().__init__(message)
        self.failed_alphas = list(failed_alphas)


class ConfigError(MinfolError):
    pass
