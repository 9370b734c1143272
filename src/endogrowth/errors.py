"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: validation problems exit 2, resource
caps exit 3, certification/contract failures exit 4.
"""


class EndoGrowthError(Exception):
    """Base class for all package errors."""


class ValidationError(EndoGrowthError, ValueError):
    """Descriptor, parameter, endomorphism or word failed validation, or a
    matrix shape does not fit the operation."""


class CertificationError(EndoGrowthError, RuntimeError):
    """A numeric result could not be certified to the requested tolerance,
    or derived data failed a cross-check."""


class ResourceCapExceeded(EndoGrowthError, RuntimeError):
    """Enumeration hit the element cap, or an element would outgrow its size
    budget.

    ``completed_radius`` is the largest radius fully explored (None when no
    enumeration was under way).
    """

    def __init__(self, message, completed_radius=None):
        super().__init__(message)
        self.completed_radius = completed_radius
