"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: validation problems exit 2, resource
caps exit 3, certification/contract failures exit 4.
"""


class EndoGrowthError(Exception):
    """Base class for all package errors."""


class DimensionError(EndoGrowthError, ValueError):
    """Matrix or vector shape does not fit the operation."""


class ValidationError(EndoGrowthError, ValueError):
    """Descriptor, parameter, or endomorphism failed validation."""


class UnknownGeneratorError(ValidationError):
    """A word refers to a generator the machine does not have."""


class ContractError(EndoGrowthError, ValueError):
    """Caller violated an operation precondition (e.g. non-commuting data)."""


class CertificationError(EndoGrowthError, RuntimeError):
    """A numeric result could not be certified to the requested tolerance."""


class InconsistencyError(EndoGrowthError, ValueError):
    """Derived data contradicts the group structure (homomorphism violation)."""


class ResourceCapExceeded(EndoGrowthError, RuntimeError):
    """Enumeration hit the element cap, or an element would outgrow its size
    budget.

    ``completed_radius`` is the largest radius fully explored (None when no
    enumeration was under way).
    """

    def __init__(self, message, completed_radius=None):
        super().__init__(message)
        self.completed_radius = completed_radius
