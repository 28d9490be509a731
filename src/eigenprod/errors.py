"""Exception taxonomy.

Two families matter for the CLI exit codes: ``ValidationError`` (bad or
insufficient input, exit 2) and ``NumericalError`` (a computation broke
down, exit 3).
"""


class EigenprodError(Exception):
    """Base class for all package errors."""


class ValidationError(EigenprodError):
    """Invalid or insufficient input."""


class ParameterError(ValidationError):
    """A parameter is out of its documented range or malformed."""


class GeometryError(ValidationError):
    """A geometric quantity that must be positive was not."""


class UnderResolvedError(ValidationError):
    """The build caps cannot represent the requested spectrum."""


class FormatError(ValidationError):
    """A persisted artifact is malformed."""


class VersionMismatchError(FormatError):
    """A persisted artifact has an unsupported format version."""


class CorruptionError(FormatError):
    """A persisted artifact failed its integrity checks."""


class NumericalError(EigenprodError):
    """A numerical procedure failed or produced inconsistent results."""


class FactorizationError(NumericalError):
    """A required matrix factorization does not exist (mass matrix not SPD)."""


class ConvergenceError(NumericalError):
    """An iteration hit its cap before reaching tolerance."""


class BreakdownError(NumericalError):
    """Cross-checked quantities disagree or a norm degenerated to zero."""


class GridExhaustedError(NumericalError):
    """A threshold search ran off the end of its grid."""
