"""Exception types shared across the package."""


class QmaError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(QmaError, ValueError):
    """Incompatible or unsupported dimensions."""


class NumericalInconsistencyError(QmaError, ArithmeticError):
    """A quantity that must be real/zero by theory came out too large.

    Raised instead of silently discarding a suspicious residue, e.g. an
    imaginary part above tolerance in a density that is real by construction.
    """


class OracleError(QmaError, ValueError):
    """A field was asked for a derivative order it cannot provide."""


class QuadratureError(QmaError, RuntimeError):
    """A quadrature rule could not be built or failed its own sanity check."""


class DegenerateLevelSetError(QmaError, ValueError):
    """A level-set operation hit a critical point (vanishing gradient)."""


class ConfigError(QmaError, ValueError):
    """Config file rejected; a message about one line starts "line N:"."""
