"""Exception types shared across the package."""


class QcsLabError(Exception):
    """Base class for all qcslab errors."""


class InvalidParameterError(QcsLabError, ValueError):
    """A parameter is outside its documented domain."""


class DimensionMismatchError(QcsLabError, ValueError):
    """Vector/matrix shapes do not agree."""


class DegenerateMatrixError(QcsLabError):
    """Matrix does not have the rank required by the operation."""


class DegenerateRangeError(QcsLabError):
    """Quantizer range collapsed to zero (all-zero input)."""


class DegenerateSupportError(QcsLabError):
    """Support submatrix is rank deficient."""


class ConfigError(InvalidParameterError):
    """A value the user sets is outside its domain.

    field names it (a config field such as "budgets", or a parameter such
    as "delta"); message says what is wrong without restating it, so the
    CLI can name a flag instead. str(exc) reads "field: message".
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")
