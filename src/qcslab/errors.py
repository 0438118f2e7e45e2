"""The three exception types, and the rule for a list that a user sets.

QcsLabError is a failed computation (a failed trial; the CLI exits 2);
InvalidParameterError, a ValueError, an argument outside its domain or
shape; ConfigError, one the user sets, naming its field (exit 1)."""


class QcsLabError(Exception):
    """Base class for all qcslab errors."""


class InvalidParameterError(QcsLabError, ValueError):
    """A parameter is outside its documented domain or has the wrong shape."""


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


def check_entries(field: str, values) -> None:
    """Reject an empty list, or one that repeats an entry (which would run
    and count its tuples twice, or write one file twice)."""
    if not values:
        raise ConfigError(field, "must be nonempty")
    if len(set(values)) != len(values):
        raise ConfigError(field, f"entries must be distinct, got {list(values)!r}")
