"""Exception types shared across the package, and how their messages quote a value."""


def shown(value) -> str:
    """``value``'s repr for an error message, cut at 120 characters as model.json's
    readers cut theirs: a config value or a data file's cell can be any size."""
    return repr(value)[:120]


class VqclassError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(VqclassError):
    """A configuration value is missing, malformed, or out of range."""


class BindingError(VqclassError):
    """An array does not fit what it is bound to: a circuit's parameter
    count or state shape, or a kernel's row and column ids."""


class EncodingError(VqclassError):
    """A feature vector violates the encoder's preconditions."""


class DataError(VqclassError):
    """Input data is malformed or insufficient for the requested operation."""


class OptimizerError(VqclassError):
    """The optimizer hit a non-finite objective value and cannot continue."""
