"""Exception types shared across the package."""


class VqclassError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(VqclassError):
    """A configuration value is missing, malformed, or out of range."""


class BindingError(VqclassError):
    """A circuit was run with the wrong parameter count or state shape."""


class EncodingError(VqclassError):
    """A feature vector violates the encoder's preconditions."""


class DataError(VqclassError):
    """Input data is malformed or insufficient for the requested operation."""


class OptimizerError(VqclassError):
    """The optimizer hit a non-finite objective value and cannot continue."""
