"""Exception types shared across the package."""


class ChensieveError(Exception):
    """Base class for all package errors."""


class CapacityError(ChensieveError, ValueError):
    """A query exceeds the range a table or evaluator was built for."""


class DomainError(ChensieveError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConfigError(ChensieveError, ValueError):
    """A configuration value is outside its allowed range."""


class CacheError(ChensieveError, ValueError):
    """A cache file is missing, truncated, or fails validation."""


class CertificateError(ChensieveError):
    """A bulk computation failed the check that certifies its result."""
