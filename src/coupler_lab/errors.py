"""Exception taxonomy shared by all modules.

Maps onto the CLI exit codes: ConfigurationError -> 1; NumericError,
ResourceError and numpy's LinAlgError -> 2; the cli validate command
reports its own failures with exit code 3.
Plain ValueError is used for local domain violations (e.g. beta >= 1).
"""

__all__ = ["ConfigurationError", "ResourceError", "NumericError"]


class ConfigurationError(ValueError):
    """Inconsistent or physically inadmissible input parameters."""


class ResourceError(RuntimeError):
    """A computation would exceed its configured memory budget."""


class NumericError(RuntimeError):
    """A numerical procedure failed to converge.

    ``details`` carries diagnostics (best residuals, iteration counts)
    for machine-readable error reporting.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


def _whole(value, what: str, least: int | None = None) -> int:
    """value as an int; one not a whole number, or below least, raises ConfigurationError."""
    if not float(value).is_integer():
        raise ConfigurationError(f"{what} must be a whole number, got {value}")
    if least is not None and value < least:
        raise ConfigurationError(f"{what} must be >= {least}, got {value}")
    return int(value)
