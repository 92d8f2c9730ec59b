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
