"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto exit codes without string matching.
"""


class XmcliteError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(XmcliteError):
    """Invalid, conflicting, or unknown configuration values."""


class DatasetFormatError(XmcliteError):
    """Malformed dataset file.  Messages include a 1-based line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        loc = []
        if path is not None:
            loc.append(path)
        if line is not None:
            loc.append(f"line {line}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)


class DegenerateEmbeddingError(XmcliteError):
    """A vector that must be normalized has zero norm (e.g. all-zero rows),
    or a vector to be scored holds a NaN or an infinity."""


class TrainingAbort(XmcliteError):
    """Training produced a non-finite loss, gradient, or parameter."""
