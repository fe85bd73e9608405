"""Exception types shared across the package, and the two value rules of
the config dataclasses: floats are finite, comma lists name each value once.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto exit codes without string matching.
"""

import math
from dataclasses import fields


class XmcliteError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(XmcliteError):
    """Invalid, conflicting, or unknown configuration values."""


def reject_bad_values(config) -> None:
    """Raise ``ConfigError`` naming the first field of the dataclass
    ``config`` that holds a NaN or an infinity, or a tuple that lists a
    value twice (a repeat would fold into one ``P@k`` key or write one
    sweep row twice)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        if isinstance(value, tuple) and len(set(value)) < len(value):
            repeat = next(v for i, v in enumerate(value) if v in value[:i])
            raise ConfigError(f"{f.name} lists {repeat} more than once, in "
                              f"{','.join(map(str, value))}")


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
