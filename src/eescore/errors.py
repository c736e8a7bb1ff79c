"""Exception types shared across the toolkit.

Every rejection carries a locator (line number, document id, record
position) so that failures can be traced back to their source.
"""

from contextlib import contextmanager

_REASONS = {FileNotFoundError: "does not exist", IsADirectoryError: "is not a file",
            NotADirectoryError: "is not a directory"}


class ToolkitError(Exception):
    """Base class for all toolkit failures; `line`, the 1-based line of the input at fault when known,
    leads the message as its locator."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class ConfigError(ToolkitError):
    """Invalid run configuration: bad flag combination, missing input,
    malformed config file."""


class ParseError(ToolkitError):
    """Malformed input file."""


class ValidationError(ToolkitError):
    """Well-formed input that violates a data invariant."""


class ContextError(ToolkitError):
    """A prediction record refers to an anchor outside the trigger context."""


class StoreError(ToolkitError):
    """Trigger-store integrity or fingerprint failure."""


@contextmanager
def naming(what: str, path, faults=ToolkitError, refuse=None):
    """Re-raises a fault of the block as `refuse`, or as its own class, with `{what} {path}: ` before its
    message; an OSError reads as its reason (`_REASONS`, or its strerror). The one place an input is named:

    >>> with naming("corpus", "c.jsonl", OSError, ConfigError):
    ...     raise FileNotFoundError
    Traceback (most recent call last):
    eescore.errors.ConfigError: corpus c.jsonl: does not exist
    """
    try:
        yield
    except faults as exc:
        reason = _REASONS.get(type(exc), exc.strerror or exc) if isinstance(exc, OSError) else exc
        raise (refuse or type(exc))(f"{what} {path}: {reason}") from None
