"""Exception types shared across the toolkit.

Every rejection carries a locator (line number, document id, record
position) so that failures can be traced back to their source.
"""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class ConfigError(ToolkitError):
    """Invalid run configuration: bad flag combination, missing input,
    malformed config file."""


class ParseError(ToolkitError):
    """Malformed input file; `line`, its 1-based line number when known, is the message's locator."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ToolkitError):
    """Well-formed input that violates a data invariant."""


class ContextError(ToolkitError):
    """A prediction record refers to an anchor outside the trigger context."""


class StoreError(ToolkitError):
    """Trigger-store integrity or fingerprint failure."""
