"""Exception types shared across the toolkit.

Every rejection carries a locator (line number, document id, record
position) so that failures can be traced back to their source.
"""


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
