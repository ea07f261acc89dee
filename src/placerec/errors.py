"""Exception taxonomy.

ValidationError and FormatError mean the caller handed us something bad
(exit code 1 at the CLI); NumericalError means the computation itself went
wrong (exit code 2).
"""


def brief(value, limit: int = 80) -> str:
    """repr(value) for an error message, cut after `limit` characters with a
    marker giving its full length, so one huge field cannot flood a message."""
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} chars)"


class PlacerecError(Exception):
    """Base class for all library errors."""


class ShapeError(PlacerecError):
    """Operands with incompatible shapes."""


class FrozenRegionError(PlacerecError):
    """A trainable parameter was read inside a frozen region."""


class TapeReuseError(PlacerecError):
    """A tape was asked to backward twice, or tapes were nested."""


class DegenerateInputError(PlacerecError):
    """Input outside an op's domain, e.g. normalizing a zero vector."""


class ContractError(PlacerecError):
    """A documented precondition was violated by the caller."""


class ValidationError(PlacerecError):
    """Bad configuration or arguments."""


class FormatError(PlacerecError):
    """Malformed binary or CSV file."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalError(PlacerecError):
    """Non-finite values or a failed numerical check at runtime."""
