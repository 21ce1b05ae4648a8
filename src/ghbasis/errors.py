"""Shared exception types."""


class PartitionError(ValueError):
    """Malformed partition input (empty, non-decreasing, non-positive parts)."""


class NotAHookError(ValueError):
    """Partition is not of the form (K+1, 1^L)."""


class SizeLimitError(ValueError):
    """Requested computation exceeds the configured size cap."""


class PolynomialSyntaxError(ValueError):
    """Polynomial text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NoPreimageError(ValueError):
    """Cross diagram is not the S (or T) part of any valid drawing."""


class RewriteDefectError(RuntimeError):
    """Internal rewriting invariant failed; signals a logic bug, not bad input."""


class InvariantError(RuntimeError):
    """A construction broke a property it guarantees; signals a logic bug, not bad input."""
