"""Exception taxonomy shared across the package.

Every domain error derives from PolarError so the CLI can map the whole
family onto a single exit code; callers that care distinguish subclasses.
"""


class PolarError(Exception):
    """Base class for all domain errors raised by this package."""


class RejectedInput(PolarError):
    """An argument violates a documented precondition or invariant."""


class NotFound(PolarError):
    """A referenced node, object, or resource does not exist."""


class ParseError(PolarError):
    """A persisted file is malformed. Carries a line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EncoderUnavailable(PolarError):
    """The remote embedding endpoint failed, timed out, or answered garbage."""


class GroundingFailed(PolarError):
    """No target could be grounded from the provided context."""


class GenerationError(PolarError):
    """A world or scenario request cannot be satisfied."""


class ConfigurationError(PolarError):
    """A pipeline stage was invoked with missing or inconsistent configuration."""


class ExplorationExhausted(PolarError):
    """Every room has been visited; there is nowhere left to search."""
