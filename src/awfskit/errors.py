"""Exception types shared across the engine.

Every failure mode that callers are expected to handle gets its own class;
anything else is a plain bug and surfaces as an ordinary exception.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine failures."""


class CompositionError(EngineError):
    """Attempted to compose maps or squares whose boundaries do not match."""


class DiagramError(EngineError):
    """Structural data is malformed: bad table, bad boundary, bad index."""


class UniversalityError(EngineError):
    """A mediating-map request was made for a cocone that does not commute."""


class InvalidPresentation(EngineError):
    """Presentation data fails a category or functor axiom."""


class NonNaturalLifting(EngineError):
    """A family of fillers fails the compatibility needed to descend to the
    adjoined part of a one-step object."""


class SizeBudgetExceeded(EngineError):
    """An enumeration or carrier grew past the configured budget."""


class NotStabilised(EngineError):
    """The chain did not become stationary within the computed stages.

    Carries the per-stage carrier sizes so callers can report growth.
    """

    def __init__(self, message: str, sizes: list[int] | None = None):
        super().__init__(message)
        self.sizes = list(sizes) if sizes is not None else []


class ProblemMismatch(EngineError):
    """A lifting problem does not target the object it was claimed to."""


class ParseError(EngineError):
    """Input file could not be decoded into engine data."""


class OutputError(EngineError):
    """Output file could not be written."""
