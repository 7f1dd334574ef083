"""Exception types shared across the package."""


class FanshiftError(Exception):
    """Base class for all package errors."""


class RangeError(FanshiftError, ValueError):
    """A parameter lies outside its admissible range."""


class WindowExhausted(FanshiftError):
    """A shift would move past the known transition window."""


class HypothesisViolated(FanshiftError):
    """A supplied map breaks an invariance required for lifting.

    The offending sample is attached as ``witness``.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class WellDefinednessError(FanshiftError):
    """A map does not descend to equivalence classes; carries a witness pair."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class TruncationError(FanshiftError):
    """A query needs parameter coordinates beyond the modeled truncation."""


class PathNotFound(FanshiftError):
    """Connector search exhausted its caps; raise the caps and retry."""


class NotDistinguished(FanshiftError):
    """Two parameters agree on every modeled coordinate; deepen the truncation."""


class ResourceCapExceeded(FanshiftError):
    """An enumeration or search exceeded its configured cap."""
