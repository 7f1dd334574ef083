"""Exception types shared across the package."""


class FanshiftError(Exception):
    """Base class for all package errors."""


class RangeError(FanshiftError, ValueError):
    """A parameter lies outside its admissible range."""


class WindowExhausted(FanshiftError):
    """A shift would move past the known transition window."""


class _Witnessed(FanshiftError):
    """An error that carries the offending sample as ``witness``."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class HypothesisViolated(_Witnessed):
    """A supplied map breaks an invariance required for lifting."""


class WellDefinednessError(_Witnessed):
    """A map does not descend to equivalence classes; the witness is a pair."""


class TruncationError(FanshiftError):
    """A query needs parameter coordinates beyond the modeled truncation."""


class PathNotFound(FanshiftError):
    """Connector search exhausted its caps; raise the caps and retry."""


class NotDistinguished(FanshiftError):
    """Two parameters agree on every modeled coordinate; deepen the truncation."""


class ResourceCapExceeded(FanshiftError):
    """An enumeration or search exceeded its configured cap."""
