"""Finite-precision toolkit for a transitive shift on a compactified ray of
intervals, its Cantor-bundle planar model, the quotient fans obtained by
gluing diagonal arcs, and the endpoint-accumulation counts that tell the
fans apart."""

from .errors import (
    FanshiftError,
    HypothesisViolated,
    NotDistinguished,
    PathNotFound,
    RangeError,
    ResourceCapExceeded,
    TruncationError,
    WellDefinednessError,
    WindowExhausted,
)
from .itinerary import Letter, Word
from .mahavier import ALL_INFINITY, MPoint, WindowConfig
from .quotients import AParam, CPoint, FanModel, Gluing, Leg
from .xspace import INFINITY, XPoint

__version__ = "0.1.0"

__all__ = [
    "ALL_INFINITY",
    "AParam",
    "CPoint",
    "FanModel",
    "FanshiftError",
    "Gluing",
    "HypothesisViolated",
    "INFINITY",
    "Leg",
    "Letter",
    "MPoint",
    "NotDistinguished",
    "PathNotFound",
    "RangeError",
    "ResourceCapExceeded",
    "TruncationError",
    "WellDefinednessError",
    "WindowConfig",
    "WindowExhausted",
    "Word",
    "XPoint",
    "__version__",
]
