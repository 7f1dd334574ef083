"""The base compactum: a ray of unit intervals plus a point at infinity.

Points live on ``[0,1] u [2,3] u [4,5] u ...`` together with one extra point
``infinity``.  The metric is pulled back through an increasing chart that
sends the k-th interval (k = 1, 2, ...) affinely onto
``[1 - 2^(2-2k), 1 - 2^(1-2k)]`` and infinity to 1, so interval k has
diameter exactly ``2^(1-2k)`` and the intervals accumulate at infinity.
"""

from __future__ import annotations

import math
from operator import attrgetter

# The one float slack of the package.  The relation's pieces are computed
# exactly up to rounding, so every comparison between quantities computed the
# same way is exact; only a piece round trip differs from its input.  This
# bounds |piece^-1(piece(u)) - u| for every piece (measured worst: 1.1e-16).
ROUNDTRIP_EPS = 1e-12


def cbrt(u: float) -> float:
    """Cube root on [0, 1] with one Newton polish (exact on exact cubes)."""
    if u == 0.0:
        return 0.0
    r = u ** (1.0 / 3.0)
    return r - (r * r * r - u) / (3.0 * r * r)


# sets an attribute past the read-only guard of ``_Frozen``; only
# ``__init__`` methods, trusted constructors and ``__setstate__`` call it
_set = object.__setattr__


class _Frozen:
    """Base of the hashed value types.

    Equality and hashing read the fields that the class's ``_key`` getter
    returns, and only between instances of one class.  Attributes are set
    once, with ``_set``; assigning or deleting one afterwards raises.  It
    lives here because every module that defines a value type imports this
    one.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set or delete {name!r}"
        )

    __delattr__ = __setattr__

    def __setstate__(self, state):
        """Restore a copied or unpickled value through ``_set``; ``state``
        is the instance dict of a class without slots, or the pair
        ``(dict or None, slots)`` of a slotted one."""
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                _set(self, name, value)


class XPoint(_Frozen):
    """A point of the compactum.

    ``k`` is the 1-based interval index and ``u`` the local coordinate in
    [0, 1]; the ambient position is ``2(k-1) + u``.  ``k is None`` encodes
    the point at infinity.  A local coordinate outside [0, 1] is rejected.
    """

    __slots__ = ("k", "u")
    _key = attrgetter("k", "u")

    def __init__(self, k: int | None, u: float = 0.0):
        if k is None:
            u = 0.0
        elif k < 1:
            raise ValueError(f"interval index must be >= 1, got {k}")
        elif not (0.0 <= u <= 1.0):
            raise ValueError(f"local coordinate {u!r} outside [0, 1]")
        _set(self, "k", k)
        _set(self, "u", u)

    @property
    def is_infinity(self) -> bool:
        return self.k is None

    @property
    def ambient(self) -> float:
        """Position on the real line; infinity maps to math.inf."""
        if self.k is None:
            return math.inf
        return 2.0 * (self.k - 1) + self.u


INFINITY = XPoint(None)


def embed(x: XPoint) -> float:
    """Increasing chart into [0, 1]; the metric is the pullback of |.|.

    Interval k lands on [1 - 2^(2-2k), 1 - 2^(1-2k)]; infinity on 1.  All
    endpoint images are dyadic, so diameters and gaps are exact in floats
    for k up to the double-precision mantissa range.
    """
    if x.k is None:
        return 1.0
    return _chart(x.k, x.u)


class _Charts(dict):
    """Chart constants (low end, scale) of interval k, filled on first use."""

    def __missing__(self, k: int) -> tuple[float, float]:
        self[k] = c = (1.0 - 2.0 ** (2 - 2 * k), 2.0 ** (1 - 2 * k))
        return c


_CHARTS = _Charts()


def _chart(k: int, u: float) -> float:
    """The chart on a finite point: local coordinate u of interval k."""
    low, scale = _CHARTS[k]
    return low + u * scale


def dist(x: XPoint, y: XPoint) -> float:
    """Chart metric; bounded by 1, zero only at equal points."""
    return abs(embed(y) - embed(x))


def interval_diameter(k: int) -> float:
    """Diameter of interval k in the chart metric: 2^(1-2k)."""
    if k < 1:
        raise ValueError("interval index must be >= 1")
    return 2.0 ** (1 - 2 * k)
