"""The coupling relation on the compactum and its decomposition.

The relation consists of six families of pairs (x, y):

  * a cube-root graph over interval 1,
  * a squaring graph over interval 2,
  * translation up (k -> k+1) over every interval,
  * translation down (k -> k-1) over intervals k >= 2,
  * the identity over intervals k >= 3,
  * the fixed pair at infinity.

The sections ``h_image`` and ``h_preimage`` are read off the letter table of
``itinerary``, the one derived encoding of the relation.  The three total
bijections F1, F2, F3 (``global_apply``/``global_inverse``) and the
membership test ``in_H`` spell the relation out literally instead; they are
the independent oracle.  ``decomposition_check`` verifies by sampling that
the letter-table sections equal the covers by the three graphs and by their
inverses.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .itinerary import letters_with_domain, letters_with_range
from .xspace import INFINITY, ROUNDTRIP_EPS, XPoint, cbrt

GLOBAL_MAPS = ("F1", "F2", "F3")


def global_apply(name: str, x: XPoint) -> XPoint:
    """Evaluate one of the three covering bijections.

    F1 bends interval 1 by the cube root and interval 2 by the square,
    fixing everything else.  F2 swaps intervals in adjacent pairs
    (1,2), (3,4), ...  F3 cube-roots interval 1 and swaps the pairs
    (2,3), (4,5), ...  All three fix infinity.
    """
    if name not in GLOBAL_MAPS:
        raise ValueError(f"unknown global map {name!r}")
    if x.is_infinity:
        return INFINITY
    k, u = x.k, x.u
    if name == "F1":
        if k == 1:
            return XPoint(1, cbrt(u))
        if k == 2:
            return XPoint(2, u * u)
        return x
    if name == "F2":
        return XPoint(k + 1, u) if k % 2 == 1 else XPoint(k - 1, u)
    # F3
    if k == 1:
        return XPoint(1, cbrt(u))
    return XPoint(k + 1, u) if k % 2 == 0 else XPoint(k - 1, u)


def global_inverse(name: str, y: XPoint) -> XPoint:
    if name not in GLOBAL_MAPS:
        raise ValueError(f"unknown global map {name!r}")
    if y.is_infinity:
        return INFINITY
    k, u = y.k, y.u
    if name == "F1":
        if k == 1:
            return XPoint(1, u * u * u)
        if k == 2:
            return XPoint(2, math.sqrt(u))
        return y
    if name == "F2":
        # F2 is an involution.
        return global_apply("F2", y)
    # F3 sends even intervals up and odd intervals >= 3 down.
    if k == 1:
        return XPoint(1, u * u * u)
    return XPoint(k - 1, u) if k % 2 == 1 else XPoint(k + 1, u)


def in_H(x: XPoint, y: XPoint) -> bool:
    """Membership of (x, y) in the relation, up to ``ROUNDTRIP_EPS`` in u.

    The slack lets a pair built through an inverse piece (a preimage)
    still read as a member.
    """
    if x.is_infinity or y.is_infinity:
        return x.is_infinity and y.is_infinity
    eps = ROUNDTRIP_EPS
    if y.k == x.k + 1 and abs(y.u - x.u) <= eps:
        return True
    if x.k >= 2 and y.k == x.k - 1 and abs(y.u - x.u) <= eps:
        return True
    if x.k == 1 and y.k == 1 and abs(y.u - cbrt(x.u)) <= eps:
        return True
    if x.k == 2 and y.k == 2 and abs(y.u - x.u * x.u) <= eps:
        return True
    if x.k >= 3 and y.k == x.k and abs(y.u - x.u) <= eps:
        return True
    return False


def h_image(x: XPoint) -> tuple[XPoint, ...]:
    """The section {y : (x, y) in the relation}, one image per letter
    leaving x's interval, ordered by interval index.

    Cardinality is 2 on interval 1, 3 on intervals k >= 2, and 1 at
    infinity.
    """
    if x.is_infinity:
        return (INFINITY,)
    return tuple(
        XPoint(lt.range_index, lt.piece(x.u)) for lt in letters_with_domain(x.k)
    )


def h_preimage(y: XPoint) -> tuple[XPoint, ...]:
    """The inverse section {x : (x, y) in the relation}, one preimage per
    letter entering y's interval."""
    if y.is_infinity:
        return (INFINITY,)
    return tuple(
        XPoint(lt.domain_index, lt.piece(y.u, inverse=True))
        for lt in letters_with_range(y.k)
    )


class DecompositionReport(NamedTuple):
    """Outcome of the graph-cover check; its fields are its report form,
    serialized with ``_asdict()``."""

    passed: bool
    samples_checked: int
    kmax: int
    first_counterexample: dict | None


def decomposition_check(
    kmax: int,
    samples_per_interval: int,
    *,
    seed: int,
) -> DecompositionReport:
    """Verify that the relation equals the union of the three graphs.

    For sampled x with interval index <= kmax (plus infinity), the section
    of the relation must equal {F1(x), F2(x), F3(x)} as a set, and the
    inverse section must equal the set of the three inverse images.
    Duplicates collapse on interval 1, where F1 and F3 agree.  Both sides
    evaluate the same float expressions, so the sets are compared exactly.
    The two endpoints of each interval count among its samples, so
    ``samples_per_interval`` must be at least 2.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if samples_per_interval < 2:
        raise ValueError("samples_per_interval must be >= 2 (the two endpoints)")
    rng = random.Random(seed)
    checked = 0

    def sample_points():
        yield INFINITY
        for k in range(1, kmax + 1):
            yield XPoint(k, 0.0)
            yield XPoint(k, 1.0)
            for _ in range(samples_per_interval - 2):
                yield XPoint(k, rng.random())

    for x in sample_points():
        for side, section, maps in (
            ("forward", h_image, global_apply),
            ("inverse", h_preimage, global_inverse),
        ):
            if set(section(x)) != {maps(n, x) for n in GLOBAL_MAPS}:
                witness = {"point": {"k": x.k, "u": x.u}, "side": side}
                return DecompositionReport(False, checked, kmax, witness)
        checked += 1

    return DecompositionReport(True, checked, kmax, None)
