"""Counting invariant on fan models, with a brute-force metric oracle.

Endpoints of a fan model are the tips of legs that are not glued into a
host.  On the arc from the top to an endpoint, the points where endpoint
sequences accumulate are, in the Cantor-bundle models built here, exactly
the tip heights of the arcs laid onto that leg (the leg itself plus its
glued guests): every tip is the limit of its bundle-neighbors' tips.  The
multiset of those accumulation counts over all endpoints is preserved by
homeomorphisms, so differing profiles certify non-homeomorphic fans.

The combinatorial count is cheap; ``juma_metric_oracle`` recomputes it by
direct limit-point detection in a planar embedding and anchors the rule.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import Counter
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple

from .errors import NotDistinguished
from .mahavier import chunk_x
from .quotients import AParam, FanModel, Leg, build_fan, host_bundle
from .xspace import _Frozen, _set


def juma_heights(fan: FanModel, leg_index: int) -> tuple[float, ...]:
    """Heights on a leg where endpoint sequences accumulate.

    One height per arc laid onto the leg: its own length plus the length
    of every glued guest.  The top (height zero) never appears.
    """
    if not 0 <= leg_index < len(fan.legs):
        raise ValueError("leg index out of range")
    heights = {fan.legs[leg_index].length}
    for gi in fan.guests_of(leg_index):
        heights.add(fan.legs[gi].length)
    return tuple(sorted(heights, reverse=True))


def juma_count(fan: FanModel, leg_index: int) -> int:
    return len(juma_heights(fan, leg_index))


class JumaProfile(_Frozen):
    """Multiset of accumulation counts, one per endpoint, held as sorted
    (count, multiplicity) pairs; ``counts`` lists every endpoint's count,
    or is a ``Counter`` of them."""

    __slots__ = ("pairs",)
    _key = attrgetter("pairs")

    def __init__(self, counts: Iterable[int] | Counter):
        _set(self, "pairs", tuple(sorted(Counter(counts).items())))

    @property
    def distinct_values(self) -> frozenset[int]:
        return frozenset(c for c, _ in self.pairs)

    def multiset(self) -> Counter:
        return Counter(dict(self.pairs))


def profile(fan: FanModel) -> JumaProfile:
    # every endpoint that hosts no guest has one height; adding Counters
    # drops a zero count of ones
    hosts = fan._guests_by_host
    ones = len(fan.legs) - len(fan.guest_indices) - len(hosts)
    return JumaProfile(Counter({1: ones}) + Counter(juma_count(fan, h) for h in hosts))


class DistinguishCertificate(NamedTuple):
    """Witness that two gluing parameters give non-homeomorphic fans; its
    fields are its report form, serialized with ``_asdict()``."""

    k: int
    first_value: int
    second_value: int
    first_counts: dict
    second_counts: dict

    def to_dict(self) -> dict:
        return self._asdict()


@lru_cache(maxsize=512)
def _cached_profile(coords: tuple[int, ...], kmax_bundle: int, depth: int) -> JumaProfile:
    return profile(build_fan(AParam(coords), kmax_bundle, depth))


def distinguish(
    a: AParam, b: AParam, kmax: int, depth: int
) -> DistinguishCertificate:
    """Certificate that the fans of two parameters differ, or an error.

    The first coordinate where the truncated parameters differ contributes
    an accumulation count to one profile that the other cannot realize:
    block k counts land in {2k, 2k+1}, so blocks never collide.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    ta, tb = a.truncate(kmax), b.truncate(kmax)
    if ta.coords == tb.coords:
        raise NotDistinguished(
            "parameters agree on every modeled coordinate; raise kmax"
        )
    shared = min(len(ta), len(tb))
    k = next((pos for pos in range(1, shared + 1) if ta[pos] != tb[pos]), None)
    if k is None:
        raise NotDistinguished(
            f"parameters agree on their {shared} shared coordinates and "
            f"coordinate {shared + 1} is unmodeled in the shorter one"
        )
    kmax_bundle = host_bundle(kmax) + 2 * kmax
    pa = _cached_profile(ta.coords, kmax_bundle, depth)
    pb = _cached_profile(tb.coords, kmax_bundle, depth)
    va, vb = ta[k] + 1, tb[k] + 1
    if va not in pa.distinct_values or va in pb.distinct_values:
        raise NotDistinguished(
            f"count {va} did not separate the profiles; raise kmax"
        )
    return DistinguishCertificate(
        k, va, vb, dict(pa.multiset()), dict(pb.multiset())
    )


# ---------------------------------------------------------------------------
# Planar embedding and the metric oracle
# ---------------------------------------------------------------------------


def leg_x(leg: Leg) -> float:
    """Horizontal position of a leg: its address embedded in its chunk."""
    try:
        k = int(leg.bundle)
    except ValueError as exc:
        raise ValueError(
            f"bundle {leg.bundle!r} has no planar chunk position"
        ) from exc
    return chunk_x(k, leg.address)


def _grid_hit(lo_h: float, hi_h: float, step: float, cells: int) -> bool:
    """Whether a grid height idx*step, 1 <= idx <= cells, lies in [lo_h, hi_h]
    up to 1e-15; only ``first`` and ``first + 1`` need comparing (see
    ``juma_metric_oracle``)."""
    first = max(1, math.ceil(lo_h / step - 1e-9))
    last = min(math.floor(hi_h / step + 1e-9), cells, first + 1)
    for idx in range(first, last + 1):
        if lo_h - 1e-15 <= idx * step <= hi_h + 1e-15:
            return True
    return False


def _leg_clusters(reps, grid: float, cells: int) -> list[tuple[float, float]]:
    """Kept detection intervals of one maximal leg.

    ``reps`` lists the leg's representatives as (tips, rx, cap, me): the
    sorted tip columns, local leg indices and tip lengths of the rep's
    bundle (None when that bundle has no tips), the rep's column, the
    height up to which it stands for the leg, and the leg's own local index
    in those tips (-1 when it is not among them).
    """
    # exclude the top: nothing below half the finest grid step counts
    floor = 0.5 * grid * min(cap for _, _, cap, _ in reps)
    intervals: list[tuple[float, float]] = []
    for tips, rx, cap, me in reps:
        if tips is None:
            continue
        xs, order, hs = tips
        # the nearest other tip is the first entry on each side of rx
        # that is not the leg itself, which occurs at most once
        p = bisect.bisect_left(xs, rx)
        left = p - 2 if p > 0 and order[p - 1] == me else p - 1
        right = p + 1 if p < len(xs) and order[p] == me else p
        near = abs(xs[left] - rx) if left >= 0 else math.inf
        if right < len(xs):
            near = min(near, abs(xs[right] - rx))
        delta = 1.5 * near
        if not math.isfinite(delta) or delta <= 0.0:
            continue
        # every tip in [rx - delta, rx + delta]: walk outward from p
        lo_x, hi_x = rx - delta, rx + delta
        lo = hi = p
        while lo > 0 and xs[lo - 1] >= lo_x:
            lo -= 1
        while hi < len(xs) and xs[hi] <= hi_x:
            hi += 1
        for q in range(lo, hi):
            if order[q] == me:
                continue
            dx = xs[q] - rx
            if abs(dx) > delta:
                continue
            s = math.sqrt(delta * delta - dx * dx)
            eh = hs[q]
            lo_h = max(eh - s, floor)
            hi_h = min(eh + s, cap)
            if lo_h <= hi_h:
                intervals.append((lo_h, hi_h))

    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for lo_h, hi_h in intervals[1:]:
        if lo_h <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi_h))
        else:
            merged.append((lo_h, hi_h))

    # grid heights: relative subdivisions of every arc laid on this leg
    steps = [cap * grid for _, _, cap, _ in reps]
    kept = []
    for lo_h, hi_h in merged:
        for step in steps:
            if _grid_hit(lo_h, hi_h, step, cells):
                kept.append((lo_h, hi_h))
                break
    return kept


def _agrees(expected, got) -> bool:
    """One detection interval per expected height, each height inside one."""
    if len(got) != len(expected):
        return False
    return all(any(lo <= h <= hi for lo, hi in got) for h in expected)


class _BundleScan(NamedTuple):
    """Detection over one bundle's tips, each leg taken without guests.

    Legs are indexed locally, in the order given.  ``tips`` holds the tip
    columns sorted by column, with the local index and length at each
    sorted position.  Local leg j's kept clusters are the (lo, hi) pairs
    ``bounds[2*starts[j]:2*starts[j+1]]``; ``misses`` lists the legs whose
    clusters do not single out their own length.
    """

    tips: tuple[array, array, array]
    starts: array
    bounds: array
    misses: array

    def clusters(self, j: int) -> list[tuple[float, float]]:
        b = self.bounds
        return [(b[2 * c], b[2 * c + 1]) for c in range(*self.starts[j : j + 2])]


@lru_cache(maxsize=32)  # a census depth has about 30 distinct bundle tip sets
def _bundle_scan(legs: tuple[Leg, ...], grid: float) -> _BundleScan:
    """Clusters of every leg of one bundle, keyed on the legs' content, so
    fans that share a bundle's tips share its detection."""
    cols = [leg_x(leg) for leg in legs]
    order = sorted(range(len(legs)), key=cols.__getitem__)  # stable: ties by index
    tips = ([cols[j] for j in order], order, [legs[j].length for j in order])
    cells = round(1.0 / grid)
    starts, bounds, misses = array("i", [0]), array("d"), array("i")
    for j, leg in enumerate(legs):
        kept = _leg_clusters([(tips, cols[j], leg.length, j)], grid, cells)
        for lo_h, hi_h in kept:
            bounds.extend((lo_h, hi_h))
        starts.append(len(bounds) // 2)
        if not _agrees((leg.length,), kept):
            misses.append(j)
    xs, order, hs = tips
    flat = array("d", xs), array("i", order), array("d", hs)
    return _BundleScan(flat, starts, bounds, misses)


class OracleResult:
    """Detected accumulation points per maximal leg.

    ``_scans`` holds, per bundle, the global indices of its tips and their
    memoised, shared ``_BundleScan``, valid for every leg that hosts no
    guest; ``_hosts`` holds each host's own merged detection intervals.
    """

    def __init__(self, scans: dict, hosts: dict):
        self._scans = scans
        self._hosts = hosts


def juma_metric_oracle(fan: FanModel, grid: float = 2.0**-10) -> OracleResult:
    """Brute-force limit-point detection in the planar embedding.

    Legs hang as vertical segments over their chunk positions; glued
    guests are laid onto their hosts, so a host point at height tau also
    represents the guest columns up to each guest's length.  A grid point
    is detected when an endpoint of another leg lies within 1.5 times the
    distance from the point's column to the nearest endpoint column of
    the same bundle: the scale at which every column sees its bundle
    neighbors but no foreign structure.

    A merged detection interval is kept when a grid height idx*step lies in
    it up to 1e-15, for some arc laid on the leg (step = arc length * grid)
    and some 1 <= idx <= 1/grid; so ``grid`` must lie in (0, 1), with a
    finite 1/grid.  The candidates run from first = ceil(lo/step - 1e-9)
    to min(last, 1/grid).
    As idx*step does not decrease as idx grows, the matching indices form
    one contiguous run, and the 1e-9 slack keeps (first + 1)*step above
    lo - 1e-15: the run, if it meets the candidates, contains ``first`` or
    ``first + 1``, and only those two are compared.

    A leg that hosts no guest reads only its own bundle's tips, so each
    bundle is scanned once per distinct tip set (``_bundle_scan``); hosts
    are then detected from their own and their guests' columns.
    """
    if not (0.0 < grid < 1.0 and math.isfinite(1.0 / grid)):
        raise ValueError(f"grid must be in (0, 1) with a finite 1/grid, got {grid}")
    legs, guests = fan.legs, fan.guest_indices
    # tips by bundle: every leg that is not a guest, in leg order
    by_bundle: dict[str, list[int]] = {}
    for i, leg in enumerate(legs):
        if i not in guests:
            by_bundle.setdefault(leg.bundle, []).append(i)
    scans = {
        bundle: (idx, _bundle_scan(tuple(legs[i] for i in idx), grid))
        for bundle, idx in by_bundle.items()
    }

    cells = round(1.0 / grid)
    hosts = {}
    for li, guests_of in fan._guests_by_host.items():
        # representatives of this leg's points: its own column plus each
        # glued guest's column, valid up to the guest's length
        reps = []
        for i in (li, *guests_of):
            leg = legs[i]
            tips, me = None, -1
            if leg.bundle in scans:
                idx, scan = scans[leg.bundle]
                tips = scan.tips
                p = bisect.bisect_left(idx, li)
                if p < len(idx) and idx[p] == li:
                    me = p
            reps.append((tips, leg_x(leg), leg.length, me))
        hosts[li] = _leg_clusters(reps, grid, cells)
    return OracleResult(scans, hosts)


def oracle_agreement(fan: FanModel, grid: float = 2.0**-10) -> dict:
    """Compare the combinatorial heights with the metric oracle per leg."""
    result = juma_metric_oracle(fan, grid)
    found = []
    # a leg with no guests has one height: its own length
    for idx, scan in result._scans.values():
        for j in scan.misses:
            li = idx[j]
            if li not in result._hosts:
                found.append((li, (fan.legs[li].length,), scan.clusters(j)))
    for li, got in result._hosts.items():
        expected = juma_heights(fan, li)
        if not _agrees(expected, got):
            found.append((li, expected, got))
    found.sort(key=itemgetter(0))
    mismatches = [
        {"leg": li, "expected": list(expected), "clusters": [list(c) for c in got]}
        for li, expected, got in found
    ]
    return {"passed": not mismatches, "mismatches": mismatches}
