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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import NotDistinguished
from .mahavier import chunk_x
from .quotients import AParam, FanModel, build_fan, host_bundle


def endpoints(fan: FanModel) -> tuple[int, ...]:
    """Indices of legs whose tips are endpoints: everything not a guest."""
    guests = fan.guest_indices
    return tuple(i for i in range(len(fan.legs)) if i not in guests)


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


@dataclass(frozen=True)
class JumaProfile:
    """Sorted multiset of accumulation counts, one per endpoint."""

    counts: tuple[int, ...]

    @cached_property
    def _tally(self) -> Counter:
        return Counter(self.counts)

    @cached_property
    def distinct_values(self) -> frozenset[int]:
        return frozenset(self._tally)

    def multiset(self) -> Counter:
        return Counter(self._tally)  # a copy, so the tally stays as counted

    def to_dict(self) -> dict:
        return {"counts": sorted(self._tally.items())}


def profile(fan: FanModel) -> JumaProfile:
    hosts = fan._guests_by_host  # a leg with no guests has one height
    counts = (juma_count(fan, e) if e in hosts else 1 for e in endpoints(fan))
    return JumaProfile(tuple(sorted(counts)))


@dataclass
class DistinguishCertificate:
    """Witness that two gluing parameters give non-homeomorphic fans."""

    k: int
    first_value: int
    second_value: int
    first_counts: dict
    second_counts: dict

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "first_value": self.first_value,
            "second_value": self.second_value,
            "first_counts": dict(self.first_counts),
            "second_counts": dict(self.second_counts),
        }


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


def leg_x(fan: FanModel, leg_index: int) -> float:
    """Horizontal position of a leg: its address embedded in its chunk."""
    leg = fan.legs[leg_index]
    try:
        k = int(leg.bundle)
    except ValueError as exc:
        raise ValueError(
            f"bundle {leg.bundle!r} has no planar chunk position"
        ) from exc
    return chunk_x(k, leg.address)


@dataclass
class OracleResult:
    """Detected accumulation points per maximal leg.

    ``clusters`` maps a leg index to merged detection intervals (lo, hi).
    """

    clusters: dict


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
    """
    if not (0.0 < grid < 1.0 and math.isfinite(1.0 / grid)):
        raise ValueError(f"grid must be in (0, 1) with a finite 1/grid, got {grid}")
    guests = fan.guest_indices
    maximal = [i for i in range(len(fan.legs)) if i not in guests]
    # every leg is maximal or the guest of a maximal host
    col = [leg_x(fan, i) for i in range(len(fan.legs))]

    # endpoints by bundle, sorted by x, for windowed lookups
    tips: dict[str, list[tuple[float, int, float]]] = {}
    for i in maximal:
        leg = fan.legs[i]
        tips.setdefault(leg.bundle, []).append((col[i], i, leg.length))
    for entries in tips.values():
        entries.sort()
    tip_xs = {bundle: [e[0] for e in entries] for bundle, entries in tips.items()}

    cells = round(1.0 / grid)
    clusters: dict[int, list[tuple[float, float]]] = {}

    for li in maximal:
        leg = fan.legs[li]
        # representatives of this leg's points: its own column plus each
        # glued guest's column, valid up to the guest's length
        reps = [(col[li], leg.length, leg.bundle)]
        for gi in fan.guests_of(li):
            g = fan.legs[gi]
            reps.append((col[gi], g.length, g.bundle))
        # exclude the top: nothing below half the finest grid step counts
        floor = 0.5 * grid * min(cap for _, cap, _ in reps)

        intervals: list[tuple[float, float]] = []
        for rx, cap, bundle in reps:
            entries = tips.get(bundle, ())
            xs = tip_xs.get(bundle, ())
            # the nearest other tip is the first entry on each side of rx
            # that is not li, which occurs at most once in the list
            p = bisect.bisect_left(xs, rx)
            left = p - 2 if p > 0 and entries[p - 1][1] == li else p - 1
            right = p + 1 if p < len(xs) and entries[p][1] == li else p
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
            for ex, ei, eh in entries[lo:hi]:
                if ei == li:
                    continue
                dx = ex - rx
                if abs(dx) > delta:
                    continue
                s = math.sqrt(delta * delta - dx * dx)
                lo_h = max(eh - s, floor)
                hi_h = min(eh + s, cap)
                if lo_h <= hi_h:
                    intervals.append((lo_h, hi_h))

        if not intervals:
            continue
        intervals.sort()
        merged = [intervals[0]]
        for lo_h, hi_h in intervals[1:]:
            if lo_h <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi_h))
            else:
                merged.append((lo_h, hi_h))

        # grid heights: relative subdivisions of every arc laid on this leg
        steps = [cap * grid for _, cap, _ in reps]
        kept = []
        for lo_h, hi_h in merged:
            for step in steps:
                if _grid_hit(lo_h, hi_h, step, cells):
                    kept.append((lo_h, hi_h))
                    break
        if kept:
            clusters[li] = kept

    return OracleResult(clusters)


def oracle_agreement(fan: FanModel, grid: float = 2.0**-10) -> dict:
    """Compare the combinatorial heights with the metric oracle per leg."""
    result = juma_metric_oracle(fan, grid)
    mismatches = []
    hosts = fan._guests_by_host
    for li in endpoints(fan):
        # a leg with no guests has one height: its own length
        expected = juma_heights(fan, li) if li in hosts else (fan.legs[li].length,)
        got = result.clusters.get(li, [])
        ok = len(got) == len(expected)
        for h in expected:
            for lo, hi in got:
                if lo <= h <= hi:
                    break
            else:
                ok = False
        if not ok:
            mismatches.append(
                {
                    "leg": li,
                    "expected": list(expected),
                    "clusters": [list(c) for c in got],
                }
            )
    return {"passed": not mismatches, "mismatches": mismatches}
