"""Reachability, the symbolic dense family, and empirical orbit density.

Starting from an interior point of interval 1 with local coordinate t, the
relation reaches every point of the form t^(2^m / 3^n) translated into any
interval: cube-root steps divide the exponent by 3, squaring steps double
it, and up/down steps move between intervals.  This module builds those
witnesses explicitly, certifies epsilon-density of reachable sets at a
finite resolution, and assembles single shift orbits whose finite windows
pass near every cell of a window-space net.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from typing import NamedTuple

from . import itinerary
from .errors import PathNotFound
from .itinerary import Letter, Word, _exponent, capped, iter_words, letters_with_domain
from .itinerary import word_count
from .mahavier import (
    ALL_INFINITY,
    MPoint,
    WindowConfig,
    _coords_at,
    _run_window,
    _steps,
    _window_dists,
    dist_window,
)
from .xspace import INFINITY, XPoint, embed

INTERIOR_GUARD = 1e-14
# exponent candidates a connector tries before the builder gives up
TRIES = 600


def forward_reachable(s: XPoint, depth: int) -> set[XPoint]:
    """All points reachable from s along at most ``depth`` relation steps.

    Interior seeds are tracked by exact exponent keys (interval, doublings,
    third-roots), so no float comparison is needed for deduplication.  More
    keys than the enumeration cap raise.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if s.is_infinity:
        return {INFINITY}

    u0 = s.u
    interior = 0.0 < u0 < 1.0
    # sized from below before the walk: every seed reaches intervals
    # k..k+depth, and an interior one every key (2 + j, m, n) with j + m + n
    # <= depth - k: k - 1 steps down, n roots, one up, m squares, j up
    what = f"reachable states (s=XPoint(k={s.k}, u={s.u!r}), depth={depth})"
    slack = depth - s.k
    capped(math.comb(slack + 3, 3) if interior and slack >= 0 else depth + 1, what)
    # key: (interval, m, n); endpoint seeds keep a constant coordinate, so
    # their exponent components stay pinned at zero, where the power is u0
    start = (s.k, 0, 0)
    seen = {start}
    cap = itinerary.ENUMERATION_CAP
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for k, m, n in frontier:
            for lt in letters_with_domain(k):
                dm, dn = lt.steps if interior else (0, 0)
                st = (lt.range_index, m + dm, n + dn)
                if st not in seen:
                    seen.add(st)
                    if len(seen) > cap:  # the bound above is not exact
                        capped(len(seen), what)
                    nxt.append(st)
        frontier = nxt
        if not frontier:
            break
    return {XPoint(k, u0 ** _exponent(m, n)) for k, m, n in seen}


class SymbolicPoint(NamedTuple):
    """The point of interval k at local coordinate t_base^(2^m / 3^n).

    The triple (m, n, k) identifies the point exactly; ``path`` is an
    admissible witness chain of letters realizing it from the seed
    (interval 1, coordinate t_base).
    """

    t_base: float
    m: int
    n: int
    k: int
    path: tuple[Letter, ...]

    @property
    def value(self) -> float:
        return float(self.t_base) ** _exponent(self.m, self.n)

    def xpoint(self) -> XPoint:
        return XPoint(self.k, self.value)


def _navigate(a: int, b: int) -> list[Letter]:
    """Up/down letters from the letter table, moving the interval from a to b."""
    if b > a:
        return [letters_with_domain(i)[-1] for i in range(a, b)]
    return [letters_with_domain(i)[0] for i in range(a, b, -1)]


def witness_path(m: int, n: int, k: int) -> tuple[Letter, ...]:
    """Letters from (interval 1, t) to (interval k, t^(2^m / 3^n)).

    Third-roots first, then one climb to interval 2 followed by m squarings
    when m > 0, then translation to the target interval.
    """
    root, up = letters_with_domain(1)
    path = [root] * n
    if m > 0:
        path.append(up)
        path.extend([letters_with_domain(2)[1]] * m)
        path.extend(_navigate(2, k))
    else:
        path.extend(_navigate(1, k))
    return tuple(path)


def symbolic_family(
    t_base: float, m_max: int, n_max: int, k_max: int
) -> list[SymbolicPoint]:
    """Every reachable exponent point in the (m, n, k) box, with witnesses;
    each point keeps ``t_base`` as given."""
    if not 0 < t_base < 1:
        raise ValueError("seed coordinate must lie strictly between 0 and 1")
    box = (("m_max", m_max, 0), ("n_max", n_max, 0), ("k_max", k_max, 1))
    for name, value, least in box:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    size = (m_max + 1) * (n_max + 1) * k_max
    capped(size, f"symbolic points (m_max={m_max}, n_max={n_max}, k_max={k_max})")
    out = []
    for k in range(1, k_max + 1):
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                out.append(SymbolicPoint(t_base, m, n, k, witness_path(m, n, k)))
    return out


def _check_eps(eps: float) -> None:
    """Reject an eps outside (0, 1), NaN included: every chart distance and
    every weighted window gap is at most 1, so an eps >= 1 passes vacuously."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if eps >= 1.0:
        raise ValueError(f"eps must be below 1, the diameter of the space, got {eps}")


def default_k_cut(eps: float) -> int:
    """Interval cutoff so one net point at infinity covers the deep tail."""
    _check_eps(eps)
    return max(8, math.ceil(-math.log(eps, 4.0)) + 1)


class DensityReport(NamedTuple):
    """Net points the sample misses; its fields are its report form,
    serialized with ``_asdict()``."""

    passed: bool
    eps: float
    k_cut: int
    net_size: int
    uncovered: list


def eps_dense_check(points, eps: float, k_cut: int) -> DensityReport:
    """Report net points of the base space not eps-approximated by ``points``.

    The net is an eps/2 grid of the embedded picture of every interval up
    to k_cut, plus the point at infinity; intervals beyond k_cut lie within
    4^-k_cut of infinity, so k_cut only needs to match eps.
    """
    _check_eps(eps)
    if k_cut < 1:
        raise ValueError(f"k_cut must be >= 1, got {k_cut}")
    cap = itinerary.ENUMERATION_CAP

    def n_cells(k: int) -> int:
        """Interval k's diameter 2^(2-2k) over eps/2, clamped at the cap."""
        return max(1, math.ceil(min(2.0 ** (2 - 2 * k) / eps, cap)))

    # the net is sized before it is built: interval k adds n_cells(k) + 1
    # points and infinity one, and the count stops once past the cap
    size = k_cut + 1
    for k in range(1, k_cut + 1):
        if size > cap:
            break
        size += n_cells(k)
    capped(size, f"net points (eps={eps}, k_cut={k_cut})")
    embeds = sorted(embed(p) for p in points)
    if not embeds:
        raise ValueError("need a nonempty sample set")

    def min_dist(e: float) -> float:
        i = bisect.bisect_left(embeds, e)
        best = math.inf
        if i < len(embeds):
            best = embeds[i] - e
        if i > 0:
            best = min(best, e - embeds[i - 1])
        return best

    uncovered = []
    for k in range(1, k_cut + 1):
        n = n_cells(k)
        for i in range(n + 1):
            e = embed(XPoint(k, i / n))
            d = min_dist(e)
            if d > eps:
                uncovered.append({"k": k, "embed": e, "min_dist": d})
    d = min_dist(1.0)
    if d > eps:
        uncovered.append({"k": None, "embed": 1.0, "min_dist": d})
    return DensityReport(not uncovered, eps, k_cut, size, uncovered)


# ---------------------------------------------------------------------------
# Orbit construction
# ---------------------------------------------------------------------------


class Visit(NamedTuple):
    """A claimed visit: the orbit window at ``time`` lies ``dist`` from net
    element ``net_index``."""

    net_index: int
    time: int
    dist: float


class OrbitResult(NamedTuple):
    """A built orbit point with its net and claimed visits; ``to_dict`` is
    its report summary."""

    point: MPoint
    net: list[MPoint]
    visits: list[Visit]
    eps: float
    cfg: WindowConfig
    k_cut: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "half_width": self.cfg.half_width,
            "k_cut": self.k_cut,
            "net_size": len(self.net),
            "orbit_letters": len(self.point.word.letters),
            "passed": self.passed,
            "max_dist": max((v.dist for v in self.visits), default=0.0),
            "visits": len(self.visits),
        }


def orbit_k_cut(eps: float, half_width: int) -> int:
    """Smallest interval cutoff k >= 2 covered by the all-infinity net point,
    the first with 2^(2 - 2(k+1) + half_width) <= eps, on integer exponents
    with no float power: 2^x > eps exactly when x >= frexp(eps)[1]."""
    _check_eps(eps)
    return max(2, (half_width - math.frexp(eps)[1]) // 2 + 1)


def build_net(eps: float, cfg: WindowConfig, *, u_cells: int = 12) -> list[MPoint]:
    """Window-space net: every admissible window word up to the interval
    cutoff, crossed with a height grid, plus the all-infinity point."""
    n = cfg.half_width
    k_cut = orbit_k_cut(eps, n)
    if u_cells < 1:
        raise ValueError(f"u_cells must be >= 1, got {u_cells}")
    # a window word is a left walk of n letters into interval k joined to a
    # right walk of n letters out of k; the letter graph is symmetric, so
    # the two walks count alike, and the net is sized before it is built
    size = sum(word_count(k, n) ** 2 for k in range(1, k_cut + 1)) * (u_cells + 1) + 1
    capped(size, f"net points (eps={eps}, window={n}, u_cells={u_cells})")
    net: list[MPoint] = []
    for k in range(1, k_cut + 1):
        for word in iter_words(k, 2 * n, start=-n):
            for i in range(u_cells + 1):
                net.append(MPoint(word, XPoint(k, i / u_cells)))
    net.append(ALL_INFINITY)
    return net


@lru_cache(maxsize=None)
def _exponents() -> tuple[tuple[float, int, int], ...]:
    """The exponent lattice (2^m / 3^n, m, n), m, n <= 60, sorted; built on
    first use, so commands that never steer do not pay for it.  Exponents
    reach 2^60 so even a value one ulp below 1 can be pulled back toward the
    middle of the fiber in a single connector."""
    return tuple(
        sorted((_exponent(m, n), m, n) for m in range(61) for n in range(61))
    )


def _steer_candidates(u_cur: float, v_target: float, tries: int):
    """Yield up to ``tries`` exponent pairs (m, n) in the order of
    (|u_cur^(2^m/3^n) - v_target|, m + n, m, n).

    Powers within INTERIOR_GUARD of 0 or 1 are skipped so the orbit stays
    strictly inside the fiber and later connectors can keep steering.  For
    0 < u_cur < 1, ``u_cur ** e`` does not increase along ``_exponents()``,
    so the interior powers fill one run of the table, and the crossing of
    v_target, clamped into that run, is the first index whose power is at
    most the clamped target, found by one bisection on exact power
    comparisons.  The distance grows walking outward from the crossing on
    either side, so two indices walk the two sides outward in step, each
    stopping where the powers leave the interior, and each run of equal
    distances is yielded in (m + n, m, n) order.
    """
    if not 0.0 < u_cur < 1.0:
        return  # every power of 0 or 1 is an endpoint
    exps = _exponents()
    # a power below 1 - INTERIOR_GUARD is at most the float just below it
    bound = min(max(v_target, INTERIOR_GUARD), math.nextafter(1.0 - INTERIOR_GUARD, 0))
    mid = bisect.bisect_left(exps, True, key=lambda e: u_cur ** e[0] <= bound)

    def gap(i: int) -> float:
        if 0 <= i < len(exps):
            power = u_cur ** exps[i][0]
            if INTERIOR_GUARD < power < 1.0 - INTERIOR_GUARD:
                return abs(power - v_target)
        return math.inf

    left, right = mid - 1, mid
    d_left, d_right = gap(left), gap(right)
    while tries > 0 and min(d_left, d_right) < math.inf:
        d = min(d_left, d_right)
        run = []
        while d_left == d:
            run.append(exps[left])
            left -= 1
            d_left = gap(left)
        while d_right == d:
            run.append(exps[right])
            right += 1
            d_right = gap(right)
        if len(run) > 1:
            run.sort(key=lambda entry: (entry[1] + entry[2], entry[1], entry[2]))
        for _, m, n in run[:tries]:
            yield m, n
        tries -= len(run)


def transitive_orbit_builder(
    eps: float, cfg: WindowConfig, *, net: list[MPoint] | None = None
) -> OrbitResult:
    """Assemble one finite orbit whose windows pass near every net element.

    The orbit is one long admissible itinerary built element by element:
    a connector descends to interval 1, adjusts the local coordinate with
    third-root and squaring steps chosen from an exponent lattice, climbs
    to the element's window, then copies the element's letters.  Every run
    is measured once, on the window it ends in, before it is appended, and
    appended only on a hit; if no lattice candidate lands within eps the
    construction aborts instead of guessing.
    """
    n = cfg.half_width
    k_cut = orbit_k_cut(eps, n)
    if net is None:
        net = build_net(eps, cfg)
    if not net:
        raise ValueError("net must be nonempty")
    target = eps * 0.995

    # letters[t + n] is the letter at orbit transition t; only the local
    # coordinate after the last letter is carried, in ``u_end``.
    letters: list[Letter] = []
    visits: list[Visit] = []

    def hit(oi: int, run: tuple[Letter, ...], u: float) -> bool:
        """Append ``run`` and record a visit to net element ``oi`` if the
        window of its last 2N letters, at coordinate ``u`` in their middle,
        lies within the target; a miss appends nothing."""
        d = dist_window(_run_window(run[-2 * n :], u), net[oi], cfg)
        if d > target:
            return False
        letters.extend(run)
        visits.append(Visit(oi, len(letters) - 2 * n, d))
        return True

    # the orbit must start from a finite element; infinity elements are
    # visited by climbing, so push them to the back of the schedule
    order = sorted(range(len(net)), key=lambda i: net[i].is_all_infinity)
    if net[order[0]].is_all_infinity:
        raise ValueError("net needs at least one finite element")

    seed_elem = net[order[0]]
    u_seed = min(1.0 - 2.0**-20, max(2.0**-20, seed_elem.t0.u))
    central = seed_elem.word.slice(-n, n - 1).letters
    u_left = _steps(u_seed, central[:n], inverse=True)[-1]
    trace = _steps(u_left, central, inverse=False)
    u_base, u_end = trace[-1 - n], trace[-1]
    if not hit(order[0], central, u_base):
        raise PathNotFound("seed element not matched; refine the height grid")

    # a window wholly inside a deep interval is close to the all-infinity
    # point: the shallowest interval deep enough is the one past the cutoff
    k_vis = orbit_k_cut(target, 0) + 1
    block = (letters_with_domain(k_vis)[1],) * (2 * n)
    for oi in order[1:]:
        elem = net[oi]
        k_cur = letters[-1].range_index

        if elem.is_all_infinity:
            # the climb and the identity block only translate, so u_end is
            # the coordinate at the block's center
            if not hit(oi, (*_navigate(k_cur, k_vis), *block), u_end):
                raise PathNotFound("infinity element not matched; raise k_vis")
            continue

        central = elem.word.slice(-n, n - 1).letters
        d_left = central[0].domain_index
        v_target = _steps(elem.t0.u, central[:n], inverse=True)[-1]
        tried = 0
        candidates = _steer_candidates(u_end, v_target, TRIES)
        for tried, (m, n_steps) in enumerate(candidates, 1):
            # an exact endpoint would pin every later coordinate there, so
            # only a candidate that stays interior is measured
            run = (*_navigate(k_cur, 1), *witness_path(m, n_steps, d_left), *central)
            trace = _steps(u_end, run, inverse=False)
            if 0.0 < trace[-1] < 1.0 and hit(oi, run, trace[-1 - n]):
                u_end = trace[-1]
                break
        else:
            raise PathNotFound(
                f"no connector reached net element {oi} (d_left = {d_left}, "
                f"pull-back target {v_target!r}) within eps: the exponent "
                f"candidates inside INTERIOR_GUARD = {INTERIOR_GUARD:g} ran out "
                f"after {tried} tries"
            )

    point = MPoint(Word(tuple(letters), -n), XPoint(letters[n].domain_index, u_base))
    passed = all(v.dist <= eps for v in visits) and len(visits) == len(net)
    return OrbitResult(point, net, visits, eps, cfg, k_cut, passed)


def verify_orbit(result: OrbitResult) -> dict:
    """Re-check every recorded visit against the returned point alone.

    Walks the local coordinates of the orbit point once, outward from its
    base, stopping only at the visit times, and re-evaluates the two-sided
    and the forward window metric at each visit in one pass, trusting
    nothing the builder stored.  A visit whose window reaches past either
    end of the orbit word counts as uncovered.
    """
    eps, cfg = result.eps, result.cfg
    n = cfg.half_width
    p = result.point
    letters, start = p.word.letters, p.word.start
    stop = start + len(letters)
    inside = [v for v in result.visits if start + n <= v.time <= stop - n]
    coord = _coords_at(p, {v.time for v in inside})
    worst = worst_fwd = 0.0
    seen = set()
    for v in inside:
        # the window is a run of the point's word around the visit time
        i = v.time - start
        window = _run_window(letters[i - n : i + n], coord[v.time])
        d, f = _window_dists(window, result.net[v.net_index], cfg)
        worst = max(worst, d)
        worst_fwd = max(worst_fwd, f)
        if d <= eps:
            seen.add(v.net_index)
    covered = len(seen)
    return {
        "covered": covered,
        "net_size": len(result.net),
        "coverage": covered / len(result.net),
        "max_dist": worst,
        "max_forward_dist": worst_fwd,
        "passed": covered == len(result.net),
    }
