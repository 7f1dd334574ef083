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
from operator import attrgetter

from .errors import PathNotFound, ResourceCapExceeded
from .itinerary import Letter, Word, iter_words, letters_with_domain
from .mahavier import (
    ALL_INFINITY,
    MPoint,
    WindowConfig,
    _local_trace,
    _window_dists,
    dist_window,
)
from .xspace import INFINITY, XPoint, _Frozen, _set, embed

BFS_CAP = 10**6
INTERIOR_GUARD = 1e-14
# exponent candidates a connector tries before the builder gives up
TRIES = 600
# exponent steps (doublings, third-roots) of the two bending letters: the
# square on interval 2 and the cube root on interval 1; every other letter
# only translates
_BENDS = {Letter(2, 2): (1, 0), Letter(1, 2): (0, 1)}


def forward_reachable(s: XPoint, depth: int, *, cap: int = BFS_CAP) -> set[XPoint]:
    """All points reachable from s along at most ``depth`` relation steps.

    Interior seeds are tracked by exact exponent keys (interval, doublings,
    third-roots), so no float comparison is needed for deduplication.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if s.is_infinity:
        return {INFINITY}

    u0 = s.u
    interior = 0.0 < u0 < 1.0

    def value(m: int, n: int) -> float:
        if not interior:
            return u0
        return u0 ** (2.0**m / 3.0**n)

    # key: (interval, m, n); endpoint seeds keep a constant coordinate, so
    # their exponent components stay pinned at zero.
    start = (s.k, 0, 0)
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for k, m, n in frontier:
            for lt in letters_with_domain(k):
                dm, dn = _BENDS.get(lt, (0, 0)) if interior else (0, 0)
                st = (lt.range_index, m + dm, n + dn)
                if st not in seen:
                    seen.add(st)
                    if len(seen) > cap:
                        raise ResourceCapExceeded(
                            f"reachability from XPoint(k={s.k}, u={s.u!r}) "
                            f"exceeded cap {cap}"
                        )
                    nxt.append(st)
        frontier = nxt
        if not frontier:
            break
    return {XPoint(k, value(m, n)) for k, m, n in seen}


class SymbolicPoint(_Frozen):
    """The point of interval k at local coordinate t_base^(2^m / 3^n).

    The triple (m, n, k) identifies the point exactly; ``path`` is an
    admissible witness chain of letters realizing it from the seed
    (interval 1, coordinate t_base).
    """

    __slots__ = ("t_base", "m", "n", "k", "path")
    _key = attrgetter("t_base", "m", "n", "k", "path")

    def __init__(
        self, t_base: Fraction, m: int, n: int, k: int, path: tuple[Letter, ...] = ()
    ):
        _set(self, "t_base", t_base)
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "path", path)

    @property
    def value(self) -> float:
        return float(self.t_base) ** (2.0**self.m / 3.0**self.n)

    def xpoint(self) -> XPoint:
        return XPoint(self.k, self.value)


def _navigate(a: int, b: int) -> list[Letter]:
    """Up/down letters moving the interval index from a to b."""
    if b > a:
        return [Letter(i, 3) for i in range(a, b)]
    return [Letter(i, 1) for i in range(a, b, -1)]


def witness_path(m: int, n: int, k: int) -> tuple[Letter, ...]:
    """Letters from (interval 1, t) to (interval k, t^(2^m / 3^n)).

    Third-roots first, then one climb to interval 2 followed by m squarings
    when m > 0, then translation to the target interval.
    """
    path = [Letter(1, 2)] * n
    if m > 0:
        path.append(Letter(1, 3))
        path.extend([Letter(2, 2)] * m)
        path.extend(_navigate(2, k))
    else:
        path.extend(_navigate(1, k))
    return tuple(path)


def symbolic_family(
    t_base: Fraction | float, m_max: int, n_max: int, k_max: int
) -> list[SymbolicPoint]:
    """Every reachable exponent point in the (m, n, k) box, with witnesses."""
    from fractions import Fraction  # only this command reads exact fractions

    t = Fraction(t_base).limit_denominator(10**12) if not isinstance(
        t_base, Fraction
    ) else t_base
    if not 0 < t < 1:
        raise ValueError("seed coordinate must lie strictly between 0 and 1")
    box = (("m_max", m_max, 0), ("n_max", n_max, 0), ("k_max", k_max, 1))
    for name, value, least in box:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    out = []
    for k in range(1, k_max + 1):
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                out.append(SymbolicPoint(t, m, n, k, witness_path(m, n, k)))
    return out


def default_k_cut(eps: float) -> int:
    """Interval cutoff so one net point at infinity covers the deep tail."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return max(8, math.ceil(-math.log(eps, 4.0)) + 1)


class DensityReport:
    """Net points the sample misses; its attributes are its report form."""

    def __init__(
        self, passed: bool, eps: float, k_cut: int, net_size: int, uncovered: list
    ):
        self.passed = passed
        self.eps = eps
        self.k_cut = k_cut
        self.net_size = net_size
        self.uncovered = uncovered


def eps_dense_check(points, eps: float, k_cut: int) -> DensityReport:
    """Report net points of the base space not eps-approximated by ``points``.

    The net is an eps/2 grid of the embedded picture of every interval up
    to k_cut, plus the point at infinity; intervals beyond k_cut lie within
    4^-k_cut of infinity, so k_cut only needs to match eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if k_cut < 1:
        raise ValueError(f"k_cut must be >= 1, got {k_cut}")
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
    net_size = 0
    for k in range(1, k_cut + 1):
        lo = 1.0 - 2.0 ** (2 - 2 * k)
        diam = 2.0 ** (1 - 2 * k)
        cells = max(1, math.ceil(diam / (eps / 2.0)))
        for i in range(cells + 1):
            e = lo + diam * i / cells
            net_size += 1
            d = min_dist(e)
            if d > eps:
                uncovered.append({"k": k, "embed": e, "min_dist": d})
    net_size += 1
    d = min_dist(1.0)
    if d > eps:
        uncovered.append({"k": None, "embed": 1.0, "min_dist": d})
    return DensityReport(not uncovered, eps, k_cut, net_size, uncovered)


# ---------------------------------------------------------------------------
# Orbit construction
# ---------------------------------------------------------------------------


class Visit:
    """A claimed visit: the orbit window at ``time`` lies ``dist`` from net
    element ``net_index``."""

    __slots__ = ("net_index", "time", "dist")

    def __init__(self, net_index: int, time: int, dist: float):
        self.net_index = net_index
        self.time = time
        self.dist = dist


class OrbitResult:
    def __init__(
        self,
        point: MPoint,
        net: list[MPoint],
        visits: list[Visit],
        eps: float,
        cfg: WindowConfig,
        k_cut: int,
        passed: bool,
    ):
        self.point = point
        self.net = net
        self.visits = visits
        self.eps = eps
        self.cfg = cfg
        self.k_cut = k_cut
        self.passed = passed

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
    """Smallest interval cutoff covered by the all-infinity net point."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    k = 2
    while 2.0 ** (2 - 2 * (k + 1) + half_width) > eps:
        k += 1
    return k


def build_net(eps: float, cfg: WindowConfig, *, u_cells: int = 12) -> list[MPoint]:
    """Window-space net: every admissible window word up to the interval
    cutoff, crossed with a height grid, plus the all-infinity point."""
    n = cfg.half_width
    k_cut = orbit_k_cut(eps, n)
    if u_cells < 1:
        raise ValueError(f"u_cells must be >= 1, got {u_cells}")
    net: list[MPoint] = []
    for k in range(1, k_cut + 1):
        for word in iter_words(k, 2 * n, start=-n):
            for i in range(u_cells + 1):
                net.append(MPoint(word, XPoint(k, i / u_cells)))
    net.append(ALL_INFINITY)
    return net


def _pull_back(u: float, word: Word, upto: int) -> float:
    """Pull a position-0 coordinate back to the word's position ``upto``."""
    for pos in range(-1, upto - 1, -1):
        u = word.letter(pos).piece(u, inverse=True)
    return u


@lru_cache(maxsize=None)
def _exponents() -> tuple[tuple[float, int, int], ...]:
    """The exponent lattice (2^m / 3^n, m, n), m, n <= 60, sorted; built on
    first use, so commands that never steer do not pay for it.  Exponents
    reach 2^60 so even a value one ulp below 1 can be pulled back toward the
    middle of the fiber in a single connector."""
    return tuple(
        sorted((2.0**m / 3.0**n, m, n) for m in range(61) for n in range(61))
    )


def _steer_candidates(u_cur: float, v_target: float, tries: int):
    """Yield up to ``tries`` exponent pairs (m, n) in the order of
    (|u_cur^(2^m/3^n) - v_target|, m + n, m, n).

    Powers within INTERIOR_GUARD of 0 or 1 are skipped so the orbit stays
    strictly inside the fiber and later connectors can keep steering.  For
    0 < u_cur < 1, ``u_cur ** e`` does not increase along ``_exponents()``,
    so bisection finds both guard limits and the crossing of v_target; the
    distance grows walking outward from the crossing on either side, and
    each run of equal distances is yielded in (m + n, m, n) order.
    """
    exps = _exponents()

    def neg_power(entry: tuple[float, int, int]) -> float:
        return -(u_cur ** entry[0])

    lo = bisect.bisect_right(exps, -(1.0 - INTERIOR_GUARD), key=neg_power)
    hi = bisect.bisect_left(exps, -INTERIOR_GUARD, lo, key=neg_power)
    mid = bisect.bisect_left(exps, -v_target, lo, hi, key=neg_power)

    def gap(i: int) -> float:
        if lo <= i < hi:
            return abs(u_cur ** exps[i][0] - v_target)
        return math.inf

    left, right = mid - 1, mid
    d_left, d_right = gap(left), gap(right)
    while tries > 0 and min(d_left, d_right) < math.inf:
        d = min(d_left, d_right)
        run = []
        while d_left == d:
            run.append(exps[left][1:])
            left -= 1
            d_left = gap(left)
        while d_right == d:
            run.append(exps[right][1:])
            right += 1
            d_right = gap(right)
        run.sort(key=lambda mn: (mn[0] + mn[1], mn))
        yield from run[:tries]
        tries -= len(run)


def transitive_orbit_builder(
    eps: float, cfg: WindowConfig, *, net: list[MPoint] | None = None
) -> OrbitResult:
    """Assemble one finite orbit whose windows pass near every net element.

    The orbit is one long admissible itinerary built element by element:
    a connector descends to interval 1, adjusts the local coordinate with
    third-root and squaring steps chosen from an exponent lattice, climbs
    to the element's window, then copies the element's letters.  Every
    claimed visit is measured once, on the orbit's own window, before it is
    recorded; a connector that misses is taken back, and if no lattice
    candidate lands within eps the construction aborts instead of guessing.
    """
    n = cfg.half_width
    k_cut = orbit_k_cut(eps, n)
    if net is None:
        net = build_net(eps, cfg)
    if not net:
        raise ValueError("net must be nonempty")
    target = eps * 0.995

    # Position bookkeeping: letters occupy transitions -n, -n+1, ...; the
    # value trace holds the coordinate at every position from -n onward, so
    # the coordinate at orbit time t is values[t + n], in interval
    # letters[t + n].domain_index.
    letters: list[Letter] = []
    values: list[float] = []

    def push(run) -> None:
        letters.extend(run)
        u = values[-1]
        for lt in run:
            u = lt.piece(u)
            values.append(u)

    visits: list[Visit] = []

    def visit(oi: int, time: int) -> bool:
        """Record a visit to net element ``oi`` at orbit ``time`` if the
        orbit's window there lies within the target distance of it."""
        # a run of the orbit word, which is checked whole once it is built
        sl = Word._trusted(tuple(letters[time : time + 2 * n]), -n)
        p = MPoint(sl, XPoint(letters[time + n].domain_index, values[time + n]))
        d = dist_window(p, net[oi], cfg)
        if d > target:
            return False
        visits.append(Visit(oi, time, d))
        return True

    # the orbit must start from a finite element; infinity elements are
    # visited by climbing, so push them to the back of the schedule
    order = sorted(range(len(net)), key=lambda i: net[i].is_all_infinity)
    if net[order[0]].is_all_infinity:
        raise ValueError("net needs at least one finite element")

    seed_elem = net[order[0]]
    u_seed = min(1.0 - 2.0**-20, max(2.0**-20, seed_elem.t0.u))
    values.append(_pull_back(u_seed, seed_elem.word, -n))
    push(seed_elem.word.slice(-n, n - 1).letters)
    if not visit(order[0], 0):
        raise PathNotFound("seed element not matched; refine the height grid")

    for oi in order[1:]:
        elem = net[oi]
        k_cur, u_cur = letters[-1].range_index, values[-1]

        if elem.is_all_infinity:
            # A window sitting wholly inside a deep interval is close to the
            # all-infinity point; pick the shallowest deep enough interval.
            k_vis = 3
            while 2.0 ** (2 - 2 * k_vis) > target:
                k_vis += 1
            climb = _navigate(k_cur, k_vis)
            block = len(letters) + len(climb)
            push(climb + [Letter(k_vis, 2)] * (2 * n))
            # the identity block covers orbit transitions block-n..block+n-1,
            # so the visited window is centered at orbit time ``block``
            if not visit(oi, block):
                raise PathNotFound("infinity element not matched; raise k_vis")
            continue

        word = elem.word
        central = list(word.slice(-n, n - 1).letters)
        d_left = word.domain_at(-n)
        v_target = _pull_back(elem.t0.u, word, -n)
        size = len(letters)
        tried = 0
        candidates = _steer_candidates(u_cur, v_target, TRIES)
        for tried, (m, n_steps) in enumerate(candidates, 1):
            conn = _navigate(k_cur, 1) + list(witness_path(m, n_steps, d_left))
            # the element's letters cover orbit transitions base-n..base+n-1,
            # centering the visit at time ``base``; an exact endpoint would
            # pin every later coordinate there
            base = size + len(conn)
            push(conn + central)
            if 0.0 < values[-1] < 1.0 and visit(oi, base):
                break
            del letters[size:], values[size + 1 :]
        else:
            raise PathNotFound(
                f"no connector reached net element {oi} (d_left = {d_left}, "
                f"pull-back target {v_target!r}) within eps: the exponent "
                f"candidates inside INTERIOR_GUARD = {INTERIOR_GUARD:g} ran out "
                f"after {tried} tries"
            )

    point = MPoint(Word(tuple(letters), -n), XPoint(letters[n].domain_index, values[n]))
    passed = all(v.dist <= eps for v in visits) and len(visits) == len(net)
    return OrbitResult(point, net, visits, eps, cfg, k_cut, passed)


def verify_orbit(result: OrbitResult) -> dict:
    """Re-check every recorded visit against the returned point alone.

    Walks the local coordinates of the orbit point once, outward from its
    base, and re-evaluates the two-sided and the forward window metric at
    each visit time in one pass, trusting nothing the builder stored.  A
    visit whose window reaches past either end of the orbit word counts as
    uncovered.
    """
    eps, cfg = result.eps, result.cfg
    n = cfg.half_width
    p = result.point
    lo, hi = p.lo, p.hi
    trace = _local_trace(p, lo, hi + 1)

    def window(time: int) -> MPoint:
        sl = p.word.slice(time - n, time + n - 1)
        x = XPoint(p.word.domain_at(time), trace[time - lo])
        return MPoint(Word._trusted(sl.letters, -n), x)

    worst = 0.0
    worst_fwd = 0.0
    seen = set()
    for v in result.visits:
        if not lo + n <= v.time <= hi + 1 - n:
            continue  # the window leaves the orbit word: the visit is uncovered
        d, f = _window_dists(window(v.time), result.net[v.net_index], cfg)
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
