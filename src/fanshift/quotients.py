"""Quotient machinery: the compressed wedge, lifts, gluing relations, fans.

Two constructions live here.  First, maps of the Cantor-set-times-interval
product descend through the vertical compression ``(c, t) -> (c, c*t)`` to
maps of the wedge below the diagonal; surjectivity, injectivity, vertex
continuity and density transfer survive the descent, which is how a
transitive homeomorphism of the wedge quotient (a star of Cantor fans) is
obtained.  Second, the window points of the coupled product are identified
by a parameterized family of equivalences: all height-zero points collapse
to one top, and for each parameter coordinate a run of diagonal arcs is
glued isometrically onto a host arc.  The resulting combinatorial fans are
the objects whose counting invariant is computed in ``invariants``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import product as iter_product
from operator import attrgetter
from typing import Callable, NamedTuple

from .errors import (
    HypothesisViolated,
    ResourceCapExceeded,
    TruncationError,
    WellDefinednessError,
)
from .itinerary import ENUMERATION_CAP, Letter, Word, address_value, cantor_address
from .itinerary import count_words_recurrence, iter_words
from .mahavier import (
    ALL_INFINITY,
    MPoint,
    diagonal_point,
    fiber_length,
    height,
    m_index,
    model_map,
    random_window_point,
    shift,
    unshift,
)
from .xspace import ROUNDTRIP_EPS, XPoint, _Frozen, _set

# ---------------------------------------------------------------------------
# The product, the wedge, and lifting through the vertical compression
# ---------------------------------------------------------------------------


class CPoint(_Frozen):
    """A point of the product: middle-thirds address times a height in [0,1].

    Addresses are finite words over {0, 2}; trailing zeros are stripped so
    each point of the Cantor set has one representation.
    """

    # no __slots__: the cached address value ``c`` lives in the instance dict
    _key = attrgetter("address", "t")

    def __init__(self, address: str, t: float):
        if any(d not in "02" for d in address):
            raise ValueError(f"address digits must be 0 or 2: {address!r}")
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"height {t!r} outside [0, 1]")
        _set(self, "address", address.rstrip("0"))
        _set(self, "t", t)

    @cached_property
    def c(self) -> float:
        return address_value(self.address)


PMap = Callable[[CPoint], CPoint]


def phi(p: CPoint) -> CPoint:
    """Vertical compression onto the wedge: height scales by the address."""
    return CPoint(p.address, p.c * p.t)


def phi_inverse(p: CPoint) -> CPoint:
    """Inverse compression off the vertex column (address value > 0)."""
    c = p.c
    if c == 0.0:
        raise ValueError("compression is not invertible over address zero")
    return CPoint(p.address, min(1.0, p.t / c))


def cpoint_dist(p: CPoint, q: CPoint) -> float:
    """Product max-metric."""
    return max(abs(p.c - q.c), abs(p.t - q.t))


def _cover_gap(targets, cloud) -> float:
    """Max over targets of the max-metric distance to the nearest cloud point.

    Exact sorted sweep: each target bisects into the cloud sorted by first
    coordinate and walks outward until that gap alone reaches the best
    distance so far, so the result equals the brute-force max of mins.
    """
    if not targets or not cloud:
        raise ValueError("a cover gap needs nonempty targets and a nonempty cloud")
    pts = sorted(cloud)
    xs = [x for x, _ in pts]
    gap = 0.0
    for tx, ty in targets:
        best = math.inf
        i = bisect_left(xs, tx)
        for side in (range(i, len(pts)), range(i - 1, -1, -1)):
            for j in side:
                x, y = pts[j]
                dx = abs(x - tx)
                if dx >= best:
                    break
                best = min(best, max(dx, abs(y - ty)))
        gap = max(gap, best)
    return gap


def _collisions(points, eps: float):
    """Yield every index pair (i, j) of points closer than eps in the max-metric.

    Exact sorted sweep: each point meets its successors in sorted order until
    their first-coordinate gap reaches eps; i precedes j in that order.
    """
    order = sorted(range(len(points)), key=points.__getitem__)
    for a, i in enumerate(order):
        xi, yi = points[i]
        for b in range(a + 1, len(order)):
            j = order[b]
            xj, yj = points[j]
            if xj - xi >= eps:
                break
            if abs(yj - yi) < eps:
                yield i, j


def identity_map(p: CPoint) -> CPoint:
    return p


def swap_digit_map(p: CPoint) -> CPoint:
    """Transpose the first two address digits: a product homeomorphism
    of the Cantor factor that fixes address zero."""
    a = (p.address + "00")[:2]
    return CPoint(a[1] + a[0] + p.address[2:], p.t)


def vertex_crush_map(p: CPoint) -> CPoint:
    """Deliberately invalid sample: sends every column to address zero."""
    return CPoint("", p.t)


def _sample_points(depth: int, t_cells: int) -> list[CPoint]:
    """Deterministic product sample: all depth-d addresses times a t-grid."""
    pts = []
    for digits in iter_product("02", repeat=depth):
        addr = "".join(digits)
        for i in range(t_cells + 1):
            pts.append(CPoint(addr, i / t_cells))
    return pts


def check_invariance(f: PMap) -> None:
    """Require f to preserve both the vertex column and its complement, on
    8 height cells of the vertex column and every depth-6 address.

    Raises HypothesisViolated with the offending sample otherwise.
    """
    for i in range(9):
        p = CPoint("", i / 8)
        q = f(p)
        if q.c != 0.0:
            raise HypothesisViolated(
                "map moves the vertex column off address zero", witness=p
            )
    for p in _sample_points(6, 2):
        if p.c == 0.0:
            continue
        q = f(p)
        if q.c == 0.0:
            raise HypothesisViolated(
                "map sends a nonzero column to address zero", witness=p
            )


def lift_f_R(f: PMap) -> PMap:
    """Descend f through the compression to a map of the wedge.

    The invariance hypotheses are sampled first; the lifted map evaluates
    by decompressing, applying f, and recompressing, with the vertex pinned.
    """
    check_invariance(f)

    def f_R(p: CPoint) -> CPoint:
        if p.c == 0.0:
            return CPoint("", 0.0)
        return phi(f(phi_inverse(p)))

    return f_R


class HlavnaReport(NamedTuple):
    """Sampled evidence that a lifted map keeps homeomorphism properties;
    its fields are its report form, serialized with ``_asdict()``."""

    map: str
    hypothesis_ok: bool
    surjectivity_gap: float
    surjectivity_ok: bool
    injectivity_ok: bool
    vertex_tail: float
    vertex_ok: bool
    passed: bool
    witness: dict | None


def check_hlavna(f: PMap, *, name: str) -> HlavnaReport:
    """Sampled surjectivity, injectivity and vertex continuity of the lift.

    The product sample is every depth-6 address times 16 height cells.
    Surjectivity is a cover check: wedge samples must lie within 0.05 of
    the image of the sampled product.  Injectivity fails on a collision
    (closer than 1e-9) between images of samples more than 1e-6 apart.
    Both are exact sorted sweeps over all N samples, not windows:
    O(N log N) plus the pairs that first coordinates alone do not separate.
    Vertex continuity follows 12 columns shrinking to the vertex and
    requires the image norms to shrink below 1e-3.
    """
    try:
        f_R = lift_f_R(f)
    except HypothesisViolated as exc:
        w = exc.witness
        return HlavnaReport(
            name, False, math.inf, False, False, math.inf, False, False,
            {"address": w.address, "t": w.t},
        )

    wedge_targets = [phi(p) for p in _sample_points(6, 16)]
    images = [(q.c, q.t) for q in map(f_R, wedge_targets)]
    gap = _cover_gap([(q.c, q.t) for q in wedge_targets], images)
    surj_ok = gap <= 0.05

    witness = None
    for i, j in _collisions(images, 1e-9):
        a, b = wedge_targets[i], wedge_targets[j]
        if cpoint_dist(a, b) > 1e-6:
            witness = {"a": {"address": a.address, "t": a.t},
                       "b": {"address": b.address, "t": b.t}}
            break
    inj_ok = witness is None

    tail = 0.0
    prev = math.inf
    vertex_ok = True
    for i in range(1, 13):
        addr = "0" * i + "2"
        col = CPoint(addr, 0.0).c
        worst = 0.0
        for s in (0.0, 0.5, 1.0):
            q = f_R(CPoint(addr, col * s))
            worst = max(worst, q.c, q.t)
        if worst > prev * 4.0:
            vertex_ok = False
        prev = max(worst, 1e-300)
        tail = worst
    if tail > 1e-3:
        vertex_ok = False

    passed = surj_ok and inj_ok and vertex_ok
    return HlavnaReport(
        name, True, gap, surj_ok, inj_ok, tail, vertex_ok, passed, witness
    )


def phi_pair(point: tuple[float, float]) -> tuple[float, float]:
    """Vertical compression on bare model coordinates."""
    c, t = point
    return (c, c * t)


def density_transfer_report(
    orbit_points: list[tuple[float, float]],
    net_points: list[tuple[float, float]],
    eps: float,
) -> dict:
    """Check that compression carries an eps-dense visit log to a 2*eps one.

    The compression is 2-Lipschitz in the product max-metric, so density
    degrades by at most that factor; both sides are measured explicitly, as
    exact sorted-sweep cover gaps: O((M + N) log N) plus the pairs that first
    coordinates alone do not separate.  Empty point lists raise ValueError.
    """
    gap_before = _cover_gap(net_points, orbit_points)
    gap_after = _cover_gap(
        [phi_pair(p) for p in net_points], [phi_pair(p) for p in orbit_points]
    )
    return {
        "gap_before": gap_before,
        "gap_after": gap_after,
        "eps": eps,
        "passed": gap_before <= eps and gap_after <= 2.0 * eps,
    }


def check_conjugated_shift(samples: list[MPoint]) -> dict:
    """Sampled homeomorphism evidence for the shift seen in model coordinates
    at depth 4.

    Injectivity: model images of shifted samples must not come closer than
    1e-9 when the samples' model points lie more than 1e-8 apart; an exact
    sorted sweep finds every close image pair in O(N log N) plus the pairs
    that first coordinates alone do not separate.  Surjectivity: every
    sample exhibits an explicit preimage via the inverse shift, whose image
    may miss the sample's model point only by piece round trips
    (``ROUNDTRIP_EPS``).  Continuity at the
    compactification point: shifted diagonal points of deep intervals must
    have model coordinates tending to (1, 0).  Fewer than two samples raise
    ValueError.
    """
    if len(samples) < 2:
        raise ValueError("the conjugated-shift check needs at least 2 samples")
    srcs = [model_map(p, 4) for p in samples]
    imgs = [model_map(shift(p), 4) for p in samples]
    inj_ok = not any(
        max(abs(srcs[i][0] - srcs[j][0]), abs(srcs[i][1] - srcs[j][1])) > 1e-8
        for i, j in _collisions(imgs, 1e-9)
    )

    surj_gap = 0.0
    for p, src in zip(samples, srcs):
        back = model_map(shift(unshift(p)), 4)
        surj_gap = max(
            surj_gap, abs(back[0] - src[0]), abs(back[1] - src[1])
        )
    surj_ok = surj_gap <= ROUNDTRIP_EPS * 10

    tail = 1.0
    cont_ok = True
    prev = math.inf
    for j in range(3, 14):
        c, t = model_map(shift(diagonal_point(j, 0.5, 4)), 4)
        gap = max(abs(1.0 - c), abs(t))
        if gap > prev * 4.0:
            cont_ok = False
        prev = gap
        tail = gap
    if tail > 1e-3:
        cont_ok = False

    return {
        "injectivity_ok": inj_ok,
        "surjectivity_gap": surj_gap,
        "surjectivity_ok": surj_ok,
        "vertex_tail": tail,
        "continuity_ok": cont_ok,
        "passed": inj_ok and surj_ok and cont_ok,
    }


# ---------------------------------------------------------------------------
# Gluing parameters and the equivalence on window points
# ---------------------------------------------------------------------------


class AParam(_Frozen):
    """Gluing parameter: coordinate k picks 2k-1 or 2k guest arcs."""

    __slots__ = ("coords",)
    _key = attrgetter("coords")

    def __init__(self, coords: tuple[int, ...]):
        for pos, a in enumerate(coords, start=1):
            if a not in (2 * pos - 1, 2 * pos):
                raise ValueError(
                    f"coordinate {pos} must be {2 * pos - 1} or {2 * pos}, got {a}"
                )
        _set(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, pos: int) -> int:
        """1-based coordinate access."""
        return self.coords[pos - 1]

    def truncate(self, kmax: int) -> "AParam":
        return AParam(self.coords[:kmax])

    @classmethod
    def parse(cls, text: str) -> "AParam":
        return cls(tuple(int(tok) for tok in text.split(",") if tok.strip()))

    @classmethod
    def all_params(cls, kmax: int) -> list["AParam"]:
        choices = [(2 * k - 1, 2 * k) for k in range(1, kmax + 1)]
        return [cls(tuple(cs)) for cs in iter_product(*choices)]


def host_bundle(k: int) -> int:
    """Index of the host diagonal arc for parameter coordinate k."""
    return k * k + 2


def m_group(j: int) -> tuple[int, int]:
    """Decompose a diagonal index j >= 3 as host_bundle(k) + i, i in 0..2k.

    Every j >= 3 lands in exactly one such block, so the pair (k, i) is
    well defined: i == 0 marks the host itself, i >= 1 a potential guest.
    """
    if j < 3:
        raise ValueError("diagonal arcs start at interval 3")
    k = math.isqrt(j - 2)
    i = j - k * k - 2
    return k, i


def in_top_class(p: MPoint) -> bool:
    """Height-zero points and the all-infinity point form the top class."""
    if p.is_all_infinity:
        return True
    return p.t0.u == 0.0


def sim_a(x: MPoint, y: MPoint, a: AParam) -> bool:
    """The gluing equivalence for parameter a, on window points.

    Points are related when they are equal, both in the top class, or both
    on diagonal arcs of the same parameter block at equal heights with
    every non-host arc among the block's active guests.  Blocks beyond the
    parameter's truncation cannot be decided and raise TruncationError.
    Heights are exact power-of-two rescales of the base coordinate, so they
    are compared with ``==``.
    """
    top_x, top_y = in_top_class(x), in_top_class(y)
    if top_x or top_y:
        return top_x and top_y
    if x.is_all_infinity or y.is_all_infinity:
        return False

    jx, jy = m_index(x), m_index(y)
    if jx is not None and jx == jy:
        return height(x) == height(y)

    if jx is None or jy is None:
        return x.word == y.word and x.t0 == y.t0

    kx, ix = m_group(jx)
    ky, iy = m_group(jy)
    if kx != ky:
        return False
    if kx > len(a):
        raise TruncationError(
            f"gluing block {kx} lies beyond the modeled {len(a)} coordinates"
        )
    active = a[kx]
    if (ix == 0 or ix <= active) and (iy == 0 or iy <= active):
        return height(x) == height(y)
    return False


def glued_pair(k: int, i: int, guest_u: float) -> tuple[MPoint, MPoint]:
    """Host/guest diagonal points at equal model heights (exact rescale)."""
    jh = host_bundle(k)
    jg = jh + i
    tau = guest_u * fiber_length(jg)
    host_u = tau / fiber_length(jh)
    return diagonal_point(jh, host_u), diagonal_point(jg, guest_u)


def descend(
    f: Callable[[MPoint], MPoint], a: AParam, *, rng, pairs: int
) -> None:
    """Sample that f descends to classes, checking well-definedness both ways.

    Equivalent sample pairs must stay equivalent under f and inequivalent
    ones must stay inequivalent; any failure raises WellDefinednessError
    with the witness pair.  The descended map acts on a class through any
    representative, so callers compare images with ``sim_a`` directly.
    """
    sample_pairs: list[tuple[MPoint, MPoint]] = []
    for k in range(1, len(a) + 1):
        for i in range(1, a[k] + 1):
            for _ in range(3):
                sample_pairs.append(glued_pair(k, i, rng.random()))
    for _ in range(pairs):
        k = rng.randint(1, 4)
        p = random_window_point(rng, k)
        zero = MPoint(p.word, XPoint(p.t0.k, 0.0))
        sample_pairs.append((zero, ALL_INFINITY))
        q = random_window_point(rng, rng.randint(1, 4))
        sample_pairs.append((p, p))
        sample_pairs.append((p, q))

    for x, y in sample_pairs:
        try:
            before = sim_a(x, y, a)
            after = sim_a(f(x), f(y), a)
        except TruncationError:
            continue
        if before != after:
            raise WellDefinednessError(
                "map does not respect the gluing equivalence",
                witness=(x, y),
            )


# ---------------------------------------------------------------------------
# Combinatorial fan models
# ---------------------------------------------------------------------------


class Leg(_Frozen):
    __slots__ = ("bundle", "address", "length")
    _key = attrgetter("bundle", "address", "length")

    def __init__(self, bundle: str, address: str, length: float):
        _set(self, "bundle", bundle)
        _set(self, "address", address)
        _set(self, "length", length)


class Gluing(_Frozen):
    __slots__ = ("host", "guest")
    _key = attrgetter("host", "guest")

    def __init__(self, host: int, guest: int):
        _set(self, "host", host)
        _set(self, "guest", guest)


class FanModel(_Frozen):
    """Truncated fan: legs hanging from one top, plus isometric gluings.

    Each gluing lays the guest leg onto the host's lower segment of the
    guest's length; a leg may host many guests but can be a guest only
    once, and guests never host.
    """

    # no __slots__: the cached gluing indices live in the instance dict
    _key = attrgetter("legs", "gluings")

    def __init__(self, legs: tuple[Leg, ...], gluings: tuple[Gluing, ...] = ()):
        guests = set()
        hosts = set()
        for g in gluings:
            if not (0 <= g.host < len(legs)) or not (0 <= g.guest < len(legs)):
                raise ValueError("gluing references a missing leg")
            if g.host == g.guest:
                raise ValueError("leg cannot be glued to itself")
            if legs[g.guest].length > legs[g.host].length:
                raise ValueError("guest must not be longer than its host")
            if g.guest in guests:
                raise ValueError("leg glued as guest twice")
            guests.add(g.guest)
            hosts.add(g.host)
        if guests & hosts:
            raise ValueError("a guest leg cannot also host")
        _set(self, "legs", legs)
        _set(self, "gluings", gluings)

    @cached_property
    def guest_indices(self) -> frozenset[int]:
        return frozenset(g.guest for g in self.gluings)

    @cached_property
    def _guests_by_host(self) -> dict[int, tuple[int, ...]]:
        by_host: dict[int, list[int]] = {}
        for g in self.gluings:
            by_host.setdefault(g.host, []).append(g.guest)
        return {host: tuple(guests) for host, guests in by_host.items()}

    def guests_of(self, leg_index: int) -> tuple[int, ...]:
        """Guests laid onto a leg, in gluing order."""
        return self._guests_by_host.get(leg_index, ())


@lru_cache(maxsize=256)
def _bundle_legs(k: int, depth: int) -> tuple[Leg, ...]:
    """Bundle k's legs, one per admissible word of the depth, by address."""
    length = fiber_length(k)
    addresses = sorted(cantor_address(w) for w in iter_words(k, depth))
    return tuple(Leg(str(k), addr, length) for addr in addresses)


@lru_cache(maxsize=256)
def _fan_leg_count(kmax_bundle: int, depth: int) -> int:
    """Legs of a fan over bundles 1..kmax_bundle, from the branching
    recurrence; computed once per (kmax_bundle, depth)."""
    return sum(
        count_words_recurrence(k, depth)[-1] for k in range(1, kmax_bundle + 1)
    )


def identity_address(j: int, depth: int) -> str:
    """Address of the diagonal itinerary in bundle j >= 3."""
    return cantor_address(Word((Letter(j, 2),) * depth))


def build_fan(a: AParam, kmax_bundle: int, depth: int) -> FanModel:
    """Assemble the depth-truncated fan for a gluing parameter.

    Bundle k contributes one leg of length 2^(1-2k) per admissible word of
    the given depth; for each parameter coordinate k the diagonal legs of
    the blocks host_bundle(k)+1 .. host_bundle(k)+a_k are glued onto the
    diagonal leg of host_bundle(k).  A fan of more than ENUMERATION_CAP
    legs raises ResourceCapExceeded before any word is enumerated.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for k in range(1, len(a) + 1):
        need = host_bundle(k) + a[k]
        if need > kmax_bundle:
            raise ValueError(
                f"parameter coordinate {k} needs bundle {need}, "
                f"model stops at {kmax_bundle}"
            )
    total = _fan_leg_count(kmax_bundle, depth)
    if total > ENUMERATION_CAP:
        raise ResourceCapExceeded(
            f"fan with {kmax_bundle} bundles at depth {depth} has {total} legs, "
            f"over cap {ENUMERATION_CAP}"
        )
    legs: list[Leg] = []
    start: dict[int, int] = {}  # index of each bundle's first leg
    for k in range(1, kmax_bundle + 1):
        start[k] = len(legs)
        legs.extend(_bundle_legs(k, depth))

    def diagonal_leg(j: int) -> int:
        # Letter(j, 2) maps interval j onto itself: bundle j holds this word
        bundle, addr = _bundle_legs(j, depth), identity_address(j, depth)
        return start[j] + bisect_left(bundle, addr, key=lambda leg: leg.address)

    gluings: list[Gluing] = []
    for k in range(1, len(a) + 1):
        jh = host_bundle(k)
        host = diagonal_leg(jh)
        for i in range(1, a[k] + 1):
            gluings.append(Gluing(host, diagonal_leg(jh + i)))
    return FanModel(tuple(legs), tuple(gluings))


def star_of(base: FanModel, n_copies: int, scale: float = 1.0) -> FanModel:
    """Join shrinking copies of a fan at the top: copy n scales by 2^-n."""
    if n_copies < 1:
        raise ValueError("need at least one copy")
    legs: list[Leg] = []
    gluings: list[Gluing] = []
    for i in range(1, n_copies + 1):
        factor = scale * 2.0**-i
        offset = len(legs)
        for leg in base.legs:
            legs.append(Leg(f"s{i}.{leg.bundle}", leg.address, leg.length * factor))
        for g in base.gluings:
            gluings.append(Gluing(g.host + offset, g.guest + offset))
    return FanModel(tuple(legs), tuple(gluings))
