import bisect
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fanshift import impression, itinerary
from fanshift.errors import PathNotFound, ResourceCapExceeded
from fanshift.impression import (
    INTERIOR_GUARD,
    Visit,
    _exponents,
    _steer_candidates,
    build_net,
    default_k_cut,
    eps_dense_check,
    forward_reachable,
    orbit_k_cut,
    symbolic_family,
    transitive_orbit_builder,
    verify_orbit,
    witness_path,
)
from fanshift.itinerary import (
    ENUMERATION_CAP,
    Letter,
    Word,
    count_words_recurrence,
    is_admissible,
    iter_words,
)
from fanshift.mahavier import (
    MPoint,
    WindowConfig,
    _local_trace,
    _window_dists,
    coord_range,
    dist_window,
)
from fanshift.relations import GLOBAL_MAPS, global_apply, h_image, in_H
from fanshift.xspace import INFINITY, XPoint


def apply_path(x: XPoint, path) -> XPoint:
    """Step x along each letter through the literal maps F1-F3: the oracle
    for witness paths.

    The image under a letter is the one among F1(x), F2(x), F3(x) that lands
    on the letter's range interval, so ``Letter.piece`` is not used.
    """
    for lt in path:
        assert x.k == lt.domain_index
        images = {global_apply(name, x) for name in GLOBAL_MAPS}
        (x,) = [y for y in images if y.k == lt.range_index]
    return x


def _reachable_reference(s: XPoint, depth: int) -> set[XPoint]:
    """Verbatim copy of the explicit step tables ``forward_reachable`` used
    before it read its steps off the letter table; the oracle for it."""
    if s.is_infinity:
        return {INFINITY}

    u0 = s.u
    interior = 0.0 < u0 < 1.0

    def value(m: int, n: int) -> float:
        if not interior:
            return u0
        return u0 ** (2.0**m / 3.0**n)

    start = (s.k, 0, 0)
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for k, m, n in frontier:
            if interior:
                if k == 1:
                    steps = ((1, m, n + 1), (2, m, n))
                elif k == 2:
                    steps = ((1, m, n), (2, m + 1, n), (3, m, n))
                else:
                    steps = ((k - 1, m, n), (k + 1, m, n))
            else:
                if k == 1:
                    steps = ((1, 0, 0), (2, 0, 0))
                elif k == 2:
                    steps = ((1, 0, 0), (3, 0, 0))
                else:
                    steps = ((k - 1, 0, 0), (k + 1, 0, 0))
            for st in steps:
                if st not in seen:
                    seen.add(st)
                    nxt.append(st)
        frontier = nxt
        if not frontier:
            break
    return {XPoint(k, value(m, n)) for k, m, n in seen}


def test_reachable_from_infinity():
    assert forward_reachable(INFINITY, 10) == {INFINITY}


def test_reachable_one_step():
    u = 0.3
    got = forward_reachable(XPoint(1, u), 1)
    assert got == {XPoint(1, u)} | set(h_image(XPoint(1, u)))
    got3 = forward_reachable(XPoint(3, u), 1)
    assert got3 == {XPoint(2, u), XPoint(3, u), XPoint(4, u)}


def test_reachable_monotone_in_depth():
    seed = XPoint(2, 0.61)
    prev = set()
    for depth in range(6):
        cur = forward_reachable(seed, depth)
        assert prev <= cur
        prev = cur


@pytest.mark.parametrize(
    "seed",
    [XPoint(k, 0.37) for k in (1, 2, 3, 5)]
    + [XPoint(k, u) for k in (1, 2, 3) for u in (0.0, 1.0)],
    ids=lambda s: f"XPoint(k={s.k}, u={s.u!r})",
)
def test_reachable_matches_explicit_step_tables(seed):
    for depth in range(11):
        assert forward_reachable(seed, depth) == _reachable_reference(seed, depth)


def test_reachable_from_endpoint_seed(monkeypatch):
    # endpoint coordinates are fixed by every bending step
    got = forward_reachable(XPoint(1, 0.0), 4)
    assert all(p.u == 0.0 for p in got)
    # their exponent keys stay pinned at (k, 0, 0): depth 10 visits only
    # intervals 1..11, so 11 keys fit under a cap of 11 and not of 10
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", 11)
    assert len(forward_reachable(XPoint(1, 1.0), 10)) == 11
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", 10)
    message = (
        r"^at least 11 reachable states \(s=XPoint\(k=1, u=1\.0\), depth=10\) "
        r"exceed cap 10$"
    )
    with pytest.raises(ResourceCapExceeded, match=message):
        forward_reachable(XPoint(1, 1.0), 10)


@pytest.mark.parametrize("u", [0.5, 0.0])
def test_reachable_count_bound_holds(u):
    # the lower bound that sizes the walk before it starts: an endpoint
    # seed reaches intervals k..k+d, an interior one at d >= k every key
    # (2 + j, m, n) with j + m + n <= d - k
    for k in range(1, 6):
        for d in range(15):
            bound = math.comb(d - k + 3, 3) if u and d >= k else d + 1
            assert bound <= len(forward_reachable(XPoint(k, u), d)), (k, d)


def test_reachable_is_refused_before_the_walk(monkeypatch):
    # the bound alone passes the cap, so no state is walked
    monkeypatch.setattr(impression, "letters_with_domain", None)
    message = r"^at least 167167000 reachable states \(s=XPoint\(k=1, u=0\.5\), "
    with pytest.raises(ResourceCapExceeded, match=message):
        forward_reachable(XPoint(1, 0.5), 1000)


def test_symbolic_family_seed_and_values():
    fam = symbolic_family(Fraction(1, 2), 2, 2, 2)
    assert len(fam) == 2 * 3 * 3
    base = next(sp for sp in fam if (sp.m, sp.n, sp.k) == (0, 0, 1))
    assert base.value == 0.5
    assert base.path == ()


def test_symbolic_family_keeps_its_seed_as_given():
    # 0.1 is no fraction with a small denominator, and it is not rounded
    # to one on the way in
    fam = symbolic_family(0.1, 1, 1, 1)
    assert all(sp.t_base == 0.1 and type(sp.t_base) is float for sp in fam)
    base = next(sp for sp in fam if (sp.m, sp.n) == (0, 0))
    assert base.value == 0.1


def test_symbolic_point_one_cube_root():
    sp = next(
        s for s in symbolic_family(Fraction(1, 8), 0, 1, 1) if (s.m, s.n) == (0, 1)
    )
    assert math.isclose(sp.value, 0.5, rel_tol=1e-15)
    assert len(sp.path) == 1


def test_symbolic_point_one_square():
    sp = next(
        s for s in symbolic_family(Fraction(1, 2), 1, 0, 1) if (s.m, s.n) == (1, 0)
    )
    assert sp.value == 0.25
    assert [(l.ell, l.j) for l in sp.path] == [(1, 3), (2, 2), (2, 1)]


def test_witness_paths_land_on_claimed_values():
    for t in (Fraction(1, 3), Fraction(7, 10)):
        for sp in symbolic_family(t, 6, 6, 5):
            assert is_admissible(sp.path)
            land = apply_path(XPoint(1, float(t)), sp.path)
            assert land.k == sp.k
            assert math.isclose(land.u, sp.value, rel_tol=1e-9, abs_tol=1e-9)


def test_witness_path_shapes():
    assert witness_path(0, 0, 1) == ()
    assert len(witness_path(3, 2, 1)) == 2 + 1 + 3 + 1
    path = witness_path(2, 1, 4)
    assert is_admissible(path)


def test_eps_dense_check_net_covers_itself():
    net_pts = [XPoint(k, i / 8) for k in range(1, 5) for i in range(9)] + [INFINITY]
    rep = eps_dense_check(net_pts, 1 / 4, 4)
    assert rep.passed


def test_eps_dense_check_detects_gap():
    rep = eps_dense_check([INFINITY], 1 / 4, 4)
    assert not rep.passed
    # the worst witness sits near the bottom of the chart
    assert min(w["embed"] for w in rep.uncovered) <= 0.25


def test_default_k_cut():
    assert default_k_cut(1 / 16) == 8
    assert default_k_cut(1e-6) == 11


def test_density_of_reachable_union_symbolic():
    for t in (0.3, 0.55):
        cloud = forward_reachable(XPoint(1, t), 40)
        cloud.update(sp.xpoint() for sp in symbolic_family(t, 12, 12, 8))
        rep = eps_dense_check(cloud, 1 / 16, 8)
        assert rep.passed, rep.uncovered


def test_orbit_k_cut_levels():
    assert orbit_k_cut(0.125, 2) == 3
    assert orbit_k_cut(0.5, 1) >= 2


def test_orbit_k_cut_matches_the_float_loop():
    # the cutoff compares integer exponents; below the float overflow it
    # must agree with the loop over float powers it replaced
    def float_loop(eps, half_width):
        k = 2
        while 2.0 ** (2 - 2 * (k + 1) + half_width) > eps:
            k += 1
        return k

    r = random.Random(30)
    epss = [2.0**-i for i in range(1, 60)] + [r.random() for _ in range(40)]
    epss += [5e-324, 1e-300, 0.1, 0.125, 0.999, math.nextafter(0.125, 0)]
    for eps in epss:
        for half_width in range(201):
            assert orbit_k_cut(eps, half_width) == float_loop(eps, half_width)


def test_orbit_k_cut_rejects_a_bad_eps():
    # -1.0 comes last: a cutoff loop that accepts it never returns
    for eps in (0.0, math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            orbit_k_cut(eps, 2)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            build_net(eps, WindowConfig(2))


def test_net_contains_infinity_element():
    net = build_net(0.25, WindowConfig(1), u_cells=4)
    assert net[-1].is_all_infinity
    assert all(p.word.domain_at(0) <= orbit_k_cut(0.25, 1) for p in net[:-1])


@pytest.mark.parametrize("half_width", [1, 2, 3])
@pytest.mark.parametrize("k", range(1, 6))
def test_window_words_count_as_a_squared_walk_count(k, half_width):
    # a window word is a left walk of N letters into k and a right walk of
    # N letters out of k, and the two count alike on the letter graph
    words = sum(1 for _ in iter_words(k, 2 * half_width, start=-half_width))
    assert words == count_words_recurrence(k, half_width)[-1] ** 2


@pytest.mark.parametrize(
    "eps, half_width, u_cells, size",
    [(0.25, 1, 4, 66), (0.125, 2, 12, 2211), (0.3, 3, 7, 10633)],
)
def test_net_has_the_counted_size(eps, half_width, u_cells, size):
    k_cut = orbit_k_cut(eps, half_width)
    walks = [count_words_recurrence(k, half_width)[-1] for k in range(1, k_cut + 1)]
    assert sum(w * w for w in walks) * (u_cells + 1) + 1 == size
    assert len(build_net(eps, WindowConfig(half_width), u_cells=u_cells)) == size


def test_net_size_is_capped_before_any_word_is_built(monkeypatch):
    # window 5 at eps 1/8 asks for 1,830,518 points; window 4 still fits
    def refuse(*args, **kwargs):
        raise AssertionError("a word was enumerated")

    monkeypatch.setattr(impression, "iter_words", refuse)
    with pytest.raises(ResourceCapExceeded) as exc:
        build_net(0.125, WindowConfig(5))
    assert str(exc.value) == (
        f"at least 1830518 net points (eps=0.125, window=5, u_cells=12) exceed cap "
        f"{ENUMERATION_CAP}"
    )
    with pytest.raises(AssertionError, match="enumerated"):
        build_net(0.125, WindowConfig(4))


def test_single_element_net_orbit():
    cfg = WindowConfig(1)
    net = build_net(0.25, cfg, u_cells=2)[:1]
    res = transitive_orbit_builder(0.25, cfg, net=net)
    assert res.passed
    assert len(res.visits) == 1
    assert res.visits[0].time == 0
    assert dist_window(res.point, net[0], cfg) <= 0.25


def test_orbit_small_run_covers_net():
    cfg = WindowConfig(1)
    res = transitive_orbit_builder(0.25, cfg, net=build_net(0.25, cfg, u_cells=6))
    check = verify_orbit(res)
    assert res.passed and check["passed"]
    assert check["coverage"] == 1.0
    assert check["max_dist"] <= 0.25
    assert check["max_forward_dist"] <= check["max_dist"]


@pytest.fixture(scope="module")
def small_orbit():
    cfg = WindowConfig(1)
    return transitive_orbit_builder(0.25, cfg, net=build_net(0.25, cfg, u_cells=4))


def test_orbit_consecutive_pairs_admissible(small_orbit):
    p = small_orbit.point
    trace = coord_range(p, p.lo, p.hi + 1)
    assert len(trace) == len(p.word.letters) + 1
    for x, y in zip(trace, trace[1:]):
        assert in_H(x, y)


def test_orbit_float_trace_equals_coord_range(small_orbit):
    p = small_orbit.point
    trace = _local_trace(p, p.lo, p.hi + 1)[1]
    assert trace == [x.u for x in coord_range(p, p.lo, p.hi + 1)]


def test_verify_orbit_rejects_a_moved_base(small_orbit):
    p = small_orbit.point
    assert p.t0.u != 0.5
    moved = MPoint(p.word, XPoint(p.t0.k, 0.5))
    check = verify_orbit(small_orbit._replace(point=moved))
    assert check["passed"] is False
    assert check["coverage"] < 1.0


def test_verify_orbit_rejects_a_moved_visit_time(small_orbit):
    visits = list(small_orbit.visits)
    v = visits[5]
    visits[5] = Visit(v.net_index, v.time + 1, v.dist)
    check = verify_orbit(small_orbit._replace(visits=visits))
    assert check["passed"] is False
    assert check["coverage"] < 1.0


def test_verify_orbit_counts_a_visit_past_the_word_end_as_uncovered(small_orbit):
    # the last visit's window already ends at the orbit word's last letter
    p, n = small_orbit.point, small_orbit.cfg.half_width
    visits = list(small_orbit.visits)
    v = visits[-1]
    assert v.time + n == p.hi + 1
    visits[-1] = Visit(v.net_index, v.time + 1, v.dist)
    check = verify_orbit(small_orbit._replace(visits=visits))
    assert check["passed"] is False
    assert check["covered"] == check["net_size"] - 1


class _CountingLetter:
    """A stand-in for a letter whose piece, forward or inverse, counts
    every step taken through it, the identity steps included."""

    def __init__(self, lt: Letter, calls: list):
        self.lt, self.calls = lt, calls
        self.domain_index, self.range_index = lt.domain_index, lt.range_index

    def piece(self, u: float, inverse: bool = False) -> float:
        self.calls.append(1)
        return self.lt.piece(u, inverse)


def _counting(result, calls):
    """The result with the letters of its orbit word and of every finite
    net element swapped for counting ones."""

    def counted(p: MPoint) -> MPoint:
        if p.is_all_infinity:
            return p
        letters = tuple(_CountingLetter(lt, calls) for lt in p.word.letters)
        return MPoint(Word._trusted(letters, p.lo), p.t0)

    return result._replace(
        point=counted(result.point), net=[counted(q) for q in result.net]
    )


def test_verify_orbit_walks_the_orbit_once(small_orbit):
    # one step per orbit letter up to the last visit time, then 2N per
    # visit window and 2N per finite net element for the window metric
    calls = []
    res = _counting(small_orbit, calls)
    n = res.cfg.half_width
    finite = sum(not res.net[v.net_index].is_all_infinity for v in res.visits)
    assert verify_orbit(res)["passed"]
    last = max(v.time for v in res.visits)
    assert len(calls) == last + 2 * n * (len(res.visits) + finite)
    assert last < len(res.point.word.letters)
    assert len(calls) == 2874


def test_verify_orbit_walks_only_to_the_visit_times(small_orbit):
    # with the first three visits kept, the walk stops at the third
    calls = []
    res = _counting(small_orbit, calls)
    visits = res.visits[:3]
    check = verify_orbit(res._replace(visits=visits))
    assert check["covered"] == 3
    n = res.cfg.half_width
    finite = sum(not res.net[v.net_index].is_all_infinity for v in visits)
    assert len(calls) == max(v.time for v in visits) + 2 * n * (3 + finite)
    assert len(calls) < len(res.point.word.letters) // 10


def _full_trace_verify(result: impression.OrbitResult) -> dict:
    """``verify_orbit`` as it stood when it traced every coordinate of the
    orbit word with ``_local_trace``; the oracle for the walk that stops
    at the visit times."""
    eps, cfg = result.eps, result.cfg
    n = cfg.half_width
    p = result.point
    lo, hi = p.lo, p.hi
    trace = _local_trace(p, lo, hi + 1)[1]
    worst = worst_fwd = 0.0
    seen = set()
    for v in result.visits:
        if not lo + n <= v.time <= hi + 1 - n:
            continue
        sl = p.word.slice(v.time - n, v.time + n - 1)
        x = XPoint(p.word.domain_at(v.time), trace[v.time - lo])
        w = MPoint(Word._trusted(sl.letters, -n), x)
        d, f = _window_dists(w, result.net[v.net_index], cfg)
        worst, worst_fwd = max(worst, d), max(worst_fwd, f)
        if d <= eps:
            seen.add(v.net_index)
    return {
        "covered": len(seen),
        "net_size": len(result.net),
        "coverage": len(seen) / len(result.net),
        "max_dist": worst,
        "max_forward_dist": worst_fwd,
        "passed": len(seen) == len(result.net),
    }


@pytest.mark.parametrize("offset", [1, 2, 37, 400, 1500])
def test_verify_orbit_matches_the_full_trace_left_of_the_base(small_orbit, offset):
    # shifting the base right moves the word's start left of -N, so the
    # visits before the new base sit at negative times, where the walk
    # pulls back through inverse pieces; two forged visits reach past
    # either end of the word
    from fanshift.mahavier import shift

    p, n = small_orbit.point, small_orbit.cfg.half_width
    for _ in range(offset):
        p = shift(p)
    visits = [Visit(v.net_index, v.time - offset, v.dist) for v in small_orbit.visits]
    visits += [Visit(0, p.lo + n - 1, 0.0), Visit(1, p.hi + 2 - n, 0.0)]
    forged = small_orbit._replace(point=p, visits=visits)
    assert p.lo < -n
    assert any(p.lo + n <= v.time < 0 for v in visits)
    assert verify_orbit(forged) == _full_trace_verify(forged)
    assert _full_trace_verify(small_orbit) == verify_orbit(small_orbit)


def test_orbit_memory_stays_window_sized():
    # at the defaults the orbit has 117,740 letters; the builder carries
    # one coordinate and verify_orbit one per visit time, so neither keeps
    # a float per letter (7.2 MB and 4.2 MB of traced peak when both did)
    cfg = WindowConfig(2)
    net = build_net(0.125, cfg)
    _exponents.cache_clear()  # the builder pays for its table, as a command does
    tracemalloc.start()
    try:
        res = transitive_orbit_builder(0.125, cfg, net=net)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        check = verify_orbit(res)
        _, verify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check["passed"] and len(res.point.word.letters) == 117_740
    assert build_peak <= 3.5e6
    assert verify_peak - held <= 1.0e6


def test_orbit_visits_match_shifted_windows():
    # the visit times index shifted windows of the returned point
    from fanshift.mahavier import shift

    cfg = WindowConfig(1)
    net = build_net(0.25, cfg, u_cells=2)
    res = transitive_orbit_builder(0.25, cfg, net=net[:6])
    q = res.point
    for v in res.visits[:4]:
        s = q
        for _ in range(v.time):
            s = shift(s)
        d = dist_window(s, res.net[v.net_index], cfg)
        assert d <= 0.25 + 1e-12


def _seeded_heights(eps, cfg, u_cells):
    """The net's words with heights drawn from a seeded generator."""
    rng = random.Random(0)
    return [
        p if p.is_all_infinity else MPoint(p.word, XPoint(p.t0.k, rng.random()))
        for p in build_net(eps, cfg, u_cells=u_cells)
    ]


@pytest.mark.parametrize(
    "eps, half_width, u_cells, make_net, calls",
    [
        (1 / 8, 2, 12, build_net, 2211),
        (1 / 8, 2, 12, _seeded_heights, 2211),
        (0.25, 1, 12, build_net, 170),
        (0.07, 1, 20, build_net, 465),  # rejects two candidates
    ],
    ids=["default", "seeded-heights", "window-1", "window-1-rejecting"],
)
def test_orbit_measures_each_visit_once(
    eps, half_width, u_cells, make_net, calls, monkeypatch
):
    # every distance the builder measures either becomes a visit or rejects
    # a candidate, and a recorded distance is the one the returned point
    # gives back at the visit's time
    from fanshift import impression

    measured = []

    def counting(p, q, cfg):
        measured.append(dist_window(p, q, cfg))
        return measured[-1]

    cfg = WindowConfig(half_width)
    monkeypatch.setattr(impression, "dist_window", counting)
    res = transitive_orbit_builder(eps, cfg, net=make_net(eps, cfg, u_cells=u_cells))
    assert res.passed and verify_orbit(res)["passed"]
    target = eps * 0.995
    assert [d for d in measured if d <= target] == [v.dist for v in res.visits]
    assert len(measured) == calls

    p, n = res.point, half_width
    trace = _local_trace(p, p.lo, p.hi + 1)[1]
    for v in res.visits:
        sl = p.word.slice(v.time - n, v.time + n - 1)
        x = XPoint(p.word.domain_at(v.time), trace[v.time - p.lo])
        w = MPoint(Word(sl.letters, -n), x)
        assert _window_dists(w, res.net[v.net_index], cfg)[0] == v.dist


def test_orbit_unmatched_seed_element_raises():
    # the first element sits at height 0, the seed is clamped to 2^-20, so
    # at eps 1e-9 the seed visit misses before any connector is tried
    cfg = WindowConfig(1)
    net = build_net(0.25, cfg, u_cells=2)[:3]
    with pytest.raises(PathNotFound, match="seed element not matched"):
        transitive_orbit_builder(1e-9, cfg, net=net)


def test_orbit_failure_names_the_interior_guard():
    # the known frontier: element 65 needs a pull-back to 0, which the guard
    # keeps every candidate away from
    with pytest.raises(PathNotFound) as exc:
        transitive_orbit_builder(0.0625, WindowConfig(2))
    msg = str(exc.value)
    assert "net element 65 (d_left = 1," in msg
    assert "inside INTERIOR_GUARD = 1e-14 ran out" in msg
    assert "raise tries" not in msg


# ---------------------------------------------------------------------------
# Steering: the lazy walk against a brute-force ranking of the whole lattice
# ---------------------------------------------------------------------------

_EXPONENTS = _exponents()


def _ranked_reference(u_cur, v_target, tries):
    ranked = []
    for e, m, n in _EXPONENTS:
        v = u_cur**e
        if INTERIOR_GUARD < v < 1.0 - INTERIOR_GUARD:
            ranked.append((abs(v - v_target), m + n, m, n))
    ranked.sort()
    return [(m, n) for _, _, m, n in ranked[:tries]]


# u = 1 - INTERIOR_GUARD and u = INTERIOR_GUARD put the power at e = 1 exactly
# on a guard limit; the powers of 1 - 2^-52 and 1 - 2^-53 pile up in the
# upper guard band
_EDGE_U = (
    2.0**-20,
    1.0 - 2.0**-20,
    1.0 - 2.0**-52,
    1.0 - 2.0**-53,
    1.0 - INTERIOR_GUARD,
    INTERIOR_GUARD,
    1e-300,
)
_EDGE_V = (0.0, 1.0, 0.5, INTERIOR_GUARD, 1.0 - INTERIOR_GUARD)

_units = st.one_of(
    st.sampled_from(_EDGE_U),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
_targets = st.one_of(
    st.sampled_from(_EDGE_V),
    st.floats(0.0, 1.0),
    st.floats(0.0, INTERIOR_GUARD),
    st.floats(1.0 - INTERIOR_GUARD, 1.0),
)
_tries = st.one_of(st.sampled_from((1, 600)), st.integers(1, len(_EXPONENTS)))


@pytest.mark.parametrize("u_cur", _EDGE_U)
@pytest.mark.parametrize("v_target", _EDGE_V)
@pytest.mark.parametrize("tries", (1, 600))
def test_steer_candidates_edge_cases(u_cur, v_target, tries):
    got = list(_steer_candidates(u_cur, v_target, tries))
    assert got == _ranked_reference(u_cur, v_target, tries)
    assert len(got) == tries


@pytest.mark.parametrize("u_cur", [0.0, 1.0])
def test_steer_candidates_yield_nothing_from_an_endpoint(u_cur):
    # every power of an endpoint is that endpoint, outside the guard band
    assert list(_steer_candidates(u_cur, 0.5, 600)) == []
    assert _ranked_reference(u_cur, 0.5, 600) == []


def test_steer_candidates_sort_equal_distances():
    # v_target halfway between two adjacent powers: both are nearest, and
    # the smaller m + n comes first although its power lies below v_target
    a = 0.5 ** (2.0**46 / 3.0**58)
    b = 0.5 ** (2.0**27 / 3.0**46)
    v = (a + b) / 2
    assert a - v == v - b > 0
    got = list(_steer_candidates(0.5, v, 2))
    assert got == [(27, 46), (46, 58)] == _ranked_reference(0.5, v, 2)


@given(_units, _targets, _tries)
@settings(max_examples=150, deadline=None)
def test_steer_candidates_equal_full_ranking(u_cur, v_target, tries):
    assert list(_steer_candidates(u_cur, v_target, tries)) == _ranked_reference(
        u_cur, v_target, tries
    )


@given(_units, st.integers(0, len(_EXPONENTS)), st.sampled_from((2, 600)))
@settings(max_examples=100, deadline=None)
def test_steer_candidates_equal_full_ranking_at_ties(u_cur, pick, tries):
    # halfway between two adjacent interior powers their distances tie
    powers = sorted(
        {
            v
            for v in (u_cur**e for e, _, _ in _EXPONENTS)
            if INTERIOR_GUARD < v < 1.0 - INTERIOR_GUARD
        }
    )
    assume(len(powers) >= 2)
    i = pick % (len(powers) - 1)
    v_target = (powers[i] + powers[i + 1]) / 2
    assume(powers[i + 1] - v_target == v_target - powers[i])
    assert list(_steer_candidates(u_cur, v_target, tries)) == _ranked_reference(
        u_cur, v_target, tries
    )


def _steer_candidates_loop(u_cur, v_target, tries):
    """Verbatim copy of ``_steer_candidates`` as it stood when it walked the
    two sides outward with a hand-written two-pointer loop; the oracle for
    the merged walk."""
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


def test_steer_candidates_match_the_two_pointer_loop():
    # every u within 1e-14 of 0 or 1, or at 2^-20 or 1 - 2^-20, meets v at
    # 0, 1 and 1/2; then seeded draws mix those with uniform ones
    r = random.Random(2024)
    edge_u = (1e-15, 5e-15, 1e-14, 1 - 1e-14, 1 - 5e-15, 1 - 1e-15, 2.0**-20)
    edge_u += (1.0 - 2.0**-20,)
    cases = [(u, v, t) for u in edge_u for v in (0.0, 1.0, 0.5) for t in (1, 5, 600)]
    for _ in range(1000):
        u = r.choice((r.random(), r.choice(edge_u), r.uniform(0.0, 1e-14)))
        v = r.choice((r.random(), 0.0, 1.0, r.uniform(1.0 - 1e-14, 1.0)))
        cases.append((u, v, r.choice((1, 5, 600))))
    # v halfway between u^(1/9) and u^2 ties (0, 2) with (1, 0) in many
    # cases, and m + n ranks them against the (m, n) order
    for _ in range(100):
        u = r.random()
        cases.append((u, (u ** (1 / 9) + u**2.0) / 2, 600))
    for u, v, tries in cases:
        got = list(_steer_candidates(u, v, tries))
        assert got == list(_steer_candidates_loop(u, v, tries)), (u, v, tries)


@given(_units)
@settings(max_examples=100, deadline=None)
def test_powers_do_not_increase_along_exponents(u_cur):
    # the monotonicity the bisections in _steer_candidates rely on
    powers = [u_cur**e for e, _, _ in _EXPONENTS]
    assert all(a >= b for a, b in zip(powers, powers[1:]))
