import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from fanshift import itinerary
from fanshift.errors import (
    HypothesisViolated,
    ResourceCapExceeded,
    TruncationError,
    WellDefinednessError,
)
from fanshift.invariants import leg_x
from fanshift.itinerary import ENUMERATION_CAP, count_words_recurrence, random_word
from fanshift.mahavier import (
    ALL_INFINITY,
    MPoint,
    diagonal_point,
    fiber_length,
    height,
    pack,
    random_window_point,
    shift,
    unshift,
)
from fanshift.quotients import (
    AParam,
    CPoint,
    FanModel,
    Gluing,
    Leg,
    _collisions,
    _cover_gap,
    build_fan,
    check_conjugated_shift,
    check_hlavna,
    check_invariance,
    cpoint_dist,
    density_transfer_report,
    descend,
    glued_pair,
    host_bundle,
    identity_address,
    identity_map,
    in_top_class,
    lift_f_R,
    m_group,
    phi,
    phi_inverse,
    sim_a,
    star_of,
    swap_digit_map,
    vertex_crush_map,
)
from fanshift.xspace import XPoint

from _util import arc_sample, fan_point_dist, hausdorff_dist, rng


# --- the compression and its lifts -----------------------------------------


def test_cpoint_canonicalizes_address():
    assert CPoint("2000", 0.5).address == "2"
    assert CPoint("", 0.25).c == 0.0
    with pytest.raises(ValueError):
        CPoint("21", 0.5)
    for t in (1.0 + 1e-13, -1e-13):
        with pytest.raises(ValueError):
            CPoint("2", t)
    # the cached address value stays out of equality, hashing and repr
    p = CPoint("202", 0.5)
    assert p.c == CPoint("202", 0.5).c
    assert p == CPoint("202", 0.5) and hash(p) == hash(CPoint("202", 0.5))
    assert (CPoint("20200", 0.5).address, CPoint("20200", 0.5).t) == ("202", 0.5)
    assert CPoint("20200", 0.5) == p


def test_phi_examples():
    assert phi(CPoint("", 0.7)) == CPoint("", 0.0)
    p = phi(CPoint("2", 0.5))
    assert math.isclose(p.t, 1 / 3, rel_tol=1e-15)
    # a depth-12 approximation of the chunk endpoint 1/3 behaves like it
    approx_third = CPoint("0" + "2" * 11, 0.5)
    assert math.isclose(phi(approx_third).t, 1 / 6, rel_tol=1e-3)


def test_phi_injective_on_fixed_nonzero_column():
    c = CPoint("2", 0.0).c
    heights = [i / 16 for i in range(17)]
    images = {phi(CPoint("2", t)).t for t in heights}
    assert len(images) == len(heights)
    assert all(math.isclose(phi(CPoint("2", t)).t, c * t, rel_tol=1e-15) for t in heights[1:])


def test_phi_round_trip_off_vertex():
    r = rng(0)
    for _ in range(500):
        addr = "".join(r.choice("02") for _ in range(6))
        p = CPoint(addr, r.random())
        if p.c == 0.0:
            continue
        q = phi(phi_inverse(phi(p)))
        assert q.address == phi(p).address
        assert math.isclose(q.t, phi(p).t, rel_tol=1e-12, abs_tol=1e-15)
    with pytest.raises(ValueError):
        phi_inverse(CPoint("", 0.0))


def test_lift_identity_is_identity():
    f_R = lift_f_R(identity_map)
    r = rng(1)
    for _ in range(200):
        addr = "".join(r.choice("02") for _ in range(5))
        p = phi(CPoint(addr, r.random()))
        q = f_R(p)
        assert q.address == p.address and math.isclose(q.t, p.t, abs_tol=1e-15)
    assert f_R(CPoint("", 0.0)) == CPoint("", 0.0)


def test_lift_product_map_formula():
    # for f = (g x id) the lift carries (c, c*t) to (g(c), g(c)*t)
    f_R = lift_f_R(swap_digit_map)
    r = rng(2)
    for _ in range(200):
        addr = "".join(r.choice("02") for _ in range(5))
        p = CPoint(addr, r.random())
        if p.c == 0.0:
            continue
        img = f_R(phi(p))
        expect = phi(swap_digit_map(p))
        assert img.address == expect.address
        assert math.isclose(img.t, expect.t, rel_tol=1e-12, abs_tol=1e-15)


def test_invariance_violation_detected():
    with pytest.raises(HypothesisViolated) as exc:
        lift_f_R(vertex_crush_map)
    assert exc.value.witness is not None
    check_invariance(identity_map)


def test_check_hlavna_identity_and_product_pass():
    for f, name in ((identity_map, "identity"), (swap_digit_map, "swap")):
        rep = check_hlavna(f, name=name)
        assert rep.passed, rep
        assert rep.surjectivity_gap <= 1e-9
        assert rep.vertex_tail <= 1e-3


def test_check_hlavna_rejects_violator_with_witness():
    rep = check_hlavna(vertex_crush_map, name="crush")
    assert not rep.passed
    assert not rep.hypothesis_ok
    assert rep.witness is not None


def test_check_hlavna_rejects_non_injective_map():
    # respects the invariance hypotheses but flattens every column to t = 0
    def flatten(p):
        return CPoint(p.address, 0.0)

    rep = check_hlavna(flatten, name="flatten")
    assert rep.hypothesis_ok and not rep.passed
    assert rep.injectivity_ok is False
    assert rep.surjectivity_ok is False
    assert rep.surjectivity_gap == 0.9986282578875171
    a, b = (CPoint(rep.witness[key]["address"], rep.witness[key]["t"]) for key in "ab")
    f_R = lift_f_R(flatten)
    assert cpoint_dist(a, b) > 1e-6
    assert cpoint_dist(f_R(a), f_R(b)) < 1e-9


def test_conjugated_shift_sampler():
    r = rng(3)
    samples = []
    for _ in range(60):
        k = r.randint(1, 3)
        word = random_word(r, k, left=6, right=6)
        samples.append(MPoint(word, XPoint(k, r.random())))
    rep = check_conjugated_shift(samples)
    assert rep["passed"], rep


def test_density_transfer():
    pts = [(i / 16, j / 16) for i in range(17) for j in range(17)]
    rep = density_transfer_report(pts, pts, 1 / 16)
    assert rep["passed"]
    assert rep["gap_after"] <= 2 * rep["eps"]
    sparse = density_transfer_report([(0.0, 0.0)], [(1.0, 1.0)], 1 / 16)
    assert not sparse["passed"]


def test_samplers_reject_empty_input():
    with pytest.raises(ValueError):
        density_transfer_report([], [(0.5, 0.5)], 1 / 16)
    with pytest.raises(ValueError):
        density_transfer_report([(0.5, 0.5)], [], 1 / 16)
    r = rng(11)
    one = [MPoint(random_word(r, 2, left=6, right=6), XPoint(2, 0.5))]
    for samples in ([], one):
        with pytest.raises(ValueError):
            check_conjugated_shift(samples)


# --- the sorted sweeps against brute force -----------------------------------

EPS = 1e-9
_UNDER = math.nextafter(EPS, 0.0)
# shared grid values give ties in the first coordinate and duplicate points
_coord = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.0, 1.0))
_offset = st.sampled_from([0.0, EPS / 2, _UNDER, -_UNDER, EPS, -EPS])


@st.composite
def _clouds(draw):
    """1-30 points, plus copies moved by offsets at and just under EPS."""
    pts = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=30))
    for x, y in draw(st.lists(st.sampled_from(pts), max_size=10)):
        pts.append((x + draw(_offset), y + draw(_offset)))
    return draw(st.permutations(pts))


def _max_metric(p, q):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


@given(_clouds(), _clouds())
def test_cover_gap_equals_brute_force(targets, cloud):
    brute = max(min(_max_metric(t, p) for p in cloud) for t in targets)
    assert _cover_gap(targets, cloud) == brute


@given(_clouds())
def test_collision_sweep_finds_all_pairs(pts):
    found = [tuple(sorted(pair)) for pair in _collisions(pts, EPS)]
    brute = {
        (i, j)
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if _max_metric(pts[i], pts[j]) < EPS
    }
    assert len(found) == len(set(found))
    assert set(found) == brute


# --- gluing parameters and the equivalence ---------------------------------


def test_aparam_validation_and_parse():
    a = AParam.parse("1,4,5")
    assert a.coords == (1, 4, 5)
    assert a[2] == 4
    with pytest.raises(ValueError):
        AParam((3,))
    with pytest.raises(ValueError):
        AParam((1, 5))
    assert len(AParam.all_params(3)) == 8
    assert AParam((2, 3, 6)).truncate(2).coords == (2, 3)


def test_m_group_tiles_diagonal_indices():
    seen = set()
    for k in range(1, 10):
        for i in range(0, 2 * k + 1):
            j = host_bundle(k) + i
            assert m_group(j) == (k, i)
            seen.add(j)
    assert seen == set(range(3, host_bundle(9) + 19))


def test_sim_a_reflexive_and_equal_points():
    a = AParam((2, 4))
    p = diagonal_point(5, 0.3)
    assert sim_a(p, p, a)
    q = pack(random_word(rng(4), 2, left=8, right=8), 0.01)
    assert sim_a(q, q, a)


def test_sim_a_top_class():
    a = AParam((1,))
    w = random_word(rng(5), 2, left=8, right=8)
    zero = pack(w, 0.0)
    assert in_top_class(zero)
    assert in_top_class(ALL_INFINITY)
    assert sim_a(zero, ALL_INFINITY, a)
    assert sim_a(ALL_INFINITY, zero, a)
    mid = pack(w, fiber_length(2) / 2)
    assert not sim_a(mid, ALL_INFINITY, a)


def test_sim_a_gluing_pairs():
    a = AParam((2, 4))
    for k in (1, 2):
        for i in range(1, a[k] + 1):
            x, y = glued_pair(k, i, 0.37)
            assert height(x) == height(y)
            assert sim_a(x, y, a)
            assert sim_a(y, x, a)
    # inactive guest: block 1 allows at most 2
    x, y = glued_pair(1, 2, 0.2)
    assert not sim_a(x, y, AParam((1,)))


def test_sim_a_guest_guest_closure():
    a = AParam((2,))
    jh = host_bundle(1)
    tau = 0.4 * fiber_length(jh + 2)
    g1 = diagonal_point(jh + 1, tau / fiber_length(jh + 1))
    g2 = diagonal_point(jh + 2, tau / fiber_length(jh + 2))
    assert height(g1) == height(g2)
    assert sim_a(g1, g2, a)


def test_top_class_is_exactly_height_zero():
    for k in (1, 2, 3):
        w = random_word(rng(11), k, left=8, right=8)
        assert not in_top_class(pack(w, 1e-14 * fiber_length(k)))


def test_sim_a_separates_heights_one_ulp_apart():
    a = AParam((2,))
    x, y = glued_pair(1, 1, 0.3)
    y_up = MPoint(y.word, XPoint(y.t0.k, math.nextafter(y.t0.u, 1.0)))
    assert sim_a(x, y, a)
    assert height(y_up) != height(x)
    assert not sim_a(x, y_up, a)
    assert not sim_a(y, y_up, a)


def test_sim_a_height_mismatch():
    a = AParam((2,))
    x, _ = glued_pair(1, 1, 0.3)
    _, y = glued_pair(1, 1, 0.6)
    assert not sim_a(x, y, a)


def test_sim_a_same_arc_same_height():
    p1 = diagonal_point(7, 0.5, 8)
    p2 = shift(diagonal_point(7, 0.5, 8))
    assert sim_a(p1, p2, AParam((1,)))


def test_sim_a_truncation_error():
    a = AParam((1,))
    x, y = glued_pair(2, 1, 0.5)  # block 2 is beyond the modeled parameter
    with pytest.raises(TruncationError):
        sim_a(x, y, a)


def test_sim_a_transitivity_on_block_sample():
    a = AParam((2, 4))
    r = rng(6)
    pts = []
    for _ in range(40):
        k = r.randint(1, 2)
        i = r.randint(0, a[k])
        j = host_bundle(k) + i
        tau = r.choice([0.25, 0.5]) * fiber_length(host_bundle(k) + a[k])
        pts.append(diagonal_point(j, tau / fiber_length(j)))
    for x in pts:
        for y in pts:
            for z in pts:
                if sim_a(x, y, a) and sim_a(y, z, a):
                    assert sim_a(x, z, a)


@st.composite
def _sim_a_points(draw, a):
    """Glued pairs, diagonal arcs of a block at heights shared across the
    block, the top class, and random windows."""
    kind = draw(st.sampled_from(["glued", "block", "top", "window"]))
    k = draw(st.integers(1, len(a)))
    frac = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    if kind == "glued":
        return glued_pair(k, draw(st.integers(1, 2 * k)), frac)[draw(st.integers(0, 1))]
    if kind == "block":
        j = host_bundle(k) + draw(st.integers(0, 2 * k))
        tau = frac * fiber_length(host_bundle(k) + 2 * k)
        return diagonal_point(j, tau / fiber_length(j))
    seed = draw(st.integers(0, 3))
    if kind == "top":
        if seed == 0:
            return ALL_INFINITY
        return pack(random_word(rng(seed), k, left=8, right=8), 0.0)
    return random_window_point(rng(seed), draw(st.integers(1, 4)))


@st.composite
def _sim_a_samples(draw):
    a = draw(st.sampled_from(AParam.all_params(3)))
    return a, draw(st.lists(_sim_a_points(a), min_size=1, max_size=6))


@given(_sim_a_samples())
@settings(max_examples=200, deadline=None)
def test_sim_a_is_an_equivalence_relation(sample):
    a, pts = sample
    for x in pts:
        assert sim_a(x, x, a)
        for y in pts:
            xy = sim_a(x, y, a)
            assert xy == sim_a(y, x, a)
            if xy:
                for z in pts:
                    if sim_a(y, z, a):
                        assert sim_a(x, z, a)


def test_shift_compatibility_of_equivalence():
    a = AParam((2, 4))
    r = rng(7)
    for _ in range(300):
        k = r.randint(1, 2)
        i = r.randint(1, a[k])
        x, y = glued_pair(k, i, r.random())
        assert sim_a(shift(x), shift(y), a)
        assert sim_a(unshift(x), unshift(y), a)
        z = pack(random_word(r, r.randint(1, 3), left=8, right=8), 0.0)
        assert sim_a(shift(z), ALL_INFINITY, a)


def test_descend_shift_passes_and_fixes_diagonals():
    a = AParam((2, 4))
    descend(shift, a, rng=rng(8), pairs=100)
    for j in (3, 4, 6, 10):
        p = diagonal_point(j, 0.4)
        assert sim_a(shift(p), p, a)
    zero = pack(random_word(rng(9), 2, left=8, right=8), 0.0)
    assert sim_a(shift(zero), ALL_INFINITY, a)


def test_descend_rejects_incompatible_map():
    def flip(p):
        if p.is_all_infinity:
            return p
        return MPoint(p.word, XPoint(p.t0.k, 1.0 - p.t0.u))

    with pytest.raises(WellDefinednessError) as exc:
        descend(flip, AParam((1,)), rng=rng(10), pairs=100)
    assert exc.value.witness is not None


# --- fan models -------------------------------------------------------------


def test_build_fan_gluing_counts():
    fan1 = build_fan(AParam((1,)), 4, 3)
    assert len(fan1.gluings) == 1
    host = fan1.legs[fan1.gluings[0].host]
    guest = fan1.legs[fan1.gluings[0].guest]
    assert host.bundle == "3" and guest.bundle == "4"
    fan2 = build_fan(AParam((2,)), 5, 3)
    assert len(fan2.gluings) == 2
    assert {fan2.legs[g.guest].bundle for g in fan2.gluings} == {"4", "5"}
    fan0 = build_fan(AParam(()), 3, 3)
    assert fan0.gluings == ()


def test_build_fan_validation():
    with pytest.raises(ValueError):
        build_fan(AParam((1,)), 3, 3)  # bundle 4 needed
    with pytest.raises(ValueError):
        build_fan(AParam(()), 2, 0)


def test_build_fan_leg_count_and_cap():
    for kb, depth in ((4, 3), (10, 5)):
        fan = build_fan(AParam(()), kb, depth)
        assert len(fan.legs) == sum(
            count_words_recurrence(k, depth)[-1] for k in range(1, kb + 1)
        )
    # fans of the same depth share their bundles' Leg objects
    other = build_fan(AParam((1,)), 4, 3)
    assert all(x is y for x, y in zip(build_fan(AParam(()), 4, 3).legs, other.legs))
    message = (
        rf"^at least 1720513 fan legs \(kmax_bundle=5, depth=12\) "
        rf"exceed cap {ENUMERATION_CAP}$"
    )
    with pytest.raises(ResourceCapExceeded, match=message):
        build_fan(AParam(()), 5, 12)


def test_build_fan_counts_legs_once_per_size(monkeypatch):
    # each bundle's word count of a depth is walked at most once: after
    # one fan of each size, more fans of those sizes walk nothing
    calls = []
    walks = itinerary._walks

    def counted(k, n, succ):
        calls.append((k, n))
        return walks(k, n, succ)

    monkeypatch.setattr(itinerary, "_walks", counted)
    itinerary._word_count.cache_clear()
    build_fan(AParam(()), 5, 3)
    build_fan(AParam(()), 4, 4)
    warm = len(calls)
    assert warm <= 5 + 4
    for _ in range(3):
        for a in (AParam(()), AParam((1,)), AParam((2,))):
            build_fan(a, 5, 3)
        build_fan(AParam(()), 4, 4)
    assert calls[warm:] == []


def test_fan_model_invariants():
    legs = (Leg("3", "00", 0.03125), Leg("4", "00", 0.0078125))
    FanModel(legs, (Gluing(0, 1),))
    with pytest.raises(ValueError):
        FanModel(legs, (Gluing(1, 0),))  # guest longer than host
    with pytest.raises(ValueError):
        FanModel(legs, (Gluing(0, 0),))
    with pytest.raises(ValueError):
        FanModel(legs, (Gluing(0, 1), Gluing(0, 1)))


def test_fan_records_copy_and_pickle():
    # the fan model holds its legs, so it deep-copies and pickles with them
    fan = build_fan(AParam((1,)), 4, 3)
    for record in (fan.legs[-1], fan.gluings[0], fan):
        for twin in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert twin == record and type(twin) is type(record)


def test_identity_address_is_stay_cylinder():
    assert identity_address(3, 2) == "0202"
    legs = build_fan(AParam((1,)), 4, 2).legs
    assert any(l.bundle == "3" and l.address == "0202" for l in legs)


def test_star_of_scales_copies():
    base = build_fan(AParam((1,)), 4, 2)
    st = star_of(base, 3)
    assert len(st.legs) == 3 * len(base.legs)
    assert len(st.gluings) == 3 * len(base.gluings)
    lengths = sorted({l.length for l in st.legs})
    base_lengths = sorted({l.length for l in base.legs})
    assert lengths[0] == base_lengths[0] * 2.0**-3


def test_star_of_star_has_rescaled_length_set():
    base = build_fan(AParam(()), 2, 2)
    inner = star_of(base, 4, scale=1.0)
    outer = star_of(inner, 4, scale=1.0)
    # distinct leg lengths of a star of stars form the length set of a
    # single star at half scale, truncated to the shared depth
    single = star_of(base, 8, scale=0.5)
    outer_set = {l.length for l in outer.legs}
    single_set = {l.length for l in single.legs}
    assert outer_set <= single_set
    cut = min(outer_set)
    assert {v for v in single_set if v >= cut} == outer_set


def test_smoothness_proxy_arcs_converge():
    fan = build_fan(AParam((1,)), 4, 3)
    legs = [i for i, l in enumerate(fan.legs) if l.bundle == "3"][:6]
    target = legs[0]
    tau = fan.legs[target].length
    limit_arc = arc_sample(fan, target, tau)
    prev = math.inf
    # approach the target leg through its bundle neighbors
    approach = sorted(
        legs[1:],
        key=lambda i: abs(leg_x(fan.legs[i]) - leg_x(fan.legs[target])),
        reverse=True,
    )
    for i in approach:
        d = hausdorff_dist(arc_sample(fan, i, tau), limit_arc, metric=fan_point_dist)
        assert d <= prev + 1e-12
        prev = d
    assert prev < 0.05


def test_same_height_sequence_arcs_converge():
    fan = build_fan(AParam(()), 3, 3)
    leg = 0
    tau = fan.legs[leg].length
    limit_arc = arc_sample(fan, leg, tau)
    prev = math.inf
    for frac in (0.5, 0.75, 0.9, 0.99, 1.0):
        d = hausdorff_dist(
            arc_sample(fan, leg, tau * frac), limit_arc, metric=fan_point_dist
        )
        assert d <= prev + 1e-12
        prev = d
    assert prev == 0.0
