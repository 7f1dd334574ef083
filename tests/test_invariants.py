import bisect
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fanshift import invariants
from fanshift.errors import NotDistinguished
from fanshift.invariants import (
    DistinguishCertificate,
    JumaProfile,
    _bundle_scan,
    _grid_hit,
    distinguish,
    juma_count,
    juma_heights,
    juma_metric_oracle,
    leg_x,
    oracle_agreement,
    profile,
)
from fanshift.quotients import (
    AParam,
    FanModel,
    Gluing,
    Leg,
    build_fan,
    host_bundle,
    star_of,
)

from _util import hausdorff_dist, rng


def oracle_clusters(result):
    """A leg index to its merged detection intervals, for every leg the
    oracle detected anything on, in leg order: each host's own clusters,
    then each bundle scan's clusters for the legs that host no guest."""
    found = [(li, kept) for li, kept in result._hosts.items() if kept]
    for idx, scan in result._scans.values():
        starts = scan.starts
        found.extend(
            (li, scan.clusters(j))
            for j, li in enumerate(idx)
            if starts[j] < starts[j + 1] and li not in result._hosts
        )
    found.sort(key=lambda item: item[0])
    return dict(found)


def endpoints(fan):
    """Oracle: indices of legs whose tips are endpoints, everything not a
    guest, read straight off the gluings."""
    guests = {g.guest for g in fan.gluings}
    return tuple(i for i in range(len(fan.legs)) if i not in guests)


def test_single_leg_endpoint():
    fan = FanModel((Leg("3", "02", 0.03125),))
    assert endpoints(fan) == (0,)
    assert juma_heights(fan, 0) == (0.03125,)
    assert juma_count(fan, 0) == 1


def test_glued_guest_tip_not_endpoint():
    legs = (Leg("3", "02", 0.03125), Leg("4", "02", 0.0078125))
    fan = FanModel(legs, (Gluing(0, 1),))
    assert endpoints(fan) == (0,)
    assert juma_heights(fan, 0) == (0.03125, 0.0078125)


def test_plain_fan_one_endpoint_per_address():
    fan = build_fan(AParam(()), 3, 4)
    assert len(endpoints(fan)) == len(fan.legs)
    assert all(juma_count(fan, e) == 1 for e in endpoints(fan))


def test_host_heights_with_two_guests():
    fan = build_fan(AParam((2,)), 5, 3)
    host = fan.gluings[0].host
    hs = juma_heights(fan, host)
    assert hs == (2.0**-5, 2.0**-7, 2.0**-9)
    assert juma_count(fan, host) == 3
    assert 0.0 not in hs


def test_counts_unaffected_on_neighbor_bundles():
    fan = build_fan(AParam((1,)), 5, 3)
    for e in endpoints(fan):
        if e not in {g.host for g in fan.gluings}:
            assert juma_count(fan, e) == 1


def test_profile_values():
    a = AParam((2, 4))
    fan = build_fan(a, host_bundle(2) + 4, 3)
    prof = profile(fan)
    assert prof.distinct_values == {1, 3, 5}
    ms = prof.multiset()
    assert ms[3] == 1 and ms[5] == 1


def test_profiles_equal_for_equal_params():
    a = AParam((1, 4))
    f1 = build_fan(a, 11, 3)
    f2 = build_fan(a, 11, 3)
    assert profile(f1) == profile(f2)


def test_profile_stable_under_depth_refinement():
    a = AParam((2, 3))
    for depth in (2, 3, 4):
        prof = profile(build_fan(a, 11, depth))
        assert prof.distinct_values == {1, 3, 4}


def test_profile_invariant_under_address_relabeling():
    fan = build_fan(AParam((1,)), 4, 3)
    relabeled = FanModel(
        tuple(
            Leg(l.bundle, l.address.translate(str.maketrans("02", "20")), l.length)
            for l in fan.legs
        ),
        fan.gluings,
    )
    assert profile(relabeled) == profile(fan)


def test_block_count_values_never_collide():
    # block k contributes counts in {2k, 2k+1}; blocks stay disjoint
    for k in range(1, 7):
        vals = {2 * k, 2 * k + 1}
        for kk in range(1, 7):
            if kk != k:
                assert vals.isdisjoint({2 * kk, 2 * kk + 1})


def test_distinguish_adjacent_params():
    cert = distinguish(AParam((1,)), AParam((2,)), 1, 3)
    assert cert.k == 1
    assert cert.first_value == 2 and cert.second_value == 3
    assert abs(cert.first_value - cert.second_value) == 1


def test_distinguish_random_pairs():
    r = rng(0)
    params = AParam.all_params(6)
    for _ in range(20):
        a, b = r.sample(params, 2)
        cert = distinguish(a, b, 6, 2)
        assert isinstance(cert, DistinguishCertificate)
        assert a[cert.k] != b[cert.k]


@given(
    st.sampled_from(AParam.all_params(3)), st.sampled_from(AParam.all_params(3))
)
@settings(max_examples=60, deadline=None)
def test_distinguish_is_symmetric(a, b):
    assume(a != b)
    ab, ba = distinguish(a, b, 3, 3), distinguish(b, a, 3, 3)
    assert ab.k == ba.k
    assert (ab.first_value, ab.second_value) == (ba.second_value, ba.first_value)
    assert (ab.first_counts, ab.second_counts) == (ba.second_counts, ba.first_counts)


def test_distinguish_requires_difference():
    with pytest.raises(NotDistinguished):
        distinguish(AParam((1, 3)), AParam((1, 3)), 2, 3)
    with pytest.raises(NotDistinguished):
        distinguish(AParam((1, 3)), AParam((1, 4)), 1, 3)  # differ beyond kmax


def test_distinguish_names_the_unmodeled_coordinate():
    for a, b, kmax in (((1, 3), (1,), 2), ((1,), (1, 4), 3)):
        with pytest.raises(NotDistinguished, match="coordinate 2 is unmodeled"):
            distinguish(AParam(a), AParam(b), kmax, 3)


def test_hausdorff_examples():
    assert hausdorff_dist([(0.0, 0.0)], [(0.0, 0.0)]) == 0.0
    assert hausdorff_dist([(0.0,)], [(1.0,)]) == 1.0
    a = [(0.0, 0.0), (1.0, 0.0)]
    b = [(0.0, 0.0)]
    assert hausdorff_dist(a, b) == 1.0
    with pytest.raises(ValueError):
        hausdorff_dist([], [(0.0,)])


def test_leg_positions_inside_chunks():
    fan = build_fan(AParam((1,)), 4, 3)
    for leg in fan.legs:
        k = int(leg.bundle)
        lo = 1.0 - 3.0 ** (1 - k)
        assert lo <= leg_x(leg) <= lo + 3.0**-k
    st = star_of(fan, 2)
    with pytest.raises(ValueError):
        leg_x(st.legs[0])


def test_oracle_plain_fan_detects_only_tips():
    fan = build_fan(AParam(()), 3, 3)
    result = juma_metric_oracle(fan)
    for li in endpoints(fan):
        clusters = oracle_clusters(result).get(li, [])
        assert len(clusters) == 1
        lo, hi = clusters[0]
        assert lo <= fan.legs[li].length <= hi


def test_oracle_detects_guest_height_on_host():
    fan = build_fan(AParam((1,)), 4, 3)
    host = fan.gluings[0].host
    guest_len = fan.legs[fan.gluings[0].guest].length
    result = juma_metric_oracle(fan)
    clusters = oracle_clusters(result)[host]
    assert len(clusters) == 2
    assert any(lo <= guest_len <= hi for lo, hi in clusters)


def test_oracle_no_detection_between_heights():
    fan = build_fan(AParam((2,)), 5, 3)
    host = fan.gluings[0].host
    result = juma_metric_oracle(fan)
    expected = juma_heights(fan, host)
    clusters = oracle_clusters(result)[host]
    for lo, hi in clusters:
        assert any(lo <= h <= hi for h in expected)
    for h1, h2 in zip(expected, expected[1:]):
        mid = (h1 + h2) / 2
        assert not any(lo <= mid <= hi for lo, hi in clusters)


def test_oracle_agreement_on_corpus():
    corpus = [
        AParam(()),
        AParam((1,)),
        AParam((2,)),
        AParam((1, 3)),
        AParam((2, 4)),
    ]
    for a in corpus:
        kb = host_bundle(max(1, len(a))) + 2 * max(1, len(a))
        fan = build_fan(a, kb, 3)
        rep = oracle_agreement(fan, 2.0**-10)
        assert rep["passed"], (a, rep["mismatches"][:2])


def test_profile_dataclass_shape():
    prof = JumaProfile((1, 1, 2))
    assert prof.distinct_values == {1, 2}


# ---------------------------------------------------------------------------
# Exactness of the indexed oracle against the original detection loop
# ---------------------------------------------------------------------------


def _reference_oracle_clusters(fan, grid=2.0**-10):
    """The original ``juma_metric_oracle`` loop, verbatim: it rebuilds the
    ``xs`` lists per lookup and lists every grid height it detects."""
    guests = fan.guest_indices
    maximal = [i for i in range(len(fan.legs)) if i not in guests]

    # endpoints by bundle, sorted by x, for windowed lookups
    tips: dict[str, list[tuple[float, int, float]]] = {}
    for i in maximal:
        leg = fan.legs[i]
        tips.setdefault(leg.bundle, []).append((leg_x(leg), i, leg.length))
    for entries in tips.values():
        entries.sort()

    def nearest_tip_dist(bundle: str, x: float, exclude: int) -> float:
        best = math.inf
        entries = tips.get(bundle, ())
        xs = [e[0] for e in entries]
        i = bisect.bisect_left(xs, x)
        for j in range(max(0, i - 3), min(len(entries), i + 3)):
            ex, ei, _ = entries[j]
            if ei != exclude:
                best = min(best, abs(ex - x))
        return best

    cells = round(1.0 / grid)
    clusters: dict[int, list[tuple[float, float]]] = {}
    points: dict[int, list[float]] = {}

    for li in maximal:
        leg = fan.legs[li]
        # representatives of this leg's points: its own column plus each
        # glued guest's column, valid up to the guest's length
        reps = [(leg_x(leg), leg.length, leg.bundle)]
        for gi in fan.guests_of(li):
            g = fan.legs[gi]
            reps.append((leg_x(g), g.length, g.bundle))
        # exclude the top: nothing below half the finest grid step counts
        floor = 0.5 * grid * min(cap for _, cap, _ in reps)

        intervals: list[tuple[float, float]] = []
        for rx, cap, bundle in reps:
            delta = 1.5 * nearest_tip_dist(bundle, rx, li)
            if not math.isfinite(delta) or delta <= 0.0:
                continue
            entries = tips.get(bundle, ())
            xs = [e[0] for e in entries]
            lo_i = bisect.bisect_left(xs, rx - delta)
            hi_i = bisect.bisect_right(xs, rx + delta)
            for ex, ei, eh in entries[lo_i:hi_i]:
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
        arcs = [leg.length] + [fan.legs[gi].length for gi in fan.guests_of(li)]
        detected = set()
        kept = []
        for lo_h, hi_h in merged:
            hit = False
            for arc_len in arcs:
                step = arc_len * grid
                first = max(1, math.ceil(lo_h / step - 1e-9))
                last = math.floor(hi_h / step + 1e-9)
                for idx in range(first, min(last, cells) + 1):
                    h = idx * step
                    if lo_h - 1e-15 <= h <= hi_h + 1e-15:
                        detected.add(h)
                        hit = True
            if hit:
                kept.append((lo_h, hi_h))
        if kept:
            clusters[li] = kept
            points[li] = sorted(detected)

    return clusters


WITNESS = AParam((1, 3, 5, 7))


def _corpus_fan(a, depth):
    n = max(1, len(a))
    return build_fan(a, host_bundle(n) + 2 * n, depth)


@pytest.mark.parametrize(
    "a, depth",
    [
        *((AParam(c), d) for c in ((), (1,), (2,), (1, 3)) for d in (3, 4)),
        # every kmax-4 parameter at depth 3, where the known mismatches are
        *((a, 3) for a in AParam.all_params(4)),
        (WITNESS, 5),
    ],
    ids=lambda v: str(v.coords) if isinstance(v, AParam) else f"depth{v}",
)
def test_oracle_clusters_equal_reference_loop(a, depth):
    fan = _corpus_fan(a, depth)
    got = oracle_clusters(juma_metric_oracle(fan))
    want = _reference_oracle_clusters(fan)
    assert got == want
    assert list(got) == list(want)  # same legs, in the same order


def test_oracle_witness_still_fails_at_leg_452():
    # known defect: the oracle's absolute tolerances misread legs near
    # 2^-51; benchmarks/expected.json records it as expected-FAIL
    fan = _corpus_fan(WITNESS, 3)
    assert host_bundle(4) + 2 * 4 == 26
    rep = oracle_agreement(fan)
    assert not rep["passed"]
    assert rep["mismatches"][0]["leg"] == 452


def _assert_reference(fan, grid=2.0**-10):
    got = oracle_clusters(juma_metric_oracle(fan, grid))
    want = _reference_oracle_clusters(fan, grid)
    assert got == want
    assert list(got) == list(want)
    return got


def test_bundle_memo_shared_across_parameters():
    # (2,4,6,8) shares most bundle tip sets with (1,3,5,7) at the same
    # depth; the warm memo must give it its own clusters
    _bundle_scan.cache_clear()
    _assert_reference(_corpus_fan(WITNESS, 4))
    before = _bundle_scan.cache_info()
    _assert_reference(_corpus_fan(AParam((2, 4, 6, 8)), 4))
    after = _bundle_scan.cache_info()
    assert after.hits > before.hits
    assert after.misses > before.misses  # the bundles whose guests differ


def test_bundle_memo_keyed_on_grid():
    # at kb = 26 the deep bundles' clusters start at the grid's floor
    fan = _corpus_fan(WITNESS, 3)
    _bundle_scan.cache_clear()
    fine = _assert_reference(fan, 2.0**-10)
    misses = _bundle_scan.cache_info().misses
    coarse = _assert_reference(fan, 2.0**-8)
    assert _bundle_scan.cache_info().misses == 2 * misses
    assert coarse != fine


def test_bundle_memo_on_a_subset_of_a_bundle():
    # a hand-built fan whose bundle "3" keeps only some of build_fan's legs,
    # read while the memo holds the full bundle
    full = build_fan(AParam((1,)), 4, 3)
    host = full.gluings[0].host
    assert full.legs[host].bundle == "3"
    keep = [
        i for i, leg in enumerate(full.legs)
        if leg.bundle != "3" or i % 3 == 0 or i == host
    ]
    assert len(keep) < len(full.legs)
    new = {old: i for i, old in enumerate(keep)}
    fan = FanModel(
        tuple(full.legs[i] for i in keep),
        tuple(Gluing(new[g.host], new[g.guest]) for g in full.gluings),
    )
    _assert_reference(full)
    _assert_reference(fan)


def test_oracle_reads_no_combinatorial_rule(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the metric oracle read the combinatorial rule")

    monkeypatch.setattr(invariants, "juma_heights", forbidden)
    monkeypatch.setattr(invariants, "profile", forbidden)
    _bundle_scan.cache_clear()
    _assert_reference(_corpus_fan(WITNESS, 5))


def _full_grid_scan(lo_h, hi_h, step, cells):
    first = max(1, math.ceil(lo_h / step - 1e-9))
    last = math.floor(hi_h / step + 1e-9)
    return any(
        lo_h - 1e-15 <= idx * step <= hi_h + 1e-15
        for idx in range(first, min(last, cells) + 1)
    )


_STEPS = [2.0 ** (1 - 2 * k) * 2.0**-10 for k in (1, 3, 7, 13, 26)]


@settings(max_examples=400, deadline=None)
@given(
    step=st.one_of(st.sampled_from(_STEPS), st.floats(1e-19, 0.5)),
    cells=st.sampled_from([1, 2, 3, 1024]),
    n=st.integers(-2, 1030),
    rel=st.floats(-2e-9, 2e-9),
    ulps=st.floats(-3e-15, 3e-15),
    shape=st.sampled_from(["point", "beyond", "span"]),
    width=st.floats(0.0, 4.0),
)
@example(step=2.0**-11, cells=1024, n=5, rel=5e-10, ulps=0.0, shape="span", width=1.0)
@example(step=2.0**-11, cells=1024, n=1025, rel=0.0, ulps=0.0, shape="beyond", width=0.0)
def test_grid_hit_equals_full_scan(step, cells, n, rel, ulps, shape, width):
    # lo_h/step within 2e-9 of an integer, or within 3e-15 in absolute terms
    lo_h = (n + rel) * step + ulps
    if shape == "point":
        hi_h = lo_h
    elif shape == "beyond":
        hi_h = (cells + 1 + width) * step
    else:
        hi_h = lo_h + width * step
    assert _grid_hit(lo_h, hi_h, step, cells) == _full_grid_scan(lo_h, hi_h, step, cells)


def test_oracle_rejects_bad_grid():
    fan = build_fan(AParam(()), 3, 2)
    for grid in (0.0, -1.0, 1.0, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid"):
            juma_metric_oracle(fan, grid)


def _census_fans():
    for depth in (3, 4, 5):
        for kmax in range(1, 5):
            kb = host_bundle(kmax) + 2 * kmax
            for a in AParam.all_params(kmax):
                yield depth, a, build_fan(a, kb, depth)


def test_profile_equals_count_per_endpoint_on_census():
    # profile reads juma_heights for hosts only; every endpoint's own count
    # must give the same multiset
    for _, _, fan in _census_fans():
        naive = JumaProfile(tuple(sorted(juma_count(fan, e) for e in endpoints(fan))))
        assert profile(fan) == naive


def test_held_profile_is_a_tally():
    # the largest census fan: a profile keeps (count, multiplicity) pairs,
    # not one entry per endpoint
    a = AParam((1, 3, 5, 7))
    fan = build_fan(a, host_bundle(4) + 2 * 4, 5)
    assert len(fan.legs) == 6064
    # fill the fan's cached gluing tables, and the process-wide caches a
    # first call fills (isinstance checks against abc.Mapping)
    profile(fan)
    tracemalloc.start()
    try:
        prof = profile(fan)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(prof.multiset().values()) == 6064 - sum(a.coords)  # endpoints
    assert held < 4096, held


def test_census_matches_recorded_verdicts():
    """The benchmark's 90-fan census: build_fan + profile + oracle_agreement
    for every parameter with kmax 1-4 at depths 3, 4 and 5."""
    expected = Path(__file__).resolve().parents[1] / "benchmarks" / "expected.json"
    known = json.loads(expected.read_text(encoding="utf-8"))["census"]
    rows = [
        (depth, list(a.coords), profile(fan), oracle_agreement(fan))
        for depth, a, fan in _census_fans()
    ]
    assert len(rows) == 90
    failing = [[d, c] for d, c, _, agree in rows if not agree["passed"]]
    assert failing == known["oracle_mismatch_fans"]
    first = next(agree["mismatches"][0]["leg"] for *_, agree in rows if not agree["passed"])
    assert first == known["first_witness_leg"]
    table = [[d, c, sorted(p.multiset().items()), agree["passed"]] for d, c, p, agree in rows]
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    assert digest == known["profiles_digest"]
