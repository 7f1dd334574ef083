"""Acceptance suite: one check per numbered criterion, one line of output
each.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 2's slice half asserts the stated rate 2^(1-2k) for sampled
window pairs through interval k.  That rate is provably not a bound: a
single step toward lower intervals multiplies the coordinate diameter by 4
while the metric weight shrinks by 2, so down-ladders attain 2^(1-k) (see
test_mahavier for the explicit two-point witness).  The assertion is kept
as stated and is expected to fail; every other criterion passes.
"""

import itertools
import time

from fanshift import impression, invariants, itinerary, quotients, relations
from fanshift.cli import main as cli_main
from fanshift.itinerary import random_word
from fanshift.mahavier import (
    ALL_INFINITY,
    WindowConfig,
    coords,
    diagonal_point,
    dist_window,
    fiber_length,
    pack,
    random_window_point,
    shift,
    unpack,
    unshift,
)
from fanshift.quotients import AParam, build_fan, glued_pair, host_bundle, sim_a
from fanshift.xspace import XPoint, embed, interval_diameter

from _util import rng


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_relation_decomposition():
    started = time.perf_counter()
    rep = relations.decomposition_check(20, 1000, seed=0)
    elapsed = time.perf_counter() - started
    ok = rep.passed and elapsed < 5.0
    assert report(
        1,
        "relation-decomposition",
        ok,
        f"(samples={rep.samples_checked}, {elapsed:.2f}s < 5s)",
    )


def test_criterion_2_diameter_bounds():
    started = time.perf_counter()
    exact_ok = all(
        embed(XPoint(k, 1.0)) - embed(XPoint(k, 0.0)) == interval_diameter(k)
        for k in range(1, 21)
    )
    r = rng(2)
    cfg = WindowConfig(8)
    worst = {}
    for k in range(1, 7):
        top = 0.0
        for _ in range(1000):
            p = random_window_point(r, k, 8)
            q = random_window_point(r, k, 8)
            top = max(top, dist_window(p, q, cfg))
        worst[k] = top
    slice_ok = all(worst[k] <= fiber_length(k) for k in worst)
    elapsed = time.perf_counter() - started
    ok = exact_ok and slice_ok and elapsed < 10.0
    detail = (
        f"(interval diameters exact: {exact_ok}; sampled slice max vs 2^(1-2k): "
        + ", ".join(f"k={k}: {worst[k]:.3f}/{fiber_length(k):.4f}" for k in worst)
        + f"; {elapsed:.2f}s < 10s)"
    )
    assert report(2, "diameter-bounds", ok, detail)


def test_criterion_3_forward_impression_density():
    started = time.perf_counter()
    seeds = [
        (1, 0.3), (1, 0.5), (1, 0.7), (2, 0.45), (2, 0.62),
        (3, 0.38), (3, 0.55), (4, 0.71), (5, 0.52), (8, 0.44),
    ]
    uncovered_total = 0
    for k, u in seeds:
        cloud = impression.forward_reachable(XPoint(k, u), 40)
        cloud.update(
            sp.xpoint() for sp in impression.symbolic_family(u, 12, 12, 8)
        )
        rep = impression.eps_dense_check(cloud, 1 / 16, 8)
        uncovered_total += len(rep.uncovered)
    elapsed = time.perf_counter() - started
    ok = uncovered_total == 0 and elapsed < 60.0
    assert report(
        3,
        "forward-impression-density",
        ok,
        f"(10 seeds, uncovered={uncovered_total}, {elapsed:.1f}s < 60s)",
    )


def test_criterion_4_cantor_branching():
    ok = True
    min_branch = 3
    total = 0
    for k in range(1, 6):
        cert = itinerary.cantor_certificate(k, 12, cap=5 * 10**6)
        total += cert.words_checked
        min_branch = min(
            min_branch, cert.min_right_branching, cert.min_left_branching
        )
        ok = ok and cert.passed and cert.counts_by_length == cert.recurrence_counts
    ok = ok and min_branch >= 2
    assert report(
        4,
        "cantor-branching",
        ok,
        f"(words={total}, min two-sided branching={min_branch})",
    )


def test_criterion_5_product_structure():
    r = rng(5)
    ok = True
    for _ in range(10_000):
        k = r.randint(1, 6)
        word = random_word(r, k, left=4, right=4)
        t = r.random() * fiber_length(k)
        p = pack(word, t)
        w2, t2 = unpack(p)
        ok = ok and w2 == word and t2 == t
    even_ok = True
    for _ in range(200):
        k = r.randint(1, 6)
        word = random_word(r, k, left=6, right=6)
        p = pack(word, 0.0)
        even_ok = even_ok and all(
            coords(p, j).ambient % 2 == 0 for j in range(-6, 7)
        )
    ok = ok and even_ok
    assert report(
        5,
        "product-structure",
        ok,
        f"(10^4 exact round-trips, zero-height coordinates even: {even_ok})",
    )


def test_criterion_6_shift_quotient_compatibility():
    a = AParam((2, 4))
    r = rng(6)
    checked = 0
    ok = True
    for _ in range(1000):
        kind = r.random()
        if kind < 0.6:
            k = r.randint(1, 2)
            i = r.randint(1, a[k])
            x, y = glued_pair(k, i, r.random())
        elif kind < 0.8:
            word = random_word(r, r.randint(1, 3), left=8, right=8)
            x, y = pack(word, 0.0), ALL_INFINITY
        else:
            x = diagonal_point(r.choice([3, 4, 6, 7]), r.random())
            y = x
        if not sim_a(x, y, a):
            ok = False
            continue
        ok = ok and sim_a(shift(x), shift(y), a)
        ok = ok and sim_a(unshift(x), unshift(y), a)
        checked += 1
    quotients.descend(shift, a, rng=r, pairs=100)
    diag_ok = all(
        sim_a(shift(diagonal_point(j, 0.37)), diagonal_point(j, 0.37), a)
        for j in range(3, 12)
    )
    ok = ok and diag_ok
    assert report(
        6,
        "shift-quotient-compatibility",
        ok,
        f"(pairs={checked}, diagonal classes fixed: {diag_ok})",
    )


def test_criterion_7_orbit_density():
    started = time.perf_counter()
    cfg = WindowConfig(2)
    result = impression.transitive_orbit_builder(1 / 8, cfg)
    check = impression.verify_orbit(result)
    elapsed = time.perf_counter() - started
    ok = result.passed and check["passed"] and check["coverage"] == 1.0
    ok = ok and elapsed < 120.0
    assert report(
        7,
        "orbit-density",
        ok,
        f"(net={check['net_size']}, coverage={check['coverage']:.0%}, "
        f"max dist={check['max_dist']:.4f} <= 0.125, {elapsed:.1f}s < 120s)",
    )


def test_criterion_8_lift_properties():
    ident = quotients.check_hlavna(quotients.identity_map, name="identity")
    prod = quotients.check_hlavna(quotients.swap_digit_map, name="digit-swap")
    crush = quotients.check_hlavna(quotients.vertex_crush_map, name="crush")
    rejected = (not crush.hypothesis_ok) and crush.witness is not None
    ok = ident.passed and prod.passed and rejected
    assert report(
        8,
        "lift-properties",
        ok,
        f"(identity: {ident.passed}, product: {prod.passed}, "
        f"violator rejected with witness: {rejected})",
    )


def test_criterion_9_juma_distinguishability():
    started = time.perf_counter()
    params = AParam.all_params(6)
    pairs = list(itertools.combinations(params, 2))
    assert len(pairs) == 2**6 * (2**6 - 1) // 2
    certified = 0
    for a, b in pairs:
        cert = invariants.distinguish(a, b, 6, 4)
        if a[cert.k] != b[cert.k]:
            certified += 1
    corpus = [
        AParam(()), AParam((1,)), AParam((2,)), AParam((1, 3)), AParam((2, 4)),
        AParam((1, 4)), AParam((2, 3)), AParam((1, 3, 5)), AParam((2, 4, 6)),
        AParam((1, 4, 6)),
    ]
    agree = 0
    for a in corpus:
        kb = host_bundle(max(1, len(a))) + 2 * max(1, len(a))
        fan = build_fan(a, kb, 3)
        if invariants.oracle_agreement(fan, 2.0**-10)["passed"]:
            agree += 1
    elapsed = time.perf_counter() - started
    ok = certified == len(pairs) and agree == len(corpus) and elapsed < 300.0
    assert report(
        9,
        "juma-distinguishability",
        ok,
        f"(pairs certified={certified}/{len(pairs)}, oracle corpus "
        f"agreement={agree}/{len(corpus)}, {elapsed:.1f}s < 300s)",
    )


def test_criterion_10_determinism(tmp_path):
    args = ["verify", "quotient", "--a", "2,4", "--samples", "40", "--seed", "3"]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli_main(args + ["--report", str(p1)])
    cli_main(args + ["--report", str(p2)])
    reports_ok = p1.read_bytes() == p2.read_bytes()
    s1, s2 = tmp_path / "f1.svg", tmp_path / "f2.svg"
    cli_main(["render", "fig6", "--out", str(s1), "--depth", "4", "--seed", "3"])
    cli_main(["render", "fig6", "--out", str(s2), "--depth", "4", "--seed", "3"])
    svg_ok = s1.read_bytes() == s2.read_bytes()
    ok = reports_ok and svg_ok
    assert report(
        10,
        "determinism",
        ok,
        f"(reports byte-identical: {reports_ok}, svg byte-identical: {svg_ok})",
    )
