import json
import math

import pytest

from fanshift import relations
from fanshift.itinerary import Letter
from fanshift.relations import (
    GLOBAL_MAPS,
    decomposition_check,
    global_apply,
    global_inverse,
    h_image,
    h_preimage,
    in_H,
)
from fanshift.xspace import INFINITY, XPoint, dist

from _util import random_xpoint, rng


def test_piece_apply_examples():
    for lt, u, image in (
        (Letter(1, 2), 0.125, XPoint(1, 0.5)),
        (Letter(2, 2), 0.5, XPoint(2, 0.25)),
        (Letter(3, 3), 0.3, XPoint(4, 0.3)),
    ):
        assert XPoint(lt.range_index, lt.piece(u)) == image


def test_piece_inverse_round_trip():
    r = rng(0)
    letters = [Letter(1, 2), Letter(2, 2), Letter(2, 3), Letter(4, 1), Letter(5, 2)]
    for lt in letters:
        for _ in range(200):
            u = r.random()
            back = lt.piece(lt.piece(u), inverse=True)
            assert math.isclose(back, u, rel_tol=1e-12, abs_tol=1e-12)


def test_pieces_preserve_strict_order():
    r = rng(1)
    letters = [Letter(1, 2), Letter(2, 2), Letter(1, 3), Letter(3, 1)]
    for lt in letters:
        for _ in range(200):
            u, v = sorted((r.random(), r.random()))
            if u == v:
                continue
            assert lt.piece(u) < lt.piece(v)
            assert lt.piece(u, inverse=True) < lt.piece(v, inverse=True)


def test_in_H_examples():
    assert in_H(XPoint(1, 0.125), XPoint(1, 0.5))
    assert in_H(INFINITY, INFINITY)
    assert not in_H(XPoint(1, 0.5), XPoint(1, 0.5))
    assert in_H(XPoint(2, 0.7), XPoint(3, 0.7))
    assert in_H(XPoint(2, 0.5), XPoint(2, 0.25))
    assert in_H(XPoint(5, 0.9), XPoint(5, 0.9))
    assert not in_H(XPoint(1, 0.5), INFINITY)


def test_section_cardinalities():
    # 2 on the first interval, 3 beyond, 1 at infinity
    u = 0.37
    assert len(h_image(XPoint(1, u))) == 2
    assert len(h_image(XPoint(2, u))) == 3
    for k in range(3, 12):
        assert len(h_image(XPoint(k, u))) == 3
    assert h_image(INFINITY) == (INFINITY,)


def test_section_contents():
    u = 0.37
    assert h_image(XPoint(1, u))[1] == XPoint(2, u)
    assert math.isclose(h_image(XPoint(1, 0.125))[0].u, 0.5, rel_tol=1e-15)
    img = h_image(XPoint(2, u))
    assert img[0] == XPoint(1, u)
    assert img[1] == XPoint(2, u * u)
    assert img[2] == XPoint(3, u)


def test_inverse_section_contents():
    u = 0.5
    pre = h_preimage(XPoint(1, u))
    assert pre == (XPoint(1, u**3), XPoint(2, u))
    pre2 = h_preimage(XPoint(2, 0.25))
    assert pre2 == (XPoint(1, 0.25), XPoint(2, 0.5), XPoint(3, 0.25))
    assert h_preimage(INFINITY) == (INFINITY,)


def test_sections_nonempty_everywhere():
    r = rng(2)
    for _ in range(500):
        x = random_xpoint(r)
        assert h_image(x)
        assert h_preimage(x)


def test_membership_consistency_with_sections():
    r = rng(3)
    for _ in range(500):
        x = random_xpoint(r, kmax=8)
        for y in h_image(x):
            assert in_H(x, y)
        for w in h_preimage(x):
            assert in_H(w, x)


def test_global_maps_fix_infinity():
    for name in GLOBAL_MAPS:
        assert global_apply(name, INFINITY) == INFINITY
        assert global_inverse(name, INFINITY) == INFINITY


def test_global_map_examples():
    u = 0.42
    assert global_apply("F2", XPoint(1, u)) == XPoint(2, u)
    assert global_apply("F3", XPoint(3, u)) == XPoint(2, u)
    assert global_apply("F1", XPoint(7, u)) == XPoint(7, u)


def test_global_inverse_round_trips():
    r = rng(4)
    for name in GLOBAL_MAPS:
        for _ in range(1000):
            x = random_xpoint(r, kmax=9)
            y = global_apply(name, x)
            back = global_inverse(name, y)
            assert dist(back, x) < 1e-12
            fwd = global_apply(name, global_inverse(name, x))
            assert dist(fwd, x) < 1e-12


def test_cover_at_smallest_interval_collapses():
    # on the first interval two of the three maps agree (both bend by the
    # cube root), so the cover contributes only two distinct images
    x = XPoint(1, 0.125)
    images = {global_apply(n, x) for n in GLOBAL_MAPS}
    assert len(images) == 2
    assert images == set(h_image(x))


def test_decomposition_check_passes():
    rep = decomposition_check(4, 100, seed=0)
    assert rep.passed
    assert rep.first_counterexample is None
    assert rep.samples_checked == 4 * 100 + 1


def test_decomposition_check_infinity_case():
    images = {global_apply(n, INFINITY) for n in GLOBAL_MAPS}
    assert images == set(h_image(INFINITY)) == {INFINITY}


def _one_ulp_off(section):
    """The section with its first point moved one ulp toward the middle."""

    def shifted(x):
        first, *rest = section(x)
        if first.is_infinity:
            return (first, *rest)
        return (XPoint(first.k, math.nextafter(first.u, 0.5)), *rest)

    return shifted


@pytest.mark.parametrize("name, side", [("h_image", "forward"), ("h_preimage", "inverse")])
def test_decomposition_check_fails_one_ulp_off(name, side, monkeypatch):
    monkeypatch.setattr(relations, name, _one_ulp_off(getattr(relations, name)))
    rep = decomposition_check(2, 10, seed=0)
    assert not rep.passed
    assert rep.first_counterexample["side"] == side


def test_decomposition_check_counts_both_endpoints():
    for samples in (1, 0, -3):
        with pytest.raises(ValueError, match="samples_per_interval must be >= 2"):
            decomposition_check(2, samples, seed=0)
    assert decomposition_check(2, 2, seed=0).samples_checked == 2 * 2 + 1


def test_decomposition_report_serializable():
    # the CLI serializes a report record as its fields, ``rep._asdict()``
    rep = decomposition_check(2, 10, seed=1)
    d = json.loads(json.dumps(rep._asdict()))
    assert d["passed"] is True
    assert set(d) == {"passed", "samples_checked", "kmax", "first_counterexample"}
