import math

import pytest
from hypothesis import given, strategies as st

from fanshift.xspace import (
    INFINITY,
    XPoint,
    cbrt,
    dist,
    embed,
    interval_diameter,
)

from _util import random_xpoint, rng


def brute_q(k):
    # anchor sequence computed from first principles
    return 1.0 - 1.0 / 2.0**k


def test_embed_anchor_values():
    assert embed(XPoint(1, 0.0)) == 0.0
    assert embed(XPoint(1, 1.0)) == brute_q(1) == 0.5
    assert embed(INFINITY) == 1.0


def test_embed_interval_endpoints_hit_anchor_sequence():
    for k in range(1, 21):
        assert embed(XPoint(k, 0.0)) == brute_q(2 * k - 2)
        assert embed(XPoint(k, 1.0)) == brute_q(2 * k - 1)


def test_interval_diameter_exact_up_to_k20():
    for k in range(1, 21):
        d = dist(XPoint(k, 0.0), XPoint(k, 1.0))
        assert d == interval_diameter(k) == 2.0 ** (1 - 2 * k)


def test_distance_to_infinity():
    assert dist(XPoint(1, 0.0), INFINITY) == 1.0
    for k in range(1, 21):
        assert 1.0 - embed(XPoint(k, 0.0)) == 2.0 ** (2 - 2 * k)


def test_self_distance_zero():
    r = rng(1)
    for _ in range(100):
        x = random_xpoint(r)
        assert dist(x, x) == 0.0


def test_metric_axioms_on_random_triples():
    r = rng(2)
    for _ in range(10_000):
        x, y, z = (random_xpoint(r) for _ in range(3))
        assert dist(x, y) == dist(y, x)
        assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-15
        assert dist(x, y) <= 1.0


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=1024),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=1024),
)
def test_embed_strictly_monotone_in_ambient_order(k1, i1, k2, i2):
    """Strict on a 2^-10 coordinate grid up to k = 20; finer increments fall
    below the float lattice near 1 and saturate."""
    a, b = XPoint(k1, i1 / 1024.0), XPoint(k2, i2 / 1024.0)
    if a.ambient < b.ambient:
        assert embed(a) < embed(b)
    elif a.ambient == b.ambient:
        assert embed(a) == embed(b)


def test_infinity_is_supremum():
    r = rng(3)
    for _ in range(200):
        x = random_xpoint(r, kmax=25, p_inf=0.0)
        assert embed(x) < 1.0


def test_construction_rejects_tiny_excess():
    for u in (1.0 + 1e-13, -1e-13):
        with pytest.raises(ValueError):
            XPoint(2, u)


def test_construction_rejects_large_excess():
    with pytest.raises(ValueError):
        XPoint(2, 1.01)
    with pytest.raises(ValueError):
        XPoint(0, 0.5)


def test_cbrt_exact_on_exact_cubes():
    for m in range(0, 40, 3):
        assert cbrt(2.0**-m) == 2.0 ** (-m // 3)
    assert cbrt(0.0) == 0.0
    assert cbrt(1.0) == 1.0


def test_cbrt_inverts_cubing():
    r = rng(4)
    for _ in range(1000):
        u = r.random()
        assert math.isclose(cbrt(u) ** 3, u, rel_tol=1e-14, abs_tol=1e-300)


def _value_samples():
    """One instance of each value type on ``_Frozen``; the two without
    slots have their cached properties filled, so their dicts hold more
    than the fields ``__init__`` sets."""
    from fanshift.invariants import JumaProfile
    from fanshift.itinerary import Letter, Word
    from fanshift.mahavier import ALL_INFINITY, MPoint, WindowConfig
    from fanshift.quotients import AParam, CPoint, build_fan

    word = Word((Letter(1, 3), Letter(2, 2), Letter(2, 1)), -1)
    cpoint = CPoint("0202", 0.25)
    assert cpoint.c > 0
    fan = build_fan(AParam((1,)), 5, 2)
    assert fan.guest_indices
    return [
        XPoint(3, 0.5),
        INFINITY,
        Letter(2, 3),
        word,
        MPoint(word, XPoint(2, 0.75)),
        ALL_INFINITY,
        WindowConfig(4),
        AParam((2, 3, 6)),
        JumaProfile([1, 1, 3]),
        cpoint,
        fan,
    ]


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_value_types_copy_and_pickle(how):
    import copy
    import pickle

    round_trip = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    }[how]
    samples = _value_samples()
    assert len({type(v) for v in samples}) == 9
    for value in samples:
        back = round_trip(value)
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value), value
        for name in ("k", "word", "extra"):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(back, name, None)
