import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fanshift.errors import RangeError, WindowExhausted
from fanshift.itinerary import Letter, Word, random_word
from fanshift.mahavier import (
    ALL_INFINITY,
    MPoint,
    WindowConfig,
    _steps,
    _window_dists,
    coord_range,
    coords,
    diagonal_point,
    dist_window,
    fiber_length,
    height,
    m_index,
    model_map,
    pack,
    random_window_point,
    shift,
    unpack,
    unshift,
)
from fanshift.relations import in_H
from fanshift.xspace import INFINITY, XPoint, dist

from _util import rng


def test_diagonal_point_coords_constant():
    p = diagonal_point(3, 0.4, 4)
    for j in range(-4, 5):
        assert coords(p, j) == XPoint(3, 0.4)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_coords_match_coord_range(seed, k, half_width):
    p = random_window_point(rng(seed), k, half_width)
    trace = coord_range(p, p.lo, p.hi + 1)
    for j in range(p.lo, p.hi + 2):
        assert coords(p, j) == trace[j - p.lo]


def _coord_range_reference(p, lo, hi):
    """Verbatim copy of the dict walk ``coord_range`` used before it walked
    the letter tuple for local coordinates; the oracle for it."""
    if p.is_all_infinity:
        return [INFINITY] * (hi - lo + 1)
    if lo < p.lo or hi > p.hi + 1 or lo > hi:
        raise IndexError("requested coordinates outside window")
    vals = {0: p.t0} if lo <= 0 <= hi else {}
    cur = p.t0
    for pos in range(0, hi):
        lt = p.word.letter(pos)
        cur = XPoint(lt.range_index, lt.piece(cur.u))
        if pos + 1 >= lo:
            vals[pos + 1] = cur
    cur = p.t0
    for pos in range(-1, lo - 1, -1):
        lt = p.word.letter(pos)
        cur = XPoint(lt.domain_index, lt.piece(cur.u, inverse=True))
        if pos <= hi:
            vals[pos] = cur
    return [vals[j] for j in range(lo, hi + 1)]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 8),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1e-300])),
)
@settings(max_examples=100, deadline=None)
def test_coord_range_matches_dict_walk(seed, k, half_width, u):
    word = random_window_point(rng(seed), k, half_width).word
    p = MPoint(word, XPoint(k, u))
    for lo in range(p.lo, p.hi + 2):
        for hi in range(lo, p.hi + 2):
            assert coord_range(p, lo, hi) == _coord_range_reference(p, lo, hi)
    for lo, hi in ((p.lo - 1, 0), (0, p.hi + 2), (p.lo - 1, p.hi + 2), (1, 0)):
        for walk in (coord_range, _coord_range_reference):
            with pytest.raises(IndexError):
                walk(p, lo, hi)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1e-300])),
)
@settings(max_examples=100, deadline=None)
def test_steps_apply_each_letter_in_turn(seed, k, u):
    # forward: u, then each letter's piece in run order; inverse: u, then
    # each letter's inverse piece from the run's end back to its start
    run = random_word(rng(seed), k, left=0, right=8).letters
    fwd, back = [u], [u]
    for lt in run:
        fwd.append(lt.piece(fwd[-1]))
    for lt in reversed(run):
        back.append(lt.piece(back[-1], inverse=True))
    assert _steps(u, run, inverse=False) == fwd
    assert _steps(u, run, inverse=True) == back
    assert _steps(u, (), inverse=True) == [u]


def test_cube_root_window_coords():
    w = Word((Letter(1, 2), Letter(1, 2)))
    p = MPoint(w, XPoint(1, 0.5**27))
    assert coords(p, 1) == XPoint(1, 0.5**9)
    assert coords(p, 2) == XPoint(1, 0.5**3)


def test_all_infinity_coords():
    for j in (-5, 0, 17):
        assert coords(ALL_INFINITY, j) == INFINITY


def test_coords_window_bounds():
    p = diagonal_point(4, 0.1, 3)
    with pytest.raises(IndexError):
        coords(p, 5)
    with pytest.raises(IndexError):
        coords(p, -4)


def test_consecutive_pairs_lie_in_relation():
    r = rng(0)
    for _ in range(10_000 // 17):
        p = random_window_point(r, r.randint(1, 5), 8)
        for j in range(-8, 8):
            assert in_H(coords(p, j), coords(p, j + 1))


def test_point_validation():
    w = Word((Letter(2, 1),))
    with pytest.raises(ValueError):
        MPoint(w, XPoint(3, 0.5))  # wrong base interval
    with pytest.raises(ValueError):
        MPoint(Word((Letter(2, 1),), start=1), XPoint(2, 0.5))  # no origin
    with pytest.raises(ValueError):
        MPoint(None, XPoint(1, 0.5))


def test_shift_conjugates_coordinates():
    # equality up to tolerance: backward coordinates re-derive the base
    # through cube/cube-root round trips that cost a few ulps
    r = rng(1)
    for _ in range(300):
        p = random_window_point(r, r.randint(1, 4), 6)
        s = shift(p)
        for j in range(-6, 6):
            a, b = coords(s, j), coords(p, j + 1)
            assert a.k == b.k and math.isclose(a.u, b.u, rel_tol=1e-9, abs_tol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 8))
@settings(max_examples=100, deadline=None)
def test_shift_unshift_round_trip(seed, k, half_width):
    # half-width 1 leaves no transition right of the origin to shift over
    p = random_window_point(rng(seed), k, half_width)
    for q in (unshift(shift(p)), shift(unshift(p))):
        assert q.word == p.word and q.t0.k == p.t0.k
        assert math.isclose(q.t0.u, p.t0.u, rel_tol=1e-12, abs_tol=1e-12)


def test_shift_window_exhaustion():
    w = Word((Letter(3, 2),))  # single transition at the origin
    p = MPoint(w, XPoint(3, 0.2))
    with pytest.raises(WindowExhausted):
        shift(p)
    with pytest.raises(WindowExhausted):
        unshift(p)
    assert shift(ALL_INFINITY) == ALL_INFINITY


def test_shift_fixes_diagonal_coordinates():
    p = diagonal_point(5, 0.7, 6)
    s = shift(p)
    for j in range(-5, 6):
        assert coords(s, j) == coords(p, j)


def test_dist_window_zero_on_equal_points():
    p = diagonal_point(3, 0.123, 8)
    assert dist_window(p, p, WindowConfig(8)) == 0.0


def test_dist_window_base_coordinate_split():
    # same up-ladder itinerary, bases at the two ends of the first interval;
    # the origin coordinate dominates all weighted neighbors
    letters = tuple([Letter(3, 1), Letter(2, 1)] + [Letter(1, 3), Letter(2, 3)])
    w = Word(letters, -2)
    p = MPoint(w, XPoint(1, 0.0))
    q = MPoint(w, XPoint(1, 1.0))
    assert dist_window(p, q, WindowConfig(2)) == 0.5


def test_dist_window_requires_coverage():
    p = diagonal_point(3, 0.5, 2)
    with pytest.raises(IndexError):
        dist_window(p, p, WindowConfig(4))
    assert dist_window(ALL_INFINITY, ALL_INFINITY, WindowConfig(8)) == 0.0


def test_base_coordinate_distance_within_interval_diameter():
    r = rng(3)
    for k in range(1, 7):
        for _ in range(200):
            p = random_window_point(r, k, 8)
            q = random_window_point(r, k, 8)
            assert dist(coords(p, 0), coords(q, 0)) <= fiber_length(k)


def test_window_distance_within_attained_rate():
    """The provable slice bound: one step toward lower intervals doubles
    the weighted coordinate distance, so the supremum over a slice through
    interval k is 2^(1-k), attained by down-ladders."""
    r = rng(4)
    cfg = WindowConfig(8)
    for k in range(1, 7):
        top = 0.0
        for _ in range(500):
            p = random_window_point(r, k, 8)
            q = random_window_point(r, k, 8)
            top = max(top, dist_window(p, q, cfg))
        assert top <= 2.0 ** (1 - k) + 1e-12


def test_stated_slice_bound_is_exceeded_by_down_ladders():
    """Regression pin for the geometry: the base-coordinate rate 2^(1-2k)
    does not bound whole windows once the itinerary descends."""
    letters = tuple([Letter(2, 2)] * 2 + [Letter(2, 1)] + [Letter(1, 2)])
    w = Word(letters, -2)
    p = MPoint(w, XPoint(2, 0.0))
    q = MPoint(w, XPoint(2, 1.0))
    assert dist_window(p, q, WindowConfig(2)) == 0.25 > fiber_length(2)


def test_dist_window_truncation_error_bound():
    r = rng(5)
    for _ in range(200):
        k = r.randint(1, 4)
        p = random_window_point(r, k, 12)
        q = random_window_point(r, k, 12)
        d8 = dist_window(p, q, WindowConfig(8))
        d12 = dist_window(p, q, WindowConfig(12))
        assert abs(d12 - d8) <= 2.0**-9


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(0, 3),
    st.sampled_from(["random", 0.0, 1.0, "infinity"]),
    st.sampled_from(["random", 0.0, 1.0, "infinity"]),
)
@settings(max_examples=200, deadline=None)
def test_window_dists_match_per_coordinate(seed, kp, kq, n, extra, p_base, q_base):
    r = rng(seed)

    def point(k, half_width, base):
        x = random_window_point(r, k, half_width)
        if base == "infinity":
            return ALL_INFINITY
        return x if base == "random" else MPoint(x.word, XPoint(k, base))

    p = point(kp, n + extra, p_base)
    q = point(kq, n, q_base)
    two_sided = forward = 0.0
    for j in range(-n, n + 1):
        gap = dist(coords(p, j), coords(q, j)) / 2.0 ** abs(j)
        two_sided = max(two_sided, gap)
        if j >= 0:
            forward = max(forward, gap)
    cfg = WindowConfig(n)
    assert _window_dists(p, q, cfg) == (two_sided, forward)
    assert dist_window(p, q, cfg) == two_sided
    assert forward <= two_sided
    if not (p.is_all_infinity and q.is_all_infinity):
        with pytest.raises(IndexError):
            dist_window(p, q, WindowConfig(n + extra + 1))


def test_window_dists_reject_a_trace_outside_the_unit_interval():
    # both metric paths range-check every traced coordinate; no real piece
    # leaves [0, 1], so the word holds stand-in letters whose pieces do
    p = random_window_point(rng(6), 2, 3)
    stand_ins = tuple(
        SimpleNamespace(
            domain_index=lt.domain_index, range_index=lt.range_index,
            piece=lambda u, inverse=False: 1.5,
        )
        for lt in p.word.letters
    )
    p = MPoint(Word._trusted(stand_ins, p.lo), p.t0)
    with pytest.raises(ValueError, match="outside"):
        coord_range(p, -3, 3)
    with pytest.raises(ValueError, match="outside"):
        dist_window(p, ALL_INFINITY, WindowConfig(3))


def test_pack_unpack_round_trip_exact():
    r = rng(7)
    for _ in range(10_000 // 5):
        k = r.randint(1, 6)
        word = random_word(r, k, left=3, right=3)
        t = r.random() * fiber_length(k)
        p = pack(word, t)
        w2, t2 = unpack(p)
        assert w2 == word and t2 == t


def test_pack_examples():
    word = random_word(rng(8), 1, left=2, right=2)
    assert pack(word, 0.25).t0.u == 0.5
    assert pack(word, 0.0).t0.u == 0.0
    assert pack(word, fiber_length(1)).t0.u == 1.0
    with pytest.raises(RangeError):
        pack(word, fiber_length(1) * 1.5)


def test_zero_height_points_have_even_coordinates():
    r = rng(9)
    for _ in range(300):
        k = r.randint(1, 5)
        word = random_word(r, k, left=6, right=6)
        p = pack(word, 0.0)
        for j in range(-6, 7):
            assert coords(p, j).u == 0.0
            assert coords(p, j).ambient % 2 == 0


def test_full_height_points_have_odd_coordinates():
    r = rng(10)
    for _ in range(300):
        k = r.randint(1, 5)
        word = random_word(r, k, left=6, right=6)
        p = pack(word, fiber_length(k))
        for j in range(-6, 7):
            assert coords(p, j).u == 1.0
            assert coords(p, j).ambient % 2 == 1


def test_distinct_words_give_disjoint_arcs():
    r = rng(11)
    words = {w.letters: w for w in (random_word(r, 2, left=4, right=4) for _ in range(40))}
    words = list(words.values())
    for i, w1 in enumerate(words):
        for w2 in words[i + 1 :]:
            for t, s in ((0.0, 0.0), (0.03, 0.07), (0.1, 0.1)):
                p = pack(w1, t * fiber_length(2))
                q = pack(w2, s * fiber_length(2))
                assert any(
                    coords(p, j) != coords(q, j) for j in range(-4, 5)
                )


def test_model_map_examples():
    assert model_map(ALL_INFINITY, 4) == (1.0, 0.0)
    r = rng(12)
    for k in (1, 2, 3):
        word = random_word(r, k, left=4, right=4)
        c, tau = model_map(pack(word, 0.0), 4)
        assert tau == 0.0
        lo = 1.0 - 3.0 ** (1 - k)
        assert lo <= c <= lo + 3.0**-k


def test_model_map_injective_on_distinct_words():
    from fanshift.itinerary import iter_words

    words = list(iter_words(3, 4, start=-2))
    cs = {model_map(pack(w, 0.001), 2)[0] for w in words}
    assert len(cs) == len(words)


def test_m_index_detection():
    assert m_index(diagonal_point(4, 0.2)) == 4
    assert m_index(ALL_INFINITY) is None
    r = rng(13)
    w = random_word(r, 1, left=2, right=2)
    assert m_index(MPoint(w, XPoint(1, 0.5))) is None
    with pytest.raises(ValueError):
        diagonal_point(2, 0.5)


@pytest.mark.parametrize("j", [1, 2])
def test_m_index_is_none_on_the_bending_intervals(j):
    # all coordinates of a run of the stay-letter stay on interval j, but
    # there the stay-letter bends, so the point is on no diagonal arc
    stay = Letter(j, 2)
    assert stay.steps != (0, 0)
    p = MPoint(Word((stay,) * 6, -3), XPoint(j, 0.5))
    assert m_index(p) is None
    assert m_index(MPoint(Word((Letter(3, 2),) * 6, -3), XPoint(3, 0.5))) == 3


def test_height_is_model_second_coordinate():
    p = diagonal_point(3, 0.5)
    assert height(p) == 0.5 * fiber_length(3)
    assert model_map(p, 3)[1] == height(p)


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(0)
