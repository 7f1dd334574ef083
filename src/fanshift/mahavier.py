"""Finite-window points of the two-sided coupled product and the shift.

A point is stored as an admissible word over a window of transitions
together with the base coordinate at position 0; every other coordinate is
derived by pushing the base through the word's monotone pieces.  This makes
the coupling constraint intrinsic and the shift exact.  The special point
whose coordinates are all infinity is represented separately.

The product metric weights coordinate j by 2^(-|j|) and is evaluated over a
finite window of half-width N; the truncation error of that evaluation is
at most 2^-(N+1).
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from .errors import RangeError, WindowExhausted
from .itinerary import Letter, Word, address_value, cantor_address, capped, random_word
from .xspace import _CHARTS, INFINITY, XPoint, _Frozen, _set


class WindowConfig(_Frozen):
    """Half-width N of the product metric's window, whose 2N letters are capped."""

    __slots__ = ("half_width",)
    _key = attrgetter("half_width")

    def __init__(self, half_width: int):
        if half_width < 1:
            raise ValueError("window half-width must be >= 1")
        capped(2 * half_width, f"letters per window (window={half_width})")
        _set(self, "half_width", half_width)


class MPoint(_Frozen):
    """Window point: word plus base coordinate, or the all-infinity point.

    The word must contain transition 0 and the base coordinate's interval
    index must equal the domain of the letter there.
    """

    __slots__ = ("word", "t0")
    _key = attrgetter("word", "t0")

    def __init__(self, word: Word | None, t0: XPoint):
        if word is None:
            if not t0.is_infinity:
                raise ValueError("wordless point must sit at infinity")
        elif t0.is_infinity:
            raise ValueError("finite-window point needs a finite base coordinate")
        elif not (word.start <= 0 < word.stop):
            raise ValueError("word must contain transition 0")
        elif word.domain_at(0) != t0.k:
            raise ValueError(
                f"base coordinate lies in interval {t0.k}, "
                f"word expects {word.domain_at(0)}"
            )
        _set(self, "word", word)
        _set(self, "t0", t0)

    @property
    def is_all_infinity(self) -> bool:
        return self.word is None

    @property
    def lo(self) -> int:
        """First known transition (coordinates run lo..hi+1)."""
        if self.word is None:
            raise ValueError("all-infinity point has no window")
        return self.word.start

    @property
    def hi(self) -> int:
        """Last known transition."""
        if self.word is None:
            raise ValueError("all-infinity point has no window")
        return self.word.stop - 1


ALL_INFINITY = MPoint(None, INFINITY)


def coords(p: MPoint, j: int) -> XPoint:
    """Coordinate at index j; consecutive coordinates are relation pairs."""
    if not p.is_all_infinity and not (p.lo <= j <= p.hi + 1):
        raise IndexError(f"coordinate {j} outside window [{p.lo}, {p.hi + 1}]")
    return coord_range(p, j, j)[0]


def coord_range(p: MPoint, lo: int, hi: int) -> list[XPoint]:
    """Coordinates lo..hi inclusive, each stepped outward from the base.

    Walking outward keeps every coordinate at the minimal number of piece
    applications; reconstructing forward from the far left would push deep
    cube chains through float underflow and corrupt the near coordinates.
    """
    if p.is_all_infinity:
        return [INFINITY] * (hi - lo + 1)
    letters, base = p.word.letters, -p.word.start
    if lo > hi or base + lo < 0 or base + hi > len(letters):
        raise IndexError("requested coordinates outside window")
    first, u0 = min(lo, 0), p.t0.u
    trace = _steps(u0, letters[base + first : base], inverse=True)[::-1]
    trace += _steps(u0, letters[base : base + hi], inverse=False)[1:]
    ks = [lt.domain_index for lt in letters[base + lo : base + hi + 1]]
    if len(ks) == hi - lo:  # the coordinate past the last letter is in its range
        ks.append(letters[-1].range_index)
    return [XPoint(k, u) for k, u in zip(ks, trace[lo - first : hi - first + 1])]


def _steps(u: float, run, *, inverse: bool) -> list[float]:
    """``u``, then the local coordinate after each letter of the run, or
    with ``inverse`` after each letter walked back from the run's end: the
    one walk of a coordinate along letters, which every other goes through."""
    out = [u]
    for lt in reversed(run) if inverse else run:
        out.append(u := lt.piece(u, inverse))
    return out


def _coords_at(p: MPoint, times) -> dict[int, float]:
    """Local coordinates at the given times, from one walk outward from the
    base: forward to times >= 0, back to times < 0, as ``coord_range`` steps."""
    letters, base, out = p.word.letters, -p.word.start, {}
    for ahead in (True, False):
        u, pos = p.t0.u, 0
        for t in sorted((t for t in times if (t >= 0) is ahead), key=abs):
            run = letters[base + min(pos, t) : base + max(pos, t)]
            out[t] = u = _steps(u, run, inverse=not ahead)[-1]
            pos = t
    return out


def shift(p: MPoint) -> MPoint:
    """Move the origin one step forward along the itinerary.

    The base coordinate advances through the letter at transition 0; the
    known window loses one transition on the right and gains one on the
    left (relative to the new origin).
    """
    if p.is_all_infinity:
        return p
    if p.hi < 1:
        raise WindowExhausted("no transition remains to the right of the origin")
    lt = p.word.letter(0)
    new_t0 = XPoint(lt.range_index, lt.piece(p.t0.u))
    return MPoint(Word._trusted(p.word.letters, p.word.start - 1), new_t0)


def unshift(p: MPoint) -> MPoint:
    """Inverse of shift within the known window."""
    if p.is_all_infinity:
        return p
    if p.lo > -1:
        raise WindowExhausted("no transition remains to the left of the origin")
    lt = p.word.letter(-1)
    new_t0 = XPoint(lt.domain_index, lt.piece(p.t0.u, inverse=True))
    return MPoint(Word._trusted(p.word.letters, p.word.start + 1), new_t0)


def _window_chart(p: MPoint, n: int) -> list[float]:
    """Chart images ``embed(coords(p, j))`` of coordinates -n..n, computed
    on floats from one walk each way out of the base through the window's
    2n letters, through the chart constants ``xspace._CHARTS``."""
    if p.word is None:
        return [1.0] * (2 * n + 1)
    base, u = -p.word.start, p.t0.u
    run = p.word.letters[base - n : base + n]
    if base < n or len(run) < 2 * n:
        raise IndexError("requested coordinates outside window")
    us = _steps(u, run[:n], inverse=True)[::-1] + _steps(u, run[n:], inverse=False)[1:]
    if not (0.0 <= min(us) and max(us) <= 1.0):
        raise ValueError(f"a local coordinate of {us!r} lies outside [0, 1]")
    out = []
    for lt, v in zip(run, us):
        low, scale = _CHARTS[lt.domain_index]
        out.append(low + v * scale)
    low, scale = _CHARTS[run[-1].range_index]
    out.append(low + us[-1] * scale)
    return out


def _run_window(run: tuple[Letter, ...], u: float) -> MPoint:
    """The window point of a run of 2N letters of an admissible word, its
    origin mid-run at local coordinate ``u``: such a run passes every check
    of ``MPoint.__init__``, so they are skipped."""
    n = len(run) // 2
    p = object.__new__(MPoint)
    _set(p, "word", Word._trusted(run, -n))
    _set(p, "t0", XPoint(run[n].domain_index, u))
    return p


@lru_cache(maxsize=None)
def _weights(n: int) -> tuple[float, ...]:
    """The metric's weights 2^-|j| over |j| <= n."""
    return tuple(2.0 ** -abs(j) for j in range(-n, n + 1))


def _window_dists(p: MPoint, q: MPoint, cfg: WindowConfig) -> tuple[float, float]:
    """Two-sided and forward (j >= 0) maxima of the weighted gaps
    dist(p_j, q_j) / 2^|j| over |j| <= N, from one trace of each point.

    The forward walk of ``_window_chart`` does not depend on its left end,
    so the forward maximum equals the one taken over coordinates 0..N alone.
    """
    n = cfg.half_width
    gaps = [
        abs(b - a) * w
        for a, b, w in zip(_window_chart(p, n), _window_chart(q, n), _weights(n))
    ]
    return max(gaps), max(gaps[n:])


def dist_window(p: MPoint, q: MPoint, cfg: WindowConfig) -> float:
    """Product metric evaluated over coordinates |j| <= N.

    Requires both windows to cover [-N, N]; the all-infinity point covers
    everything.  The discarded tail contributes at most 2^-(N+1).
    """
    return _window_dists(p, q, cfg)[0]


def fiber_length(k: int) -> float:
    """Height of the slice through interval k: 2^(1-2k)."""
    return 2.0 ** (1 - 2 * k)


def pack(word: Word, t: float) -> MPoint:
    """Build the point of the k-slice at height t over the given itinerary.

    The slice through interval k is a product of the itinerary Cantor set
    with [0, 2^(1-2k)]; the base coordinate is u0 = t * 2^(2k-1), an exact
    power-of-two rescale, so a height in [0, 2^(1-2k)] lands in [0, 1].
    """
    k = word.domain_at(0)
    top = fiber_length(k)
    if not 0.0 <= t <= top:
        raise RangeError(f"height {t} outside [0, {top}]")
    return MPoint(word, XPoint(k, t * 2.0 ** (2 * k - 1)))


def unpack(p: MPoint) -> tuple[Word, float]:
    """Inverse of pack: recover (word, height); exact round-trip."""
    if p.is_all_infinity:
        raise ValueError("all-infinity point carries no slice coordinates")
    k = p.t0.k
    return p.word, p.t0.u * 2.0 ** (1 - 2 * k)


def height(p: MPoint) -> float:
    """Model height of a finite-window point (second model coordinate)."""
    return unpack(p)[1]


def chunk_x(k: int, digits: str) -> float:
    """Planar column of a {0,2}-address embedded in the k-th middle-third
    chunk [1 - 3^(1-k), 1 - 3^(1-k) + 3^-k]."""
    return 1.0 - 3.0 ** (1 - k) + 3.0 ** (-k) * address_value(digits)


def model_map(p: MPoint, depth: int) -> tuple[float, float]:
    """Planar model coordinates (c, tau) of a window point.

    The itinerary address is embedded into the k-th middle-third chunk
    (``chunk_x``) and the height is the slice coordinate; the all-infinity
    point maps to (1, 0).  Words that agree on the truncated window and
    share a base coordinate map to the same pair, and distinct such data
    map to distinct pairs.
    """
    if p.is_all_infinity:
        return (1.0, 0.0)
    word = p.word.slice(max(p.lo, -depth), min(p.hi, depth - 1))
    return (chunk_x(p.t0.k, cantor_address(word)), height(p))


def m_index(p: MPoint) -> int | None:
    """Index j when p lies on the diagonal arc of interval j, else None.

    Diagonal arcs (all coordinates equal) exist exactly over the intervals
    whose stay-letter takes no exponent step, the identity: j >= 3.
    """
    if p.is_all_infinity:
        return None
    stay = Letter(p.t0.k, 2)
    if stay.steps == (0, 0) and all(lt == stay for lt in p.word.letters):
        return stay.ell
    return None


def diagonal_point(j: int, u: float, half_width: int = 8) -> MPoint:
    """The point of the diagonal arc over interval j at local coordinate u."""
    if j < 1 or Letter(j, 2).steps != (0, 0):
        raise ValueError("diagonal arcs exist only over intervals >= 3")
    word = Word((Letter(j, 2),) * (2 * half_width), -half_width)
    return MPoint(word, XPoint(j, u))


def random_window_point(rng, k: int, half_width: int = 8) -> MPoint:
    """Random point with a window of the given half-width through interval k."""
    word = random_word(rng, k, left=half_width, right=half_width)
    return MPoint(word, XPoint(k, rng.random()))
