"""Symbolic layer: the letter alphabet, admissible words, and addresses.

The letter table is the one derived encoding of the relation.  A letter
``(ell, j)`` names the monotone piece with domain interval ``ell`` and range
interval ``ell + j - 2`` (j = 1 goes down, j = 2 stays, j = 3 goes up);
``(1, 1)`` is identified with ``(1, 2)``.  Its exponent step
``Letter.steps`` is (0, 1) for the stay-letter of interval 1, the cube root,
(1, 0) for that of interval 2, the square, and (0, 0) for every other
letter, the identity on the local coordinate; along a run whose steps sum to
(m, n), a coordinate t goes to t^(2^m / 3^n).  ``Letter.piece`` applies a
letter to a local coordinate, and
``letters_with_domain``/``letters_with_range`` list the letters leaving and
entering an interval; the relation's sections in ``relations`` are read off
this table, and its literal maps F1-F3 and ``in_H`` are the oracle it is
checked against.  A word is admissible when consecutive letters chain range
into domain; the set of bi-infinite admissible itineraries through a fixed
interval is a Cantor set, which the address codec below exhibits by
embedding finite words into the middle-third model.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import ResourceCapExceeded
from .xspace import XPoint, _Frozen, _set, cbrt

ENUMERATION_CAP = 10**6


def capped(size: int, what: str) -> int:
    """``size``, refused with ResourceCapExceeded past ``ENUMERATION_CAP``
    before any item is built; ``what`` names the items and the parameters
    that reproduce them.  A size may be a count stopped at the cap
    (``word_count``), so the message gives it as a lower bound."""
    cap = ENUMERATION_CAP
    if size > cap:
        raise ResourceCapExceeded(f"at least {size} {what} exceed cap {cap}")
    return size


def _exponent(m: int, n: int) -> float:
    """2^m / 3^n, the exponent of a coordinate after m squares and n roots."""
    return 2.0**m / 3.0**n


class Letter(_Frozen):
    __slots__ = ("ell", "j", "domain_index", "range_index", "steps")
    # the indices and steps are derived: eq and hash read (ell, j)
    _key = attrgetter("ell", "j")

    def __init__(self, ell: int, j: int):
        if ell < 1:
            raise ValueError(f"letter domain index must be >= 1, got {ell}")
        if j not in (1, 2, 3):
            raise ValueError(f"letter kind must be 1, 2 or 3, got {j}")
        if ell == 1 and j == 1:
            # canonical form of the identified pair of letters on interval 1
            j = 2
        _set(self, "ell", ell)
        _set(self, "j", j)
        _set(self, "domain_index", ell)
        _set(self, "range_index", ell + j - 2)
        # (doublings, third roots): only the stay-letters of intervals 1, 2 bend
        bend = j == 2 and ell <= 2
        _set(self, "steps", ((0, 1) if ell == 1 else (1, 0)) if bend else (0, 0))

    def piece(self, u: float, inverse: bool = False) -> float:
        """The letter's increasing bijection of [0, 1] on the local coordinate,
        read off ``steps``: the cube root for (0, 1), the square for (1, 0),
        the identity for (0, 0); ``inverse`` applies the inverse map instead.
        """
        doublings, third_roots = self.steps
        if third_roots:
            return u * u * u if inverse else cbrt(u)
        if doublings:
            return math.sqrt(u) if inverse else u * u
        return u


@lru_cache(maxsize=None)
def letters_with_domain(d: int) -> tuple[Letter, ...]:
    """All letters defined on interval d, in canonical (ell, j) order."""
    if d < 1:
        raise ValueError("domain index must be >= 1")
    if d == 1:
        return (Letter(1, 2), Letter(1, 3))
    return (Letter(d, 1), Letter(d, 2), Letter(d, 3))


@lru_cache(maxsize=None)
def letters_with_range(r: int) -> tuple[Letter, ...]:
    """All letters landing on interval r, in canonical (ell, j) order: the
    letters of the domain table on intervals r-1..r+1 whose range is r."""
    if r < 1:
        raise ValueError("range index must be >= 1")
    near = range(max(1, r - 1), r + 2)
    return tuple(
        lt for d in near for lt in letters_with_domain(d) if lt.range_index == r
    )


def is_admissible(letters: Sequence[Letter]) -> bool:
    """Consecutive letters must chain: range of one equals domain of next."""
    # a plain loop: its slot reads are specialized, so on CPython 3.11 it
    # beats both a generator and C maps of attrgetter on a long orbit word
    for a, b in zip(letters, islice(letters, 1, None)):
        if a.range_index != b.domain_index:
            return False
    return True


class Word(_Frozen):
    """A finite admissible run of letters over consecutive transitions.

    ``letters[i]`` governs the transition at position ``start + i``; the
    letter at position 0 is the one whose domain carries the base
    coordinate.
    """

    __slots__ = ("letters", "start")
    _key = attrgetter("letters", "start")

    def __init__(self, letters: tuple[Letter, ...], start: int = 0):
        if not letters:
            raise ValueError("word must contain at least one letter")
        if not is_admissible(letters):
            raise ValueError("letters do not chain admissibly")
        _set(self, "letters", letters)
        _set(self, "start", start)

    @classmethod
    def _trusted(cls, letters: tuple[Letter, ...], start: int) -> "Word":
        """A word over letters already known to chain, e.g. a run of an
        existing word; skips the admissibility check."""
        word = object.__new__(cls)
        _set(word, "letters", letters)
        _set(word, "start", start)
        return word

    @property
    def stop(self) -> int:
        """One past the last transition position."""
        return self.start + len(self.letters)

    def letter(self, pos: int) -> Letter:
        if not self.start <= pos < self.stop:
            raise IndexError(f"position {pos} outside [{self.start}, {self.stop})")
        return self.letters[pos - self.start]

    def domain_at(self, pos: int) -> int:
        """Interval index of the coordinate at position pos.

        Valid for positions start..stop; the coordinate at ``stop`` is the
        range of the final letter.
        """
        if pos == self.stop:
            return self.letters[-1].range_index
        return self.letter(pos).domain_index

    def slice(self, lo: int, hi: int) -> "Word":
        """Sub-word covering transitions lo..hi inclusive."""
        if lo < self.start or hi >= self.stop or lo > hi:
            raise IndexError("slice outside word span")
        return Word._trusted(self.letters[lo - self.start : hi - self.start + 1], lo)


def iter_words(k: int, n: int, *, start: int = 0) -> Iterator[Word]:
    """Yield every admissible n-letter word whose position-0 domain is k.

    Words span transitions start..start+n-1 and position 0 must lie in
    that span.  Enumeration order is canonical: letters are chosen in
    (ell, j) order rightward from position 0, then leftward.  A word is a
    right walk out of k joined to a left walk into k, and the letter graph
    is symmetric, so the two walks count alike, and the words are sized
    with ``capped`` before any is walked.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if not (start <= 0 < start + n):
        raise ValueError("position 0 must lie inside the word span")
    size = word_count(k, start + n) * word_count(k, -start)
    capped(size, f"words (k={k}, n={n}, start={start})")
    right = left = [((), k)]
    for _ in range(start + n):
        right = [
            (chain + (lt,), lt.range_index)
            for chain, r in right
            for lt in letters_with_domain(r)
        ]
    for _ in range(-start):
        left = [
            ((lt,) + chain, lt.domain_index)
            for chain, d in left
            for lt in letters_with_range(d)
        ]
    for chain, _ in right:
        for head, _ in left:
            yield Word._trusted(head + chain, start)


def _walks(k: int, n: int, succ) -> Iterator[dict[int, int]]:
    """Walks of 1..n steps from interval k on a graph where ``succ(r)``
    lists the ends of the edges out of r: per length, the number of walks
    ending at each interval, as exact integers."""
    ending = {k: 1}  # the empty walk ends at k
    for _ in range(n):
        nxt: dict[int, int] = {}
        for r, c in ending.items():
            for r2 in succ(r):
                nxt[r2] = nxt.get(r2, 0) + c
        ending = nxt
        yield ending


def _ranges(r: int) -> list[int]:
    """The ranges of the letters leaving interval r."""
    return [lt.range_index for lt in letters_with_domain(r)]


def count_words_recurrence(k: int, n: int) -> list[int]:
    """Expected word counts for lengths 1..n from the branching recurrence
    on the letter table: interval 1 branches 2 ways, every other 3 ways."""
    return [sum(ending.values()) for ending in _walks(k, n, _ranges)]


def word_count(k: int, n: int) -> int:
    """The number of n-letter words out of interval k (1 for n = 0), counted
    up to the first length past ``ENUMERATION_CAP``: every interval has two
    or more letters in and out, so a count stopped there is a lower bound
    past the cap.  Cached per cap, so a patched cap counts afresh."""
    cap = ENUMERATION_CAP
    # so a count stops within cap.bit_length() letters; walks that short from
    # past interval 1 + their length never reach 1, so those count alike
    return _word_count(min(k, min(n, cap.bit_length()) + 2), n, cap)


@lru_cache(maxsize=None)
def _word_count(k: int, n: int, cap: int) -> int:
    count = 1  # the empty word
    for ending in _walks(k, n, _ranges):
        count = sum(ending.values())
        if count > cap:
            break
    return count


class CantorCertificate(NamedTuple):
    """Branching audit over all words of length <= n through interval k;
    its fields are its report form, serialized with ``_asdict()``."""

    passed: bool
    k: int
    max_length: int
    min_right_branching: int
    min_left_branching: int
    words_checked: int
    counts_by_length: list[int]
    recurrence_counts: list[int]


def cantor_certificate(k: int, n: int, *, cap: int = 4 * 10**6) -> CantorCertificate:
    """Check that no finite word can isolate an itinerary through interval k.

    Counts the admissible words of length <= n starting at interval k as
    walks on the interval graph of the literal maps, where interval r leads
    to each interval that F1, F2 or F3 sends an interior point of r to, and
    compares the counts with the letter table's branching recurrence.  A
    minimum branching of 2 on both sides means no cylinder of depth n
    contains an isolated itinerary.  More than ``cap`` words counted raise.
    """
    # relations imports this module, so its literal maps are imported here
    from .relations import GLOBAL_MAPS, global_apply

    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")

    def succ(r: int) -> set[int]:
        return {global_apply(f, XPoint(r, 0.5)).k for f in GLOBAL_MAPS}

    counts: list[int] = []
    reached: set[int] = set()
    for ending in _walks(k, n, succ):
        counts.append(sum(ending.values()))
        if sum(counts) > cap:  # per length, so a deep n stops early
            raise ResourceCapExceeded(
                f"certificate walk (k={k}, n={n}) exceeded cap {cap}"
            )
        reached.update(ending)
    min_right = min(len(succ(r)) for r in reached)
    min_left = len(letters_with_range(k))

    expected = count_words_recurrence(k, n)
    passed = min_right >= 2 and min_left >= 2 and counts == expected
    return CantorCertificate(
        passed=passed,
        k=k,
        max_length=n,
        min_right_branching=min_right,
        min_left_branching=min_left,
        words_checked=sum(counts),
        counts_by_length=counts,
        recurrence_counts=expected,
    )


def encoding_positions(lo: int, hi: int) -> list[int]:
    """Canonical transition order for the address codec: 0, -1, 1, -2, 2, ...

    Restricted to positions in [lo, hi].  Growing a word on the right or
    symmetrically on both sides appends positions at the end of this order,
    which keeps earlier digits in place.
    """
    if not lo <= 0 <= hi:
        raise ValueError("position 0 must lie in the span")
    order = [0]
    m = 1
    while -m >= lo or m <= hi:
        if -m >= lo:
            order.append(-m)
        if m <= hi:
            order.append(m)
        m += 1
    return order


_BLOCKS_2 = ("0", "2")
_BLOCKS_3 = ("00", "02", "20")


def cantor_address(word: Word) -> str:
    """Injective, extension-consistent digit address over {0, 2}.

    At every encoding step the next letter is one of 2 or 3 candidates in
    canonical order; a 2-way step contributes one digit, a 3-way step two
    digits.  Words of equal span therefore map to disjoint middle-third
    cylinders, and refining a word extends its digit string.
    """
    base = word.domain_at(0)
    letters, start = word.letters, word.start
    digits: list[str] = []
    for pos in encoding_positions(start, word.stop - 1):
        i = pos - start
        if pos == 0:
            candidates = letters_with_domain(base)
        elif pos > 0:
            candidates = letters_with_domain(letters[i - 1].range_index)
        else:
            candidates = letters_with_range(letters[i + 1].domain_index)
        rank = candidates.index(letters[i])
        digits.append(_BLOCKS_2[rank] if len(candidates) == 2 else _BLOCKS_3[rank])
    return "".join(digits)


def iter_addresses(k: int, n: int) -> Iterator[str]:
    """Yield ``cantor_address(w)`` for each w of ``iter_words(k, n)``, in
    that order, which is sorted order, without building a word.

    Each level extends every address by one block per candidate letter, in
    canonical order; the blocks of one step have one length and rise with
    the rank, so every level stays sorted.  The addresses are sized with
    ``capped`` before any is walked."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    capped(word_count(k, n), f"addresses (k={k}, n={n})")
    level = [("", k)]
    for _ in range(n):
        level = [
            (addr + block, lt.range_index)
            for addr, r in level
            for block, lt in zip(
                _BLOCKS_2 if r == 1 else _BLOCKS_3, letters_with_domain(r)
            )
        ]
    yield from (addr for addr, _ in level)


def address_value(digits: str) -> float:
    """Value of a finite {0,2}-digit string in the middle-third model."""
    v = 0.0
    scale = 1.0
    for d in digits:
        scale /= 3.0
        if d == "2":
            v += 2.0 * scale
        elif d != "0":
            raise ValueError(f"address digit must be 0 or 2, got {d!r}")
    return v


def random_word(
    rng, k: int, *, left: int, right: int
) -> Word:
    """Uniform-ish random admissible word spanning transitions -left..right-1."""
    if right < 1 or left < 0:
        raise ValueError("need right >= 1 and left >= 0")
    chain = [rng.choice(letters_with_domain(k))]
    for _ in range(right - 1):
        chain.append(rng.choice(letters_with_domain(chain[-1].range_index)))
    # the left run grows outward, so it is drawn right to left
    outward = []
    d = chain[0].domain_index
    for _ in range(left):
        lt = rng.choice(letters_with_range(d))
        outward.append(lt)
        d = lt.domain_index
    return Word(tuple(outward[::-1] + chain), -left)
