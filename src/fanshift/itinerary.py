"""Symbolic layer: the letter alphabet, admissible words, and addresses.

The letter table is the one derived encoding of the relation.  A letter
``(ell, j)`` names the monotone piece with domain interval ``ell`` and range
interval ``ell + j - 2`` (j = 1 goes down, j = 2 stays, j = 3 goes up; on
interval 1 the stay-letter is the cube root, on interval 2 it is the square,
and every other letter is the identity on the local coordinate); ``(1, 1)``
is identified with ``(1, 2)``.  ``Letter.piece`` applies a letter to a local
coordinate, and ``letters_with_domain``/``letters_with_range`` list the
letters leaving and entering an interval; the relation's sections in
``relations`` are read off this table, and its literal maps F1-F3 and
``in_H`` are the oracle it is checked against.  A word is admissible
when consecutive letters chain range into domain; the set of bi-infinite
admissible itineraries through a fixed interval is a Cantor set, which the
address codec below exhibits by embedding finite words into the middle-third
model.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import ResourceCapExceeded
from .xspace import _Frozen, _set, cbrt

ENUMERATION_CAP = 10**6
# words per expanded slice in cantor_certificate's level walk
_LEVEL_SLICE = 1024


class Letter(_Frozen):
    __slots__ = ("ell", "j", "domain_index", "range_index")
    # domain_index and range_index are derived: eq and hash read (ell, j)
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

    def piece(self, u: float, inverse: bool = False) -> float:
        """The letter's increasing bijection of [0, 1] on the local coordinate.

        The cube root on (1, 2), the square on (2, 2), the identity on every
        other letter; ``inverse`` applies the inverse map instead.
        """
        if self.j == 2:
            if self.ell == 1:
                return u * u * u if inverse else cbrt(u)
            if self.ell == 2:
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
    """All letters landing on interval r, in canonical (ell, j) order."""
    if r < 1:
        raise ValueError("range index must be >= 1")
    if r == 1:
        return (Letter(1, 2), Letter(2, 1))
    return (Letter(r - 1, 3), Letter(r, 2), Letter(r + 1, 1))


def is_admissible(letters: Sequence[Letter]) -> bool:
    """Consecutive letters must chain: range of one equals domain of next."""
    return all(
        a.range_index == b.domain_index for a, b in zip(letters, letters[1:])
    )


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
    (ell, j) order rightward from position 0, then leftward.  More than
    ``ENUMERATION_CAP`` words raise.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if not (start <= 0 < start + n):
        raise ValueError("position 0 must lie inside the word span")
    produced = 0
    n_right = start + n  # letters at positions 0..n_right-1; always >= 1

    def grow_left(chain: tuple[Letter, ...]) -> Iterator[tuple[Letter, ...]]:
        if len(chain) == n:
            yield chain
            return
        for lt in letters_with_range(chain[0].domain_index):
            yield from grow_left((lt,) + chain)

    def grow_right(chain: tuple[Letter, ...]) -> Iterator[tuple[Letter, ...]]:
        if len(chain) == n_right:
            yield from grow_left(chain)
            return
        for lt in letters_with_domain(chain[-1].range_index):
            yield from grow_right(chain + (lt,))

    for root in letters_with_domain(k):
        for chain in grow_right((root,)):
            produced += 1
            if produced > ENUMERATION_CAP:
                raise ResourceCapExceeded(
                    f"enumeration of words (k={k}, n={n}) exceeded cap "
                    f"{ENUMERATION_CAP}"
                )
            yield Word(chain, start)


def count_words_recurrence(k: int, n: int) -> list[int]:
    """Expected word counts for lengths 1..n from the branching recurrence.

    State is the current range interval; interval 1 branches 2 ways,
    everything else 3 ways.
    """
    counts = []
    state: dict[int, int] = {}
    for lt in letters_with_domain(k):
        state[lt.range_index] = state.get(lt.range_index, 0) + 1
    counts.append(sum(state.values()))
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for r, c in state.items():
            for lt in letters_with_domain(r):
                rr = lt.range_index
                nxt[rr] = nxt.get(rr, 0) + c
        state = nxt
        counts.append(sum(state.values()))
    return counts


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

    Walks every admissible word of length <= n starting at interval k and
    records the two-sided branching; a minimum of 2 on both sides means no
    cylinder of depth n contains an isolated itinerary.  Word counts per
    length are tallied and compared against the branching recurrence.

    The walk goes level by level: a level is a list holding one entry per
    word, the range index of its final letter, and the next level lists
    each word's one-letter extensions.  Levels are expanded in slices of
    ``_LEVEL_SLICE`` words, depth first, so memory stays flat at any depth.
    """
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    # succ[r]: range indices of the letters leaving interval r; a word of
    # length <= n through k never ends beyond interval k + n
    succ = [()] + [
        tuple(lt.range_index for lt in letters_with_domain(r))
        for r in range(1, k + n + 1)
    ]
    counts = [0] * n
    reached: set[int] = set()

    def walk(level: list[int], depth: int) -> None:
        counts[depth - 1] += len(level)
        if sum(counts) > cap:
            raise ResourceCapExceeded(
                f"certificate walk (k={k}, n={n}) exceeded cap {cap}"
            )
        reached.update(level)
        if depth < n:
            for i in range(0, len(level), _LEVEL_SLICE):
                part = level[i : i + _LEVEL_SLICE]
                walk([r2 for r in part for r2 in succ[r]], depth + 1)

    walk(list(succ[k]), 1)
    min_right = min(len(succ[r]) for r in reached)
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
