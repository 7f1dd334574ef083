import json

import pytest
from hypothesis import given, settings, strategies as st

from fanshift.errors import ResourceCapExceeded
import fanshift.itinerary as itinerary
import fanshift.relations as relations
from fanshift.cli import main
from fanshift.itinerary import (
    _BLOCKS_2,
    _BLOCKS_3,
    CantorCertificate,
    Letter,
    Word,
    address_value,
    cantor_address,
    cantor_certificate,
    count_words_recurrence,
    encoding_positions,
    iter_addresses,
    iter_words,
    is_admissible,
    letters_with_domain,
    letters_with_range,
    random_word,
    word_count,
)
from fanshift.mahavier import random_window_point, shift, unshift

from _util import random_letter_chain, rng


def literal_successors(lt: Letter) -> set[Letter]:
    """The successor table spelled out case by case, used as the oracle
    for the chaining rule (stay/up/down per interval, with the shared
    letter on interval 1)."""
    ell, j = lt.ell, lt.j
    if ell == 1:
        if j == 2:
            return {Letter(1, 2), Letter(1, 3)}
        return {Letter(2, 1), Letter(2, 2), Letter(2, 3)}
    if j == 1:
        if ell == 2:
            return {Letter(1, 2), Letter(1, 3)}
        return {Letter(ell - 1, 1), Letter(ell - 1, 2), Letter(ell - 1, 3)}
    if j == 2:
        return {Letter(ell, 1), Letter(ell, 2), Letter(ell, 3)}
    return {Letter(ell + 1, 1), Letter(ell + 1, 2), Letter(ell + 1, 3)}


def test_letter_normalization_and_ranges():
    assert Letter(1, 1) == Letter(1, 2)
    assert Letter(1, 2).range_index == 1
    assert Letter(1, 3).range_index == 2
    assert Letter(2, 1).range_index == 1
    assert Letter(5, 2).range_index == 5
    with pytest.raises(ValueError):
        Letter(0, 2)
    with pytest.raises(ValueError):
        Letter(3, 4)


def test_letter_indices_are_attributes_outside_the_fields():
    # eq and hash read (ell, j) only: a letter whose derived indices are
    # forced to other values still equals and hashes like the original
    lt, forged = Letter(4, 3), Letter(4, 3)
    object.__setattr__(forged, "domain_index", 0)
    object.__setattr__(forged, "range_index", 0)
    assert lt == forged and hash(lt) == hash(forged)
    assert Letter(4, 2) != lt and Letter(5, 3) != lt
    # and the fields themselves cannot be reassigned
    for name in ("ell", "j", "domain_index", "range_index"):
        with pytest.raises(AttributeError):
            setattr(lt, name, 2)
    for ell in range(1, 10):
        for j in (1, 2, 3):
            lt = Letter(ell, j)
            assert lt.domain_index == lt.ell == ell
            assert lt.range_index == lt.ell + lt.j - 2
    # the normalized interval-1 letter stays on interval 1
    assert (Letter(1, 1).domain_index, Letter(1, 1).range_index) == (1, 1)
    # (1, 1) is stored in its canonical form (1, 2)
    assert (Letter(1, 1).ell, Letter(1, 1).j) == (1, 2)
    assert Letter(1, 1) == Letter(1, 2)
    assert hash(Letter(1, 1)) == hash(Letter(1, 2))


def test_letter_sets():
    assert letters_with_domain(1) == (Letter(1, 2), Letter(1, 3))
    assert letters_with_domain(4) == (Letter(4, 1), Letter(4, 2), Letter(4, 3))
    assert letters_with_range(1) == (Letter(1, 2), Letter(2, 1))
    assert letters_with_range(2) == (Letter(1, 3), Letter(2, 2), Letter(3, 1))
    assert letters_with_range(5) == (Letter(4, 3), Letter(5, 2), Letter(6, 1))


def literal_range_table(r: int) -> tuple[Letter, ...]:
    """The range table as ``letters_with_range`` spelled it out before it
    was read off the domain table; the oracle for it."""
    if r == 1:
        return (Letter(1, 2), Letter(2, 1))
    return (Letter(r - 1, 3), Letter(r, 2), Letter(r + 1, 1))


def test_range_table_is_read_off_the_domain_table():
    for r in range(1, 41):
        got = letters_with_range(r)
        assert got == literal_range_table(r)
        # the very letter objects of the domain table, not equal copies
        for lt in got:
            assert lt.range_index == r
            assert any(lt is other for other in letters_with_domain(lt.ell))


def test_admissibility_examples():
    assert is_admissible((Letter(1, 2), Letter(1, 3), Letter(2, 2)))
    assert not is_admissible((Letter(1, 3), Letter(1, 2)))
    assert is_admissible((Letter(3, 1), Letter(2, 1), Letter(1, 2)))


def test_admissibility_catches_a_long_word_broken_at_its_last_link():
    # 100,000 letters that chain, then a final letter whose domain is not
    # the range before it: only the last pair breaks the word
    r = rng(5)
    chain = [Letter(3, 2)]
    for _ in range(99_999):
        chain.append(r.choice(letters_with_domain(chain[-1].range_index)))
    assert is_admissible(chain) and is_admissible(tuple(chain))
    last = chain[-1].range_index
    bad = Letter(last + 1, 1)
    assert bad.domain_index != last
    assert not is_admissible(chain + [bad])
    assert is_admissible(chain + [letters_with_domain(last)[0]])
    with pytest.raises(ValueError, match="do not chain"):
        Word(tuple(chain) + (bad,))


def test_admissibility_matches_literal_case_table():
    r = rng(0)
    for _ in range(100_000):
        a = Letter(r.randint(1, 6), r.randint(1, 3))
        b = Letter(r.randint(1, 7), r.randint(1, 3))
        assert is_admissible((a, b)) == (b in literal_successors(a))


@given(st.data())
@settings(max_examples=300)
def test_chains_built_from_literal_table_are_admissible(data):
    r = rng(data.draw(st.integers(0, 10_000)))
    chain = [Letter(r.randint(1, 5), r.randint(1, 3))]
    for _ in range(data.draw(st.integers(1, 8))):
        successors = sorted(literal_successors(chain[-1]), key=lambda lt: (lt.ell, lt.j))
        chain.append(r.choice(successors))
    assert is_admissible(tuple(chain))


def test_index_drift_at_most_one_per_step():
    r = rng(1)
    for _ in range(2000):
        chain = random_letter_chain(r, 10)
        for a, b in zip(chain, chain[1:]):
            assert abs(b.domain_index - a.domain_index) <= 1


def test_word_validation():
    with pytest.raises(ValueError):
        Word(())
    with pytest.raises(ValueError):
        Word((Letter(1, 3), Letter(1, 2)))
    w = Word((Letter(1, 2), Letter(1, 3)), start=-1)
    assert w.domain_at(-1) == 1
    assert w.domain_at(0) == 1
    assert w.domain_at(1) == 2  # range of the final letter
    with pytest.raises(IndexError):
        w.letter(1)


def test_extensions_examples():
    # right extensions start in the final range, left ones end in the first domain
    assert letters_with_domain(Letter(1, 2).range_index) == (Letter(1, 2), Letter(1, 3))
    assert letters_with_domain(Letter(1, 3).range_index) == (
        Letter(2, 1),
        Letter(2, 2),
        Letter(2, 3),
    )
    assert letters_with_range(Letter(1, 2).domain_index) == (Letter(1, 2), Letter(2, 1))


def test_extension_set_sizes():
    r = rng(2)
    for _ in range(500):
        w = Word(tuple(random_letter_chain(r, 6)))
        right = letters_with_domain(w.letters[-1].range_index)
        left = letters_with_range(w.letters[0].domain_index)
        assert len(right) == (2 if w.letters[-1].range_index == 1 else 3)
        assert len(left) == (2 if w.letters[0].domain_index == 1 else 3)
        assert len(right) >= 2 and len(left) >= 2


def test_enumerate_word_counts():
    assert len(list(iter_words(1, 1))) == 2
    assert len(list(iter_words(3, 1))) == 3
    assert len(list(iter_words(1, 2))) == 5


def test_enumeration_matches_recurrence_exhaustively():
    for k in range(1, 7):
        expected = count_words_recurrence(k, 10)
        for n in range(1, 11):
            assert len(list(iter_words(k, n))) == expected[n - 1]


def test_enumeration_cap(monkeypatch):
    # the count stops at 5 letters, the first length past the cap
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", 100)
    message = r"^at least 242 words \(k=5, n=10, start=0\) exceed cap 100$"
    with pytest.raises(ResourceCapExceeded, match=message):
        list(iter_words(5, 10))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_word_count_is_exact_under_the_cap(k):
    expected = count_words_recurrence(k, 12)
    assert [word_count(k, n) for n in range(13)] == [1, *expected]


def test_word_count_stops_at_the_first_length_past_the_cap(monkeypatch):
    # 13 letters give the first count past 10^6 out of interval 5, and a
    # length of 10^6 letters walks no further than that
    counts = count_words_recurrence(5, 13)
    assert counts[-2] <= 10**6 < counts[-1] == word_count(5, 10**6) == 1446355
    # the cache is keyed on the cap: a patched cap counts afresh, and the
    # restored cap finds its exact count again
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", 100)
    assert word_count(5, 12) == 242
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", 10**6)
    assert word_count(5, 12) == counts[11] == 488865


@pytest.mark.parametrize("cap", [100, 10**6])
def test_far_intervals_share_one_word_count(monkeypatch, cap):
    # past interval 1 + the letters counted, no walk reaches interval 1, so
    # word_count reads one cache entry for all those intervals; it must
    # equal the count walked from the interval itself
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", cap)
    for n in range(30):
        for k in range(1, 50):
            assert word_count(k, n) == itinerary._word_count(k, n, cap), (k, n)


def test_two_sided_enumeration():
    words = list(iter_words(1, 4, start=-2))
    assert len(words) == 25
    for w in words:
        assert w.start == -2
        assert w.domain_at(0) == 1


def test_two_sided_enumeration_is_sized_before_it_walks(monkeypatch):
    # 5 right walks out of interval 1 times 5 left walks into it
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", 24)
    words = iter_words(1, 4, start=-2)
    message = r"^at least 25 words \(k=1, n=4, start=-2\) exceed cap 24$"
    with pytest.raises(ResourceCapExceeded, match=message):
        next(words)
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", 25)
    assert len(list(iter_words(1, 4, start=-2))) == 25


@pytest.mark.parametrize("k, n, start", [(1, 5, -2), (2, 4, 0), (3, 5, -4), (4, 3, -1)])
def test_enumeration_order_is_canonical(k, n, start):
    # right letters in (ell, j) order from position 0, then left letters
    # from position -1 outward
    def key(w):
        right, left = w.letters[-start:], w.letters[:-start][::-1]
        return [(lt.ell, lt.j) for lt in right], [(lt.ell, lt.j) for lt in left]

    words = list(iter_words(k, n, start=start))
    assert len(set(words)) == len(words) == (
        count_words_recurrence(k, n + start)[-1]
        * (count_words_recurrence(k, -start)[-1] if start else 1)
    )
    assert words == sorted(words, key=key)
    assert all(is_admissible(w.letters) for w in words)


def test_certificate_small():
    cert = cantor_certificate(1, 8)
    assert cert.passed
    assert cert.min_right_branching == 2
    assert cert.min_left_branching == 2
    assert cert.counts_by_length == cert.recurrence_counts
    cert5 = cantor_certificate(5, 8)
    assert cert5.passed
    assert cert5.min_left_branching == 3


def dfs_certificate(k: int, n: int, *, cap: int = 4 * 10**6) -> CantorCertificate:
    """The certificate as an iterative DFS with one stack entry per word,
    kept verbatim from the earlier implementation as the oracle for the
    counting certificate: it walks the words one by one, on the letter
    table rather than on the literal maps."""
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    counts = [0] * n
    min_right = 3
    min_left = min(min_right, len(letters_with_range(k)))
    visited = 0

    # Iterative DFS over the tree of right-growing words; each node is a
    # word of length == depth, so per-length tallies fall out of the walk.
    stack: list[tuple[int, int]] = [(lt.range_index, 1) for lt in letters_with_domain(k)]
    while stack:
        rng, depth = stack.pop()
        visited += 1
        if visited > cap:
            raise ResourceCapExceeded(
                f"certificate walk (k={k}, n={n}) exceeded cap {cap}"
            )
        counts[depth - 1] += 1
        succ = letters_with_domain(rng)
        if len(succ) < min_right:
            min_right = len(succ)
        if depth < n:
            for lt in succ:
                stack.append((lt.range_index, depth + 1))

    expected = count_words_recurrence(k, n)
    passed = min_right >= 2 and min_left >= 2 and counts == expected
    return CantorCertificate(
        passed=passed,
        k=k,
        max_length=n,
        min_right_branching=min_right,
        min_left_branching=min_left,
        words_checked=visited,
        counts_by_length=counts,
        recurrence_counts=expected,
    )


def test_level_walk_matches_dfs():
    for k in range(1, 9):
        for n in range(1, 11):
            assert cantor_certificate(k, n) == dfs_certificate(k, n), (k, n)


def test_certificate_counts_match_enumeration():
    # iter_words lists the words themselves, so this does not lean on the
    # recurrence the certificate compares against
    for k in range(1, 5):
        cert = cantor_certificate(k, 6)
        assert cert.counts_by_length == [len(list(iter_words(k, m))) for m in range(1, 7)]
        assert cert.words_checked == sum(cert.counts_by_length)


@pytest.mark.parametrize("k, n", [(1, 3), (3, 9), (1, 12)])
def test_certificate_cap_boundary(k, n):
    # the cap bounds the words counted over all lengths: one word fewer
    # than the total raises, the total itself passes
    total = dfs_certificate(k, n).words_checked
    message = rf"certificate walk \(k={k}, n={n}\) exceeded cap {total - 1}$"
    with pytest.raises(ResourceCapExceeded, match=message):
        cantor_certificate(k, n, cap=total - 1)
    with pytest.raises(ResourceCapExceeded, match=message):
        dfs_certificate(k, n, cap=total - 1)
    assert cantor_certificate(k, n, cap=total).words_checked == total


def test_certificate_cap_stops_a_deep_count_early(monkeypatch):
    # the cap is checked per length: past it no further length is counted,
    # so a depth far beyond the cap costs a few hundred map evaluations
    calls = []
    apply = relations.global_apply

    def counting(name, x):
        calls.append(name)
        return apply(name, x)

    monkeypatch.setattr(relations, "global_apply", counting)
    with pytest.raises(ResourceCapExceeded, match=r"\(k=1, n=2000\) exceeded cap"):
        cantor_certificate(1, 2000)
    assert 0 < len(calls) < 2000


def test_certificate_catches_a_dropped_letter(monkeypatch, capsys):
    # the words are counted on the literal maps and the recurrence reads the
    # letter table, so a table that lost a letter no longer matches; every
    # right branching stays >= 2, so only the count comparison sees it
    clean = cantor_certificate(3, 8)
    table = itinerary.letters_with_domain  # planted defect: no up-letter at d >= 5
    monkeypatch.setattr(
        itinerary,
        "letters_with_domain",
        lambda d: tuple(lt for lt in table(d) if d < 5 or lt.j != 3),
    )
    cert = cantor_certificate(3, 8)
    assert not cert.passed
    assert cert.min_right_branching == 2 and cert.min_left_branching == 3
    assert cert.counts_by_length == clean.counts_by_length
    assert cert.recurrence_counts[-1] < clean.recurrence_counts[-1]
    assert main(["verify", "cantor"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [w["k"] for w in report["witnesses"]] == list(range(1, 9))


def test_addresses_walk_matches_words():
    for k in range(1, 18):
        for n in range(1, 8):
            walked = list(iter_addresses(k, n))
            listed = [cantor_address(w) for w in iter_words(k, n)]
            assert walked == listed == sorted(listed), (k, n)


def test_addresses_walk_cap(monkeypatch):
    monkeypatch.setattr(itinerary, "ENUMERATION_CAP", 100)
    walk = iter_addresses(5, 5)  # 242 words
    message = r"^at least 242 addresses \(k=5, n=5\) exceed cap 100$"
    with pytest.raises(ResourceCapExceeded, match=message):
        next(walk)
    assert len(list(iter_addresses(5, 4))) == 81
    with pytest.raises(ValueError):
        next(iter_addresses(1, 0))


def test_slices_and_shifts_skip_the_admissibility_check(monkeypatch):
    calls = []

    def counting(letters):
        calls.append(len(letters))
        return is_admissible(letters)

    p = random_window_point(rng(4), 3, 5)
    w = p.word
    monkeypatch.setattr(itinerary, "is_admissible", counting)
    sub = w.slice(-2, 3)
    moved = (shift(p), unshift(p))
    assert calls == []
    # the trusted words equal the validated ones, which still run the check
    assert sub == Word(w.letters[3:9], -2)
    assert [q.word for q in moved] == [Word(w.letters, -6), Word(w.letters, -4)]
    assert calls == [6, 10, 10]


def test_encoding_positions_order():
    assert encoding_positions(0, 3) == [0, 1, 2, 3]
    assert encoding_positions(-2, 1) == [0, -1, 1, -2]
    # symmetric growth appends, keeping earlier digits fixed
    assert encoding_positions(-3, 2) == encoding_positions(-2, 1) + [2, -3]


def test_address_digits_alphabet():
    for w in iter_words(2, 4):
        assert set(cantor_address(w)) <= {"0", "2"}


def test_addresses_injective_on_equal_length():
    for k in (1, 3):
        words = list(iter_words(k, 6))
        addrs = [cantor_address(w) for w in words]
        assert len(set(addrs)) == len(addrs)


def test_address_extension_preserves_prefix():
    r = rng(3)
    for _ in range(300):
        w = Word(tuple(random_letter_chain(r, 5)))
        addr = cantor_address(w)
        ext = r.choice(letters_with_domain(w.letters[-1].range_index))
        w2 = Word(w.letters + (ext,), w.start)
        assert cantor_address(w2).startswith(addr)


def test_address_symmetric_extension_preserves_prefix():
    r = rng(4)
    for _ in range(300):
        chain = random_letter_chain(r, 4)
        w = Word(tuple(chain), start=-2)
        addr = cantor_address(w)
        right = r.choice(letters_with_domain(w.domain_at(w.stop)))
        left = r.choice(letters_with_range(w.domain_at(w.start)))
        w2 = Word((left,) + w.letters + (right,), w.start - 1)
        assert cantor_address(w2).startswith(addr)


def test_addresses_separated_in_chunk_metric():
    # computed with the chosen block encoding: length-4 words through
    # interval 3 sit at least 3^-12 apart once embedded in their chunk
    words = list(iter_words(3, 4))
    values = sorted(3.0**-3 * address_value(cantor_address(w)) for w in words)
    gaps = [b - a for a, b in zip(values, values[1:])]
    assert min(gaps) >= 3.0**-12


def _cantor_address_reference(word: Word, k: int | None = None) -> str:
    """Verbatim copy of ``cantor_address`` from before it indexed the letter
    tuple directly; the oracle for it."""
    base = word.domain_at(0)
    if k is not None and k != base:
        raise ValueError(f"word has position-0 domain {base}, expected {k}")
    digits: list[str] = []
    for pos in encoding_positions(word.start, word.stop - 1):
        lt = word.letter(pos)
        if pos == 0:
            candidates = letters_with_domain(base)
        elif pos > 0:
            candidates = letters_with_domain(word.letter(pos - 1).range_index)
        else:
            candidates = letters_with_range(word.domain_at(pos + 1))
        rank = candidates.index(lt)
        digits.append(_BLOCKS_2[rank] if len(candidates) == 2 else _BLOCKS_3[rank])
    return "".join(digits)


def test_cantor_address_matches_reference_exhaustively():
    for k in range(1, 6):
        for n in range(1, 8):
            for start in range(1 - n, 1):
                for w in iter_words(k, n, start=start):
                    assert cantor_address(w) == _cantor_address_reference(w, k)
    # position 0 right of the word, or one past its end
    after, at_stop = Word((Letter(2, 2),) * 3, 1), Word((Letter(2, 2),) * 3, -3)
    for codec in (cantor_address, _cantor_address_reference):
        with pytest.raises(IndexError):
            codec(after)
        with pytest.raises(ValueError):
            codec(at_stop)


def _random_word_reference(rng, k: int, *, left: int, right: int) -> Word:
    """Verbatim copy of ``random_word`` from before it drew its left run
    by appending; the oracle for it."""
    if right < 1 or left < 0:
        raise ValueError("need right >= 1 and left >= 0")
    chain = [rng.choice(letters_with_domain(k))]
    for _ in range(right - 1):
        chain.append(rng.choice(letters_with_domain(chain[-1].range_index)))
    for _ in range(left):
        chain.insert(0, rng.choice(letters_with_range(chain[0].domain_index)))
    return Word(tuple(chain), -left)


def test_random_word_matches_reference():
    # equal words and an equal next draw: the same rng calls were made
    for seed in range(3):
        for k in range(1, 7):
            for left in range(9):
                for right in range(1, 9):
                    r, r_ref = rng(seed), rng(seed)
                    got = random_word(r, k, left=left, right=right)
                    assert got == _random_word_reference(r_ref, k, left=left, right=right)
                    assert r.random() == r_ref.random()
    for sampler in (random_word, _random_word_reference):
        with pytest.raises(ValueError):
            sampler(rng(0), 2, left=-1, right=1)
        with pytest.raises(ValueError):
            sampler(rng(0), 2, left=0, right=0)


def test_address_value_examples():
    assert address_value("") == 0.0
    assert address_value("2") == 2 / 3
    assert address_value("02") == 2 / 9
    with pytest.raises(ValueError):
        address_value("1")


# samples with no exact cube or square among them, plus both endpoints
_SAMPLED_U = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


@pytest.mark.parametrize("d", range(1, 9))
def test_exponent_steps_name_each_letter_piece(d):
    # steps == (0, 0) exactly when the piece is the identity on sampled u;
    # (0, 1) is the cube root and (1, 0) the square, forward and inverse
    for lt in letters_with_domain(d):
        forward = [lt.piece(u) for u in _SAMPLED_U]
        inverse = [lt.piece(u, inverse=True) for u in _SAMPLED_U]
        identity = forward == list(_SAMPLED_U) == inverse
        assert (lt.steps == (0, 0)) == identity, lt
        if lt.steps == (0, 1):
            assert forward == pytest.approx([u ** (1 / 3) for u in _SAMPLED_U])
            assert inverse == pytest.approx([u**3 for u in _SAMPLED_U])
        elif lt.steps == (1, 0):
            assert forward == pytest.approx([u**2 for u in _SAMPLED_U])
            assert inverse == pytest.approx([u**0.5 for u in _SAMPLED_U])
        else:
            assert lt.steps == (0, 0), lt
    # and the converse: only the stay-letters of intervals 1 and 2 bend
    bends = {lt: lt.steps for lt in letters_with_domain(d) if lt.steps != (0, 0)}
    assert bends == {1: {Letter(1, 2): (0, 1)}, 2: {Letter(2, 2): (1, 0)}}.get(d, {})
