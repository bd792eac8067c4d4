import random

import oracles
from hieralign.corpus import SentencePair
from hieralign.phrase import (
    extract_spans,
    phrase_strings,
    phrase_table,
)


def brute_force_spans(n, m, links, max_len, tight=False):
    """Reference extraction straight from the consistency definition."""
    links = set(links)
    aligned_src = {j for j, _ in links}
    aligned_tgt = {i for _, i in links}
    out = set()
    for j0 in range(n):
        for j1 in range(j0 + 1, min(j0 + max_len, n) + 1):
            for i0 in range(m):
                for i1 in range(i0 + 1, min(i0 + max_len, m) + 1):
                    inside = {(j, i) for j, i in links if j0 <= j < j1 and i0 <= i < i1}
                    if not inside:
                        continue
                    if not oracles.is_consistent((j0, j1), (i0, i1), links):
                        continue
                    if tight and not (
                        j0 in aligned_src
                        and (j1 - 1) in aligned_src
                        and i0 in aligned_tgt
                        and (i1 - 1) in aligned_tgt
                    ):
                        continue
                    out.add(((j0, j1), (i0, i1)))
    return out


def test_monotone_2x2():
    pair = SentencePair((1, 2), (1, 2), 0)
    got = extract_spans(pair.n, pair.m, {(0, 0), (1, 1)}, max_len=2)
    assert got == {((0, 1), (0, 1)), ((1, 2), (1, 2)), ((0, 2), (0, 2))}


def test_swapped_2x2():
    pair = SentencePair((1, 2), (1, 2), 0)
    got = extract_spans(pair.n, pair.m, {(0, 1), (1, 0)}, max_len=2)
    assert got == {((0, 1), (1, 2)), ((1, 2), (0, 1)), ((0, 2), (0, 2))}


def test_fully_linked_2x2():
    pair = SentencePair((1, 2), (1, 2), 0)
    got = extract_spans(pair.n, pair.m, {(0, 0), (0, 1), (1, 0), (1, 1)}, max_len=2)
    assert got == {((0, 2), (0, 2))}


def test_empty_alignment_extracts_nothing():
    pair = SentencePair((1, 2), (1, 2), 0)
    assert extract_spans(pair.n, pair.m, set()) == set()


def test_monotone_closed_form():
    for n in range(1, 11):
        for max_len in (7, n, 3):
            links = {(k, k) for k in range(n)}
            got = extract_spans(n, n, links, max_len=max_len)
            cap = min(max_len, n)
            want = cap * (n + 1) - cap * (cap + 1) // 2
            assert len(got) == want, (n, max_len)


def test_matches_brute_force_with_extension():
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(1, 7)
        m = rng.randint(1, 7)
        links = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(0, 8))}
        got = extract_spans(n, m, links, max_len=4)
        want = brute_force_spans(n, m, links, max_len=4)
        assert got == want


def test_matches_brute_force_tight():
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randint(1, 7)
        m = rng.randint(1, 7)
        links = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(0, 8))}
        got = extract_spans(n, m, links, max_len=4, unaligned_extension=False)
        want = brute_force_spans(n, m, links, max_len=4, tight=True)
        assert got == want


def test_unaligned_extension_grows_set():
    # Target word 1 is unaligned; extension also emits spans covering it.
    links = {(0, 0), (1, 2)}
    with_ext = extract_spans(2, 3, links, max_len=3)
    without = extract_spans(2, 3, links, max_len=3, unaligned_extension=False)
    assert without < with_ext
    assert ((0, 1), (0, 2)) in with_ext
    assert ((0, 1), (0, 2)) not in without


def test_every_pair_has_link_and_respects_max_len():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        links = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(0, 10))}
        for (j0, j1), (i0, i1) in extract_spans(n, m, links, max_len=3):
            assert j1 - j0 <= 3 and i1 - i0 <= 3
            assert any(j0 <= j < j1 and i0 <= i < i1 for j, i in links)


def test_consistency_antitone_in_links():
    rng = random.Random(59)
    for _ in range(200):
        n = m = 6
        links = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(0, 8))}
        extra = {(rng.randrange(n), rng.randrange(m)) for _ in range(3)}
        spans = [
            ((j0, j1), (i0, i1))
            for j0 in range(n)
            for j1 in range(j0 + 1, n + 1)
            for i0 in range(m)
            for i1 in range(i0 + 1, m + 1)
        ]
        for src_span, tgt_span in spans:
            if oracles.is_consistent(src_span, tgt_span, links | extra):
                assert oracles.is_consistent(src_span, tgt_span, links)


def test_phrase_table_size_distinct():
    bitext = [(["a", "b"], ["x", "y"])] * 2
    alignments = [{(0, 0), (1, 1)}] * 2
    assert len(phrase_table(bitext, alignments, max_len=2)) == 3


def test_phrase_strings():
    got = phrase_strings(["a", "b"], ["x", "y"], {(0, 0), (1, 1)}, max_len=2)
    assert got == {("a", "x"), ("b", "y"), ("a b", "x y")}
