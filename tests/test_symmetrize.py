import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hieralign.symmetrize import grow_diag_final_and, grow_diag_pairs, intersect, union_links


def random_links(rng, n, m, density=0.25):
    return {
        (j, i) for j in range(n) for i in range(m) if rng.random() < density
    }


def test_identical_inputs_passthrough():
    links = {(0, 0), (1, 2), (3, 1)}
    assert intersect(links, links) == links
    assert union_links(links, links) == links
    assert grow_diag_final_and(links, links, 4, 3) == links


def test_disjoint_inputs():
    a = {(0, 0)}
    b = {(2, 2)}
    assert intersect(a, b) == set()
    assert union_links(a, b) == {(0, 0), (2, 2)}


def test_grow_diag_adds_adjacent_union_link():
    a_fwd = {(0, 0), (1, 1)}
    a_rev = {(0, 0)}
    assert grow_diag_final_and(a_fwd, a_rev, 2, 2) == {(0, 0), (1, 1)}


def test_no_seed_no_growth():
    a_fwd = {(0, 1)}
    a_rev = {(1, 0)}
    assert grow_diag_final_and(a_fwd, a_rev, 2, 2) == set()


def test_growth_reaches_chains():
    # Union forms a connected diagonal chain from the single seed.
    a_fwd = {(0, 0), (1, 1), (2, 2)}
    a_rev = {(0, 0)}
    assert grow_diag_final_and(a_fwd, a_rev, 3, 3) == {(0, 0), (1, 1), (2, 2)}


def test_sandwich_property():
    rng = random.Random(97)
    for _ in range(1000):
        n = rng.randint(1, 10)
        m = rng.randint(1, 10)
        a_fwd = random_links(rng, n, m)
        a_rev = random_links(rng, n, m)
        merged = grow_diag_final_and(a_fwd, a_rev, n, m)
        assert intersect(a_fwd, a_rev) <= merged
        assert merged <= union_links(a_fwd, a_rev)


def test_deterministic_in_input_order():
    rng = random.Random(101)
    for _ in range(50):
        n = m = 6
        a_fwd = random_links(rng, n, m)
        a_rev = random_links(rng, n, m)
        first = grow_diag_final_and(a_fwd, a_rev, n, m)
        shuffled_fwd = list(a_fwd)
        shuffled_rev = list(a_rev)
        rng.shuffle(shuffled_fwd)
        rng.shuffle(shuffled_rev)
        assert grow_diag_final_and(set(shuffled_fwd), set(shuffled_rev), n, m) == first


def test_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        grow_diag_final_and({(2, 0)}, set(), 2, 2)


@pytest.mark.parametrize("a_fwd, a_rev, n, m, message", [
    ({(2, 0)}, set(), 2, 2, "forward link (2, 0) outside 2x2 pair"),
    ({(0, 0)}, {(0, 3)}, 2, 3, "reverse link (0, 3) outside 2x3 pair"),
    ({(-1, 0)}, {(0, 0)}, 2, 3, "forward link (-1, 0) outside 2x3 pair"),
    (set(), {(0, 0)}, 0, 3, "reverse link (0, 0) outside 0x3 pair"),
])
def test_out_of_bounds_names_the_side_and_the_pair(a_fwd, a_rev, n, m, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        grow_diag_final_and(a_fwd, a_rev, n, m)


def test_no_pairs_give_no_link_sets():
    assert grow_diag_pairs([], []) == []


@st.composite
def link_batches(draw):
    """(forward links, reverse links, n, m) of 1-6 pairs: sides 0-7 words, any
    link sets (many links per word included), some pairs with equal directions."""
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        n, m = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)) if n and m else st.nothing()
        a_fwd = draw(st.sets(cell))
        a_rev = set(a_fwd) if draw(st.booleans()) else draw(st.sets(cell))
        batch.append((a_fwd, a_rev, n, m))
    return batch


@settings(max_examples=300)
@given(link_batches())
def test_corpus_grow_diag_equals_the_set_loop(batch):
    want = [oracles.reference_grow_diag(a_fwd, a_rev) for a_fwd, a_rev, _, _ in batch]
    assert grow_diag_pairs([a_fwd for a_fwd, *_ in batch], [a_rev for _, a_rev, *_ in batch]) == want
    assert [grow_diag_final_and(*sides) for sides in batch] == want
