import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hieralign import parser
from hieralign.alignio import format_alignment
from hieralign.parser import (
    GROUP_PAIRS,
    GROUP_SPLITS,
    INVERTED,
    SLICE,
    STRAIGHT,
    Block,
    SplitStep,
    leaf_links,
    lockstep_groups,
    parse_matrices,
    project,
    top_down_parse,
)
from hieralign.softmatrix import SoftMatrix
from oracles import ParserState, asso, cut, f_avg, is_terminal_block, ncut, next_states, sub_blocks

HAND = SoftMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))


def random_matrix(rng, n, m):
    return SoftMatrix(oracles.random_soft_weights(rng, n, m))


def root_state(matrix):
    return ParserState((Block(0, matrix.n, 0, matrix.m),), (), (), 0.0, ())


# --- asso / cut / ncut / f_avg ---

def test_asso_uniform_full_block():
    matrix = SoftMatrix(np.full((2, 2), 0.5))
    assert asso(matrix, (0, 2), (0, 2)) == pytest.approx(2.0)


def test_asso_single_cell():
    assert asso(HAND, (1, 2), (0, 1)) == pytest.approx(0.1)


def test_asso_matches_direct_summation():
    rng = np.random.default_rng(17)
    weights = oracles.random_soft_weights(rng, 5, 7)
    matrix = SoftMatrix(weights)
    for j0 in range(6):
        for j1 in range(j0, 6):
            for i0 in range(8):
                for i1 in range(i0, 8):
                    want = oracles.direct_asso(weights, j0, j1, i0, i1)
                    assert asso(matrix, (j0, j1), (i0, i1)) == pytest.approx(want, abs=1e-12)


def test_cut_hand_values():
    block = Block(0, 2, 0, 2)
    assert cut(HAND, block, SplitStep(1, 1, STRAIGHT)) == pytest.approx(0.2)
    assert cut(HAND, block, SplitStep(1, 1, INVERTED)) == pytest.approx(1.8)


def test_cut_partition_identity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n, m = rng.integers(2, 8, size=2)
        matrix = random_matrix(rng, int(n), int(m))
        block = Block(0, int(n), 0, int(m))
        full = asso(matrix, (0, int(n)), (0, int(m)))
        for j in range(1, int(n)):
            for i in range(1, int(m)):
                total = cut(matrix, block, SplitStep(j, i, STRAIGHT)) + cut(
                    matrix, block, SplitStep(j, i, INVERTED)
                )
                assert total == pytest.approx(full, abs=1e-12)


def test_ncut_hand_values():
    block = Block(0, 2, 0, 2)
    assert ncut(HAND, block, SplitStep(1, 1, STRAIGHT)) == pytest.approx(0.2)
    assert ncut(HAND, block, SplitStep(1, 1, INVERTED)) == pytest.approx(1.8)


def test_ncut_uniform_matrix_orientation_symmetric():
    matrix = SoftMatrix(np.full((4, 4), 0.3))
    block = Block(0, 4, 0, 4)
    assert ncut(matrix, block, SplitStep(2, 2, STRAIGHT)) == pytest.approx(
        ncut(matrix, block, SplitStep(2, 2, INVERTED))
    )


def test_f_avg_from_ncut():
    block = Block(0, 2, 0, 2)
    assert f_avg(HAND, block, SplitStep(1, 1, STRAIGHT)) == pytest.approx(0.9)


def test_f_avg_identity_against_independent_f1():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n, m = rng.integers(2, 8, size=2)
        weights = oracles.random_soft_weights(rng, int(n), int(m))
        matrix = SoftMatrix(weights)
        block = Block(0, int(n), 0, int(m))
        for j in range(1, int(n)):
            for i in range(1, int(m)):
                for gamma in (STRAIGHT, INVERTED):
                    step = SplitStep(j, i, gamma)
                    got = f_avg(matrix, block, step)
                    assert got == pytest.approx(1.0 - ncut(matrix, block, step) / 2.0, abs=1e-12)
                    want = oracles.independent_f_avg(
                        weights, 0, int(n), 0, int(m), j, i, gamma == INVERTED
                    )
                    assert got == pytest.approx(want, abs=1e-12)


def test_interior_split_enforced():
    block = Block(0, 2, 0, 2)
    with pytest.raises(ValueError):
        cut(HAND, block, SplitStep(0, 1, STRAIGHT))
    with pytest.raises(ValueError):
        ncut(HAND, block, SplitStep(1, 2, STRAIGHT))


# --- state expansion ---

def test_next_states_counts_2x2():
    successors = next_states(root_state(HAND), HAND)
    assert len(successors) == 2
    assert all(s.is_terminal for s in successors)


def test_next_states_counts_3x3():
    matrix = SoftMatrix(np.full((3, 3), 0.2))
    successors = next_states(root_state(matrix), matrix)
    assert len(successors) == 8


def test_terminal_blocks_never_pushed():
    rng = np.random.default_rng(41)
    matrix = random_matrix(rng, 5, 4)
    frontier = [root_state(matrix)]
    for _ in range(3):
        nxt = []
        for state in frontier:
            if state.is_terminal:
                continue
            for s in next_states(state, matrix):
                assert all(not is_terminal_block(b) for b in s.stack)
                nxt.append(s)
        frontier = nxt[:10]


def test_next_states_requires_non_terminal():
    with pytest.raises(ValueError):
        next_states(ParserState((), (), (), 0.0, ()), HAND)


def test_sub_blocks_orientations():
    block = Block(0, 3, 0, 4)
    left, right = sub_blocks(block, 1, 2, STRAIGHT)
    assert (left, right) == (Block(0, 1, 0, 2), Block(1, 3, 2, 4))
    left, right = sub_blocks(block, 1, 2, INVERTED)
    assert (left, right) == (Block(0, 1, 2, 4), Block(1, 3, 0, 2))


# --- parsing ---

def test_parse_diagonal_3x3():
    weights = np.full((3, 3), 1e-8)
    np.fill_diagonal(weights, 0.9)
    derivation = top_down_parse(SoftMatrix(weights), 10)
    assert project(derivation) == {(0, 0), (1, 1), (2, 2)}


def test_parse_antidiagonal_3x3():
    weights = np.full((3, 3), 1e-8)
    for j in range(3):
        weights[j, 2 - j] = 0.9
    derivation = top_down_parse(SoftMatrix(weights), 10)
    assert project(derivation) == {(0, 2), (1, 1), (2, 0)}


def test_parse_inverted_2x2_projection():
    anti = SoftMatrix(np.array([[1e-8, 0.9], [0.9, 1e-8]]))
    derivation = top_down_parse(anti, 10)
    assert project(derivation) == {(0, 1), (1, 0)}


def test_parse_unsplittable_root():
    derivation = top_down_parse(SoftMatrix(np.full((1, 5), 0.4)), 10)
    assert derivation.steps == ()
    assert derivation.leaves == (Block(0, 1, 0, 5),)
    assert project(derivation) == {(0, i) for i in range(5)}


def test_parse_rejects_zero_beam():
    with pytest.raises(ValueError):
        top_down_parse(HAND, 0)


def test_parse_matches_enumeration_oracle():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n, m = rng.integers(2, 5, size=2)
        weights = oracles.random_soft_weights(rng, int(n), int(m))
        scores = oracles.enumerate_derivation_scores(weights)
        assert len(scores) == oracles.derivation_count(int(n), int(m))
        best = top_down_parse(SoftMatrix(weights), 10000).score
        assert best == pytest.approx(max(scores), abs=1e-9)


def test_beam_monotonicity():
    rng = np.random.default_rng(59)
    for _ in range(30):
        n, m = rng.integers(3, 7, size=2)
        matrix = random_matrix(rng, int(n), int(m))
        scores = [top_down_parse(matrix, k).score for k in (1, 2, 4, 8, 16)]
        for a, b in zip(scores, scores[1:]):
            assert b >= a - 1e-12


def test_projection_covers_everything():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n, m = rng.integers(1, 9, size=2)
        matrix = random_matrix(rng, int(n), int(m))
        links = project(top_down_parse(matrix, 5))
        assert {j for j, _ in links} == set(range(int(n)))
        assert {i for _, i in links} == set(range(int(m)))


def test_leaves_partition_both_axes_and_replay_matches():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n, m = rng.integers(2, 8, size=2)
        matrix = random_matrix(rng, int(n), int(m))
        derivation = top_down_parse(matrix, 8)
        # Each side is consumed exactly once across the leaves (the cut
        # quadrants of each split carry no words of their own).
        src_cover = np.zeros(int(n), dtype=int)
        tgt_cover = np.zeros(int(m), dtype=int)
        for leaf in derivation.leaves:
            src_cover[leaf.j0:leaf.j1] += 1
            tgt_cover[leaf.i0:leaf.i1] += 1
        assert np.all(src_cover == 1)
        assert np.all(tgt_cover == 1)

        # Replay the splits with the same stack discipline.
        stack = [Block(0, int(n), 0, int(m))]
        leaves = []
        for block, step in derivation.steps:
            popped = stack.pop()
            assert popped == block
            left, right = sub_blocks(block, step.j, step.i, step.gamma)
            for sub in (right, left):
                if is_terminal_block(sub):
                    leaves.append(sub)
                else:
                    stack.append(sub)
        assert not stack
        assert set(leaves) == set(derivation.leaves)


def test_parse_agrees_with_reference_beam_search():
    rng = np.random.default_rng(71)
    for _ in range(15):
        n, m = rng.integers(2, 6, size=2)
        matrix = random_matrix(rng, int(n), int(m))
        for beam_k in (1, 3):
            want = reference_beam_parse(matrix, beam_k)
            got = top_down_parse(matrix, beam_k).score
            assert got == pytest.approx(want, abs=1e-12)


def reference_beam_parse(matrix, beam_k):
    """Plain-Python beam search over the reference next_states."""
    root = Block(0, matrix.n, 0, matrix.m)
    if is_terminal_block(root):
        return 0.0
    beam = [root_state(matrix)]
    best = None
    for _ in range(min(matrix.n, matrix.m)):
        pool = []
        for state in beam:
            if not state.is_terminal:
                pool.extend(next_states(state, matrix))
        if not pool:
            break
        for state in pool:
            if state.is_terminal and (best is None or (-state.v, state.seq) < best):
                best = (-state.v, state.seq)
        pool.sort(key=lambda s: (-s.v, s.seq))
        beam = pool[:beam_k]
    return -best[0]


def test_planted_blocks_parse_to_global_optimum():
    # With multi-cell dominant blocks the product objective can legally
    # prefer few thin leaves over boundary-pure derivations (every extra
    # split multiplies in another factor <= 1), so the meaningful check is
    # agreement with exhaustive enumeration, not boundary purity.
    weights = np.full((4, 4), 1e-8)
    weights[0:2, 0:2] = 0.9
    weights[2:4, 2:4] = 0.9
    best_true = max(oracles.enumerate_derivation_scores(weights))
    derivation = top_down_parse(SoftMatrix(weights), 10)
    assert derivation.score == pytest.approx(best_true, abs=1e-9)


def test_parse_deterministic_under_ties():
    matrix = SoftMatrix(np.full((4, 4), 0.25))
    first = top_down_parse(matrix, 7)
    second = top_down_parse(matrix, 7)
    assert first.steps == second.steps
    assert first.score == second.score


def test_scores_never_positive():
    rng = np.random.default_rng(73)
    for _ in range(10):
        matrix = random_matrix(rng, 4, 5)
        assert top_down_parse(matrix, 6).score <= 0.0


def planted_weights(rng, n, m):
    """Near-diagonal matrix: one strong cell per source row, weak noise elsewhere."""
    weights = 1e-4 + 0.01 * rng.random((n, m))
    for j in range(n):
        weights[j, min(m - 1, j * m // n + int(rng.integers(0, 2)))] = 0.9
    return weights


MATRIX_KINDS = {
    "random": lambda rng, n, m: oracles.random_soft_weights(rng, n, m),
    "planted": planted_weights,
    "uniform": lambda rng, n, m: np.full((n, m), 0.3),
    "quarters": lambda rng, n, m: rng.choice([0.25, 0.5], size=(n, m)),
    "sparse": lambda rng, n, m: rng.choice([0.1, 0.9], size=(n, m), p=[0.7, 0.3]),
}


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    kind=st.sampled_from(sorted(MATRIX_KINDS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_parse_equals_reference_loop_exactly(n, m, kind, seed):
    # Exact equality, ties included: the reference expands one state at a
    # time, so this pins both the arithmetic and the tie-break order.
    matrix = SoftMatrix(MATRIX_KINDS[kind](np.random.default_rng(seed), n, m))
    for beam_k in (1, 3, 10):
        got = top_down_parse(matrix, beam_k)
        want = oracles.reference_top_down_parse(matrix, beam_k)
        assert got.steps == want.steps
        assert got.leaves == want.leaves
        assert got.score == want.score


TIED_CASES = [
    (["....", ".x..", "...."], 1),
    (["..x.", "....", ".x.."], 1),
    ([".x..", "x.x.", "...x"], 2),
    (["...", "xx.", ".xx", "..."], 3),
]


def tied_weights(rows):
    return np.array([[0.9 if c == "x" else 0.1 for c in row] for row in rows])


@pytest.mark.parametrize("rows, beam_k", TIED_CASES)
def test_parse_keeps_smallest_sequences_among_tied_scores(rows, beam_k):
    # Equal-scoring states straddle the beam cut here, and which of them
    # are kept decides the result.
    matrix = SoftMatrix(tied_weights(rows))
    got = top_down_parse(matrix, beam_k)
    want = oracles.reference_top_down_parse(matrix, beam_k)
    assert (got.steps, got.leaves, got.score) == (want.steps, want.leaves, want.score)


# The straight split (1, 2) is terminal at the first level with score
# log(1/3). The inverted (1, 2) then (2, 1) reaches exactly that score at
# the second level, and the first, smaller step sequence must stay. The
# 0.9/0.1 weights of TIED_CASES cannot produce such a tie.
TINY = 2.0 ** -60
LATER_TERMINAL_TIE = np.array([[TINY, TINY, TINY], [TINY, 1, 1], [TINY, TINY, TINY]])


def test_later_terminal_tying_the_best_keeps_the_smaller_sequence():
    with np.errstate(all="raise"):
        matrix = SoftMatrix(LATER_TERMINAL_TIE)
        got = top_down_parse(matrix, 10)
        want = oracles.reference_top_down_parse(matrix, 10)
    assert [step for _, step in got.steps] == [SplitStep(1, 2, STRAIGHT)]
    assert got.score == pytest.approx(math.log(1 / 3))
    assert (got.steps, got.leaves, got.score) == (want.steps, want.leaves, want.score)


# --- lockstep groups ---

CHUNK_KINDS = {
    **MATRIX_KINDS,
    "row": lambda rng, n, m: oracles.random_soft_weights(rng, 1, m),
    "column": lambda rng, n, m: oracles.random_soft_weights(rng, n, 1),
}


def assert_each_equals_reference(matrices, beam_k):
    # Each matrix's step rows, leaves, score and Pharaoh line, as the
    # reference derivation gives them; the matrices are one lockstep group.
    got = list(parse_matrices(matrices, beam_k))
    assert len(got) == len(matrices)
    for matrix, (score, steps, leaves) in zip(matrices, got):
        want = oracles.reference_top_down_parse(matrix, beam_k)
        want_steps = [[b.j0, b.j1, b.i0, b.i1, step.j, step.i, step.gamma] for b, step in want.steps]
        want_leaves = [[b.j0, b.j1, b.i0, b.i1] for b in want.leaves]
        assert (steps.tolist(), leaves, score) == (want_steps, want_leaves, want.score)
        # The links come out in Pharaoh order, so the line needs no sort.
        assert leaf_links(leaves) == sorted(project(want))
        assert format_alignment(leaf_links(leaves)) == format_alignment(project(want))


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(sorted(CHUNK_KINDS)), st.integers(1, 8), st.integers(1, 8),
                  st.integers(0, 2**32 - 1)),
        min_size=1, max_size=40,
    ),
    bound=st.sampled_from([GROUP_SPLITS, 32768, 300, 60]),
    slice_size=st.sampled_from([SLICE, 64, 5]),
    window=st.sampled_from([parser.WINDOW, 100, 1]),
)
def test_parse_matrices_equals_reference_per_matrix(specs, bound, slice_size, window):
    # Pairs parsed in lockstep must come out exactly as each parsed alone:
    # the same arithmetic and the same tie-breaks, in whatever group. The
    # smaller bounds split the list into several groups and leave some
    # matrices over the bound, in groups of their own; the smaller slices
    # cut a level's scoring, pool gather and beam cut into several passes,
    # and the smaller windows expand a level a few pairs at a time.
    matrices = [SoftMatrix(CHUNK_KINDS[kind](np.random.default_rng(seed), n, m)) for kind, n, m, seed in specs]
    with mock.patch.object(parser, "GROUP_SPLITS", bound), mock.patch.object(parser, "SLICE", slice_size), \
            mock.patch.object(parser, "WINDOW", window):
        for beam_k in (1, 3, 10):
            for group in lockstep_groups([(mat.n, mat.m) for mat in matrices], beam_k):
                assert_each_equals_reference([matrices[k] for k in group], beam_k)


def test_parse_matrices_splits_at_the_real_bound():
    rng = np.random.default_rng(97)
    kinds = ["random", "planted", "quarters", "uniform"]
    matrices = [SoftMatrix(MATRIX_KINDS[kinds[k % 4]](rng, 12, 12)) for k in range(40)]
    # The narrowest 12-row matrix that needs more than GROUP_SPLITS candidates
    # at beam 10. Its largest pools hold over a million entries, many slices
    # each; the smallest square one (325 x 325) passes too, but its reference
    # parse takes a second longer.
    width = next(m for m in range(2, 1 << 24) if 10 * 11 * (m - 1) > GROUP_SPLITS)
    matrices.insert(17, SoftMatrix(MATRIX_KINDS["planted"](rng, 12, width)))
    groups = lockstep_groups([(mat.n, mat.m) for mat in matrices], 10)
    assert [17] in groups and len(groups) >= 3
    for group in groups:
        assert_each_equals_reference([matrices[k] for k in group], 10)


def test_tied_matrices_parsed_together():
    # The tie cases above, many times over in full groups, between
    # matrices that have no ties.
    rng = np.random.default_rng(101)
    tied = [SoftMatrix(tied_weights(rows)) for rows, _ in TIED_CASES] + [SoftMatrix(LATER_TERMINAL_TIE)]
    matrices = []
    for _ in range(24):
        matrices += [random_matrix(rng, *rng.integers(2, 7, size=2)), *tied]
    assert len(matrices) - 24 > 100
    for beam_k in (1, 2, 3, 10):
        groups = lockstep_groups([(mat.n, mat.m) for mat in matrices], beam_k)
        assert [len(group) for group in groups[:-1]] == [GROUP_PAIRS] * (len(matrices) // GROUP_PAIRS)
        for group in groups:
            assert_each_equals_reference([matrices[k] for k in group], beam_k)


def test_each_block_is_scored_once_per_level():
    # Two identical matrices in one group are still two pairs: each gets
    # its own blocks, and a level scores each of its blocks once.
    rng = np.random.default_rng(103)
    twin = random_matrix(rng, 7, 6)
    matrices = [twin, random_matrix(rng, 5, 8), SoftMatrix(tied_weights(TIED_CASES[3][0])), twin]
    assert len(lockstep_groups([(mat.n, mat.m) for mat in matrices], 10)) == 1
    score_blocks = parser._score_blocks
    calls = []

    def record(prefix, blocks, sizes, first, logf, term):
        # A block is named by the flat positions of its two prefix corners,
        # (row0 + i0, row1 + i1).
        calls.append(list(zip((blocks[0] + blocks[3]).tolist(), (blocks[1] + blocks[4]).tolist())))
        score_blocks(prefix, blocks, sizes, first, logf, term)

    with mock.patch.object(parser, "_score_blocks", record):
        assert_each_equals_reference(matrices, 10)
    for scored in calls:
        assert len(scored) == len(set(scored))
    scored = [block for call in calls for block in call]
    base = np.cumsum([0] + [(mat.n + 1) * (mat.m + 1) for mat in matrices]).tolist()

    def blocks_of(k):
        """Pair k's scored blocks, by corner positions in its own prefix table."""
        return {(a - base[k], b - base[k]) for a, b in scored if base[k] <= a < base[k + 1]}

    assert (0, twin.n * (twin.m + 1) + twin.m) in blocks_of(0)
    assert blocks_of(0) == blocks_of(3)


def test_sliced_scores_equal_one_gather():
    # Slices of 1, 5 and 64 splits cut through blocks, and blocks of up to
    # 64 splits span several slices; every score is the one-gather score.
    rng = np.random.default_rng(107)
    matrices = [random_matrix(rng, 9, 9), random_matrix(rng, 7, 6), SoftMatrix(tied_weights(TIED_CASES[3][0])),
                random_matrix(rng, 5, 8)]
    search = parser._Lockstep(matrices, 3)
    for level in range(4):
        live = search.depth.nonzero()[0]
        pair, top = search.pair[live], search.stack[live, search.depth[live] - 1]
        size = (top[:, 1] - top[:, 0] - 1).astype(np.int64) * (top[:, 3] - top[:, 2] - 1)
        search._reserve(2 * int(size.sum()))
        with mock.patch.object(parser, "SLICE", 1 << 30):
            # Copies: the scores are views of the window buffers, which
            # are then overwritten with values no slice may leave behind.
            want = [found.copy() for found in search._scores(pair, top, size)]
        if level == 0:
            assert want[0].size > 2 * 64
        for slice_size in (1, 5, 64):
            search.scores.fill(np.nan)
            search.term[:want[1].size] = ~want[1]
            with mock.patch.object(parser, "SLICE", slice_size):
                got = search._scores(pair, top, size)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        search._level(level, live)


def traced_search(matrices, beam_k):
    """Traced peak of a lockstep search of matrices, its resident bytes,
    and the windows and levels it expanded.

    Resident is what the search keeps across levels: the integral images,
    the trail, and two levels' beams of beam_k states per pair, each a
    stack row plus pair, score and depth.
    """
    window = parser._Lockstep._window
    passes = []

    def record(self, level, *args):
        passes.append(level)
        return window(self, level, *args)

    with mock.patch.object(parser._Lockstep, "_window", record):
        tracemalloc.start()
        try:
            search = parser._Lockstep(matrices, beam_k)
            list(search.run())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    beams = 2 * beam_k * len(matrices) * (search.stack.shape[1] * 16 + 24)
    resident = search.prefix.nbytes + sum(parent.nbytes + rows.nbytes for parent, rows in search.trail) + beams
    return peak, resident, len(passes), len(set(passes))


def test_lockstep_memory_is_bounded_by_the_window():
    # A group of long-corpus shapes whose levels pool up to three windows
    # of candidates. The parse's traced peak is the window buffers (about
    # 18 bytes per candidate), one slice's temporaries (about 150 bytes per
    # split) and the resident bytes. Doubling the group doubles every
    # level's pool, and raises the peak by no more than the added resident
    # bytes; a peak that followed the pool would rise by 7 MB.
    rng = np.random.default_rng(109)
    matrices = [random_matrix(rng, *rng.integers(20, 41, size=2)) for _ in range(60)]
    assert len(lockstep_groups([(mat.n, mat.m) for mat in matrices], 10)) == 1
    peak, resident, windows, levels = traced_search(matrices, 10)
    assert windows > levels
    assert peak < 32 * parser.WINDOW + 160 * SLICE + resident
    twice_peak, twice_resident, twice_windows, _ = traced_search(matrices + matrices, 10)
    assert twice_windows > windows
    assert twice_peak - peak <= twice_resident - resident


@pytest.mark.parametrize("window", [1, 300, parser.WINDOW])
def test_window_size_cannot_change_results(window):
    # Tied and random matrices in one group, parsed one pair per window,
    # a few pairs per window (where the 20 x 18 pair pools more candidates
    # than the window alone) and all in one window.
    rng = np.random.default_rng(113)
    tied = [SoftMatrix(tied_weights(rows)) for rows, _ in TIED_CASES] + [SoftMatrix(LATER_TERMINAL_TIE)]
    matrices = []
    for n, m in [(3, 4), (20, 18), (6, 6), (2, 9), (13, 15)]:
        matrices += [random_matrix(rng, n, m), *tied]
    assert 2 * 19 * 17 > 300
    with mock.patch.object(parser, "WINDOW", window):
        for beam_k in (1, 3, 10):
            assert_each_equals_reference(matrices, beam_k)


def test_lockstep_groups_are_consecutive_runs_within_the_bound():
    # A run of small shapes longer than GROUP_PAIRS sits among shapes that
    # overflow GROUP_SPLITS alone or together at the larger beams.
    shapes = [(3, 4), (1, 9), (8, 1), (30, 30), *[(2, 3)] * (2 * GROUP_PAIRS + 5), (5, 5), (2, 2), (60, 60), (4, 4)]
    for beam_k in (1, 10, 200):
        groups = lockstep_groups(shapes, beam_k)
        assert [k for group in groups for k in group] == list(range(len(shapes)))
        assert max(len(group) for group in groups) == GROUP_PAIRS
        for group in groups:
            load = sum(beam_k * (shapes[k][0] - 1) * (shapes[k][1] - 1) for k in group)
            assert load <= GROUP_SPLITS or len(group) == 1
        for left, right in zip(groups, groups[1:]):
            # Each run stops only where it is full or the next shape would overflow it.
            load = sum(beam_k * (shapes[k][0] - 1) * (shapes[k][1] - 1) for k in left + right[:1])
            assert len(left) == GROUP_PAIRS or load > GROUP_SPLITS


def test_parse_matrices_of_nothing():
    assert list(parse_matrices([], 10)) == []
    with pytest.raises(ValueError):
        parse_matrices([], 0)


# --- exact search ---

def test_exact_dp_matches_enumeration():
    rng = np.random.default_rng(79)
    for n in range(1, 5):
        for m in range(1, 5):
            for _ in range(3):
                weights = oracles.random_soft_weights(rng, n, m)
                want = max(oracles.enumerate_derivation_scores(weights))
                assert oracles.exact_best_score(weights) == pytest.approx(want, abs=1e-12)


def test_beam_never_beats_exact_dp():
    rng = np.random.default_rng(83)
    for kind in ("random", "planted"):
        for _ in range(8):
            n, m = (int(x) for x in rng.integers(6, 11, size=2))
            weights = MATRIX_KINDS[kind](rng, n, m)
            best = oracles.exact_best_score(weights)
            assert top_down_parse(SoftMatrix(weights), 10).score <= best + 1e-9


def test_wide_beam_equals_exact_dp():
    # 10000 exceeds the 7652 derivations of a 6 x 6 block, so nothing is pruned.
    assert oracles.derivation_count(6, 6) < 10000
    rng = np.random.default_rng(89)
    for _ in range(20):
        n, m = (int(x) for x in rng.integers(2, 7, size=2))
        weights = MATRIX_KINDS["random" if rng.random() < 0.5 else "planted"](rng, n, m)
        best = oracles.exact_best_score(weights)
        assert top_down_parse(SoftMatrix(weights), 10000).score == pytest.approx(best, abs=1e-9)
