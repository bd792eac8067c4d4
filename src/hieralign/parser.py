"""Top-down beam-search BTG parsing of a soft matrix.

A parse recursively bipartitions the matrix block ([j0,j1),[i0,i1)) at a
split point (j, i) with orientation straight (diagonal sub-blocks aligned)
or inverted (anti-diagonal sub-blocks aligned). Each split is scored by
the mean F1 of its two aligned sub-blocks, which equals 1 - Ncut/2; a
derivation's score is the sum of log scores over its splits. Blocks with
one source or one target word are terminal and project to cross-product
links, which makes the final alignment many-to-many with every word
covered.

The search is level-synchronous: every state at level l holds exactly l
splits, one block is expanded per level (the top of the stack), and the
best beam_k successors survive. All terminal states ever generated compete
for the final argmax. Ties break on (score, then lexicographically
smallest step sequence by (j, i, straight < inverted)).

Several matrices are searched in lockstep, level by level as arrays, with
each matrix's candidates cut to its own beam; the result for a matrix is
the same as when it is searched alone. A level is expanded one window of
whole matrices at a time, so its working arrays are sized by WINDOW, not
by the group. A group's block sums come from integral images of its
weights, built once in one flat array. The search
keeps every step it takes, block and split, so each winner's steps and
leaves are read back from it: leaves as plain ints, steps as an int
array that only top_down_parse turns into objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

STRAIGHT = 0
INVERTED = 1

# Scores are accumulated as sums of logs; F_avg is floored before the log.
F_AVG_FLOOR = 1e-300

# A lockstep group of matrices expands at most this many splits per level,
# beam_k * sum((n - 1) * (m - 1)), each in two orientations, and a matrix
# over the bound is parsed alone. It bounds the group's soft matrices and
# integral images (8 bytes per cell) and how many windows a level takes;
# WINDOW, not it, bounds a level's pool. At 1 << 20 the 60 pairs of 20-40
# words of perfbench's long corpus run as one group of 39 levels, not 5
# groups of 193 at 131072, and the benchmark's peak RSS moved by under
# 0.1%. A matrix's result does not depend on its group, so these are
# constants rather than tuning knobs.
GROUP_SPLITS = 1 << 20

# A lockstep group also holds at most this many matrices. It bounds the
# beam and the trail the group keeps, beam_k states per matrix and level.
# Parsing all 800 pairs of perfbench's short corpus as one group, not 7,
# raised its peak RSS from 36.6 to 41.7-42.1 MB in every run measured.
# That group's levels pool at most 103,156 candidates, one window, so
# windows do not change it.
GROUP_PAIRS = 128

# Positions per slice of a window's block scoring (about 150 bytes of
# temporaries per split) and of the passes over its pool. No value depends
# on the slice it was computed in.
SLICE = 16384

# A level is expanded one window of consecutive whole pairs at a time: a
# window holds pairs whose candidates together number at most WINDOW, and a
# pair with more forms its own window. It bounds a level's block scores,
# terminal flags, pool and cut mask, about 18 bytes per candidate, in
# buffers a group reuses for every window: arrays made afresh per window
# cost page faults. On perfbench's long corpus, whose first level pools
# 397,082 candidates, 1 << 17 took the benchmark's peak RSS from 48.0 to
# 42.7 MB; 1 << 18 took it only to about 46 MB. No value depends on the
# window it was found in.
WINDOW = 1 << 17


@dataclass(frozen=True)
class Block:
    """Half-open source span [j0, j1) times target span [i0, i1)."""

    j0: int
    j1: int
    i0: int
    i1: int

    def __post_init__(self):
        if not (0 <= self.j0 < self.j1 and 0 <= self.i0 < self.i1):
            raise ValueError(f"degenerate block {self}")


@dataclass(frozen=True)
class SplitStep:
    """Interior split at source j, target i (absolute), with orientation gamma."""

    j: int
    i: int
    gamma: int


@dataclass(frozen=True)
class Derivation:
    """Ordered split steps plus the terminal blocks they produced."""

    steps: tuple
    leaves: tuple
    n: int
    m: int
    score: float


def _halves(block, j, i, gamma):
    """(left, right) sub-blocks of a split of a (j0, j1, i0, i1) tuple;
    left holds source span [j0, j)."""
    j0, j1, i0, i1 = block
    if gamma == STRAIGHT:
        return (j0, j, i0, i), (j, j1, i, i1)
    return (j0, j, i, i1), (j, j1, i0, i)


def _score_blocks(prefix, blocks, sizes, first, logf, term):
    """Log F_avg and terminal flags of interior splits of each block, into logf and term.

    blocks is an int array with one column per block and the rows
    (row0, row1, stride, i0, i1, width, start, last): the block
    ([j0, j1), [i0, i1)) of a matrix whose prefix table rows j0 and j1
    begin at row0 and row1 of the flat array prefix, rows stride apart.
    width = i1 - i0 - 1, last = j1 - j0 - 2, and start is the position of
    the block's first split among all the splits laid out block by block,
    each block's in (j, i) order. The splits at positions first, first + 1,
    ... are scored, sizes[k] of them in block k, in one flattened gather
    into the float and bool arrays logf and term, indexed [split, gamma].
    term marks the splits whose two aligned sub-blocks are both terminal.
    """
    row0, row1, stride, i0, i1, width, start, last = np.repeat(blocks, sizes, axis=1)
    jj, ii = np.divmod(np.arange(first, first + row0.size, dtype=blocks.dtype) - start, width)
    # A split is terminal when both of its aligned sub-blocks have one
    # source or one target word: x, xb, y or yb of length 1.
    y = np.array([ii == 0, ii == width - 1])
    np.logical_and((jj == 0) | y, (jj == last) | y[::-1], out=term.T)
    rows = np.array([row0, row0 + (jj + 1) * stride, row1])
    cols = np.array([i0, i0 + ii + 1, i1])
    del row0, row1, stride, i0, i1, width, start, last, jj, ii

    # The split cuts its block into four sub-blocks a[r, c]: source half r
    # (x = [j0, j), xb = [j, j1)) by target half c (y = [i0, i), yb = [i, i1)),
    # each summed from the prefix at the corners rows x cols.
    corner = prefix[rows[:, None] + cols]
    del rows, cols
    a = corner[1:, 1:] - corner[:-1, 1:]
    a -= corner[1:, :-1]
    a += corner[:-1, :-1]
    del corner
    # Rows from here on are [straight, inverted]. Straight aligns xy with
    # xbyb, inverted xyb with xby: a[0] holds the first aligned sub-block,
    # a[1, ::-1] the second, and the cut c is the sum of the other two.
    c = a[0, ::-1] + a[1]
    ncut = c / (c + 2.0 * a[0]) + c / (c + 2.0 * a[1, ::-1])
    np.maximum(1.0 - ncut / 2.0, F_AVG_FLOOR, out=logf.T)
    np.log(logf, out=logf)


def _slices(start, end, step):
    """Slices of at most step positions of ranges [start, end) laid end to
    end: (a, b, lo, hi, counts) for positions [a, b), which fall in ranges
    lo:hi, counts of them in each."""
    total = int(end[-1])
    for a in range(0, total, step):
        b = min(a + step, total)
        lo, hi = end.searchsorted(a, side="right"), start.searchsorted(b)
        yield a, b, lo, hi, np.minimum(end[lo:hi], b) - np.maximum(start[lo:hi], a)


# Columns of (j0, j1, i0, i1, j, i) that make a split's (left, right)
# sub-blocks, per gamma: _halves applied to the column numbers.
_HALF_COLUMNS = np.array([[c for half in _halves((0, 1, 2, 3), 4, 5, gamma) for c in half]
                          for gamma in (STRAIGHT, INVERTED)])


def _split_halves(rows):
    """(left, right) sub-blocks of the step rows (j0, j1, i0, i1, j, i, gamma)
    of an array [..., column], as an array [..., half, 4], and which of them
    are terminal."""
    straight, inverted = _HALF_COLUMNS
    halves = np.where(rows[..., 6:] == STRAIGHT, rows[..., straight], rows[..., inverted])
    halves = halves.reshape(*rows.shape[:-1], 2, 4)
    terminal = np.minimum(halves[..., 1] - halves[..., 0], halves[..., 3] - halves[..., 2]) == 1
    return halves, terminal


class _Lockstep:
    """Beam search of a group of matrices, all advanced one level at a time.

    The beam states of all the matrices (pairs) are rows of arrays, sorted
    by pair: pair, score v, and a fixed-depth stack of unparsed
    (j0, j1, i0, i1) blocks with its depth. trail keeps, per level, each
    state's parent and last step row (j0, j1, i0, i1, j, i, gamma), as
    int32, from which its steps and leaves are read. A level is expanded
    one window of consecutive whole pairs at a time (see WINDOW). A
    window scores the splits of its distinct top blocks, one per pair and
    block, SLICE splits per gather; nothing scored is kept for later
    windows. A window's pool holds each pair's candidates contiguously,
    parent by parent, then split (j, i), then gamma. It is gathered from
    the scores and cut to the beam SLICE entries at a time. The scores,
    terminal flags, pool and cut mask are views of buffers the group
    reuses for every window and grows only when a window needs more, so
    they are a level's only arrays of their size. Only the kept
    candidates leave a window. States keep their pool order, so within a
    pair pool position is step-sequence order, and ties go to the lowest
    position.
    Step sequences are compared only when a terminal ties the best one of
    an earlier level. Two sequences of a pair first differ at a step whose
    block is the same in both, so their rows compare as (j, i, gamma) do.
    """

    def __init__(self, matrices, beam_k):
        self.beam_k = beam_k
        self.pairs = len(matrices)
        self.base = np.array([0, *accumulate((mat.n + 1) * (mat.m + 1) for mat in matrices)])
        self.stride = np.array([mat.m + 1 for mat in matrices])
        # The (n+1) x (m+1) integral images, end to end: table k starts at base[k],
        # rows stride[k] apart; [a, b] sums weights[:a, :b] along rows, then columns.
        self.prefix = np.zeros(self.base[-1])
        for mat, start, end in zip(matrices, self.base.tolist(), self.base[1:].tolist()):
            table = self.prefix[start:end].reshape(mat.n + 1, mat.m + 1)
            table[1:, 1:] = mat.weights.cumsum(axis=1).cumsum(axis=0)
        self.edges = np.arange(self.pairs + 1)
        self.pair = self.edges[:-1]
        self.v = np.zeros(self.pairs)
        # The blocks on a stack are disjoint and at least 2 x 2; one spare
        # slot takes the writes of halves that are not pushed.
        height = max(min(mat.n, mat.m) for mat in matrices) // 2 + 1
        self.stack = np.zeros((self.pairs, height, 4), dtype=np.int32)
        self.stack[:, 0] = [(0, mat.n, 0, mat.m) for mat in matrices]
        self.depth = np.ones(self.pairs, dtype=np.int64)
        self.trail = []
        self.best_v = np.full(self.pairs, -np.inf)
        # (level, parent state, step row) of each pair's best terminal; level -1 before one is found
        self.best = np.full((self.pairs, 9), -1)
        # The window buffers: block scores and terminal flags, pool and cut
        # mask, grown by _reserve.
        self.scores = self.pool = np.empty(0)
        self.term = self.keep = np.empty(0, dtype=bool)

    def run(self):
        """Search every level; then yield each pair's best (score, step rows, leaves)."""
        level = 0
        live = self.pair
        while live.size:
            self._level(level, live)
            level += 1
            live = self.depth.nonzero()[0]
        if (self.best[:, 0] < 0).any():
            raise RuntimeError("beam search ended without a terminal state")
        yield from zip(self.best_v.tolist(), *self._sequences(self.best))

    def _sequences(self, ends):
        """Step rows and leaves of the rows (level, state, step row) of ends.

        An end's step rows (j0, j1, i0, i1, j, i, gamma) are its state's,
        read back through the trail, then its own; its leaves are the
        terminal halves of those steps, left first. Per end, the step rows
        are an int array (steps, 7) and the leaves a list of lists of ints.
        """
        level, state = ends[:, 0], ends[:, 1].copy()
        # Rows past an end's level stay zero: their halves are empty, not terminal.
        rows = np.zeros((len(ends), level.max() + 1, 7), dtype=np.int64)
        rows[np.arange(len(ends)), level] = ends[:, 2:]
        for back in reversed(range(level.max())):
            at = (level > back).nonzero()[0]
            parent, step = self.trail[back]
            rows[at, back] = step[state[at]]
            state[at] = parent[state[at]]
        halves, terminal = _split_halves(rows)
        leaves = halves[terminal].tolist()
        edges = [0, *accumulate(terminal.sum(axis=(1, 2)).tolist())]
        return ([steps[:n + 1] for steps, n in zip(rows, level.tolist())],
                [leaves[a:b] for a, b in zip(edges, edges[1:])])

    def _scores(self, pair, top, size):
        """Scores of the distinct blocks of top, and each state's first row.

        size is each state's split count. The scores logf and term are
        flat views of the window buffers, indexed [split, gamma], with the
        splits laid out block by block; a state's block starts at row
        first_row of them. They are scored SLICE splits at a time, so a
        block may span slices.
        """
        j0, j1, i0, i1 = top.T.astype(np.int64)
        stride = self.stride[pair]
        row0 = self.base[pair] + j0 * stride
        row1 = row0 + (j1 - j0) * stride
        # A block is keyed by the flat positions of its two prefix corners.
        _, s, inverse = np.unique((row0 + i0) * self.prefix.size + row1 + i1,
                                  return_index=True, return_inverse=True)
        sizes = size[s]
        end = sizes.cumsum()
        start = end - sizes
        # int32 indices: a group's prefix tables would need 16 GB to overflow them.
        blocks = np.array([row0[s], row1[s], stride[s], i0[s], i1[s], i1[s] - i0[s] - 1, start,
                           j1[s] - j0[s] - 2], dtype=np.int32)
        logf = self.scores[:2 * end[-1]].reshape(-1, 2)
        term = self.term[:2 * end[-1]].reshape(-1, 2)
        for a, b, lo, hi, counts in _slices(start, end, SLICE):
            _score_blocks(self.prefix, blocks[:, lo:hi], counts, a, logf[a:b], term[a:b])
        return logf.ravel(), term.ravel(), start[inverse]

    def _reserve(self, entries):
        """Grow the window buffers to hold a window of this many candidates."""
        if entries > self.pool.size:
            self.scores, self.pool = np.empty(entries), np.empty(entries)
            self.term, self.keep = np.empty(entries, dtype=bool), np.empty(entries, dtype=bool)

    def _level(self, level, live):
        """Expand the top block of every live state, one window of pairs at a
        time; the kept candidates become the next level's states."""
        top = self.stack[live, self.depth[live] - 1]
        size = (top[:, 1] - top[:, 0] - 1).astype(np.int64) * (top[:, 3] - top[:, 2] - 1)
        pair = self.pair[live]
        end = (2 * size).cumsum()
        found = []
        a = start = 0
        while a < live.size:
            # A window holds the whole pairs whose candidates end within
            # WINDOW of its start, or else the one pair at its start.
            b = end.searchsorted(start + WINDOW, side="right")
            if b < live.size:
                b = max(pair.searchsorted(pair[b]), pair.searchsorted(pair[a], side="right"))
            # Room for the level's pool up to WINDOW, not just this window:
            # growing to each larger window made six fresh allocations, not
            # two, on perfbench's long corpus at seed 7, and its peak RSS
            # rose by 0.85 MB.
            self._reserve(max(end[b - 1] - start, min(end[-1], WINDOW)))
            found.append(self._window(level, live[a:b], top[a:b], size[a:b]))
            a, start = b, end[b - 1]
        parent, block, v = (np.concatenate(arrays) for arrays in zip(*found))

        # Each kept entry becomes a state: its parent's stack without the
        # top block, then the split's non-terminal halves, right first.
        index = np.arange(parent.size)
        halves, terminal = _split_halves(block)
        stack = self.stack[parent]
        height = self.depth[parent] - 1
        for h in (1, 0):
            stack[index, height] = halves[:, h]
            height += ~terminal[:, h]
        self.trail.append((parent.astype(np.int32), block))
        self.pair = self.pair[parent]
        self.v = v
        self.stack = stack
        self.depth = height

    def _window(self, level, live, top, size):
        """Expand the top blocks of the live states of a window of whole
        pairs and cut each pair's pool; return the kept candidates' parent
        states, step rows and scores."""
        k = self.beam_k
        pair = self.pair[live]
        depth = self.depth[live]
        logf, term, first_row = self._scores(pair, top, size)

        # Entry e of parent s's candidates is split (e - first[s]) // 2 of
        # its top block with gamma e % 2, at flat score position
        # 2 * first_row[s] + e - first[s].
        count = 2 * size
        end = count.cumsum()
        first = end - count
        pool = self.pool[:end[-1]]
        hits = []
        for a, b, lo, hi, counts in _slices(first, end, SLICE):
            # In place: fresh slice-sized temporaries made this loop twice as slow.
            slots = (2 * first_row[lo:hi] - first[lo:hi]).repeat(counts)
            slots += np.arange(a, b)
            np.take(logf, slots, out=pool[a:b])
            pool[a:b] += self.v[live[lo:hi]].repeat(counts)
            hits.append(term[slots].nonzero()[0] + a)
        hits = np.concatenate(hits)
        bounds = np.concatenate(([0], end))[pair.searchsorted(self.edges)]

        def steps(entries):
            """Parent row and int32 (j0, j1, i0, i1, j, i, gamma) of each pool entry."""
            s = end.searchsorted(entries, side="right")
            block = top[s]
            split, gamma = np.divmod(entries - first[s], 2)
            jj, ii = np.divmod(split, block[:, 3] - block[:, 2] - 1)
            rows = np.column_stack((block, block[:, 0] + jj + 1, block[:, 2] + ii + 1, gamma))
            return s, rows.astype(np.int32)

        # Every terminal successor competes for its pair's final argmax,
        # pruned or not. A child is terminal when both halves of its split
        # are and its parent held one block. A pair's winner is the lowest
        # position among its maxima.
        hits = hits[depth[end.searchsorted(hits, side="right")] == 1]
        if hits.size:
            value = pool[hits]
            g = bounds.searchsorted(hits, side="right") - 1
            heads = np.concatenate(([True], g[1:] != g[:-1])).nonzero()[0]
            peak = np.maximum.reduceat(value, heads)
            g = g[heads]
            maxima = np.where(value == peak.repeat(np.diff(heads, append=hits.size)), hits, pool.size)
            winner = np.minimum.reduceat(maxima, heads)
            s, block = steps(winner)
            ends = np.column_stack((np.full(winner.size, level), live[s], block))
            better = peak > self.best_v[g]
            for q in (peak == self.best_v[g]).nonzero()[0].tolist():
                tied, _ = self._sequences(np.stack((ends[q], self.best[g[q]])))
                mine, held = (rows.tolist() for rows in tied)
                better[q] = mine < held
            self.best_v[g[better]] = peak[better]
            self.best[g[better]] = ends[better]

        # Keep each pair's top beam_k candidates by score. Where more tie at
        # the cut than there is room for, the lowest positions stay.
        entries = np.diff(bounds)
        over = (entries > k).nonzero()[0]
        cuts = np.full(self.pairs, -np.inf)
        for g, a, b in zip(over.tolist(), bounds[over].tolist(), bounds[over + 1].tolist()):
            # The method on a copy: np.partition's wrapper adds 40% on a 40-entry pool.
            part = pool[a:b].copy()
            part.partition(b - a - k)
            cuts[g] = part[b - a - k]
        keep = self.keep[:pool.size]
        for a, b, lo, hi, counts in _slices(first, end, SLICE):
            np.greater_equal(pool[a:b], cuts[pair[lo:hi]].repeat(counts), out=keep[a:b])
        kept = keep.nonzero()[0]
        if kept.size > pool.size - (entries[over] - k).sum():
            # A tied entry stays when fewer than room, the beam left
            # after its pair's better entries, tie before it.
            g = bounds.searchsorted(kept, side="right") - 1
            tied = pool[kept] == cuts[g]
            before = tied.cumsum() - tied
            rank = before - before[kept.searchsorted(bounds[g])]
            room = k - np.bincount(g[~tied], minlength=self.pairs)
            kept = kept[~tied | (rank < room[g])]
        s, block = steps(kept)
        return live[s], block, pool[kept]


def lockstep_groups(shapes, beam_k):
    """Runs of consecutive (n, m) shapes to parse together, as lists of indices.

    This is the one cut of alignment work. A run holds at most GROUP_PAIRS
    shapes and expands at most beam_k * sum((n - 1) * (m - 1)) <=
    GROUP_SPLITS splits per level; a shape over the split bound runs alone.
    """
    groups = []
    load = 0
    for k, (n, m) in enumerate(shapes):
        cost = beam_k * (n - 1) * (m - 1)
        if groups and len(groups[-1]) < GROUP_PAIRS and load + cost <= GROUP_SPLITS:
            groups[-1].append(k)
            load += cost
        else:
            groups.append([k])
            load = cost
    return groups


def parse_matrices(matrices, beam_k):
    """Best derivation of each matrix found by beam search; see the module docstring.

    Yields (score, step rows, leaves) per matrix, in order: the step rows
    (j0, j1, i0, i1, j, i, gamma) of the split block and the split, in
    order, as an int array (steps, 7), and the terminal (j0, j1, i0, i1)
    blocks, each step's left first, as lists of plain ints. The matrices
    are parsed together as one lockstep group, so the caller bounds the
    group, with lockstep_groups. A 1 x m or n x 1 matrix is already
    terminal and yields no steps and the root block as its one leaf.
    """
    if beam_k < 1:
        raise ValueError("beam_k must be >= 1")
    return _derivations(matrices, beam_k)


def _derivations(matrices, beam_k):
    split = [mat for mat in matrices if mat.n > 1 and mat.m > 1]
    found = _Lockstep(split, beam_k).run() if split else None
    for mat in matrices:
        yield next(found) if mat.n > 1 and mat.m > 1 else (0.0, np.empty((0, 7), np.int64), [[0, mat.n, 0, mat.m]])


def top_down_parse(matrix, beam_k):
    """Best derivation of one matrix: parse_matrices of [matrix], as a Derivation."""
    score, steps, leaves = next(parse_matrices([matrix], beam_k))
    return Derivation(tuple((Block(*row[:4]), SplitStep(*row[4:])) for row in steps.tolist()),
                      tuple(Block(*leaf) for leaf in leaves), matrix.n, matrix.m, score)


def leaf_links(leaves):
    """Links of (j0, j1, i0, i1) leaves, in Pharaoh order: by source, then target.

    Leaves share no source word, so their cross products, taken by j0 and
    row by row, come out sorted.
    """
    return [(j, i) for j0, j1, i0, i1 in sorted(leaves) for j in range(j0, j1) for i in range(i0, i1)]


def project(derivation):
    """Alignment links of a derivation: cross products of its leaf blocks."""
    return set(leaf_links((leaf.j0, leaf.j1, leaf.i0, leaf.i1) for leaf in derivation.leaves))
