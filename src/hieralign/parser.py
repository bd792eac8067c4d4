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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

STRAIGHT = 0
INVERTED = 1

# Scores are accumulated as sums of logs; F_avg is floored before the log.
F_AVG_FLOOR = 1e-300


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

    @property
    def is_terminal(self):
        return self.j1 - self.j0 == 1 or self.i1 - self.i0 == 1


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


def sub_blocks(block, j, i, gamma):
    """(left, right) sub-blocks of a split; left holds source span [j0, j)."""
    left, right = _halves((block.j0, block.j1, block.i0, block.i1), j, i, gamma)
    return Block(*left), Block(*right)


def asso(matrix, rows, cols):
    """Total weight of the sub-block rows x cols, O(1) via the prefix sums."""
    j0, j1 = rows
    i0, i1 = cols
    p = matrix.prefix
    return float(p[j1, i1] - p[j0, i1] - p[j1, i0] + p[j0, i0])


def _check_interior(block, step):
    if not (block.j0 < step.j < block.j1 and block.i0 < step.i < block.i1):
        raise ValueError(f"split {step} not interior to {block}")


def cut(matrix, block, step):
    """Weight severed by the split: the two sub-blocks left unaligned."""
    _check_interior(block, step)
    x = (block.j0, step.j)
    xbar = (step.j, block.j1)
    y = (block.i0, step.i)
    ybar = (step.i, block.i1)
    if step.gamma == STRAIGHT:
        return asso(matrix, x, ybar) + asso(matrix, xbar, y)
    return asso(matrix, x, y) + asso(matrix, xbar, ybar)


def ncut(matrix, block, step):
    """Normalized cut of the split; in (0, 2) for positive matrices."""
    _check_interior(block, step)
    x = (block.j0, step.j)
    xbar = (step.j, block.j1)
    y = (block.i0, step.i)
    ybar = (step.i, block.i1)
    c = cut(matrix, block, step)
    if step.gamma == STRAIGHT:
        a = asso(matrix, x, y)
        b = asso(matrix, xbar, ybar)
    else:
        a = asso(matrix, x, ybar)
        b = asso(matrix, xbar, y)
    return c / (c + 2.0 * a) + c / (c + 2.0 * b)


def f_avg(matrix, block, step):
    """Mean F1 of the two aligned sub-blocks; equals 1 - ncut/2."""
    return 1.0 - ncut(matrix, block, step) / 2.0


def _score_blocks(prefix, blocks):
    """Log F_avg and terminal flags of every interior split of each block.

    blocks are (j0, j1, i0, i1) tuples, scored together in one flattened
    gather over the prefix sums. Returns (logf, term, sizes): logf and term
    are indexed [gamma, split], the splits laid out block by block, each
    block's in (j, i) order, and sizes holds each block's split count.
    term marks the splits whose two aligned sub-blocks are both terminal.
    """
    sizes = [(j1 - j0 - 1) * (i1 - i0 - 1) for j0, j1, i0, i1 in blocks]
    starts = np.repeat([0, *accumulate(sizes[:-1])], sizes)
    j0, j1, i0, i1 = np.repeat(np.array(blocks).T, sizes, axis=1)
    jj, ii = np.divmod(np.arange(j0.size) - starts, i1 - i0 - 1)
    rows = np.array([j0, j0 + 1 + jj, j1])
    cols = np.array([i0, i0 + 1 + ii, i1])

    # The split cuts its block into four sub-blocks a[r, c]: source half r
    # (x = [j0, j), xb = [j, j1)) by target half c (y = [i0, i), yb = [i, i1)),
    # each summed from the prefix at the corners rows x cols.
    corner = prefix.ravel()[(rows * prefix.shape[1])[:, None] + cols]
    a = corner[1:, 1:] - corner[:-1, 1:] - corner[1:, :-1] + corner[:-1, :-1]
    # Rows from here on are [straight, inverted]. Straight aligns xy with
    # xbyb, inverted xyb with xby: a[0] holds the first aligned sub-block,
    # a[1, ::-1] the second, and the cut c is the sum of the other two.
    c = a[0, ::-1] + a[1]
    ncut = c / (c + 2.0 * a[0]) + c / (c + 2.0 * a[1, ::-1])
    logf = np.log(np.maximum(1.0 - ncut / 2.0, F_AVG_FLOOR))

    # narrow[r, c]: sub-block (r, c) has one source or one target word. A
    # split is terminal when both of its aligned sub-blocks are.
    narrow = (rows[1:] - rows[:-1] == 1)[:, None] | (cols[1:] - cols[:-1] == 1)
    term = narrow[0] & narrow[1, ::-1]
    return logf, term, sizes


def _is_terminal(block):
    return block[1] - block[0] == 1 or block[3] - block[2] == 1


def _split_top(stack, j, i, gamma):
    """Split the top block of a stack of (j0, j1, i0, i1) tuples.

    Returns (stack, leaves): non-terminal sub-blocks go back on the stack
    (right first, then left), terminal ones become leaves (left first).
    """
    halves = _halves(stack[-1], j, i, gamma)
    leaves = [b for b in halves if _is_terminal(b)]
    return stack[:-1] + tuple([b for b in halves[::-1] if b not in leaves]), leaves


def top_down_parse(matrix, beam_k=10):
    """Best derivation found by beam search; see the module docstring.

    A beam state is (v, seq, stack): its score, its steps as (j, i, gamma)
    tuples and its stack of unparsed (j0, j1, i0, i1) blocks. The splits of
    each distinct block are scored once per parse, all new blocks of a
    level in one gather. The winner's steps and leaves are rebuilt at the
    end by replaying its seq.

    A 1 x m or n x 1 matrix is already terminal and yields the empty
    derivation whose single leaf is the root block.
    """
    if beam_k < 1:
        raise ValueError("beam_k must be >= 1")
    n, m = matrix.n, matrix.m
    root = (0, n, 0, m)
    if _is_terminal(root):
        return Derivation((), (Block(*root),), n, m, 0.0)

    scored = {}  # block -> (logf, term) of its splits, indexed [gamma, split]
    beam = [(0.0, (), (root,))]
    best = None  # (v, seq) of the best terminal state

    for _ in range(min(n, m)):
        parents = [s for s in beam if s[2]]
        if not parents:
            break
        new = list(dict.fromkeys(s[2][-1] for s in parents if s[2][-1] not in scored))
        if new:
            logf, term, sizes = _score_blocks(matrix.prefix, new)
            ends = list(accumulate(sizes))
            for block, lo, hi in zip(new, [0] + ends, ends):
                scored[block] = (logf[:, lo:hi], term[:, lo:hi])
        parts = [scored[s[2][-1]] for s in parents]
        sizes = [p[0].shape[1] for p in parts]
        offsets = [0, *accumulate(sizes)]
        width = offsets[-1]
        # Pool entries are indexed [gamma, split] over the parents' splits.
        pool_v = (np.repeat([s[0] for s in parents], sizes) + np.concatenate([p[0] for p in parts], axis=1)).ravel()

        def step_of(g):
            """(parent index, (j, i, gamma)) of flat pool index g."""
            gamma, split = divmod(g, width)
            k = bisect_right(offsets, split) - 1
            j0, _, i0, i1 = parents[k][2][-1]
            jj, ii = divmod(split - offsets[k], i1 - i0 - 1)
            return k, (j0 + 1 + jj, i0 + 1 + ii, gamma)

        def seq_key(g):
            k, step = step_of(g)
            return parents[k][1] + (step,)

        # Every terminal successor competes for the final argmax, pruned or
        # not. A child is terminal when both halves of its split are and its
        # parent held one block.
        single = [len(s[2]) == 1 for s in parents]
        pool_term = np.concatenate([p[1] for p in parts], axis=1) & np.repeat(single, sizes)
        term_idx = np.flatnonzero(pool_term)
        if term_idx.size:
            tv = pool_v[term_idx]
            top = float(tv.max())
            if best is None or top >= best[0]:
                seq = min(seq_key(g) for g in term_idx[tv == top].tolist())
                if best is None or top > best[0] or seq < best[1]:
                    best = (top, seq)

        # Keep the top beam_k candidates by score, ties by step sequence.
        size = pool_v.size
        if size <= beam_k:
            kept = list(range(size))
        else:
            thr = np.partition(pool_v, size - beam_k)[size - beam_k]
            kept = np.flatnonzero(pool_v > thr).tolist()
            tied = np.flatnonzero(pool_v == thr).tolist()
            need = beam_k - len(kept)
            kept += sorted(tied, key=seq_key)[:need] if len(tied) > need else tied

        beam = []
        for g, v in zip(kept, pool_v[kept].tolist()):
            k, step = step_of(g)
            _, seq, stack = parents[k]
            beam.append((v, seq + (step,), _split_top(stack, *step)[0]))

    if best is None:
        raise RuntimeError("beam search ended without a terminal state")
    v, seq = best
    stack = (root,)
    steps = []
    leaves = []
    for j, i, gamma in seq:
        steps.append((Block(*stack[-1]), SplitStep(j, i, gamma)))
        stack, new_leaves = _split_top(stack, j, i, gamma)
        leaves += new_leaves
    return Derivation(tuple(steps), tuple(Block(*b) for b in leaves), n, m, v)


def project(derivation):
    """Alignment links of a derivation: cross products of its leaf blocks."""
    links = set()
    for leaf in derivation.leaves:
        for j in range(leaf.j0, leaf.j1):
            for i in range(leaf.i0, leaf.i1):
                links.add((j, i))
    return links
