"""Combine two directional alignments into one symmetric alignment.

The gdfa heuristic is grow-diag alone: no final pass adds the links of one
input that growth left out. Its scan order is pinned so the output is a
pure function of the input link sets: current links in (j, i) order with a
fixed neighbor order, iterating to a fixpoint. It runs for all pairs at
once, in lockstep, on the links alone, never on a grid of their indices.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

HEURISTICS = ("intersection", "union", "gdfa")

# 8-neighborhood, adjacent before diagonal.
_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))
_DJ, _DI = np.array(_NEIGHBORS).T


def intersect(a_fwd, a_rev):
    return set(a_fwd) & set(a_rev)


def union_links(a_fwd, a_rev):
    return set(a_fwd) | set(a_rev)


def _grow_diag(fwd, rev):
    """The sorted (pair, j, i) rows grow-diag keeps, given int64 arrays fwd, rev of distinct such rows.

    A union link's int64 key packs (pair, j + 1, i + 1) of j, i >= 0, so a
    neighbour's key is key + dj * width + di, in the same pair; grow_diag_pairs
    keeps keys from overflowing. A pass meets each union-only candidate first
    at (rank of its neighbouring link in the pair's sorted links, that
    neighbour's index in _NEIGHBORS), and adds it if its source or its target
    word is still unaligned. Aligned words only grow, so a rejection is final,
    and only the links the last pass added can meet a new candidate: a pass
    scans those alone. It steps over every pair's t-th candidate in turn.
    """
    rows = np.concatenate((fwd, rev))
    if not len(rows):
        return rows
    height, width = rows[:, 1:].max(axis=0) + 3
    union, seen = np.unique((rows[:, 0] * height + rows[:, 1] + 1) * width + rows[:, 2] + 1, return_counts=True)
    pair = union // (height * width)
    # Source and target words numbered densely, over the words links touch.
    src_of = np.unique(union // width, return_inverse=True)[1]
    tgt_of = np.unique(pair * width + union % width, return_inverse=True)[1]
    src, tgt = np.zeros(len(union), bool), np.zeros(len(union), bool)
    pending, kept = seen == 1, seen == 2
    new = np.flatnonzero(kept)
    src[src_of[new]] = tgt[tgt_of[new]] = True
    while len(new):
        # The eight neighbours of each new link, in scan order; keep the
        # union-only links still pending, each where it is first met.
        near = union[new, None] + _DJ * width + _DI
        cand = np.searchsorted(union, near, "right") - 1
        met = union[cand] == near
        met[met] = pending[cand[met]]
        _, once = np.unique(cand[met], return_index=True)
        once.sort()
        cand = cand[met][once]
        pending[cand] = False
        cand = cand[~(src[src_of[cand]] & tgt[tgt_of[cand]])]
        row, col = src_of[cand], tgt_of[cand]
        step = np.arange(len(cand)) - np.searchsorted(pair[cand], pair[cand])
        order = np.argsort(step, kind="stable")
        added = np.zeros(len(cand), bool)
        for at in np.split(order, np.cumsum(np.bincount(step))[:-1]):
            at = at[~(src[row[at]] & tgt[col[at]])]
            src[row[at]] = tgt[col[at]] = added[at] = True
        new = np.sort(cand[added])
        kept[new] = True
    links = np.flatnonzero(kept)
    return np.column_stack((pair[links], union[links] // width % height - 1, union[links] % width - 1))


def grow_diag_pairs(a_fwds, a_revs):
    """grow_diag_final_and of every pair in one grow-diag, for links (j, i) of j, i >= 0 checked against no lengths."""
    flats = [list(chain.from_iterable(chain.from_iterable(side))) for side in (a_fwds, a_revs)]
    top_j, top_i = (max(max(flat[k::2], default=-1) for flat in flats) for k in (0, 1))
    if len(a_fwds) * (top_j + 3) * (top_i + 3) > np.iinfo(np.int64).max:
        raise ValueError(f"{len(a_fwds)} pair(s) of up to {top_j + 1}x{top_i + 1} words overflow the int64 link keys")
    sides = [np.column_stack((np.repeat(np.arange(len(side)), [len(links) for links in side]),
                              np.array(flat, np.int64).reshape(-1, 2))) for side, flat in zip((a_fwds, a_revs), flats)]
    pair, j, i = _grow_diag(*sides).T
    links = list(zip(j.tolist(), i.tolist()))
    bounds = np.searchsorted(pair, np.arange(len(a_fwds) + 1)).tolist()
    return [set(links[a:b]) for a, b in zip(bounds, bounds[1:])]


def grow_diag_final_and(a_fwd, a_rev, n, m):
    """Grow the intersection toward the union (grow-diag) of an n x m pair.

    Repeatedly add union links 8-adjacent to a current link whose source
    or target word is still unaligned, scanning current links in (j, i)
    order until a whole pass adds nothing. No final-and pass follows: a
    link only one input holds is added by growth or not at all.
    """
    for label, links in (("forward", a_fwd), ("reverse", a_rev)):
        for j, i in links:
            if not (0 <= j < n and 0 <= i < m):
                raise ValueError(f"{label} link {(j, i)} outside {n}x{m} pair")
    return grow_diag_pairs([a_fwd], [a_rev])[0]
