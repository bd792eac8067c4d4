"""Combine two directional alignments into one symmetric alignment.

The gdfa heuristic is grow-diag alone: no final pass adds the links of one
input that growth left out. Its scan order is pinned so the output is a
pure function of the input link sets: current links in (j, i) order with a
fixed neighbor order, iterating to a fixpoint. It runs for all pairs at
once, in lockstep, on the pairs' cells laid out as by lexicon.product_cells.
"""

from __future__ import annotations

import numpy as np

HEURISTICS = ("intersection", "union", "gdfa")

# 8-neighborhood, adjacent before diagonal.
_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))
_DJ, _DI = np.array(_NEIGHBORS).T


def intersect(a_fwd, a_rev):
    return set(a_fwd) & set(a_rev)


def union_links(a_fwd, a_rev):
    return set(a_fwd) | set(a_rev)


def _grow_diag(n, m, fwd, rev):
    """The sorted cells grow-diag keeps, given side lengths n, m and bool arrays fwd, rev over cells.

    A pass meets each union-only candidate first at (rank of its neighbouring
    link in the pair's sorted links, that neighbour's index in _NEIGHBORS),
    and adds it if its source or its target word is still unaligned. Aligned
    words only grow, so a rejection is final. A pass steps over every pair's
    t-th candidate in that order; a pair that adds nothing drops out.
    """
    size = n * m
    first = np.cumsum(size) - size
    row0, col0 = np.cumsum(n) - n, np.cumsum(m) - m
    src, tgt = np.zeros(int(n.sum()), bool), np.zeros(int(m.sum()), bool)
    pending = fwd ^ rev
    links = np.flatnonzero(fwd & rev)
    active = np.ones(len(n), bool)
    while True:
        pair = np.searchsorted(first, links, "right") - 1
        j, i = np.divmod(links - first[pair], m[pair])
        src[row0[pair] + j] = tgt[col0[pair] + i] = True  # marks new words in the first pass only
        # The eight neighbours of each link scanned, in scan order; keep the
        # union-only cells still pending, each where it is first met.
        scan = active[pair]
        pair, j, i = pair[scan, None], j[scan, None] + _DJ, i[scan, None] + _DI
        met = (j >= 0) & (j < n[pair]) & (i >= 0) & (i < m[pair])
        cand = links[scan, None] + _DJ * m[pair] + _DI
        met[met] = pending[cand[met]]
        _, once = np.unique(cand[met], return_index=True)
        once.sort()
        cand, pair, j, i = (a[met][once] for a in (cand, np.broadcast_to(pair, met.shape), j, i))
        row, col = row0[pair] + j, col0[pair] + i
        pending[cand] = False
        free = ~(src[row] & tgt[col])
        cand, pair, row, col = cand[free], pair[free], row[free], col[free]
        step = np.arange(len(pair)) - np.searchsorted(pair, pair)
        order = np.argsort(step, kind="stable")
        added = np.zeros(len(cand), bool)
        for at in np.split(order, np.cumsum(np.bincount(step))[:-1]):
            at = at[~(src[row[at]] & tgt[col[at]])]
            src[row[at]] = tgt[col[at]] = added[at] = True
        if not added.any():
            break
        links = np.sort(np.concatenate((links, cand[added])))
        active[:] = False
        active[pair[added]] = True
    return links


def grow_diag_pairs(a_fwds, a_revs, ns, ms):
    """grow_diag_final_and of every pair, in one corpus-wide grow-diag."""
    n, m = np.array(ns, np.int64), np.array(ms, np.int64)
    first = np.cumsum(n * m) - n * m
    cells = [np.zeros(int((n * m).sum()), bool), np.zeros(int((n * m).sum()), bool)]
    for mask, label, sides in zip(cells, ("forward", "reverse"), (a_fwds, a_revs)):
        for k, links in enumerate(sides):
            for (j, i) in links:
                if not (0 <= j < n[k] and 0 <= i < m[k]):
                    raise ValueError(f"{label} link {(j, i)} outside {n[k]}x{m[k]} pair")
                mask[first[k] + j * m[k] + i] = True
    kept = _grow_diag(n, m, *cells)
    pair = np.searchsorted(first, kept, "right") - 1
    j, i = np.divmod(kept - first[pair], m[pair])
    links = list(zip(j.tolist(), i.tolist()))
    bounds = np.searchsorted(kept, first).tolist() + [len(kept)]
    return [set(links[a:b]) for a, b in zip(bounds, bounds[1:])]


def grow_diag_final_and(a_fwd, a_rev, n, m):
    """Grow the intersection toward the union (grow-diag).

    Repeatedly add union links 8-adjacent to a current link whose source
    or target word is still unaligned, scanning current links in (j, i)
    order until a whole pass adds nothing. No final-and pass follows: a
    link only one input holds is added by growth or not at all.
    """
    return grow_diag_pairs([a_fwd], [a_rev], [n], [m])[0]


def symmetrize(a_fwd, a_rev, n, m, heuristic="gdfa"):
    if heuristic == "intersection":
        return intersect(a_fwd, a_rev)
    if heuristic == "union":
        return union_links(a_fwd, a_rev)
    if heuristic == "gdfa":
        return grow_diag_final_and(a_fwd, a_rev, n, m)
    raise ValueError(f"unknown heuristic {heuristic!r} (choose from {HEURISTICS})")
