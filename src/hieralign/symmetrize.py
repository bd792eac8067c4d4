"""Combine two directional alignments into one symmetric alignment.

The gdfa heuristic is grow-diag alone: no final pass adds the links of one
input that growth left out. Its scan order is pinned so the output is a
pure function of the input link sets: current links in (j, i) order with a
fixed neighbor order, iterating to a fixpoint.
"""

from __future__ import annotations

HEURISTICS = ("intersection", "union", "gdfa")

# 8-neighborhood, adjacent before diagonal.
_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def intersect(a_fwd, a_rev):
    return set(a_fwd) & set(a_rev)


def union_links(a_fwd, a_rev):
    return set(a_fwd) | set(a_rev)


def _check_bounds(links, n, m, label):
    for (j, i) in links:
        if not (0 <= j < n and 0 <= i < m):
            raise ValueError(f"{label} link {(j, i)} outside {n}x{m} pair")


def grow_diag_final_and(a_fwd, a_rev, n, m):
    """Grow the intersection toward the union (grow-diag).

    Repeatedly add union links 8-adjacent to a current link whose source
    or target word is still unaligned, scanning current links in (j, i)
    order until a whole pass adds nothing. No final-and pass follows: a
    link only one input holds is added by growth or not at all.
    """
    a_fwd = set(a_fwd)
    a_rev = set(a_rev)
    _check_bounds(a_fwd, n, m, "forward")
    _check_bounds(a_rev, n, m, "reverse")
    union = a_fwd | a_rev
    links = a_fwd & a_rev
    src_aligned = {j for j, _ in links}
    tgt_aligned = {i for _, i in links}

    changed = True
    while changed:
        changed = False
        for (j, i) in sorted(links):
            for dj, di in _NEIGHBORS:
                cand = (j + dj, i + di)
                if cand in links or cand not in union:
                    continue
                if cand[0] not in src_aligned or cand[1] not in tgt_aligned:
                    links.add(cand)
                    src_aligned.add(cand[0])
                    tgt_aligned.add(cand[1])
                    changed = True
    return links


def symmetrize(a_fwd, a_rev, n, m, heuristic="gdfa"):
    if heuristic == "intersection":
        return intersect(a_fwd, a_rev)
    if heuristic == "union":
        return union_links(a_fwd, a_rev)
    if heuristic == "gdfa":
        return grow_diag_final_and(a_fwd, a_rev, n, m)
    raise ValueError(f"unknown heuristic {heuristic!r} (choose from {HEURISTICS})")
