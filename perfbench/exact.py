"""Exact BTG search for small matrices, the reference for beam search errors.

best(B) = max over interior splits of [log F_avg + best(L) + best(R)],
with best(B) = 0 for a terminal block (one source or one target word).
Blocks are filled in order of increasing height and width, so both
sub-blocks of any split are known when their parent is scored. F_avg is
computed as the mean F1 of the two aligned sub-blocks, from prefix sums
built here, not through the parser's Ncut path.
"""

from __future__ import annotations

import numpy as np

F_AVG_FLOOR = 1e-300


def best_score(weights):
    """Highest derivation score over all BTG derivations of the matrix."""
    w = np.asarray(weights, dtype=np.float64)
    n, m = w.shape
    p = np.zeros((n + 1, m + 1))
    p[1:, 1:] = w.cumsum(axis=0).cumsum(axis=1)
    best = np.zeros((n + 1, n + 1, m + 1, m + 1))

    def block_sum(j0, j1, i0, i1):
        return p[j1, i1] - p[j0, i1] - p[j1, i0] + p[j0, i0]

    def mean_f1(a, b, cut):
        return (2.0 * a / (2.0 * a + cut) + 2.0 * b / (2.0 * b + cut)) / 2.0

    for h in range(2, n + 1):
        for width in range(2, m + 1):
            for j0 in range(n - h + 1):
                j1 = j0 + h
                js = np.arange(j0 + 1, j1)[:, None]
                for i0 in range(m - width + 1):
                    i1 = i0 + width
                    is_ = np.arange(i0 + 1, i1)[None, :]
                    a_xy = block_sum(j0, js, i0, is_)
                    a_xbyb = block_sum(js, j1, is_, i1)
                    a_xyb = block_sum(j0, js, is_, i1)
                    a_xby = block_sum(js, j1, i0, is_)
                    straight = (
                        np.log(np.maximum(mean_f1(a_xy, a_xbyb, a_xyb + a_xby), F_AVG_FLOOR))
                        + best[j0, js, i0, is_] + best[js, j1, is_, i1]
                    )
                    inverted = (
                        np.log(np.maximum(mean_f1(a_xyb, a_xby, a_xy + a_xbyb), F_AVG_FLOOR))
                        + best[j0, js, is_, i1] + best[js, j1, i0, is_]
                    )
                    best[j0, j1, i0, i1] = max(straight.max(), inverted.max())
    return float(best[0, n, 0, m])


def validate(enumerate_derivation_scores, seed, count=20, tol=1e-9):
    """Compare best_score with full enumeration on random matrices up to 4x4.

    Returns the number of disagreements.
    """
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(count):
        n, m = (int(v) for v in rng.integers(1, 5, size=2))
        weights = 1e-8 + (1.0 - 1e-12 - 1e-8) * rng.random((n, m))
        if abs(best_score(weights) - max(enumerate_derivation_scores(weights.tolist()))) > tol:
            bad += 1
    return bad
