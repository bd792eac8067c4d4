"""Soft association matrices with integral images for block sums.

Cell (j, i) combines the symmetric lexical score of the two words with a
positional distortion factor, then is clamped into [p0^2, 1) so every
block association downstream stays strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .lexicon import symmetric_lexical_score

# Keeps the upper clamp strictly below 1.
UPPER_MARGIN = 1e-12


@dataclass(frozen=True)
class MatrixParams:
    """Matrix settings, a view of pipeline.AlignerConfig that declares and checks them."""

    sigma_theta: float
    sigma_delta: float
    distortion_enabled: bool
    r: float
    p0: float


class SoftMatrix:
    """n x m positive weights plus (n+1) x (m+1) 2-D prefix sums.

    weights is indexed [source j, target i]. prefix[a, b] is the sum of
    weights[:a, :b], so any block sum is four lookups.
    """

    __slots__ = ("n", "m", "weights", "prefix")

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.size == 0:
            raise ValueError("weights must be a nonempty 2-D array")
        if not np.all(weights > 0):
            raise ValueError("all weights must be strictly positive")
        self._fill(weights)

    @classmethod
    def _of_clamped(cls, weights):
        """Matrix of weights that build_soft_matrices has clamped positive."""
        matrix = cls.__new__(cls)
        matrix._fill(weights)
        return matrix

    def _fill(self, weights):
        self.n, self.m = weights.shape
        self.weights = weights
        prefix = np.zeros((self.n + 1, self.m + 1))
        # Row-major accumulation: per-row running sums, then rows stacked.
        prefix[1:, 1:] = weights.cumsum(axis=1).cumsum(axis=0)
        self.prefix = prefix


def _cells(n, m):
    """(pair, j, i, row, col) of every cell of matrices with side lengths n, m.

    n and m are int arrays. The matrices' cells are laid out row-major, one
    matrix after another; row and col number the rows and the columns of
    all the matrices in turn.
    """
    cells = n * m
    pair = np.repeat(np.arange(n.size), cells)
    local = np.arange(cells.sum()) - np.repeat(np.cumsum(cells) - cells, cells)
    j, i = np.divmod(local, m[pair])
    return pair, j, i, np.repeat(np.cumsum(n) - n, cells) + j, np.repeat(np.cumsum(m) - m, cells) + i


def build_soft_matrices(pairs, t_fwd, t_rev, params):
    """Weight matrices of sentence pairs, all from one lexicon gather.

    raw(j, i) = exp(theta(f_j, e_i) / sigma_theta) times the distortion
    factor: exp(delta / sigma_delta) when h < r, a flat p0 otherwise.
    Weights are clamped into [p0^2, 1). Every cell goes through the same
    operations in any batch, so a matrix does not depend on the pairs built
    with it. The matrices' weights are views into one flat array.
    """
    if not pairs:
        return []
    n = np.array([pair.n for pair in pairs])
    m = np.array([pair.m for pair in pairs])
    pair_of, j, i, row, col = _cells(n, m)
    source = np.fromiter(chain.from_iterable(pair.source for pair in pairs), np.int64, n.sum())
    target = np.fromiter(chain.from_iterable(pair.target for pair in pairs), np.int64, m.sum())
    theta = symmetric_lexical_score(t_fwd, t_rev, source[row], target[col])
    raw = np.exp(theta / params.sigma_theta)
    if params.distortion_enabled:
        h = np.abs(j / n[pair_of] - i / m[pair_of])
        raw *= np.where(h < params.r, np.exp(np.log1p(-h) / params.sigma_delta), params.p0)
    floor = params.p0 * params.p0
    weights = np.clip(raw, floor, 1.0 - UPPER_MARGIN)
    ends = np.cumsum(n * m).tolist()
    return [SoftMatrix._of_clamped(weights[end - a * b:end].reshape(a, b))
            for a, b, end in zip(n.tolist(), m.tolist(), ends)]


def build_soft_matrix(pair, t_fwd, t_rev, params):
    """Weight matrix for one sentence pair: build_soft_matrices of [pair]."""
    return build_soft_matrices([pair], t_fwd, t_rev, params)[0]


def dump_matrix(matrix, fh):
    """Debug TSV dump: one `j<TAB>i<TAB>weight` row per cell, then a blank line."""
    for j in range(matrix.n):
        for i in range(matrix.m):
            fh.write(f"{j}\t{i}\t{matrix.weights[j, i]:.17g}\n")
    fh.write("\n")
