"""Soft association matrices: one positive weight per word pair.

Cell (j, i) combines the symmetric lexical score of the two words with a
positional distortion factor, then is clamped into [p0^2, 1) so every
block association downstream stays strictly positive. A batch of
matrices is laid out by lexicon.product_cells over the arrays of
lexicon.flatten_pairs, as EM's corpus links are.
The parser builds the integral images it reads block sums from.
"""

from __future__ import annotations

import numpy as np

from .lexicon import flatten_pairs, product_cells, symmetric_lexical_score

# Keeps the upper clamp strictly below 1.
UPPER_MARGIN = 1e-12


class SoftMatrix:
    """n x m positive weights, indexed [source j, target i], with a finite total.

    The array is kept, not copied; the parser reads it when it parses.
    """

    __slots__ = ("n", "m", "weights")

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.size == 0:
            raise ValueError("weights must be a nonempty 2-D array")
        if not np.all(weights > 0):
            raise ValueError("all weights must be strictly positive")
        # Summed as the parser's integral image is, whose entries are all at most this.
        with np.errstate(over="ignore"):
            if not np.isfinite(weights.cumsum(axis=1)[:, -1].cumsum()[-1]):
                raise ValueError("weights and their total must be finite")
        self.n, self.m = weights.shape
        self.weights = weights

    @classmethod
    def _of_clamped(cls, weights):
        """Matrix of weights that build_soft_matrices has clamped into [p0^2, 1)."""
        matrix = cls.__new__(cls)
        matrix.n, matrix.m = weights.shape
        matrix.weights = weights
        return matrix


def build_soft_matrices(pairs, t_fwd, t_rev, config):
    """Weight matrices of sentence pairs under an AlignerConfig, all from one lexicon gather.

    raw(j, i) = exp(theta(f_j, e_i) / sigma_theta) times the distortion
    factor: exp(delta / sigma_delta) when h < r, a flat p0 otherwise.
    Weights are clamped into [p0^2, 1). The cells are those of
    product_cells, and every cell goes through the same operations in any
    batch, so a matrix does not depend on the pairs built with it. The
    matrices' weights are views into one flat array, in that order.
    """
    n, m, source, target = flatten_pairs(pairs)
    pair_of, j, i, row, col = product_cells(n, m)
    theta = symmetric_lexical_score(t_fwd, t_rev, source[row], target[col])
    raw = np.exp(theta / config.sigma_theta)
    if config.distortion:
        h = np.abs(j / n[pair_of] - i / m[pair_of])
        raw *= np.where(h < config.r, np.exp(np.log1p(-h) / config.sigma_delta), config.p0)
    floor = config.p0 * config.p0
    weights = np.clip(raw, floor, 1.0 - UPPER_MARGIN)
    ends = np.cumsum(n * m).tolist()
    return [SoftMatrix._of_clamped(weights[end - a * b:end].reshape(a, b))
            for a, b, end in zip(n.tolist(), m.tolist(), ends)]


def build_soft_matrix(pair, t_fwd, t_rev, config):
    """Weight matrix for one sentence pair: build_soft_matrices of [pair]."""
    return build_soft_matrices([pair], t_fwd, t_rev, config)[0]


def dump_matrix(matrix, fh):
    """Debug TSV dump: one `j<TAB>i<TAB>weight` row per cell, then a blank line."""
    for j in range(matrix.n):
        for i in range(matrix.m):
            fh.write(f"{j}\t{i}\t{matrix.weights[j, i]:.17g}\n")
    fh.write("\n")
