"""Per-pair soft association matrix with an integral image for block sums.

Cell (j, i) combines the symmetric lexical score of the two words with a
positional distortion factor, then is clamped into [p0^2, 1) so every
block association downstream stays strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lexicon import symmetric_lexical_score

# Keeps the upper clamp strictly below 1.
UPPER_MARGIN = 1e-12


@dataclass(frozen=True)
class MatrixParams:
    sigma_theta: float = 3.0
    sigma_delta: float = 5.0
    distortion_enabled: bool = True
    r: float = 0.5
    p0: float = 1e-4

    def __post_init__(self):
        if self.sigma_theta <= 0 or self.sigma_delta <= 0 or self.p0 <= 0:
            raise ValueError("sigma_theta, sigma_delta and p0 must be positive")
        if not 0 < self.r <= 1:
            raise ValueError("distortion threshold r must be in (0, 1]")


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
        self.n, self.m = weights.shape
        self.weights = weights
        prefix = np.zeros((self.n + 1, self.m + 1))
        # Row-major accumulation: per-row running sums, then rows stacked.
        prefix[1:, 1:] = weights.cumsum(axis=1).cumsum(axis=0)
        self.prefix = prefix


def distortion(j, i, n, m):
    """Relative-position penalty: h = |j/n - i/m|, delta = log(1 - h).

    Raw 0-based indices over the side lengths keep h strictly below 1.
    """
    if not (0 <= j < n and 0 <= i < m):
        raise ValueError(f"index ({j}, {i}) outside {n}x{m}")
    h = abs(j / n - i / m)
    return h, math.log1p(-h)


def build_soft_matrix(pair, t_fwd, t_rev, params=MatrixParams()):
    """Weight matrix for one sentence pair from the trained tables.

    raw(j, i) = exp(theta(f_j, e_i) / sigma_theta) times the distortion
    factor: exp(delta / sigma_delta) when h < r, a flat p0 otherwise.
    Weights are clamped into [p0^2, 1).
    """
    n, m = pair.n, pair.m
    theta = symmetric_lexical_score(
        t_fwd, t_rev, np.asarray(pair.source)[:, None], np.asarray(pair.target)[None, :]
    )
    raw = np.exp(theta / params.sigma_theta)
    if params.distortion_enabled:
        h = np.abs(np.arange(n)[:, None] / n - np.arange(m)[None, :] / m)
        raw *= np.where(h < params.r, np.exp(np.log1p(-h) / params.sigma_delta), params.p0)
    floor = params.p0 * params.p0
    return SoftMatrix(np.clip(raw, floor, 1.0 - UPPER_MARGIN))


def dump_matrix(matrix, fh):
    """Debug TSV dump: one `j<TAB>i<TAB>weight` row per cell, then a blank line."""
    for j in range(matrix.n):
        for i in range(matrix.m):
            fh.write(f"{j}\t{i}\t{matrix.weights[j, i]:.17g}\n")
    fh.write("\n")
