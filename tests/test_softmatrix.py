import math

import numpy as np
import pytest

import oracles
from hieralign.corpus import SentencePair
from hieralign.lexicon import FORWARD, REVERSE, TTable
from hieralign.parser import _Lockstep, top_down_parse
from hieralign.pipeline import AlignerConfig
from hieralign.softmatrix import SoftMatrix, build_soft_matrices, build_soft_matrix
from oracles import distortion

FALLBACK = AlignerConfig().fallback


def tables_of(fwd, rev, n, m):
    """Forward and reverse tables of dicts {(conditioned id, conditioning id): p}."""
    return TTable(FORWARD, oracles.pair_map(fwd), n, FALLBACK), TTable(REVERSE, oracles.pair_map(rev), m, FALLBACK)


def tables_for(prob_fwd, prob_rev, n, m):
    fwd = {(j + 1, i + 1): prob_fwd for j in range(n) for i in range(m)}
    rev = {(i + 1, j + 1): prob_rev for j in range(n) for i in range(m)}
    return tables_of(fwd, rev, n, m)


def pair_of(n, m):
    return SentencePair(tuple(range(1, n + 1)), tuple(range(1, m + 1)), 0)


def test_distortion_diagonal_start():
    h, delta = distortion(0, 0, 4, 4)
    assert h == 0.0 and delta == 0.0


def test_distortion_half():
    h, delta = distortion(2, 0, 4, 4)
    assert h == pytest.approx(0.5)
    assert delta == pytest.approx(math.log(0.5))


def test_distortion_proportional():
    h, delta = distortion(1, 1, 2, 2)
    assert h == 0.0 and delta == 0.0


def test_distortion_bounds():
    for n, m in [(3, 7), (9, 2)]:
        for j in range(n):
            for i in range(m):
                h, delta = distortion(j, i, n, m)
                assert 0.0 <= h < 1.0
                assert delta <= 0.0
    with pytest.raises(ValueError):
        distortion(4, 0, 4, 4)


def test_build_no_distortion_is_plain_score():
    t_fwd, t_rev = tables_for(0.25, 0.25, 1, 1)
    config = AlignerConfig(sigma_theta=1.0, distortion=False)
    matrix = build_soft_matrix(pair_of(1, 1), t_fwd, t_rev, config)
    assert matrix.weights[0, 0] == pytest.approx(0.25)


def test_build_distortion_at_diagonal_is_neutral():
    t_fwd, t_rev = tables_for(0.25, 0.25, 1, 1)
    config = AlignerConfig(sigma_theta=1.0, sigma_delta=5.0)
    matrix = build_soft_matrix(pair_of(1, 1), t_fwd, t_rev, config)
    assert matrix.weights[0, 0] == pytest.approx(0.25)


def test_build_flat_penalty_branch():
    # Perfect lexical pair but h = 0.5 >= r at cell (0, 1) of a 1x2 pair.
    t_fwd, t_rev = tables_for(1.0, 1.0, 1, 2)
    matrix = build_soft_matrix(pair_of(1, 2), t_fwd, t_rev, AlignerConfig(sigma_theta=3.0))
    assert matrix.weights[0, 1] == pytest.approx(1e-4)


def test_build_fallback_cell_value():
    # Unseen pair both ways: theta = log 1e-10; with sigma_theta = 3 and the
    # flat penalty, the raw value (1e-10)^(1/3) * 1e-4 ~ 4.64e-8 stays above
    # the p0^2 floor.
    t_fwd, t_rev = tables_of({}, {}, 1, 2)
    matrix = build_soft_matrix(pair_of(1, 2), t_fwd, t_rev, AlignerConfig(sigma_theta=3.0))
    want = (1e-10) ** (1.0 / 3.0) * 1e-4
    assert matrix.weights[0, 1] == pytest.approx(want, rel=1e-9)
    assert matrix.weights[0, 1] >= 1e-8


def test_weights_clamped_into_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = rng.integers(1, 9, size=2)
        fwd = {(j + 1, i + 1): float(rng.uniform(1e-12, 1.0)) for j in range(n) for i in range(m)}
        rev = {(i + 1, j + 1): float(rng.uniform(1e-12, 1.0)) for j in range(n) for i in range(m)}
        matrix = build_soft_matrix(pair_of(n, m), *tables_of(fwd, rev, n, m), AlignerConfig())
        assert np.all(matrix.weights >= 1e-8)
        assert np.all(matrix.weights < 1.0)


def test_weight_monotone_in_theta():
    config = AlignerConfig()
    previous = 0.0
    for p in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9):
        t_fwd, t_rev = tables_for(p, p, 1, 1)
        matrix = build_soft_matrix(pair_of(1, 1), t_fwd, t_rev, config)
        assert matrix.weights[0, 0] >= previous
        previous = matrix.weights[0, 0]


def test_neutral_configuration_is_clamped_geometric_mean():
    rng = np.random.default_rng(11)
    n, m = 4, 5
    fwd = {(j + 1, i + 1): float(rng.uniform(1e-12, 1.0)) for j in range(n) for i in range(m)}
    rev = {(i + 1, j + 1): float(rng.uniform(1e-12, 1.0)) for j in range(n) for i in range(m)}
    config = AlignerConfig(sigma_theta=1.0, distortion=False)
    matrix = build_soft_matrix(pair_of(n, m), *tables_of(fwd, rev, n, m), config)
    for j in range(n):
        for i in range(m):
            mean = math.sqrt(fwd[(j + 1, i + 1)] * rev[(i + 1, j + 1)])
            assert matrix.weights[j, i] == pytest.approx(min(max(mean, 1e-8), 1.0 - 1e-12))


def integral_images(matrices):
    """Each matrix's table in the flat integral-image array of one lockstep group."""
    group = _Lockstep(matrices, 10)
    return [group.prefix[a:b].reshape(mat.n + 1, mat.m + 1)
            for mat, a, b in zip(matrices, group.base.tolist(), group.base[1:].tolist())]


SHAPES = [(2, 2), (3, 40), (40, 3), (12, 12)]


def test_prefix_sums_match_direct_summation():
    rng = np.random.default_rng(5)
    weights = [oracles.random_soft_weights(rng, n, m) for n, m in SHAPES * 3]
    for w, p in zip(weights, integral_images([SoftMatrix(w) for w in weights])):
        assert np.array_equal(p, oracles.prefix_table(w))
        n, m = w.shape
        for _ in range(20):
            j0, j1 = sorted(rng.integers(0, n + 1, size=2))
            i0, i1 = sorted(rng.integers(0, m + 1, size=2))
            got = p[j1, i1] - p[j0, i1] - p[j1, i0] + p[j0, i0]
            want = oracles.direct_asso(w, j0, j1, i0, i1)
            assert got == pytest.approx(want, abs=1e-12)


def test_nonpositive_weights_rejected():
    for weights in ([[0.5, 0.0], [0.1, 0.2]], np.zeros((0, 3)), [[math.nan, 1.0], [1.0, 1.0]],
                    [[math.inf, 1.0], [1.0, 1.0]], np.full((2, 2), 1e308)):
        with pytest.raises(ValueError):
            SoftMatrix(weights)


def test_parse_reads_weights_changed_after_construction():
    # The matrix keeps the caller's array, so a parse sees later changes.
    diagonal = np.full((3, 3), 0.01) + np.eye(3)
    anti = diagonal[:, ::-1].copy()
    matrix = SoftMatrix(diagonal.copy())
    assert top_down_parse(matrix, 10) != top_down_parse(SoftMatrix(anti), 10)
    matrix.weights[:] = anti
    assert top_down_parse(matrix, 10) == top_down_parse(SoftMatrix(anti), 10)


def test_batch_build_equals_per_pair_reference_exactly():
    # One lexicon gather for many pairs of mixed shapes must give every
    # pair the same weights, to the bit, as building it alone; and one
    # lockstep group the same integral image of them as the oracle's.
    rng = np.random.default_rng(17)
    vocab = 12
    fwd = {(f, e): float(rng.uniform(1e-6, 1.0)) for f in range(1, vocab) for e in range(vocab) if rng.random() < 0.6}
    rev = {(e, f): float(rng.uniform(1e-6, 1.0)) for f in range(vocab) for e in range(1, vocab) if rng.random() < 0.6}
    t_fwd, t_rev = tables_of(fwd, rev, vocab - 1, vocab - 1)
    shapes = [(1, 1), (1, 7), (6, 1), (3, 9), (9, 3), *SHAPES, (2, 5)]
    pairs = [SentencePair(tuple(int(x) for x in rng.integers(-1, vocab, size=n)),
                          tuple(int(x) for x in rng.integers(-1, vocab, size=m)), k)
             for k, (n, m) in enumerate(shapes)]
    for config in (AlignerConfig(), AlignerConfig(sigma_theta=1.0, distortion=False)):
        matrices = build_soft_matrices(pairs, t_fwd, t_rev, config)
        for pair, matrix in zip(pairs, matrices):
            assert np.array_equal(matrix.weights, oracles.reference_soft_matrix(pair, t_fwd, t_rev, config))
        split = [mat for mat in matrices if mat.n > 1 and mat.m > 1]
        for matrix, p in zip(split, integral_images(split)):
            assert np.array_equal(p, oracles.prefix_table(matrix.weights))
    assert build_soft_matrices([], t_fwd, t_rev, config) == []
