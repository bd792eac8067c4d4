import itertools
import math
import os
import random
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma as scipy_digamma

import oracles
from conftest import TOKENS
from hieralign import lexicon
from hieralign.corpus import (
    NULL_ID,
    NULL_TOKEN,
    SentencePair,
    Vocabulary,
    build_vocabulary,
    drop_empty,
    encode_pairs,
    load_parallel_corpus,
)
from hieralign.lexicon import (
    FORWARD,
    NULL_FIELD,
    REVERSE,
    TINY_PROB,
    TTable,
    _Links,
    corpus_log_likelihood,
    digamma,
    expected_counts,
    flatten_pairs,
    normalize_plain,
    normalize_vb,
    pack,
    product_cells,
    symmetric_lexical_score,
    train_ibm1,
    uniform_init,
    vbh_reestimate,
    viterbi_links,
)
from hieralign.pipeline import AlignerConfig, load_model, save_model, train_model

EULER_GAMMA = 0.5772156649015329
FALLBACK = AlignerConfig().fallback
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def corpus_from_tokens(token_pairs):
    raw = drop_empty(token_pairs)
    vsrc, vtgt = build_vocabulary(raw)
    return encode_pairs(raw, vsrc, vtgt), vsrc, vtgt


def table_as_tokens(table, conditioned_vocab, conditioning_vocab):
    out = {}
    for (f, e), p in oracles.as_dict(table.probs).items():
        e_tok = oracles.NULL if e == NULL_ID else conditioning_vocab.token(e)
        out[(conditioned_vocab.token(f), e_tok)] = p
    return out


# --- digamma ---

def test_digamma_closed_forms():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-9)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-9)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-9)


def test_digamma_recurrence():
    assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-12)


def test_digamma_against_scipy():
    x = 0.01
    while x < 60.0:
        assert abs(digamma(x) - scipy_digamma(x)) < 1e-10, f"x={x}"
        x *= 1.37


def test_digamma_domain_error():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-2.5)
    with pytest.raises(ValueError):
        digamma(np.array([[1.0, 2.0], [3.0, -0.0]]))


def digamma_grid():
    """Tiny x, x just around 6 (the lift's end), and large x."""
    six = np.array([6.0])
    return np.concatenate([
        [np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).tiny],
        np.geomspace(1e-300, 1e-2, 31),
        np.linspace(0.01, 5.9, 41),
        np.nextafter(six, 0.0), six, np.nextafter(six, 7.0),
        6.0 + np.linspace(-1e-9, 1e-9, 11),
        np.linspace(5.0, 7.0, 41),
        np.geomspace(7.0, 1e300, 31),
        [np.inf],
    ])


# 1 / smallest_subnormal overflows to inf, so psi there is -inf on both sides.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_digamma_is_bit_exact_against_the_lift_loop():
    grid = digamma_grid()
    arg = grid.copy()
    got = digamma(arg)
    assert np.array_equal(arg, grid)  # the argument is not lifted in place
    assert np.array_equal(got, oracles.reference_digamma(grid))
    square = grid[:16].reshape(4, 4)
    assert np.array_equal(digamma(square), oracles.reference_digamma(square))
    for x in grid[::7].tolist():
        value = digamma(x)
        assert type(value) is float
        assert value == oracles.reference_digamma(x)
        assert digamma(np.array(x)) == oracles.reference_digamma(np.array(x))
        assert type(digamma(np.array(x))) is type(oracles.reference_digamma(np.array(x)))


# --- cell layout ---


@pytest.mark.parametrize("use_null", [False, True])
def test_product_cells_and_links_equal_nested_loops(use_null):
    # Ragged batches, one-word sides, a batch of one-word pairs and the
    # empty batch among them, in both directions; with NULL, each
    # conditioned word's links end in one more column. Each pair is
    # oriented on its own, by the oracle.
    rng = random.Random(31)
    batches = [[], [(["s1"], ["t1"])], [(["s1"], ["t2"]), (["s2"], ["t2"]), (["s2"], ["t1"])]]
    for count in [1, *(rng.randint(2, 40) for _ in range(15))]:
        batches.append([([f"s{rng.randrange(12)}" for _ in range(rng.choice([1, rng.randint(1, 9)]))],
                         [f"t{rng.randrange(12)}" for _ in range(rng.choice([1, rng.randint(1, 9)]))])
                        for _ in range(count)])
    for token_pairs, direction in itertools.product(batches, (FORWARD, REVERSE)):
        pairs = corpus_from_tokens(token_pairs)[0] if token_pairs else []
        sides = [oracles.oriented(pair, direction) for pair in pairs]
        n = np.array([len(cond) for cond, _ in sides], dtype=np.int64)
        m = np.array([len(cing) + use_null for _, cing in sides], dtype=np.int64)
        want, row0, col0 = [], 0, 0
        for k, (a, b) in enumerate(zip(n.tolist(), m.tolist())):
            want += [(k, j, i, row0 + j, col0 + i) for j in range(a) for i in range(b)]
            row0, col0 = row0 + a, col0 + b
        assert list(zip(*(column.tolist() for column in product_cells(n, m)))) == want
        flat = flatten_pairs(pairs)
        assert [array.dtype for array in flat] == [np.int64] * 4
        assert [array.tolist() for array in flat] == [[pair.n for pair in pairs], [pair.m for pair in pairs],
                                                      [f for pair in pairs for f in pair.source],
                                                      [e for pair in pairs for e in pair.target]]
        if not pairs:
            continue
        links = _Links(flat, direction, use_null)
        null = (NULL_ID,) if use_null else ()
        occurrences = [(cond[j], cing + null) for cond, cing in sides for j in range(len(cond))]
        want_keys = [int(pack(word, other)) for word, others in occurrences for other in others]
        assert links.keys[links.key_of_link].tolist() == want_keys
        assert links.occ.tolist() == [k for k, (_, others) in enumerate(occurrences) for _ in others]
        assert links.slots.tolist() == [len(others) for _, others in occurrences]


# --- EM training ---

TOY = [
    (["das", "haus"], ["the", "house"]),
    (["das"], ["the"]),
]


def test_plain_em_matches_brute_force():
    pairs, vsrc, vtgt = corpus_from_tokens(TOY)
    config = AlignerConfig(em_iters=5, vb=False, use_null=False)
    table = train_ibm1(pairs, REVERSE, config)
    got = table_as_tokens(table, vtgt, vsrc)
    oriented = [(tgt, src) for src, tgt in TOY]
    want = oracles.brute_force_ibm1(oriented, iterations=5, use_null=False, vb=False)
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12)
    assert got[("the", "das")] > got[("house", "das")]


def test_vb_em_matches_brute_force():
    pairs, vsrc, vtgt = corpus_from_tokens(TOY + [(["haus", "ist"], ["house", "is"])])
    config = AlignerConfig(em_iters=5, vb=True, alpha=0.01, use_null=True)
    table = train_ibm1(pairs, FORWARD, config)
    got = table_as_tokens(table, vsrc, vtgt)
    want = oracles.brute_force_ibm1(
        [(src, tgt) for src, tgt in TOY + [(["haus", "ist"], ["house", "is"])]],
        iterations=5,
        use_null=True,
        vb=True,
        alpha=0.01,
    )
    assert set(got) == set(want)
    for key in want:
        # The oracle runs on scipy's digamma; ours is contracted to 1e-10
        # per call, so iterated agreement is checked at 1e-9.
        assert got[key] == pytest.approx(want[key], abs=1e-9)


def test_single_pair_single_iteration():
    pairs, _, _ = corpus_from_tokens([(["a"], ["x"])])
    table = train_ibm1(pairs, FORWARD, AlignerConfig(em_iters=1, vb=False, use_null=False))
    assert oracles.as_dict(table.probs) == {(1, 1): 1.0}


def test_training_is_deterministic():
    pairs, _, _ = corpus_from_tokens(TOY)
    config = AlignerConfig()
    first = train_ibm1(pairs, FORWARD, config)
    second = train_ibm1(pairs, FORWARD, config)
    assert first.probs == second.probs


def test_worker_count_does_not_change_tables():
    token_pairs = [
        ([f"s{k % 7}", f"s{(k + 3) % 7}"], [f"t{k % 5}", f"t{(k + 1) % 5}"])
        for k in range(300)
    ]
    pairs, _, _ = corpus_from_tokens(token_pairs)
    config = AlignerConfig(em_iters=2)
    serial = train_ibm1(pairs, FORWARD, config, threads=1)
    parallel = train_ibm1(pairs, FORWARD, config, threads=3)
    assert serial.probs == parallel.probs


def test_expected_counts_ignore_worker_count():
    token_pairs = [
        ([f"s{k % 7}", f"s{(k + 3) % 7}"], [f"t{k % 5}", f"t{(k + 1) % 5}"])
        for k in range(300)
    ]
    pairs, _, _ = corpus_from_tokens(token_pairs)
    config = AlignerConfig()
    table = uniform_init(pairs, FORWARD, config)
    serial = expected_counts(pairs, table, config, 1)
    parallel = expected_counts(pairs, table, config, 2)
    assert (serial == parallel) is True
    assert (serial != parallel) is False


def test_expected_counts_name_a_pair_missing_from_the_table():
    pairs, _, _ = corpus_from_tokens([(["a"], ["x"]), (["a"], ["y"])])
    config = AlignerConfig()
    table = uniform_init(pairs[:1], FORWARD, config)
    with pytest.raises(KeyError) as err:
        expected_counts(pairs, table, config)
    assert err.value.args == ((pairs[1].source[0], pairs[1].target[0]),)


@pytest.mark.parametrize("direction", [FORWARD, REVERSE])
@pytest.mark.parametrize("vb", [True, False])
def test_array_em_matches_dict_reference(smoke_corpus, direction, vb):
    pairs, _, _, _ = load_parallel_corpus(smoke_corpus["src"], smoke_corpus["tgt"])
    config = AlignerConfig(vb=vb)
    table = uniform_init(pairs, direction, config)
    sides = [oracles.oriented(pair, direction) for pair in pairs]
    ref = oracles.as_dict(table.probs)
    # Same table in, same summation order: the first E-step is bit-identical.
    assert oracles.as_dict(expected_counts(pairs, table, config)) == oracles.dict_expected_counts(sides, ref, True)
    for _ in range(config.em_iters):
        counts = oracles.dict_expected_counts(sides, ref, config.use_null)
        if vb:
            ref = oracles.dict_normalize_vb(counts, config.alpha, table.cond_vocab_size)
        else:
            ref = oracles.dict_normalize_plain(counts)
    got = oracles.as_dict(train_ibm1(pairs, direction, config).probs)
    assert set(got) == set(ref)
    want = np.array([ref[key] for key in got])
    np.testing.assert_allclose(list(got.values()), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("direction", [FORWARD, REVERSE])
@pytest.mark.parametrize("vb", [True, False])
@pytest.mark.parametrize("use_null", [True, False])
def test_train_ibm1_equals_the_public_em_loop(direction, vb, use_null):
    # Repeated words within and across pairs.
    rng = random.Random(14)
    token_pairs = [
        ([f"s{rng.randrange(30)}" for _ in range(rng.randint(1, 9))],
         [f"t{rng.randrange(25)}" for _ in range(rng.randint(1, 9))])
        for _ in range(273)
    ]
    pairs, _, _ = corpus_from_tokens(token_pairs)
    config = AlignerConfig(em_iters=3, vb=vb, use_null=use_null)
    table = uniform_init(pairs, direction, config)
    assert table.cond_vocab_size == len(set(table.probs.conditioned().tolist()))
    for _ in range(config.em_iters):
        table = oracles.em_step(pairs, table, config)
    got = train_ibm1(pairs, direction, config)
    assert np.array_equal(got.probs.packed, table.probs.packed)
    assert np.array_equal(got.probs.data, table.probs.data)
    assert (got.direction, got.cond_vocab_size, got.fallback) == (
        table.direction, table.cond_vocab_size, table.fallback)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_ibm1([], FORWARD, AlignerConfig())


# --- M-step formulas ---

def test_plain_mstep_normalizes_counts():
    probs = oracles.as_dict(normalize_plain(oracles.pair_map({(1, 5): 3.0, (2, 5): 1.0})))
    assert probs[(1, 5)] == pytest.approx(0.75)
    assert probs[(2, 5)] == pytest.approx(0.25)


def test_vb_mstep_formula():
    # Corpus {(x, e), (y, u)} with NULL off: one count per pair, V = 2.
    pairs, vsrc, vtgt = corpus_from_tokens([(["x"], ["e"]), (["y"], ["u"])])
    config = AlignerConfig(em_iters=1, vb=True, alpha=0.01, use_null=False)
    table = train_ibm1(pairs, FORWARD, config)
    got = table_as_tokens(table, vsrc, vtgt)
    want = math.exp(digamma(1.01)) / math.exp(digamma(1.02))
    assert got[("x", "e")] == pytest.approx(want, rel=1e-12)


def test_vb_mstep_direct():
    probs = oracles.as_dict(normalize_vb(oracles.pair_map({(1, 5): 1.0}), alpha=0.01, vocab_size=2))
    want = math.exp(scipy_digamma(1.01)) / math.exp(scipy_digamma(1.02))
    assert probs[(1, 5)] == pytest.approx(want, abs=1e-9)


def test_vb_subnormalization():
    pairs, _, _ = corpus_from_tokens(
        [(["a", "b"], ["x"]), (["b", "c"], ["x", "y"]), (["a"], ["y"])]
    )
    table = train_ibm1(pairs, FORWARD, AlignerConfig(em_iters=3, vb=True))
    sums = {}
    for (f, e), p in oracles.as_dict(table.probs).items():
        assert 0.0 < p <= 1.0
        sums[e] = sums.get(e, 0.0) + p
    for total in sums.values():
        assert 0.0 < total <= 1.0 + 1e-12


def test_plain_em_rows_sum_to_one():
    pairs, _, _ = corpus_from_tokens(TOY + [(["haus", "ist"], ["house", "is"])])
    table = train_ibm1(pairs, FORWARD, AlignerConfig(em_iters=4, vb=False))
    sums = {}
    for (f, e), p in oracles.as_dict(table.probs).items():
        assert 0.0 < p <= 1.0
        sums[e] = sums.get(e, 0.0) + p
    for e, total in sums.items():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_em_config_validation():
    with pytest.raises(ValueError):
        AlignerConfig(em_iters=0)
    with pytest.raises(ValueError):
        AlignerConfig(alpha=0.0)


def test_plain_em_likelihood_monotone():
    pairs, _, _ = corpus_from_tokens(
        [(["a", "b", "c"], ["x", "y"]), (["b", "c"], ["y", "z"]), (["a"], ["x", "z"])] * 4
    )
    for use_null in (True, False):
        config = AlignerConfig(em_iters=1, vb=False, use_null=use_null)
        table = uniform_init(pairs, FORWARD, config)
        previous = corpus_log_likelihood(pairs, table, config)
        for _ in range(5):
            table = oracles.em_step(pairs, table, config)
            current = corpus_log_likelihood(pairs, table, config)
            assert current >= previous - 1e-9
            previous = current


def test_direction_symmetry():
    pairs, _, _ = corpus_from_tokens(TOY)
    swapped_tokens = [(tgt, src) for src, tgt in TOY]
    swapped, _, _ = corpus_from_tokens(swapped_tokens)
    config = AlignerConfig()
    fwd = train_ibm1(pairs, FORWARD, config)
    rev = train_ibm1(swapped, REVERSE, config)
    assert fwd.probs == rev.probs


# --- lexical score ---

def make_table(direction, probs, size=4):
    return TTable(direction, oracles.pair_map(probs), size, FALLBACK)


def test_symmetric_score_perfect():
    t_fwd = make_table(FORWARD, {(1, 1): 1.0})
    t_rev = make_table(REVERSE, {(1, 1): 1.0})
    assert symmetric_lexical_score(t_fwd, t_rev, 1, 1) == pytest.approx(0.0)


def test_symmetric_score_geometric_mean():
    t_fwd = make_table(FORWARD, {(1, 1): 0.25})
    t_rev = make_table(REVERSE, {(1, 1): 0.25})
    assert symmetric_lexical_score(t_fwd, t_rev, 1, 1) == pytest.approx(math.log(0.25))


def test_symmetric_score_fallback():
    t_fwd = make_table(FORWARD, {})
    t_rev = make_table(REVERSE, {})
    assert symmetric_lexical_score(t_fwd, t_rev, 3, 9) == pytest.approx(math.log(1e-10))


# --- Viterbi ---

def viterbi_sets(pairs, table, use_null):
    """Each pair's links (source index, target index) from viterbi_links."""
    best = viterbi_links(pairs, table, use_null).tolist()
    sets, k = [], 0
    for pair in pairs:
        words = pair.n if table.direction == FORWARD else pair.m
        links = {(a, b) for a, b in enumerate(best[k:k + words]) if b >= 0}
        sets.append(links if table.direction == FORWARD else {(b, a) for a, b in links})
        k += words
    assert k == len(best)
    return sets


def test_viterbi_uniform_ties_to_lowest_index():
    pair = SentencePair((1, 2), (1, 2), 0)
    table = make_table(FORWARD, {(f, e): 0.5 for f in (1, 2) for e in (1, 2)})
    assert viterbi_sets([pair], table, use_null=False) == [{(0, 0), (1, 0)}]


def test_viterbi_diagonal():
    pair = SentencePair((1, 2), (1, 2), 0)
    probs = {(1, 1): 0.9, (1, 2): 0.1, (2, 1): 0.1, (2, 2): 0.9}
    table = make_table(FORWARD, probs)
    assert viterbi_sets([pair], table, use_null=False) == [{(0, 0), (1, 1)}]
    rev = make_table(REVERSE, dict(probs))
    assert viterbi_sets([pair], rev, use_null=False) == [{(0, 0), (1, 1)}]


def test_viterbi_null_must_win_strictly():
    pair = SentencePair((1,), (1, 2), 0)
    dominated = make_table(FORWARD, {(1, 1): 0.4, (1, 2): 0.1, (1, NULL_ID): 0.5})
    assert viterbi_sets([pair], dominated, use_null=True) == [set()]
    tied = make_table(FORWARD, {(1, 1): 0.5, (1, 2): 0.1, (1, NULL_ID): 0.5})
    assert viterbi_sets([pair], tied, use_null=True) == [{(0, 0)}]


# Probability levels few enough that words tie often, the fallback among them.
LEVELS = (0.1, 0.25, 0.5)


def random_viterbi_case(rng, direction, kind, use_null):
    """(pairs, table) of a seeded random corpus over a 4-word vocabulary.

    kind "levels" draws every entry from LEVELS; "uniform" gives all of
    them one value, NULL too; "null_tied" sets each word's NULL entry to its
    best entry, so NULL ties the best word wherever that word is present;
    "missing" drops about half the entries, which then read the fallback;
    "one_word" makes every side a single word; "trained" is the EM table.
    """
    max_len = 1 if kind == "one_word" else 6
    pairs = [
        SentencePair(tuple(rng.integers(1, 5, size=rng.integers(1, max_len + 1)).tolist()),
                     tuple(rng.integers(1, 5, size=rng.integers(1, max_len + 1)).tolist()), k)
        for k in range(int(rng.integers(1, 12)))
    ]
    if kind == "trained":
        config = AlignerConfig(em_iters=2, use_null=use_null)
        return pairs, train_ibm1(pairs, direction, config)
    keys = sorted({(f, e) for pair in pairs for cond, cing in [oracles.oriented(pair, direction)]
                   for f in cond for e in cing + (NULL_ID,)})
    probs = {key: float(rng.choice(LEVELS)) for key in keys}
    if kind == "uniform":
        probs = dict.fromkeys(keys, 0.5)
    elif kind == "null_tied":
        for f, e in keys:
            probs[(f, NULL_ID)] = max(probs[(f, NULL_ID)], probs[(f, e)])
    elif kind == "missing":
        probs = {key: p for key, p in probs.items() if rng.random() < 0.5}
    return pairs, TTable(direction, oracles.pair_map(probs), 4, LEVELS[0])


@pytest.mark.parametrize("kind", ["levels", "uniform", "null_tied", "missing", "one_word", "trained"])
@pytest.mark.parametrize("use_null", [True, False])
@pytest.mark.parametrize("direction", [FORWARD, REVERSE])
def test_viterbi_links_equal_per_pair_oracle(direction, use_null, kind):
    for seed in range(40):
        pairs, table = random_viterbi_case(np.random.default_rng(seed), direction, kind, use_null)
        want = [oracles.viterbi_alignment(pair, table, use_null) for pair in pairs]
        assert viterbi_sets(pairs, table, use_null) == want, f"seed {seed}"


# --- VBH ---

def test_vbh_monotone_agreement_gives_unit_probs():
    pairs, _, _ = corpus_from_tokens([(["a", "b"], ["x", "y"]), (["b"], ["y"])])
    probs_fwd = {(1, 1): 0.9, (1, 2): 0.1, (2, 1): 0.1, (2, 2): 0.9}
    probs_rev = {(1, 1): 0.9, (1, 2): 0.1, (2, 1): 0.1, (2, 2): 0.9}
    t_fwd = make_table(FORWARD, probs_fwd)
    t_rev = make_table(REVERSE, probs_rev)
    new_fwd, new_rev = vbh_reestimate(pairs, t_fwd, t_rev, use_null=False)
    assert oracles.as_dict(new_fwd.probs) == {(1, 1): 1.0, (2, 2): 1.0}
    assert oracles.as_dict(new_rev.probs) == {(1, 1): 1.0, (2, 2): 1.0}


def test_vbh_pair_with_empty_symmetrization_contributes_nothing():
    # Forward Viterbi links only (0, 1), reverse only (1, 0): the
    # symmetrized set is empty, so no counts are collected at all.
    pairs, _, _ = corpus_from_tokens([(["a", "b"], ["x", "y"])])
    t_fwd = make_table(
        FORWARD, {(1, 1): 0.1, (1, 2): 0.9, (2, 1): 0.1, (2, 2): 0.1, (2, NULL_ID): 0.9}
    )
    t_rev = make_table(
        REVERSE, {(1, 1): 0.1, (1, 2): 0.9, (2, 1): 0.1, (2, 2): 0.1, (2, NULL_ID): 0.9}
    )
    new_fwd, new_rev = vbh_reestimate(pairs, t_fwd, t_rev, use_null=True)
    assert len(new_fwd.probs) == len(new_rev.probs) == 0


def test_vbh_idempotent_when_viterbi_stable():
    pairs, _, _ = corpus_from_tokens([(["a", "b"], ["x", "y"]), (["b"], ["y"]), (["a"], ["x"])])
    config = AlignerConfig(em_iters=3)
    t_fwd = train_ibm1(pairs, FORWARD, config)
    t_rev = train_ibm1(pairs, REVERSE, config)
    once_fwd, once_rev = vbh_reestimate(pairs, t_fwd, t_rev, config.use_null)
    twice_fwd, twice_rev = vbh_reestimate(pairs, once_fwd, once_rev, config.use_null)
    assert once_fwd.probs == twice_fwd.probs
    assert once_rev.probs == twice_rev.probs


def zipf_corpus(monkeypatch, seed):
    """perfbench's zipf corpus at seed, encoded."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpora

    src, tgt, _ = corpora.generate(corpora.WORKLOADS["zipf"], seed)
    return corpus_from_tokens(list(zip(src, tgt)))


@pytest.mark.parametrize("use_null", [True, False])
@pytest.mark.parametrize("seed", [1000, 7])
def test_vbh_tables_equal_per_pair_composition(monkeypatch, seed, use_null):
    # Per-pair Viterbi on the EM tables, the oracles' set-loop grow-diag, and
    # plain counts normalized per conditioning word, through both
    # train_model and vbh_reestimate.
    pairs, vsrc, vtgt = zipf_corpus(monkeypatch, seed)
    config = AlignerConfig(vbh=True, use_null=use_null)
    t_fwd, t_rev = train_ibm1(pairs, FORWARD, config), train_ibm1(pairs, REVERSE, config)
    counts_fwd, counts_rev = Counter(), Counter()
    for pair in pairs:
        a_fwd = oracles.viterbi_alignment(pair, t_fwd, use_null)
        a_rev = oracles.viterbi_alignment(pair, t_rev, use_null)
        for j, i in oracles.reference_grow_diag(a_fwd, a_rev):
            counts_fwd[(pair.source[j], pair.target[i])] += 1.0
            counts_rev[(pair.target[i], pair.source[j])] += 1.0
    want_fwd = oracles.dict_normalize_plain(counts_fwd)
    want_rev = oracles.dict_normalize_plain(counts_rev)
    model = train_model(pairs, vsrc, vtgt, config)
    assert oracles.as_dict(model.t_fwd.probs) == want_fwd and oracles.as_dict(model.t_rev.probs) == want_rev
    new_fwd, new_rev = vbh_reestimate(pairs, t_fwd, t_rev, use_null)
    assert new_fwd.probs == model.t_fwd.probs and new_rev.probs == model.t_rev.probs


@pytest.mark.parametrize("vbh", [False, True])
def test_training_flattens_its_pairs_once(monkeypatch, vbh):
    # Both directions' links and VBH's re-estimation read the same arrays.
    pairs, vsrc, vtgt = corpus_from_tokens(TOY)
    want = train_model(pairs, vsrc, vtgt, AlignerConfig(vbh=vbh))
    calls = []
    monkeypatch.setattr(lexicon, "flatten_pairs", lambda pairs: calls.append(pairs) or flatten_pairs(pairs))
    model = train_model(pairs, vsrc, vtgt, AlignerConfig(vbh=vbh))
    assert calls == [pairs]
    assert model.t_fwd.probs == want.t_fwd.probs and model.t_rev.probs == want.t_rev.probs


def test_vbh_training_peak_memory_stays_within_em_training(monkeypatch):
    # VBH reads each direction's Viterbi links from the links its EM ran
    # on, one direction's links alive at a time, so it adds next to nothing
    # to the peak of training without it.
    pairs, vsrc, vtgt = zipf_corpus(monkeypatch, 1000)
    train_model(pairs, vsrc, vtgt, AlignerConfig(vbh=True))  # first-call allocations
    peaks = {}
    for vbh in (False, True):
        tracemalloc.start()
        try:
            train_model(pairs, vsrc, vtgt, AlignerConfig(vbh=vbh))
            peaks[vbh] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[True] <= 1.05 * peaks[False]


# --- persistence ---

def test_ttable_roundtrip(tmp_path):
    pairs, vsrc, vtgt = corpus_from_tokens(TOY)
    table = train_ibm1(pairs, FORWARD, AlignerConfig())
    path = tmp_path / "ttable.fwd"
    table.save(path, vsrc, vtgt)
    reloaded = TTable.load(path, vsrc, vtgt, FALLBACK)
    assert reloaded.direction == table.direction
    assert reloaded.cond_vocab_size == table.cond_vocab_size
    assert reloaded.probs == table.probs


def test_null_token_in_corpus_survives_model_roundtrip(tmp_path):
    pairs, vsrc, vtgt = corpus_from_tokens(
        [(["a", NULL_TOKEN, "b"], ["x", "y"]), (["a", "b"], ["x"]), ([NULL_TOKEN, "c"], ["z", "y"])]
    )
    model = train_model(pairs, vsrc, vtgt, AlignerConfig())
    save_model(model, tmp_path / "model")
    reloaded = load_model(tmp_path / "model")
    assert len(reloaded.t_rev.probs) == len(model.t_rev.probs) == 12
    assert reloaded.t_fwd.probs == model.t_fwd.probs
    assert reloaded.t_rev.probs == model.t_rev.probs


def test_legacy_null_token_column_loads(tmp_path):
    vsrc, vtgt = Vocabulary(), Vocabulary()
    vsrc.add("a")
    vtgt.add("x")
    path = tmp_path / "ttable.fwd"
    path.write_text(f"#ttable fwd 1\na\tx\t0.75\na\t{NULL_TOKEN}\t0.25\n", encoding="utf-8")
    assert oracles.as_dict(TTable.load(path, vsrc, vtgt, FALLBACK).probs) == {(1, 1): 0.75, (1, NULL_ID): 0.25}


@pytest.mark.parametrize(
    "row, message",
    [
        ("a\tx", "expected 3 tab-separated fields, got 2"),
        ("a\tx\t0.5\textra", "expected 3 tab-separated fields, got 4"),
        ("a\tx\tmuch", "probability 'much' is not a number in (0, 1]"),
        ("a\tx\t0", "probability '0' is not a number in (0, 1]"),
        ("a\tx\t1.5", "probability '1.5' is not a number in (0, 1]"),
        ("a\tx\tnan", "probability 'nan' is not a number in (0, 1]"),
        ("b\tx\t0.5", "token 'b' is not in the vocabulary"),
        ("a\tw\t0.5", "token 'w' is not in the vocabulary"),
        ("a\t\t0.5", "duplicate entry"),
        # Two rows whose tab counts add up to two per line, in either order.
        ("a\tx\na\tx\t0.5\textra", "expected 3 tab-separated fields, got 2"),
        ("a\tx\t0.5\textra\na\tx", "expected 3 tab-separated fields, got 4"),
        ("", "expected 3 tab-separated fields, got 1"),
        ("a\tx\tinf", "probability 'inf' is not a number in (0, 1]"),
        # The first of two bad probabilities is reported, though they
        # would sort the other way.
        ("a\tx\tmuch\na\tx\tless", "probability 'much' is not a number in (0, 1]"),
    ],
)
def test_ttable_load_rejects_malformed_row(tmp_path, row, message):
    vsrc, vtgt = Vocabulary(), Vocabulary()
    vsrc.add("a")
    vtgt.add("x")
    path = tmp_path / "ttable.fwd"
    path.write_text(f"#ttable fwd 1\na\t\t0.25\n{row}\na\tx\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        TTable.load(path, vsrc, vtgt, FALLBACK)
    assert str(err.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("header", ["#ttable fwd", "#ttable fwd 1 1", "#table fwd 1", "#ttable fwd x",
                                    # A superscript is a digit to str.isdigit but not to int().
                                    "#ttable fwd \u00b2"])
def test_ttable_load_rejects_malformed_header(tmp_path, header):
    vsrc, vtgt = Vocabulary(), Vocabulary()
    vsrc.add("a")
    vtgt.add("x")
    path = tmp_path / "ttable.fwd"
    path.write_text(f"{header}\na\tx\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        TTable.load(path, vsrc, vtgt, FALLBACK)
    assert str(err.value) == f"{path}:1: not a ttable file"


def test_ttable_load_rejects_an_unknown_direction(tmp_path):
    vsrc, vtgt = Vocabulary(), Vocabulary()
    vsrc.add("a")
    vtgt.add("x")
    path = tmp_path / "ttable.fwd"
    path.write_text("#ttable sideways 1\na\tx\t0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        TTable.load(path, vsrc, vtgt, FALLBACK)
    assert str(err.value) == f"{path}:1: unknown direction 'sideways'"


def draw_vocabulary(data):
    vocab = Vocabulary()
    for token in data.draw(st.lists(TOKENS, min_size=1, max_size=5, unique=True)):
        vocab.add(token)
    return vocab


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ttable_save_load_roundtrip_any_tokens(data):
    vsrc, vtgt = draw_vocabulary(data), draw_vocabulary(data)
    keys = st.tuples(st.integers(1, len(vsrc) - 1), st.integers(0, len(vtgt) - 1))
    probs = data.draw(st.dictionaries(keys, st.floats(0.0, 1.0, exclude_min=True), max_size=12))
    table = TTable(FORWARD, oracles.pair_map(probs), vsrc.real_size, FALLBACK)
    with tempfile.TemporaryDirectory() as root:
        paths = [os.path.join(root, name) for name in ("vocab.src", "vocab.tgt", "ttable.fwd")]
        vsrc.save(paths[0])
        vtgt.save(paths[1])
        table.save(paths[2], vsrc, vtgt)
        reloaded = TTable.load(paths[2], Vocabulary.load(paths[0]), Vocabulary.load(paths[1]), FALLBACK)
    assert reloaded.direction == FORWARD
    assert reloaded.cond_vocab_size == vsrc.real_size
    assert reloaded.probs == table.probs


def test_ttable_load_reports_a_bad_probability_after_repeated_ones(tmp_path):
    vsrc, vtgt = Vocabulary(), Vocabulary()
    vsrc.add("a")
    vsrc.add("b")
    vtgt.add("x")
    path = tmp_path / "ttable.fwd"
    path.write_text("#ttable fwd 2\na\tx\t0.5\na\t\t0.5\nb\tx\t0.5\nb\t\tmuch\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        TTable.load(path, vsrc, vtgt, FALLBACK)
    assert str(err.value) == f"{path}:5: probability 'much' is not a number in (0, 1]"


def test_ttable_without_final_newline_loads(tmp_path):
    vsrc, vtgt = Vocabulary(), Vocabulary()
    vsrc.add("a")
    vtgt.add("x")
    path = tmp_path / "ttable.fwd"
    path.write_text("#ttable fwd 1\na\tx\t0.75\na\t\t0.25", encoding="utf-8")
    assert oracles.as_dict(TTable.load(path, vsrc, vtgt, FALLBACK).probs) == {(1, 1): 0.75, (1, NULL_ID): 0.25}


# Token sets the byte-level reader must tell apart: over 8 bytes with their
# first 8 bytes and their length in common (and their last 8 bytes too),
# lengths on both sides of 8, multi-byte UTF-8, and NUL bytes, among them a
# token whose first 8 bytes are a shorter token's key (its bytes, then its
# length in the top byte).
EDGE_TOKENS = {
    "long": ["abcdefgh_1_x", "abcdefgh_2_x", "abcdefgh_3_y", "abcdefgh", "abcdefghi", "abcdefg",
             "abcdefgh1ijklmnop", "abcdefgh2ijklmnop", "abcdefgh3ijklmnop", "abcdefgh12ijklmnop"],
    "utf8": ["Haus", "Häuser", "häuser", "日本語", "日本", "Ωμέγα", "\U0001d518\U0001d52b", "naïveté_ëxtra"],
    "nul": ["a", "a\x00", "\x00a", "\x00", "a\x00\x00", "abc", "abc\x00\x00\x00\x00\x03tail", "abc\x00\x00\x00\x00\x03"],
}


# Probability texts with runs of equal neighbours among them, two of them
# equal in length and in their first 8 bytes.
EDGE_PROB_TEXTS = ["0.5", "1", "0.25", "6.0974885186877035e-45", "0.12345678901", "0.12345678902", "1e-300"]


def edge_table_rows(tokens, rng):
    """Rows of every (conditioned, conditioning) pair over tokens, NULL included."""
    return [f"{f}\t{e}\t{rng.choice(EDGE_PROB_TEXTS)}" for f in tokens for e in [NULL_FIELD] + tokens]


@pytest.mark.parametrize("tokens", sorted(EDGE_TOKENS))
@pytest.mark.parametrize("order", ["written", "shuffled"])
@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
def test_ttable_load_equals_the_split_reference(tmp_path, tokens, order, line_end):
    rng = random.Random(f"{tokens}:{order}")
    vsrc, vtgt = Vocabulary(), Vocabulary()
    for token in EDGE_TOKENS[tokens]:
        vsrc.add(token)
        vtgt.add(token)
    rows = edge_table_rows(EDGE_TOKENS[tokens], rng)
    if order == "shuffled":
        rng.shuffle(rows)
    path = tmp_path / "ttable.fwd"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line_end.join([f"#ttable fwd {vsrc.real_size}"] + rows) + line_end)
    loaded = oracles.as_dict(TTable.load(path, vsrc, vtgt, FALLBACK).probs)
    assert loaded == oracles.reference_ttable_load(path, vsrc, vtgt)
    assert len(loaded) == len(rows)


@pytest.mark.parametrize(
    "rows, line, message",
    [
        # The first of two unknown tokens is reported, in either sort order of their bytes.
        ("zz\tx\t0.5\nb\tx\t0.5", 3, "token 'zz' is not in the vocabulary"),
        ("b\tx\t0.5\nzz\tx\t0.5", 3, "token 'b' is not in the vocabulary"),
        ("a_long_unknown_2\tx\t0.5\na_long_unknown_1\tx\t0.5", 3, "token 'a_long_unknown_2' is not in the vocabulary"),
        ("a_long_unknown_1\tx\t0.5\na_long_unknown_2\tx\t0.5", 3, "token 'a_long_unknown_1' is not in the vocabulary"),
        ("a\tzz\t0.5\na\tb\t0.5", 3, "token 'zz' is not in the vocabulary"),
        # An unknown conditioned token is reported before an earlier unknown conditioning one.
        ("a\tw\t0.5\nb\tx\t0.5", 4, "token 'b' is not in the vocabulary"),
        # A known token sharing its first 8 bytes and its length with the unknown one.
        ("a\tx\t0.5\nknown_long_2\tx\t0.5\nknown_long_1\tx\t0.5", 4, "token 'known_long_2' is not in the vocabulary"),
        # A bad probability is reported before an earlier duplicate entry.
        ("a\tx\t0.5\na\tx\t0.5\na\t\t7", 5, "probability '7' is not a number in (0, 1]"),
    ],
)
def test_ttable_load_reports_the_first_bad_row(tmp_path, rows, line, message):
    vsrc, vtgt = Vocabulary(), Vocabulary()
    for token in ("a", "known_long_1"):
        vsrc.add(token)
    vtgt.add("x")
    path = tmp_path / "ttable.fwd"
    path.write_text(f"#ttable fwd 1\na\t\t0.25\n{rows}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        TTable.load(path, vsrc, vtgt, FALLBACK)
    assert str(err.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("text, line", [
    (b"#ttable fwd 1\na\t\t0.25\na\t\xffx\t0.5\n", 3),
    (b"#ttable fwd 1\r\na\t\t0.25\r\na\tx\t0.5\r\na\t\t0.\xc3\n", 4),
    (b"#ttable \xff 1\na\tx\t0.5\n", 1),
    # An undecodable byte is reported before a malformed row above it.
    (b"#ttable fwd 1\na\tx\na\t\xe6\x97\t0.5\n", 3),
])
def test_ttable_load_reports_an_undecodable_byte_by_line(tmp_path, text, line):
    vsrc, vtgt = Vocabulary(), Vocabulary()
    vsrc.add("a")
    vtgt.add("x")
    path = tmp_path / "ttable.fwd"
    path.write_bytes(text)
    with pytest.raises(ValueError) as err:
        TTable.load(path, vsrc, vtgt, FALLBACK)
    assert not isinstance(err.value, UnicodeDecodeError)
    assert str(err.value).startswith(f"{path}:{line}: undecodable byte 0x")


def test_ttable_load_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    # A table shaped like a trained one: 45,300 rows, most entries of a
    # conditioning word sharing one of 97 values. Its load peaked at about
    # 3.5 times the file with whole columns of positions and keys, and at
    # over 8 times with a str object for every field.
    rng = random.Random(0)
    vsrc, vtgt = Vocabulary(), Vocabulary()
    for k in range(300):
        vsrc.add(f"src{k}")
    for k in range(150):
        vtgt.add(f"tgt{k}")
    pool = [rng.random() * 10.0 ** -rng.randrange(40) or 1.0 for _ in range(97)]
    probs = {(f, e): pool[e % 97] if rng.random() < 0.98 else rng.choice(pool)
             for f in range(1, 301) for e in range(151)}
    table = TTable(FORWARD, oracles.pair_map(probs), vsrc.real_size, FALLBACK)
    path = tmp_path / "ttable.fwd"
    table.save(path, vsrc, vtgt)
    TTable.load(path, vsrc, vtgt, FALLBACK)
    tracemalloc.start()
    try:
        loaded = TTable.load(path, vsrc, vtgt, FALLBACK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.probs == table.probs
    assert len(probs) >= 40_000
    assert peak < 5 * os.path.getsize(path)


# Probabilities the 17-digit writer must get right: both ends of the stored
# range, the smallest subnormal, a value with no exact binary form, and
# neighbours that differ only in the 17th significant digit.
EDGE_PROBS = [1.0, TINY_PROB, 5e-324, 0.1, math.nextafter(0.1, 1.0), math.nextafter(1.0, 0.0),
              0.3, math.nextafter(0.3, 0.0)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ttable_save_writes_reference_bytes(data):
    vsrc, vtgt = draw_vocabulary(data), draw_vocabulary(data)
    # A few values shared by many entries, as in trained tables.
    pool = data.draw(st.lists(st.sampled_from(EDGE_PROBS) | st.floats(0.0, 1.0, exclude_min=True),
                              min_size=1, max_size=4))
    keys = st.tuples(st.integers(1, len(vsrc) - 1), st.integers(0, len(vtgt) - 1))
    probs = data.draw(st.dictionaries(keys, st.sampled_from(pool), max_size=25))
    table = TTable(REVERSE, oracles.pair_map(probs), vsrc.real_size, FALLBACK)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ttable.rev")
        table.save(path, vsrc, vtgt)
        with open(path, "rb") as fh:
            written = fh.read()
        reloaded = TTable.load(path, vsrc, vtgt, FALLBACK)
    assert written == oracles.reference_ttable_text(table, vsrc, vtgt).encode("utf-8")
    assert np.array_equal(reloaded.probs.packed, table.probs.packed)
    assert np.array_equal(reloaded.probs.data, table.probs.data)
