"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the verdict
lines on passing runs).
"""

import math
import time

import numpy as np

import oracles
from hieralign.alignio import read_alignment_file
from hieralign.cli import main as cli_main
from hieralign.corpus import build_vocabulary, drop_empty, encode_pairs
from hieralign.evaluate import GoldAlignment, aer, load_gold
from hieralign.lexicon import (
    FORWARD,
    corpus_log_likelihood,
    digamma,
    train_ibm1,
    uniform_init,
)
from hieralign.parser import Block, INVERTED, SplitStep, STRAIGHT, project, top_down_parse
from hieralign.phrase import extract_spans
from hieralign.pipeline import AlignerConfig
from hieralign.softmatrix import SoftMatrix
from hieralign.symmetrize import grow_diag_final_and, intersect, union_links

EULER_GAMMA = 0.5772156649015329


def report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: PASS{suffix}")


def test_criterion_01_f_avg_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n, m = (int(v) for v in rng.integers(2, 9, size=2))
        weights = oracles.random_soft_weights(rng, n, m)
        matrix = SoftMatrix(weights)
        block = Block(0, n, 0, m)
        for j in range(1, n):
            for i in range(1, m):
                for gamma in (STRAIGHT, INVERTED):
                    step = SplitStep(j, i, gamma)
                    got = oracles.f_avg(matrix, block, step)
                    assert abs(got - (1.0 - oracles.ncut(matrix, block, step) / 2.0)) < 1e-12
                    f1_mean = oracles.independent_f_avg(
                        weights, 0, n, 0, m, j, i, gamma == INVERTED
                    )
                    assert abs(f1_mean - got) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"
    report(1, "F_avg = 1 - Ncut/2 and mean-F1 identity on 1000 random matrices", f"{elapsed:.1f}s")


def test_criterion_02_brute_force_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for k in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        weights = oracles.random_soft_weights(rng, n, m)
        matrix = SoftMatrix(weights)
        best_beam = top_down_parse(matrix, 10000).score
        best_true = max(oracles.enumerate_derivation_scores(weights))
        assert abs(best_beam - best_true) < 1e-9, f"matrix {k}: {best_beam} vs {best_true}"
        greedy = top_down_parse(matrix, 1).score
        assert top_down_parse(matrix, 10).score >= greedy - 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
    report(2, "beam 10000 equals exhaustive enumeration on 200 matrices <= 4x4", f"{elapsed:.1f}s")


def test_criterion_03_permutation_recovery():
    floor = 1e-8
    for size in range(2, 9):
        diag = np.full((size, size), floor)
        np.fill_diagonal(diag, 0.9)
        got = project(top_down_parse(SoftMatrix(diag), 10))
        assert got == {(t, t) for t in range(size)}, f"monotone {size}"

        anti = np.full((size, size), floor)
        for t in range(size):
            anti[t, size - 1 - t] = 0.9
        got = project(top_down_parse(SoftMatrix(anti), 10))
        assert got == {(t, size - 1 - t) for t in range(size)}, f"inverted {size}"
    report(3, "planted monotone and inverted permutations recovered up to 8x8, beam 10")


def test_criterion_04_em_correctness():
    rng = np.random.default_rng(404)
    token_pairs = []
    for _ in range(100):
        length = int(rng.integers(2, 6))
        words = rng.integers(0, 12, size=length)
        token_pairs.append(
            ([f"s{w}" for w in words], [f"t{w}" for w in words[::-1]])
        )
    raw = drop_empty(token_pairs)
    vsrc, vtgt = build_vocabulary(raw)
    pairs = encode_pairs(raw, vsrc, vtgt)

    config = AlignerConfig(em_iters=1, vb=False, use_null=True).em_config()
    table = uniform_init(pairs, FORWARD, config)
    previous = corpus_log_likelihood(pairs, table, config)
    for _ in range(5):
        table = oracles.em_step(pairs, table, config)
        current = corpus_log_likelihood(pairs, table, config)
        assert current >= previous - 1e-9
        previous = current

    vb_table = train_ibm1(pairs, FORWARD, AlignerConfig(em_iters=5, vb=True).em_config())
    sums = {}
    for (f, e), p in oracles.as_dict(vb_table.probs).items():
        sums[e] = sums.get(e, 0.0) + p
    for e, total in sums.items():
        assert 0.0 < total <= 1.0 + 1e-12, f"conditioning word {e} sums to {total}"

    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-9
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-9
    assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-9
    report(4, "plain-EM likelihood monotone, VB sums in (0,1], digamma exact to 1e-9")


def test_criterion_05_pipeline_smoke(smoke_run):
    assert smoke_run["elapsed"] < 60.0, f"pipeline took {smoke_run['elapsed']:.1f}s"
    hyps = read_alignment_file(smoke_run["out"])
    golds = load_gold(smoke_run["gold"])
    metrics = aer(hyps, golds)
    assert metrics["aer"] is not None and metrics["aer"] < 0.15, metrics
    report(
        5,
        "2000-pair smoke corpus trained and aligned with default settings",
        f"{smoke_run['elapsed']:.1f}s, AER {metrics['aer']:.4f}",
    )


def test_criterion_06_symmetrization_and_aer():
    import random as pyrandom

    rng = pyrandom.Random(606)
    for _ in range(1000):
        n = rng.randint(1, 10)
        m = rng.randint(1, 10)
        a_fwd = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(0, 12))}
        a_rev = {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randrange(0, 12))}
        merged = grow_diag_final_and(a_fwd, a_rev, n, m)
        assert intersect(a_fwd, a_rev) <= merged <= union_links(a_fwd, a_rev)

    perfect = aer([{(0, 0), (1, 1)}], [GoldAlignment(sure={(0, 0), (1, 1)})])
    assert perfect == {"precision": 1.0, "recall": 1.0, "aer": 0.0}
    disjoint = aer([{(5, 5)}], [GoldAlignment(sure={(0, 0)})])
    assert disjoint["aer"] == 1.0
    possible = aer([{(0, 0)}], [GoldAlignment(sure={(0, 0)}, possible={(0, 0), (1, 1)})])
    assert possible == {"precision": 1.0, "recall": 1.0, "aer": 0.0}
    report(6, "gdfa sandwiched between intersection and union; AER hand cases exact")


def test_criterion_07_phrase_extraction():
    assert extract_spans(2, 2, {(0, 0), (1, 1)}, max_len=2) == {
        ((0, 1), (0, 1)),
        ((1, 2), (1, 2)),
        ((0, 2), (0, 2)),
    }
    assert extract_spans(2, 2, {(0, 1), (1, 0)}, max_len=2) == {
        ((0, 1), (1, 2)),
        ((1, 2), (0, 1)),
        ((0, 2), (0, 2)),
    }
    assert extract_spans(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)}, max_len=2) == {
        ((0, 2), (0, 2))
    }
    for n in range(1, 11):
        for max_len in (7, n):
            links = {(k, k) for k in range(n)}
            cap = min(max_len, n)
            want = cap * (n + 1) - cap * (cap + 1) // 2
            assert len(extract_spans(n, n, links, max_len=max_len)) == want
    report(7, "2x2 hand cases and the capped n(n+1)/2 closed form match")


def test_criterion_08_thread_determinism(smoke_run, tmp_path):
    out8 = tmp_path / "smoke.align.8"
    rc = cli_main(
        [
            "pipeline",
            "-s", str(smoke_run["src"]),
            "-t", str(smoke_run["tgt"]),
            "-o", str(out8),
            "--threads", "8",
        ]
    )
    assert rc == 0
    assert out8.read_bytes() == smoke_run["out"].read_bytes()
    report(8, "pipeline output byte-identical with 1 and 8 workers")


def test_criterion_09_complexity_trend():
    rng = np.random.default_rng(909)
    sizes = [8, 16, 32, 64]
    medians = []
    for n in sizes:
        times = []
        for _ in range(50):
            matrix = SoftMatrix(oracles.random_soft_weights(rng, n, n))
            t0 = time.perf_counter()
            top_down_parse(matrix, 10)
            times.append(time.perf_counter() - t0)
        times.sort()
        medians.append(times[len(times) // 2])
    exponent = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    assert exponent <= 2.3, f"fit exponent {exponent:.2f}, medians {medians}"
    report(9, "median parse time fits exponent <= 2.3 over sizes 8..64", f"exponent {exponent:.2f}")


def test_criterion_10_many_to_many_coverage(smoke_run):
    hyps = read_alignment_file(smoke_run["out"])
    with open(smoke_run["src"], encoding="utf-8") as fh:
        src_lens = [len(line.split()) for line in fh]
    with open(smoke_run["tgt"], encoding="utf-8") as fh:
        tgt_lens = [len(line.split()) for line in fh]
    assert len(hyps) == len(src_lens) == len(tgt_lens)
    for links, n, m in zip(hyps, src_lens, tgt_lens):
        assert {j for j, _ in links} == set(range(n))
        assert {i for _, i in links} == set(range(m))
    report(10, "every source and target word linked in all smoke-test pairs")
