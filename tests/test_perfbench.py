"""The benchmark's traced training and alignment paths, run against the program it measures.

perfbench/ is not a package; its flow imports its siblings by name, so the
directory goes on sys.path for the imports.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from hieralign import workers
from hieralign.corpus import build_vocabulary, drop_empty, encode_pairs
from hieralign.pipeline import AlignerConfig, align_lines, align_tasks, train_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import flow
    import tracer

    return flow, tracer


def test_traced_align_chunk_lines_equal_align_lines(bench):
    flow, tracer = bench
    # Placeholders and one-word sides among the pairs, over two chunks.
    rng = random.Random(113)
    bitext = []
    for _ in range(workers.CHUNK_SIZE + 20):
        n, m = rng.choice([(rng.randint(2, 8), rng.randint(2, 8)), (1, rng.randint(1, 5)), (0, 3)])
        bitext.append(([f"s{rng.randrange(20)}" for _ in range(n)], [f"t{rng.randrange(20)}" for _ in range(m)]))
    raw = drop_empty(bitext)
    vsrc, vtgt = build_vocabulary(raw)
    model = train_model(encode_pairs(raw, vsrc, vtgt), vsrc, vtgt, AlignerConfig(em_iters=2))
    tasks = align_tasks(bitext, model)
    payload = (model.t_fwd, model.t_rev, model.config.matrix_params(), model.config.beam)

    results = list(workers.map_chunks(tracer.traced_align_chunk, payload, workers.chunked(tasks)))
    lines = [line for chunk_lines, _, _ in results for line in chunk_lines]
    assert "" in lines
    assert lines == align_lines(bitext, model)

    # flow.align_traced adopts each chunk's spans: one parse per pair.
    spans = tracer.Tracer()
    traced_lines, _, _, splits = flow.align_traced(spans, bitext, model)
    assert traced_lines == lines
    assert len(spans.durations("parser.parse")) == sum(pair is not None for pair in tasks)
    assert splits == sum(chunk_splits for _, _, chunk_splits in results) > 0


@pytest.mark.parametrize("vbh", [False, True])
def test_train_traced_tables_equal_train_model(bench, vbh):
    flow, tracer = bench
    # Repeated words, over two chunks of the E-step.
    rng = random.Random(14)
    bitext = [([f"s{rng.randrange(15)}" for _ in range(rng.randint(1, 7))],
               [f"t{rng.randrange(15)}" for _ in range(rng.randint(1, 7))])
              for _ in range(workers.CHUNK_SIZE + 40)]
    raw = drop_empty(bitext)
    vsrc, vtgt = build_vocabulary(raw)
    pairs = encode_pairs(raw, vsrc, vtgt)
    config = AlignerConfig(em_iters=3, vbh=vbh, threads=1)
    spans = tracer.Tracer()
    traced, history, _ = flow.train_traced(spans, pairs, vsrc, vtgt, config)
    model = train_model(pairs, vsrc, vtgt, config)
    for got, want in ((traced.t_fwd, model.t_fwd), (traced.t_rev, model.t_rev)):
        assert np.array_equal(got.probs.packed, want.probs.packed)
        assert np.array_equal(got.probs.data, want.probs.data)
        assert (got.direction, got.cond_vocab_size, got.fallback) == (
            want.direction, want.cond_vocab_size, want.fallback)
    assert len(spans.durations("lexicon.estep")) == 2 * config.em_iters
    assert len(spans.durations("lexicon.vbh")) == vbh
    assert all(len(tables) == config.em_iters for tables in history.values())
