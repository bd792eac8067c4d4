"""One benchmark flow in a fresh process; prints its figures as a JSON line.

  python3 flow.py user   --root R --workdir D --workload W --index K --seed N [--serial-check]
  python3 flow.py traced --root R --workdir D --workload W --index K --seed N [--checks]

R is the repository root, D a directory holding corpus.src and corpus.tgt.

`user` is the untraced user flow: read and encode, train_model,
save_model, load_model, align_lines; set-up (read, encode, load) is then
repeated so that its median is taken over several timings. `traced` runs the same flow through
hieralign's public functions with a span around each call, drives EM
through uniform_init / expected_counts / normalize_* so that E and M steps
are timed apart, and aligns with a traced copy of the per-pair chunk
worker on workers.map_chunks. With --checks it then, outside the traced
root span, checks its EM tables against train_ibm1, records the
log-likelihood after every iteration, times one serial E-step per
direction, reruns align_lines, and compares beam search with the exact
search on a seeded sample of small pairs.

Alignments are written to <workdir>/<mode>-<K>*.align for run.py to check.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

from hieralign import corpus, lexicon, pipeline, workers
from hieralign.parser import top_down_parse
from hieralign.pipeline import AlignerConfig, Model
from hieralign.softmatrix import build_soft_matrix

import corpora
import exact
from tracer import Tracer, traced_align_chunk

# Pairs whose both sides are at most this long are eligible for the exact search.
EXACT_MAX_SIDE = 8
EXACT_SAMPLE = 30
# Set-up is short and noisy, so each user flow times it this many times
# (the first inside the flow itself) and reports the median.
SETUP_REPEATS = 3


def config_for(workload):
    return AlignerConfig(vbh=workload.vbh, threads=workload.threads)


def read_and_encode(paths, config):
    bitext = corpus.read_bitext(paths["src"], paths["tgt"], config.lowercase)
    raw = corpus.drop_empty(bitext)
    vocab_src, vocab_tgt = corpus.build_vocabulary(raw)
    pairs = corpus.encode_pairs(raw, vocab_src, vocab_tgt, max_len=config.max_sentence_len)
    return bitext, pairs, vocab_src, vocab_tgt


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def model_bytes(model_dir):
    return sum(os.path.getsize(os.path.join(model_dir, name)) for name in os.listdir(model_dir))


def user_flow(args, workload, paths):
    config = config_for(workload)
    model_dir = os.path.join(args.workdir, f"model-{args.index}")
    out = os.path.join(args.workdir, f"user-{args.index}.align")
    t0 = time.perf_counter()
    bitext, pairs, vocab_src, vocab_tgt = read_and_encode(paths, config)
    t1 = time.perf_counter()
    pipeline.save_model(pipeline.train_model(pairs, vocab_src, vocab_tgt, config), model_dir)
    t2 = time.perf_counter()
    model = pipeline.load_model(model_dir)
    t3 = time.perf_counter()
    lines = pipeline.align_lines(bitext, model)
    t4 = time.perf_counter()
    write_lines(out, lines)
    t5 = time.perf_counter()
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    setups = [(t1 - t0) + (t3 - t2)]
    for _ in range(SETUP_REPEATS - 1):
        started = time.perf_counter()
        read_and_encode(paths, config)
        pipeline.load_model(model_dir)
        setups.append(time.perf_counter() - started)
    result = {
        "setup_s": statistics.median(setups),
        "train_s": t2 - t1,
        "align_s": t4 - t3,
        "pipeline_s": t5 - t0,
        "peak_rss_mb": rss_kb / 1024.0,
        "lines": len(bitext),
        "model_bytes": model_bytes(model_dir),
    }
    if args.serial_check:
        model.config.threads = 1
        write_lines(os.path.join(args.workdir, f"user-{args.index}-serial.align"),
                    pipeline.align_lines(bitext, model))
    return result


def train_traced(tracer, pairs, vocab_src, vocab_tgt, config):
    """train_model's work, one span per public lexicon call.

    Returns the model and, per direction, the table after every EM
    iteration (pre-VBH) and the first iteration's expected counts.
    """
    em = config.em_config()
    history = {}
    first_counts = {}
    for direction in (lexicon.FORWARD, lexicon.REVERSE):
        with tracer.span("lexicon.uniform_init"):
            table = lexicon.uniform_init(pairs, direction, em)
        history[direction] = []
        for _ in range(em.iterations):
            with tracer.span("lexicon.estep"):
                counts = lexicon.expected_counts(pairs, table, em, config.threads)
            with tracer.span("lexicon.mstep"):
                if em.vb:
                    probs = lexicon.normalize_vb(counts, em.alpha, table.cond_vocab_size)
                else:
                    probs = lexicon.normalize_plain(counts)
            first_counts.setdefault(direction, counts)
            table = lexicon.TTable(direction, probs, table.cond_vocab_size, table.fallback)
            history[direction].append(table)
    t_fwd, t_rev = history[lexicon.FORWARD][-1], history[lexicon.REVERSE][-1]
    if config.vbh:
        with tracer.span("lexicon.vbh"):
            t_fwd, t_rev = lexicon.vbh_reestimate(pairs, t_fwd, t_rev, config.use_null)
    return Model(vocab_src, vocab_tgt, t_fwd, t_rev, config), history, first_counts


def align_traced(tracer, bitext, model):
    """align_lines' work with each pair's matrix, parse and projection as spans."""
    with tracer.span("pipeline.align_lines"):
        tasks = pipeline.align_tasks(bitext, model)
        payload = (model.t_fwd, model.t_rev, model.config.matrix_params(), model.config.beam)
        lines, splits = [], 0
        for chunk_lines, spans, chunk_splits in workers.map_chunks(
            traced_align_chunk, payload, workers.chunked(tasks), model.config.threads
        ):
            lines.extend(chunk_lines)
            tracer.adopt(spans)
            splits += chunk_splits
    cells = sum(pair.n * pair.m for pair in tasks if pair is not None)
    return lines, tasks, cells, splits


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def tail_level(count):
    """Highest of the standard percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def traced_flow(args, workload, paths):
    config = config_for(workload)
    tracer = Tracer()
    model_dir = os.path.join(args.workdir, f"model-traced-{args.index}")
    with tracer.span("pipeline"):
        with tracer.span("corpus.read"):
            bitext = corpus.read_bitext(paths["src"], paths["tgt"], config.lowercase)
        with tracer.span("corpus.encode"):
            raw = corpus.drop_empty(bitext)
            vocab_src, vocab_tgt = corpus.build_vocabulary(raw)
            pairs = corpus.encode_pairs(raw, vocab_src, vocab_tgt, max_len=config.max_sentence_len)
        model, history, first_counts = train_traced(tracer, pairs, vocab_src, vocab_tgt, config)
        with tracer.span("lexicon.save"):
            pipeline.save_model(model, model_dir)
        with tracer.span("lexicon.load"):
            loaded = pipeline.load_model(model_dir)
        lines, tasks, cells, splits = align_traced(tracer, bitext, loaded)
    write_lines(os.path.join(args.workdir, f"traced-{args.index}.align"), lines)
    tracer.write(os.path.join(args.workdir, f"spans-{args.index}.json"))

    self_times = tracer.self_times()
    root = tracer.durations("pipeline")[0]
    links = sum(p.n * (p.m + config.use_null) + p.m * (p.n + config.use_null) for p in pairs)
    parse_ms = [1e3 * d for d in tracer.durations("parser.parse")]
    level = tail_level(len(parse_ms))
    layer = {f"{name}_s": self_times.get(name, 0.0) for name in (
        "corpus.read", "corpus.encode", "lexicon.uniform_init", "lexicon.estep",
        "lexicon.mstep", "lexicon.vbh", "lexicon.save", "lexicon.load",
        "softmatrix.build", "parser.parse", "parser.project",
    )}
    serial_align = sum(sum(tracer.durations(n)) for n in
                       ("softmatrix.build", "parser.parse", "parser.project"))
    align_wall = tracer.durations("pipeline.align_lines")[0]
    layer.update({
        "corpus.tokens": sum(p.n + p.m for p in pairs),
        "lexicon.estep_ns_per_link": 1e9 * layer["lexicon.estep_s"] / (links * config.em_iters),
        "lexicon.entries_fwd": len(model.t_fwd.probs),
        "lexicon.entries_rev": len(model.t_rev.probs),
        "softmatrix.cells": cells,
        "softmatrix.ns_per_cell": 1e9 * layer["softmatrix.build_s"] / cells,
        "parser.parse_ms_p50": percentile(parse_ms, 50.0),
        "parser.parse_ms_tail": percentile(parse_ms, level),
        "parser.splits": splits,
        "pipeline.align_overhead_s": self_times["pipeline.align_lines"],
        "workers.align_efficiency": serial_align / (align_wall * config.threads),
        "trace.pipeline_s": root,
        "trace.coverage_frac": 1.0 - self_times["pipeline"] / root,
    })
    result = {"layer": layer, "tail_percentile": level, "lines": len(bitext)}
    if args.checks:
        estep_parallel = [d for k, d in enumerate(tracer.durations("lexicon.estep"))
                          if k % config.em_iters == 0]
        result["checks"] = run_checks(args, config, bitext, pairs, loaded, tasks,
                                      history, first_counts, estep_parallel, layer)
    return result


def run_checks(args, config, bitext, pairs, model, tasks, history, first_counts,
               estep_parallel, layer):
    """Correctness checks and untimed numerics, all outside the traced root span."""
    em = config.em_config()
    failures = []
    loglik = {}
    estep_serial = 0.0
    for direction in (lexicon.FORWARD, lexicon.REVERSE):
        reference = lexicon.train_ibm1(pairs, direction, em, config.threads)
        if reference.probs != history[direction][-1].probs:
            failures.append(f"EM via uniform_init/expected_counts/normalize differs from "
                            f"train_ibm1 ({direction})")
        loglik[direction] = [lexicon.corpus_log_likelihood(pairs, t, em) for t in history[direction]]
        started = time.perf_counter()
        counts = lexicon.expected_counts(pairs, lexicon.uniform_init(pairs, direction, em), em, 1)
        estep_serial += time.perf_counter() - started
        if counts != first_counts[direction]:
            failures.append(f"E-step counts depend on the worker count ({direction})")
    layer["lexicon.loglik_fwd"] = loglik[lexicon.FORWARD][-1]
    layer["lexicon.loglik_rev"] = loglik[lexicon.REVERSE][-1]
    layer["workers.estep_efficiency"] = estep_serial / (sum(estep_parallel) * config.threads)

    write_lines(os.path.join(args.workdir, f"traced-{args.index}-align_lines.align"),
                pipeline.align_lines(bitext, model))
    if config.threads > 1:
        model.config.threads = 1
        write_lines(os.path.join(args.workdir, f"traced-{args.index}-serial.align"),
                    pipeline.align_lines(bitext, model))
        model.config.threads = config.threads

    sys.path.insert(0, os.path.join(args.root, "tests"))
    import oracles  # the test suite's exhaustive enumeration, used unchanged

    if exact.validate(oracles.enumerate_derivation_scores, seed=0):
        failures.append("exact search disagrees with enumeration on <= 4x4 matrices")
    small = [p for p in tasks if p is not None and p.n <= EXACT_MAX_SIDE and p.m <= EXACT_MAX_SIDE]
    sample = random.Random(f"exact:{args.seed}").sample(small, min(EXACT_SAMPLE, len(small)))
    errors = 0
    params = model.config.matrix_params()
    for pair in sample:
        matrix = build_soft_matrix(pair, model.t_fwd, model.t_rev, params)
        beam = top_down_parse(matrix, model.config.beam).score
        best = exact.best_score(matrix.weights)
        if beam > best + 1e-9:
            failures.append(f"pair {pair.index}: beam score {beam} above the exact optimum {best}")
        errors += beam < best - 1e-9
    layer["parser.search_errors"] = errors
    layer["parser.search_checked"] = len(sample)
    return {"failures": failures, "loglik": loglik}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("user", "traced"))
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--serial-check", action="store_true")
    ap.add_argument("--checks", action="store_true")
    args = ap.parse_args(argv)
    workload = corpora.WORKLOADS[args.workload]
    paths = {ext: os.path.join(args.workdir, f"corpus.{ext}") for ext in ("src", "tgt")}
    flow = user_flow if args.mode == "user" else traced_flow
    print(json.dumps(flow(args, workload, paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
