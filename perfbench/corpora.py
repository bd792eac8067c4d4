"""Seeded synthetic parallel corpora with planted gold links.

Every workload is a dictionary translation (source word s<k> becomes target
word t<k>) whose target order is the source order permuted by disjoint
adjacent swaps, the shape of the test suite's smoke corpus. The planted
permutation is the gold alignment. Workloads differ in sentence length,
vocabulary size and word distribution, and in the aligner settings they
run with; see perfbench/README.md for why each exists.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

SWAP_PROB = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: int
    min_len: int
    max_len: int
    vocab: int
    zipf: bool = False   # Zipfian words, repeats allowed; else distinct uniform words
    vbh: bool = False
    threads: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short", pairs=800, min_len=3, max_len=8, vocab=50),
        Workload("long", pairs=60, min_len=20, max_len=40, vocab=400),
        Workload("zipf", pairs=250, min_len=3, max_len=40, vocab=1700,
                 zipf=True, vbh=True, threads=2),
    )
}


def stratified(values, weights, count, rng):
    """count draws from values with the given weights, the same multiset for
    every seed (taken at evenly spaced quantiles), in seeded order."""
    cum = list(itertools.accumulate(weights))
    out = [values[bisect.bisect_right(cum, (k + 0.5) / count * cum[-1])] for k in range(count)]
    rng.shuffle(out)
    return out


def generate(workload, seed):
    """(source token lists, target token lists, gold link sets), a pure function of seed.

    Sentence lengths, and for Zipf corpora the word frequencies, are
    stratified: only their order depends on the seed. Fixing the multisets
    keeps the EM and parse work and the vocabulary profile nearly
    seed-independent, so seed-to-seed spread in the figures is host noise,
    not corpus size. Zipf lengths are skewed short, p(L) proportional to 1/L.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    lengths = range(workload.min_len, workload.max_len + 1)
    if workload.zipf:
        sizes = stratified(lengths, [1.0 / n for n in lengths], workload.pairs, rng)
        ranks = range(workload.vocab)
        tokens = stratified(ranks, [1.0 / (r + 1) for r in ranks], sum(sizes), rng)
        cuts = list(itertools.accumulate(sizes, initial=0))
        sentences = [tokens[a:b] for a, b in zip(cuts, cuts[1:])]
    else:
        sizes = stratified(lengths, [1.0] * len(lengths), workload.pairs, rng)
        sentences = [rng.sample(range(workload.vocab), n) for n in sizes]
    src_lines, tgt_lines, gold = [], [], []
    for words in sentences:
        length = len(words)
        perm = list(range(length))
        k = 0
        while k < length - 1:
            if rng.random() < SWAP_PROB:
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
                k += 2
            else:
                k += 1
        src_lines.append([f"s{w:02d}" for w in words])
        tgt_lines.append([f"t{words[perm[i]]:02d}" for i in range(length)])
        gold.append({(perm[i], i) for i in range(length)})
    return src_lines, tgt_lines, gold


def write(workload, seed, directory):
    """Write <dir>/corpus.src and corpus.tgt; returns (n, m, gold links) per line."""
    src_lines, tgt_lines, gold = generate(workload, seed)
    for ext, rows in (("src", src_lines), ("tgt", tgt_lines)):
        with open(f"{directory}/corpus.{ext}", "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(toks) + "\n" for toks in rows)
    return [(len(s), len(t), links) for s, t, links in zip(src_lines, tgt_lines, gold)]
