"""Shared fixtures: the synthetic smoke-test corpus and its pipeline run.

Property tests run under a derandomized hypothesis profile with no example
database, so every run draws the same examples and writes no .hypothesis/.
"""

import os
import random
import tempfile
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hieralign.cli import main as cli_main
from hieralign.corpus import NULL_TOKEN

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
# Without a database, hypothesis still caches the constants it reads from
# source files; keep that cache in a directory removed at exit.
_HYPOTHESIS_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _HYPOTHESIS_STORAGE.name

# Any token whitespace tokenization can produce, and the reserved NULL token.
TOKENS = st.one_of(
    st.just(NULL_TOKEN),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1).filter(lambda t: t.split() == [t]),
)

SMOKE_PAIRS = 2000
SMOKE_VOCAB = 50
SMOKE_SEED = 20170905


def generate_smoke_corpus(rng, num_pairs=SMOKE_PAIRS, vocab=SMOKE_VOCAB):
    """Dictionary-translated sentences with local adjacent swaps.

    Each source word s## translates to t##; the target order is the source
    order permuted by disjoint adjacent transpositions. Returns parallel
    token lists plus the planted (source, target) links per pair.
    """
    src_lines = []
    tgt_lines = []
    gold_links = []
    for _ in range(num_pairs):
        length = rng.randint(3, 8)
        words = rng.sample(range(vocab), length)
        perm = list(range(length))
        k = 0
        while k < length - 1:
            if rng.random() < 0.25:
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
                k += 2
            else:
                k += 1
        src_lines.append([f"s{w:02d}" for w in words])
        tgt_lines.append([f"t{words[perm[i]]:02d}" for i in range(length)])
        gold_links.append({(perm[i], i) for i in range(length)})
    return src_lines, tgt_lines, gold_links


@pytest.fixture(scope="session")
def smoke_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke-corpus")
    rng = random.Random(SMOKE_SEED)
    src_lines, tgt_lines, gold_links = generate_smoke_corpus(rng)
    src = root / "smoke.src"
    tgt = root / "smoke.tgt"
    gold = root / "smoke.gold"
    src.write_text("".join(" ".join(toks) + "\n" for toks in src_lines), encoding="utf-8")
    tgt.write_text("".join(" ".join(toks) + "\n" for toks in tgt_lines), encoding="utf-8")
    gold.write_text(
        "".join(" ".join(f"{j}-{i}" for j, i in sorted(links)) + "\n" for links in gold_links),
        encoding="utf-8",
    )
    return {"src": src, "tgt": tgt, "gold": gold, "pairs": len(src_lines)}


@pytest.fixture(scope="session")
def smoke_run(smoke_corpus, tmp_path_factory):
    """Default-settings single-core pipeline over the smoke corpus, timed."""
    out = tmp_path_factory.mktemp("smoke-run") / "smoke.align"
    started = time.perf_counter()
    rc = cli_main(
        [
            "pipeline",
            "-s", str(smoke_corpus["src"]),
            "-t", str(smoke_corpus["tgt"]),
            "-o", str(out),
            "--threads", "1",
        ]
    )
    elapsed = time.perf_counter() - started
    assert rc == 0
    return {"out": out, "elapsed": elapsed, **smoke_corpus}
