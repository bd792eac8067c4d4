"""End-to-end aligner plumbing: configuration, model persistence, alignment.

A model directory holds `ttable.fwd`, `ttable.rev`, `vocab.src`,
`vocab.tgt` and a `config.txt` snapshot of every setting that produced it.
Alignment work is cut into fixed-size chunks handed to a worker pool;
output order always follows input order, so results are byte-identical
for any worker count.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields

from . import lexicon, softmatrix, workers
from .alignio import format_alignment
from .corpus import Vocabulary, encode_pairs
from .parser import project, top_down_parse
from .softmatrix import MatrixParams, build_soft_matrix


@dataclass
class AlignerConfig:
    """Every knob of the toolkit in one place, with its standard defaults."""

    em_iters: int = 5
    vb: bool = True
    alpha: float = 0.01
    use_null: bool = True
    vbh: bool = False
    fallback: float = lexicon.DEFAULT_FALLBACK
    sigma_theta: float = 3.0
    sigma_delta: float = 5.0
    distortion: bool = True
    r: float = 0.5
    p0: float = 1e-4
    beam: int = 10
    threads: int = 1
    max_sentence_len: int = 200
    lowercase: bool = False

    def __post_init__(self):
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        for name in ("em_iters", "alpha", "fallback", "sigma_theta", "sigma_delta",
                     "r", "p0", "threads", "max_sentence_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def em_config(self):
        return lexicon.EmConfig(
            iterations=self.em_iters,
            vb=self.vb,
            alpha=self.alpha,
            use_null=self.use_null,
            fallback=self.fallback,
        )

    def matrix_params(self):
        return MatrixParams(
            sigma_theta=self.sigma_theta,
            sigma_delta=self.sigma_delta,
            distortion_enabled=self.distortion,
            r=self.r,
            p0=self.p0,
        )

    def snapshot(self):
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_snapshot(cls, text):
        raw = dict(line.split("=", 1) for line in text.splitlines() if line)
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            value = raw[f.name]
            kind = f.type if isinstance(f.type, str) else f.type.__name__
            if kind == "bool":
                kwargs[f.name] = value == "True"
            elif kind == "int":
                kwargs[f.name] = int(value)
            elif kind == "float":
                kwargs[f.name] = float(value)
            else:
                kwargs[f.name] = value
        return cls(**kwargs)


@dataclass
class Model:
    vocab_src: Vocabulary
    vocab_tgt: Vocabulary
    t_fwd: lexicon.TTable
    t_rev: lexicon.TTable
    config: AlignerConfig


def train_model(pairs, vocab_src, vocab_tgt, config, log=None):
    """Train both directional tables; apply the VBH re-estimation if enabled."""
    em = config.em_config()

    def progress(tag):
        if log is None:
            return None
        return lambda it, total: log(f"em {tag} iteration {it}/{total}")

    t_fwd = lexicon.train_ibm1(pairs, lexicon.FORWARD, em, progress=progress("fwd"))
    t_rev = lexicon.train_ibm1(pairs, lexicon.REVERSE, em, progress=progress("rev"))
    if config.vbh:
        if log is not None:
            log("vbh re-estimation from symmetrized Viterbi links")
        t_fwd, t_rev = lexicon.vbh_reestimate(pairs, t_fwd, t_rev, config.use_null)
    return Model(vocab_src, vocab_tgt, t_fwd, t_rev, config)


def save_model(model, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    model.vocab_src.save(os.path.join(out_dir, "vocab.src"))
    model.vocab_tgt.save(os.path.join(out_dir, "vocab.tgt"))
    model.t_fwd.save(os.path.join(out_dir, "ttable.fwd"), model.vocab_src, model.vocab_tgt)
    model.t_rev.save(os.path.join(out_dir, "ttable.rev"), model.vocab_tgt, model.vocab_src)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(model.config.snapshot())


def load_model(model_dir):
    try:
        with open(os.path.join(model_dir, "config.txt"), "r", encoding="utf-8") as fh:
            config = AlignerConfig.from_snapshot(fh.read())
        vocab_src = Vocabulary.load(os.path.join(model_dir, "vocab.src"))
        vocab_tgt = Vocabulary.load(os.path.join(model_dir, "vocab.tgt"))
        t_fwd = lexicon.TTable.load(
            os.path.join(model_dir, "ttable.fwd"), vocab_src, vocab_tgt, config.fallback
        )
        t_rev = lexicon.TTable.load(
            os.path.join(model_dir, "ttable.rev"), vocab_tgt, vocab_src, config.fallback
        )
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"{model_dir} is not a complete model directory: {exc}") from None
    return Model(vocab_src, vocab_tgt, t_fwd, t_rev, config)


def align_tasks(bitext, model):
    """One task per input line: a SentencePair, or None for a placeholder.

    Empty-side and over-length pairs keep their line as an empty alignment
    so output stays line-aligned with the input.
    """
    limit = model.config.max_sentence_len
    tasks = []
    for index, (src, tgt) in enumerate(bitext):
        if not src or not tgt or len(src) > limit or len(tgt) > limit:
            tasks.append(None)
            continue
        tasks.append(encode_pairs([(index, src, tgt)], model.vocab_src, model.vocab_tgt)[0])
    return tasks


def _align_pair(pair, t_fwd, t_rev, params, beam, dump_fh=None):
    """Pharaoh line of one task; a None placeholder gives the empty line.

    dump_fh, when given, receives the pair's weight matrix as a TSV block.
    """
    if pair is None:
        return ""
    matrix = build_soft_matrix(pair, t_fwd, t_rev, params)
    if dump_fh is not None:
        softmatrix.dump_matrix(matrix, dump_fh)
    return format_alignment(project(top_down_parse(matrix, beam)))


def _align_chunk(chunk):
    t_fwd, t_rev, params, beam = workers.payload()
    return [_align_pair(pair, t_fwd, t_rev, params, beam) for pair in chunk]


def align_lines(bitext, model, params=None, dump_fh=None):
    """Pharaoh lines for a raw bitext, in input order.

    dump_fh, when given, receives the per-pair weight matrices as TSV
    blocks; dumping forces single-process operation.
    """
    if params is None:
        params = model.config.matrix_params()
    tasks = align_tasks(bitext, model)
    payload = (model.t_fwd, model.t_rev, params, model.config.beam)
    if dump_fh is not None:
        return [_align_pair(pair, *payload, dump_fh) for pair in tasks]
    out = []
    for lines in workers.map_chunks(_align_chunk, payload, workers.chunked(tasks), model.config.threads):
        out.extend(lines)
    return out


def stderr_log(message):
    sys.stderr.write(message + "\n")
