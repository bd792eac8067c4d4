"""End-to-end aligner plumbing: configuration, model persistence, alignment.

A model directory holds `ttable.fwd`, `ttable.rev`, `vocab.src`,
`vocab.tgt` and a `config.txt` snapshot of every setting that produced it.
Alignment work is cut once, into the parser's lockstep groups, and each
group is one unit of work for workers.map_chunks, which aligns a share of
them in this process and the rest in forked children; every line is
written at its input position, so output is byte-identical for any worker
count.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, fields

from . import lexicon, workers
from .alignio import format_alignment
from .corpus import Vocabulary, drop_empty, encode_pairs, read_text
from .parser import leaf_links, lockstep_groups, parse_matrices
from .softmatrix import build_soft_matrices


# Option groups of the command line; align offers every group but TRAINING.
TRAINING = "training"
MATRIX = "matrix and parsing"
MISC = "misc"


def _setting(default, flag, group, help, /, **argparse_options):
    """A setting: its default and its command-line option.

    A bool option switches the setting away from its default; argparse_options
    go to add_argument as they are.
    """
    return field(default=default, metadata={"flag": flag, "group": group, "help": help, "argparse": argparse_options})


def worker_count(value):
    """The --threads value: an int as given, or every core for 'auto'."""
    return os.cpu_count() or 1 if value == "auto" else int(value)


@dataclass
class AlignerConfig:
    """Every setting of the toolkit, declared once with its default and its option.

    Field types are the strings "int", "float" and "bool" (postponed annotations).
    """

    em_iters: int = _setting(5, "--em-iters", TRAINING, "EM iterations per direction")
    vb: bool = _setting(True, "--no-vb", TRAINING, "plain EM instead of variational Bayes")
    alpha: float = _setting(0.01, "--alpha", TRAINING, "Dirichlet concentration for VB")
    use_null: bool = _setting(True, "--no-null", TRAINING, "drop the NULL conditioning word")
    vbh: bool = _setting(False, "--vbh", TRAINING, "re-estimate tables from symmetrized Viterbi links")
    fallback: float = _setting(1e-10, "--fallback-prob", TRAINING,
                               "probability for unseen word pairs", metavar="FALLBACK_PROB")
    sigma_theta: float = _setting(3.0, "--sigma-theta", MATRIX, "lexical score temperature")
    sigma_delta: float = _setting(5.0, "--sigma-delta", MATRIX, "distortion temperature")
    distortion: bool = _setting(True, "--no-distortion", MATRIX, "disable the distortion factor")
    r: float = _setting(0.5, "--distortion-threshold", MATRIX, "relative-position threshold for the distortion bonus")
    p0: float = _setting(1e-4, "--p0", MATRIX, "flat distortion penalty and floor base")
    beam: int = _setting(10, "--beam", MATRIX, "beam width of the parser")
    # argparse converts the command line's 'auto' default with worker_count too.
    threads: int = _setting(1, "--threads", MISC, "alignment worker processes ('auto' = all cores)",
                            type=worker_count, default="auto")
    max_sentence_len: int = _setting(200, "--max-sentence-len", MISC, "skip pairs with a longer side")
    lowercase: bool = _setting(False, "--lowercase", MISC, "lowercase input text (align follows the model's setting)")

    def __post_init__(self):
        for f in fields(self):
            if f.type != "bool" and not getattr(self, f.name) > 0:  # "not > 0" rejects NaN too
                raise ValueError(f"{f.name} must be positive")
        if not 0 < self.r <= 1:
            raise ValueError("distortion threshold r must be in (0, 1]")
        if not 0 < self.fallback <= 1:
            raise ValueError("fallback probability must be in (0, 1]")
        for f in fields(self):
            if f.type != "bool" and not getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite")
        # From p0 = 1 on, the floor p0^2 meets the upper clamp and every weight is the same.
        if not self.p0 < 1:
            raise ValueError("p0 must be in (0, 1)")

    def em_config(self):
        """Self; kept only for perfbench/flow.py, until it passes the config."""
        return self

    @property
    def iterations(self):
        """em_iters; kept only for perfbench/flow.py, until it reads em_iters."""
        return self.em_iters

    def matrix_params(self):
        """Self; kept only for perfbench/flow.py, until it passes the config."""
        return self

    def snapshot(self):
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_snapshot(cls, text, path="config.txt"):
        """Settings from a snapshot; a malformed line raises ValueError("path:line: ...").

        Every setting must be present; the retired key max_phrase_len is ignored.
        """
        kinds = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            name, sep, value = line.partition("=")
            if name == RETIRED_SETTING:
                continue
            if not sep or name not in kinds:
                raise ValueError(f"{path}:{lineno}: unknown setting {line!r}")
            if name in kwargs:
                raise ValueError(f"{path}:{lineno}: duplicate setting {name}")
            try:
                kwargs[name] = _parse_setting(kinds[name], value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {name} is not a valid {kinds[name]}: {value!r}") from None
        if missing := [name for name in kinds if name not in kwargs]:
            raise ValueError(f"{path}: missing setting {missing[0]}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# A setting of older model directories that no longer exists.
RETIRED_SETTING = "max_phrase_len"


def _parse_setting(kind, value):
    if kind == "bool":
        if value not in ("True", "False"):
            raise ValueError(value)
        return value == "True"
    if kind == "int":
        return int(value)
    return float(value)


@dataclass
class Model:
    vocab_src: Vocabulary
    vocab_tgt: Vocabulary
    t_fwd: lexicon.TTable
    t_rev: lexicon.TTable
    config: AlignerConfig


def train_model(pairs, vocab_src, vocab_tgt, config, log=None):
    """Train both directional tables; apply the VBH re-estimation if enabled."""
    t_fwd, t_rev = lexicon.train_tables(pairs, config, log)
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
    """The model saved in model_dir; a malformed file raises ValueError("path:line: ...")."""
    try:
        path = os.path.join(model_dir, "config.txt")
        config = AlignerConfig.from_snapshot(read_text(path), path)
        vocab_src = Vocabulary.load(os.path.join(model_dir, "vocab.src"))
        vocab_tgt = Vocabulary.load(os.path.join(model_dir, "vocab.tgt"))
        tables = []
        for direction, cond, cing in ((lexicon.FORWARD, vocab_src, vocab_tgt), (lexicon.REVERSE, vocab_tgt, vocab_src)):
            path = os.path.join(model_dir, f"ttable.{direction}")
            table = lexicon.TTable.load(path, cond, cing, config.fallback)
            if table.direction != direction:
                raise ValueError(f"{path}:1: header says direction {table.direction!r}, expected {direction!r}")
            tables.append(table)
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"{model_dir} is not a complete model directory: {exc}") from None
    return Model(vocab_src, vocab_tgt, *tables, config)


def align_tasks(bitext, model):
    """One task per input line: a SentencePair, or None for a placeholder.

    Empty-side and over-length pairs keep their line as an empty alignment
    so output stays line-aligned with the input.
    """
    tasks = [None] * len(bitext)
    for pair in encode_pairs(drop_empty(bitext), model.vocab_src, model.vocab_tgt, model.config.max_sentence_len):
        tasks[pair.index] = pair
    return tasks


def _align_chunk(pairs):
    """Pharaoh lines of one lockstep group of pairs, whose matrices are built and parsed together."""
    t_fwd, t_rev, config, beam = workers.payload()
    matrices = build_soft_matrices(pairs, t_fwd, t_rev, config)
    return [format_alignment(leaf_links(leaves)) for _, _, leaves in parse_matrices(matrices, beam)]


def align_lines(bitext, model):
    """Pharaoh lines for a raw bitext, in input order; a skipped pair gives the empty line."""
    return align_task_lines(align_tasks(bitext, model), model)


def align_task_lines(tasks, model):
    """Pharaoh lines for align_tasks' output, one per task; a placeholder gives the empty line."""
    pairs = [pair for pair in tasks if pair is not None]
    groups = [[pairs[k] for k in group]
              for group in lockstep_groups([(pair.n, pair.m) for pair in pairs], model.config.beam)]
    payload = (model.t_fwd, model.t_rev, model.config, model.config.beam)
    lines = [""] * len(tasks)
    for group_lines, group in zip(workers.map_chunks(_align_chunk, payload, groups, model.config.threads), groups):
        for line, pair in zip(group_lines, group):
            lines[pair.index] = line
    return lines


def stderr_log(message):
    sys.stderr.write(message + "\n")
