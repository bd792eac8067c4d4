"""Unsupervised many-to-many word alignment by top-down BTG parsing.

Pipeline: train IBM Model 1 lexicons in both directions (variational Bayes
by default), build a per-pair soft association matrix from the symmetric
lexical scores and a positional distortion model, then beam-search the
best recursive bipartitioning of the matrix and project its terminal
blocks to alignment links.
"""

from .corpus import (
    NULL_ID,
    NULL_TOKEN,
    CorpusError,
    SentencePair,
    Vocabulary,
    build_vocabulary,
    load_parallel_corpus,
)
from .evaluate import GoldAlignment, aer, load_gold
from .lexicon import (
    FORWARD,
    REVERSE,
    TTable,
    digamma,
    symmetric_lexical_score,
)
from .parser import (
    INVERTED,
    STRAIGHT,
    Block,
    Derivation,
    SplitStep,
    project,
    top_down_parse,
)
from .pipeline import AlignerConfig, Model, align_lines, load_model, save_model, train_model
from .softmatrix import SoftMatrix, build_soft_matrix
from .symmetrize import grow_diag_final_and, intersect, union_links

__version__ = "0.1.0"

__all__ = [
    "AlignerConfig",
    "Block",
    "CorpusError",
    "Derivation",
    "FORWARD",
    "GoldAlignment",
    "INVERTED",
    "Model",
    "NULL_ID",
    "NULL_TOKEN",
    "REVERSE",
    "STRAIGHT",
    "SentencePair",
    "SoftMatrix",
    "SplitStep",
    "TTable",
    "Vocabulary",
    "aer",
    "align_lines",
    "build_soft_matrix",
    "build_vocabulary",
    "digamma",
    "grow_diag_final_and",
    "intersect",
    "load_gold",
    "load_model",
    "load_parallel_corpus",
    "project",
    "save_model",
    "symmetric_lexical_score",
    "top_down_parse",
    "train_model",
    "union_links",
]
