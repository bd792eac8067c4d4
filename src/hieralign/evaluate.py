"""Precision, recall and alignment error rate against sure/possible gold links.

Gold files carry one sentence per line with 0-based tokens: `j-i` marks a
sure link, `j?i` a possible link. Sure links are implicitly possible.
Metrics are micro-averaged over the corpus:

    precision = sum |A & P| / sum |A|
    recall    = sum |A & S| / sum |S|
    aer       = 1 - (sum |A & S| + sum |A & P|) / (sum |A| + sum |S|)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alignio import parse_link
from .corpus import read_lines


class GoldFormatError(Exception):
    """Malformed token in a gold alignment file."""


@dataclass
class GoldAlignment:
    sure: set = field(default_factory=set)
    possible: set = field(default_factory=set)

    def __post_init__(self):
        self.possible |= self.sure


def load_gold(path):
    """One GoldAlignment per line; a bad token raises GoldFormatError("path:line: column C: ...")."""
    golds = []
    for lineno, line in enumerate(read_lines(path), start=1):
        sure = set()
        possible = set()
        col = 0
        for token in line.split():
            col = line.index(token, col)
            sep = "-" if "-" in token else "?"
            link = parse_link(token, sep)
            if link is None:
                raise GoldFormatError(f"{path}:{lineno}: column {col + 1}: bad gold token {token!r}")
            (sure if sep == "-" else possible).add(link)
            col += len(token)
        golds.append(GoldAlignment(sure, possible))
    return golds


def sentence_counts(hyp, gold):
    """(|A&P|, |A&S|, |A|, |S|) for one sentence."""
    return (
        len(hyp & gold.possible),
        len(hyp & gold.sure),
        len(hyp),
        len(gold.sure),
    )


def _metrics(a_p, a_s, a, s):
    precision = a_p / a if a else 0.0
    recall = a_s / s if s else 0.0
    aer_value = 1.0 - (a_s + a_p) / (a + s) if a + s else None
    return {"precision": precision, "recall": recall, "aer": aer_value}


def aer(hyps, golds):
    """Corpus-level metrics; aer is None when there are no links at all."""
    if len(hyps) != len(golds):
        raise ValueError(f"hypothesis has {len(hyps)} sentences, gold has {len(golds)}")
    tot = [0, 0, 0, 0]
    for hyp, gold in zip(hyps, golds):
        for k, v in enumerate(sentence_counts(hyp, gold)):
            tot[k] += v
    return _metrics(*tot)


def per_sentence(hyps, golds):
    """Per-line metric dicts, same definitions applied to each sentence."""
    if len(hyps) != len(golds):
        raise ValueError(f"hypothesis has {len(hyps)} sentences, gold has {len(golds)}")
    return [_metrics(*sentence_counts(h, g)) for h, g in zip(hyps, golds)]
