"""File reading, parallel corpora, whitespace tokenization and vocabularies.

Tokens are kept verbatim (no normalization); an optional lowercase switch
is applied at read time. Word id 0 is reserved for the NULL word on every
side and never appears in surface text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

NULL_ID = 0
NULL_TOKEN = "<NULL>"
UNKNOWN_ID = -1

DEFAULT_SEPARATOR = "|||"


class CorpusError(ValueError):
    """Fatal problem with an input corpus file; a ValueError, as every malformed input raises."""


def read_text(path):
    """The text of any input file: UTF-8, with CRLF and lone CR read as newlines.

    An undecodable byte raises ValueError("path:line: undecodable byte 0x..").
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: undecodable byte {data[exc.start]:#04x}") from None


def read_lines(path):
    """The lines of read_text(path) without their line ends; the last may lack one."""
    text = read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


@dataclass
class LoadStats:
    """Counters reported after reading a corpus."""

    kept: int
    skipped_empty: int
    skipped_long: int


@dataclass(frozen=True)
class SentencePair:
    """One id-encoded sentence pair; index is the 0-based input line number."""

    source: tuple
    target: tuple
    index: int

    @property
    def n(self):
        return len(self.source)

    @property
    def m(self):
        return len(self.target)


class Vocabulary:
    """Bijective token <-> dense id map with id 0 reserved for NULL."""

    def __init__(self):
        self._token_to_id = {}
        self._id_to_token = [NULL_TOKEN]

    def __len__(self):
        return len(self._id_to_token)

    def add(self, token):
        """Return the id of token, assigning the next free id if unseen."""
        idx = self._token_to_id.get(token)
        if idx is None:
            idx = len(self._id_to_token)
            self._token_to_id[token] = idx
            self._id_to_token.append(token)
        return idx

    def lookup(self, token):
        """Id of token, or UNKNOWN_ID if the token was never added."""
        return self._token_to_id.get(token, UNKNOWN_ID)

    def token(self, idx):
        return self._id_to_token[idx]

    def tokens(self):
        """Every token in id order, the reserved NULL token first (a copy)."""
        return list(self._id_to_token)

    def ids(self):
        """token -> id for every surface token, NULL excluded (a copy)."""
        return dict(self._token_to_id)

    @property
    def real_size(self):
        """Number of surface tokens, excluding the reserved NULL."""
        return len(self._id_to_token) - 1

    def save(self, path):
        # One token per line, line number = id; NULL (id 0) stays implicit.
        with open(path, "w", encoding="utf-8") as fh:
            for token in self._id_to_token[1:]:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path):
        """Read a file written by save; a malformed or repeated token raises ValueError("path:line: ...")."""
        text = read_text(path)
        tokens = text.split()
        # Lines holding one whitespace-free token each, and only those, join back into the text.
        if "\n".join(tokens) != text.removesuffix("\n") or text == "\n":
            lines = text.removesuffix("\n").split("\n")
            lineno = next(k for k, line in enumerate(lines, start=1) if line.split() != [line])
            raise ValueError(f"{path}:{lineno}: not a whitespace-free token: {lines[lineno - 1]!r}")
        vocab = cls.of_tokens(tokens)
        if len(vocab._token_to_id) < len(tokens):
            seen = set()
            for lineno, token in enumerate(tokens, start=1):
                if token in seen:
                    raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
                seen.add(token)
        return vocab

    @classmethod
    def of_tokens(cls, tokens):
        """The vocabulary giving ids 1, 2, ... to a list of distinct tokens, in order."""
        vocab = cls()
        vocab._token_to_id = dict(zip(tokens, range(1, len(tokens) + 1)))
        vocab._id_to_token += tokens
        return vocab


def _tokenize(line, lowercase):
    if lowercase:
        line = line.lower()
    return line.split()


def read_bitext(source_path, target_path, lowercase=False):
    """Read a two-file corpus into raw token pairs, one per input line.

    Empty-side lines are preserved here (as empty token lists); filtering
    happens in drop_empty so that line numbering survives for alignment
    output.
    """
    src_lines = read_lines(source_path)
    tgt_lines = read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"line count mismatch: {source_path} has {len(src_lines)} lines, "
            f"{target_path} has {len(tgt_lines)} lines"
        )
    return [
        (_tokenize(s, lowercase), _tokenize(t, lowercase))
        for s, t in zip(src_lines, tgt_lines)
    ]


def read_bitext_joined(path, separator=DEFAULT_SEPARATOR, lowercase=False):
    """Read a single-file corpus with a separator token between the sides."""
    out = []
    for lineno, line in enumerate(read_lines(path), start=1):
        tokens = line.split()
        hits = [k for k, tok in enumerate(tokens) if tok == separator]
        if not hits:
            raise CorpusError(f"{path}:{lineno}: missing separator {separator!r}")
        if len(hits) > 1:
            raise CorpusError(f"{path}:{lineno}: duplicated separator {separator!r}")
        src, tgt = tokens[:hits[0]], tokens[hits[0] + 1:]
        out.append((_tokenize(" ".join(src), lowercase), _tokenize(" ".join(tgt), lowercase)))
    return out


def drop_empty(bitext):
    """Keep pairs with both sides nonempty; returns (index, src, tgt) triples."""
    kept = []
    for index, (src, tgt) in enumerate(bitext):
        if src and tgt:
            kept.append((index, src, tgt))
    return kept


def build_vocabulary(raw_pairs):
    """Assign ids in first-occurrence order over a list of (index, source, target) pairs.

    Returns one vocabulary per side; both reserve id 0 for NULL.
    """
    # dict.fromkeys keeps each side's distinct tokens in first-occurrence order.
    vsrc = Vocabulary.of_tokens(list(dict.fromkeys(chain.from_iterable(src for _, src, _ in raw_pairs))))
    vtgt = Vocabulary.of_tokens(list(dict.fromkeys(chain.from_iterable(tgt for _, _, tgt in raw_pairs))))
    return vsrc, vtgt


def encode_pairs(raw_pairs, vocab_src, vocab_tgt, max_len=None):
    """Encode token pairs to id pairs, dropping pairs over the length guard."""
    src_id, tgt_id = vocab_src.ids().get, vocab_tgt.ids().get
    unknown = repeat(UNKNOWN_ID)
    pairs = []
    for index, src, tgt in raw_pairs:
        if max_len is not None and (len(src) > max_len or len(tgt) > max_len):
            continue
        pairs.append(SentencePair(tuple(map(src_id, src, unknown)), tuple(map(tgt_id, tgt, unknown)), index))
    return pairs


def encode_corpus(bitext, max_len=None, vocabs=None):
    """Drop empty-side pairs of a raw bitext and encode the rest with both vocabularies.

    vocabs, a (source, target) pair of vocabularies such as a model's, is
    used as given; without it both are built here. Returns (pairs, source
    vocabulary, target vocabulary, stats). Ids are assigned in first-occurrence order,
    so encoding the same bitext twice yields identical results.
    """
    raw = drop_empty(bitext)
    vsrc, vtgt = build_vocabulary(raw) if vocabs is None else vocabs
    pairs = encode_pairs(raw, vsrc, vtgt, max_len=max_len)
    stats = LoadStats(kept=len(pairs), skipped_empty=len(bitext) - len(raw), skipped_long=len(raw) - len(pairs))
    return pairs, vsrc, vtgt, stats


def load_parallel_corpus(source_path, target_path, lowercase=False, max_len=None):
    """encode_corpus of a two-file corpus."""
    return encode_corpus(read_bitext(source_path, target_path, lowercase), max_len)

