"""Consistent phrase-pair extraction from word alignments.

A span pair is consistent when every link touching the source span lands
inside the target span and vice versa. Extraction enumerates source spans,
takes the target hull of their links, checks consistency, and (by default)
also emits spans grown over unaligned boundary words on the target side;
unaligned source boundary words are covered by the span enumeration
itself.
"""

from __future__ import annotations

DEFAULT_MAX_LEN = 7  # longest phrase kept, in words on either side


def extract_spans(n, m, links, max_len=DEFAULT_MAX_LEN, unaligned_extension=True):
    """All consistent span pairs with at least one link, as half-open spans.

    With unaligned_extension off, only tight pairs are kept: both spans
    must start and end on aligned words.
    """
    links = set(links)
    tgt_of = {}
    src_of = {}
    for j, i in links:
        tgt_of.setdefault(j, []).append(i)
        src_of.setdefault(i, []).append(j)
    aligned_src = set(tgt_of)
    aligned_tgt = set(src_of)

    out = set()
    for j0 in range(n):
        lo = m
        hi = -1
        for j1 in range(j0 + 1, min(j0 + max_len, n) + 1):
            for i in tgt_of.get(j1 - 1, ()):
                lo = min(lo, i)
                hi = max(hi, i + 1)
            if hi < 0:
                continue
            if not all(
                j0 <= j < j1 for i in range(lo, hi) for j in src_of.get(i, ())
            ):
                continue
            if unaligned_extension:
                ts = lo
                while True:
                    te = hi
                    while True:
                        if te - ts <= max_len:
                            out.add(((j0, j1), (ts, te)))
                        if te >= m or te in aligned_tgt:
                            break
                        te += 1
                    if ts <= 0 or (ts - 1) in aligned_tgt:
                        break
                    ts -= 1
            else:
                if j0 in aligned_src and (j1 - 1) in aligned_src and hi - lo <= max_len:
                    out.add(((j0, j1), (lo, hi)))
    return out


def phrase_strings(src_tokens, tgt_tokens, links, max_len=DEFAULT_MAX_LEN, unaligned_extension=True):
    """Extracted phrase pairs as (source text, target text)."""
    out = set()
    for (j0, j1), (i0, i1) in extract_spans(
        len(src_tokens), len(tgt_tokens), links, max_len, unaligned_extension
    ):
        out.add((" ".join(src_tokens[j0:j1]), " ".join(tgt_tokens[i0:i1])))
    return out


def phrase_table(bitext, alignments, max_len=DEFAULT_MAX_LEN, unaligned_extension=True):
    """Distinct (source text, target text) phrase pairs across an aligned corpus."""
    if len(bitext) != len(alignments):
        raise ValueError(f"corpus has {len(bitext)} lines, alignment has {len(alignments)} lines")
    table = set()
    for (src, tgt), links in zip(bitext, alignments):
        table |= phrase_strings(src, tgt, links, max_len, unaligned_extension)
    return table

