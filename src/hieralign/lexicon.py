"""IBM Model 1 lexical translation tables, plain EM or variational Bayes.

Two directions are trained independently:

  FORWARD  p(source word | target word), the conditioned side is the source
  REVERSE  p(target word | source word), the conditioned side is the target

Tables are sparse over co-occurring word pairs; lookups of unseen pairs
return a fixed fallback probability. The NULL word (id 0) may take part as
an extra conditioning word on the other side.

A table is two flat arrays: sorted int64 keys packing (conditioning id,
conditioned id), so that the entries of one conditioning word are
contiguous, and the float64 values in the same order. EM, lookups and
model files work on whole arrays. A model file is read as one array of
bytes: its fields are positions between tabs and newlines, equal fields
are found from 8-byte words of their bytes, and only distinct tokens and
runs of equal probability texts become Python objects.

The EM functions take a pipeline.AlignerConfig, which checks its settings,
and read em_iters, vb, alpha, use_null, fallback and vbh from it.
EM runs on a direction's corpus links, every conditioned word occurrence
joined to each word of the other side of its pair. VBH reads the Viterbi
link of every occurrence off the same links in a few array passes and
symmetrizes both directions' Viterbi links, as (pair, j, i) rows, with one
corpus-wide grow-diag (no final pass).
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from .corpus import NULL_ID, NULL_TOKEN, read_text
from .symmetrize import _grow_diag

FORWARD = "fwd"
REVERSE = "rev"

# Keeps stored probabilities strictly positive even when exp(psi(...))
# underflows for extreme alpha settings.
TINY_PROB = 1e-300

# Conditioning column of a NULL entry in a ttable file. Whitespace
# tokenization never yields an empty token, so no word can be read as NULL.
NULL_FIELD = ""

_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


def pack(conditioned, conditioning):
    """int64 keys of (conditioned id, conditioning id) pairs, broadcast.

    Keys sort by conditioning id, then conditioned id. A negative id (an
    unknown word) always gives a negative key, which no table holds.
    """
    cond = np.asarray(conditioned, dtype=np.int64)
    cing = np.asarray(conditioning, dtype=np.int64)
    return (cing << _SHIFT) | cond


def product_cells(n, m):
    """(pair, j, i, row, col) of every cell of each pair's n x m product.

    n and m are int arrays of side lengths, one entry per pair. Cells run
    row-major, pair after pair; row and col number the rows and the columns
    of all the pairs in turn.
    """
    pair_of_row = np.repeat(np.arange(len(n)), n)
    width = m[pair_of_row]
    row = np.repeat(np.arange(len(width)), width)
    i = np.arange(len(row)) - np.repeat(np.cumsum(width) - width, width)
    j = np.repeat(np.arange(len(width)) - (np.cumsum(n) - n)[pair_of_row], width)
    col = np.repeat((np.cumsum(m) - m)[pair_of_row], width) + i
    return np.repeat(pair_of_row, width), j, i, row, col


class PairMap:
    """Floats keyed by (conditioned id, conditioning id), read with find and get_packed.

    packed holds strictly increasing pack()ed keys, data the values in the
    same order.
    """

    __slots__ = ("packed", "data")

    def __init__(self, packed, data):
        self.packed = packed
        self.data = data

    def find(self, query):
        """Index of each packed query key in packed, -1 where absent."""
        query = np.asarray(query, dtype=np.int64)
        if not len(self.packed):
            return np.full(query.shape, -1)
        where = np.minimum(np.searchsorted(self.packed, query), len(self.packed) - 1)
        return np.where(self.packed[where] == query, where, -1)

    def get_packed(self, query, default):
        """Values at packed query keys, default where absent."""
        where = self.find(query)
        if not len(self.packed):
            return np.full(where.shape, float(default))
        return np.where(where >= 0, self.data[where], default)

    def conditioned(self):
        return self.packed & _LOW

    def conditioning(self):
        return self.packed >> _SHIFT

    def __len__(self):
        return len(self.packed)

    def __eq__(self, other):
        if not isinstance(other, PairMap):
            return NotImplemented
        return np.array_equal(self.packed, other.packed) and np.array_equal(self.data, other.data)


def _conditioning_groups(packed):
    """Per entry, the rank of its conditioning word among the table's."""
    cing = packed >> _SHIFT
    return np.cumsum(np.diff(cing, prepend=cing[:1]) != 0)


# Masks keeping the first 0..8 bytes of a little-endian 8-byte word.
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(8)] + [-1], dtype=np.int64)

# An even multiplier, so that first + _MIX * last is one-to-one when first == last.
_MIX = 0x5851F42D4C957F2E


def _field_words(words, start, length, offset):
    """The 8 bytes at start + offset of each field, cut to its length and zero past it."""
    at = np.minimum(start + offset, len(words) - 1)
    return words[at] & _BYTE_MASKS[np.maximum(np.minimum(length - offset, 8), 0)]


def _same_bytes(words, a, b, length):
    """Whether the length bytes at a equal those at b, field by field."""
    same = np.ones(len(a), bool)
    for offset in range(0, int(length.max(initial=0)), 8):
        same &= _field_words(words, a, length, offset) == _field_words(words, b, length, offset)
    return same


def _changes(values):
    """True at the start and wherever an entry differs from the one before it."""
    out = np.ones(len(values), bool)
    np.not_equal(values[1:], values[:-1], out=out[1:])
    return out


def _runs(words, start, length):
    """Indices of the fields whose bytes differ from the field before them.

    Neighbours share one gather per 8 bytes, half of what _same_bytes takes.
    """
    new = _changes(length)
    for offset in range(0, int(length.max(initial=0)), 8):
        new |= _changes(_field_words(words, start, length, offset))
    return np.flatnonzero(new)


def _distinct(words, start, length):
    """(head, inverse): a field holding each distinct byte string, and the distinct string of each field.

    A key adds a field's length, in the top byte, to its first 8 bytes
    (those past its end zeroed), so a field under 8 bytes is keyed exactly.
    A longer field also adds a multiple of its last 8 bytes and is checked
    byte for byte against the head of its key; fields that differ from
    their head are told apart by all their bytes. Keys are sorted once per
    run of equal neighbouring keys.
    """
    key = words[start] & _BYTE_MASKS[np.minimum(length, 8)]
    key += length << 56
    long = (length >= 8).nonzero()[0]
    key[long] += _MIX * words[start[long] + length[long] - 8]
    runs = _changes(key)
    run_key = key[runs]
    order = run_key.argsort()
    new = _changes(run_key[order])
    head = runs.nonzero()[0][order[new]]
    inverse = np.empty(len(order), np.intp)
    inverse[order] = new.cumsum() - 1
    inverse = inverse[runs.cumsum() - 1]
    differ = length != length[head[inverse]]
    differ[long] |= ~_same_bytes(words, start[long], start[head[inverse[long]]], length[long])
    other = differ.nonzero()[0]
    if other.size:
        offsets = range(0, int(length[other].max()), 8)
        cells = np.column_stack([length[other]] + [_field_words(words, start[other], length[other], k) for k in offsets])
        _, other_head, other_inverse = np.unique(cells, axis=0, return_index=True, return_inverse=True)
        inverse[other] = len(head) + other_inverse
        head = np.append(head, other[other_head])
    return head, inverse


def _texts(body, start, end):
    """The decoded text of each field.

    Each field is gathered with the byte after it, made a tab, so that one
    decode and one split give every text.
    """
    width = end - start + 1
    stop = width.cumsum()
    cells = np.frombuffer(body, np.uint8)[np.arange(width.sum()) + np.repeat(start - stop + width, width)]
    cells[stop - 1] = ord("\t")
    return cells.tobytes().decode("utf-8").split("\t")[:-1]


def _read(path):
    """(header fields, body) of a ttable file read by read_text.

    The body bytes are framed for _field_bounds: a newline first, a newline
    last and 8 zero bytes after it.
    """
    data = read_text(path).encode("utf-8")
    head, _, body = data.partition(b"\n")
    del data  # the file is not held beside the framed copy of its body
    tail = b"\n" if body and not body.endswith(b"\n") else b""
    return head.decode("utf-8").split(), b"".join((b"\n", body, tail, bytes(8)))


def _field_bounds(path, body):
    """Positions of the framing newline, then of each row's two tabs and its newline.

    A line without exactly two tabs raises ValueError("path:line: ...").
    """
    text = np.frombuffer(body, np.uint8)
    bounds = np.flatnonzero(text <= ord("\n"))
    bounds = bounds[text[bounds] >= ord("\t")]
    newline = text[bounds] == ord("\n")
    rows = np.count_nonzero(newline) - 1
    if len(bounds) != 3 * rows + 1 or not newline[::3].all():
        tabs = np.bincount(np.cumsum(newline)[~newline] - 1, minlength=rows)
        k = int(np.flatnonzero(tabs != 2)[0])
        raise ValueError(f"{path}:{k + 2}: expected 3 tab-separated fields, got {tabs[k] + 1}")
    return bounds


def _token_ids(path, body, words, start, end, ids):
    """The id in ids of each field's token; a token not in ids raises ValueError("path:line: ...")."""
    head, inverse = _distinct(words, start, end - start)
    tokens = _texts(body, start[head], end[head])
    found = np.fromiter(map(ids.get, tokens, repeat(-1)), np.int64, len(tokens))[inverse]
    missing = np.flatnonzero(found < 0)
    if missing.size:
        k = int(missing[0])
        raise ValueError(f"{path}:{k + 2}: token {tokens[inverse[k]]!r} is not in the vocabulary")
    return found


def _is_probability(text):
    """Whether text reads as a number in (0, 1]."""
    try:
        return 0.0 < float(text) <= 1.0
    except ValueError:
        return False


def _probabilities(path, body, words, start, end):
    """The float of each field, each run of equal neighbouring fields converted once."""
    runs = _runs(words, start, end - start)
    texts = _texts(body, start[runs], end[runs])
    try:
        values = np.fromiter(map(float, texts), np.float64, len(texts))
        valid = ((values > 0.0) & (values <= 1.0)).all()
    except ValueError:
        valid = False
    if not valid:
        k = next(k for k, text in enumerate(texts) if not _is_probability(text))
        raise ValueError(f"{path}:{runs[k] + 2}: probability {texts[k]!r} is not a number in (0, 1]")
    return np.repeat(values, np.diff(runs, append=len(start)))


class TTable:
    """Sparse conditional lexicon for one direction.

    probs is a PairMap from (conditioned id, conditioning id) to a
    probability in (0, 1].
    cond_vocab_size is the number of surface types on the conditioned side,
    used as the dimension of the symmetric Dirichlet prior in VB mode.
    """

    def __init__(self, direction, probs, cond_vocab_size, fallback):
        if direction not in (FORWARD, REVERSE):
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        self.probs = probs
        self.cond_vocab_size = cond_vocab_size
        self.fallback = fallback

    def lookup(self, conditioned, conditioning):
        """Probabilities of the broadcast id arrays, the fallback where unseen."""
        return self.probs.get_packed(pack(conditioned, conditioning), self.fallback)

    def save(self, path, conditioned_vocab, conditioning_vocab):
        """Write `#ttable <direction> <V>` then token TSV rows.

        Column 1 is the conditioned word, column 2 the conditioning word,
        empty for NULL; probabilities carry 17 significant digits so
        reloading is exact. Rows are grouped by conditioning word. Each
        distinct probability is formatted once, and the rows are joined
        from whole columns of cells.
        """
        cond_cells = [token + "\t" for token in conditioned_vocab.tokens()]
        cing_cells = [token + "\t" for token in conditioning_vocab.tokens()]
        cing_cells[NULL_ID] = NULL_FIELD + "\t"
        values, value_of_row = np.unique(self.probs.data, return_inverse=True)
        prob_cells = ("%.17g\n" * len(values) % tuple(values.tolist())).splitlines(keepends=True)
        cells = [None] * (3 * len(self.probs))
        cells[0::3] = map(cond_cells.__getitem__, self.probs.conditioned().tolist())
        cells[1::3] = map(cing_cells.__getitem__, self.probs.conditioning().tolist())
        cells[2::3] = map(prob_cells.__getitem__, value_of_row.tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#ttable {self.direction} {self.cond_vocab_size}\n")
            fh.write("".join(cells))

    @classmethod
    def load(cls, path, conditioned_vocab, conditioning_vocab, fallback):
        """Read a table written by save; a malformed row raises ValueError("path:line: ...").

        Files whose NULL entries carry the `<NULL>` token still load when
        the conditioning vocabulary has no real `<NULL>` word.
        """
        header, body = _read(path)
        if len(header) != 3 or header[0] != "#ttable" or not header[2].isdecimal():
            raise ValueError(f"{path}:1: not a ttable file")
        if header[1] not in (FORWARD, REVERSE):
            raise ValueError(f"{path}:1: unknown direction {header[1]!r}")
        if not 1 <= int(header[2]) <= conditioned_vocab.real_size:
            raise ValueError(f"{path}:1: vocabulary size {header[2]} outside 1..{conditioned_vocab.real_size}")
        bounds = _field_bounds(path, body)
        # words[k] is the little-endian 8-byte word starting at body[k].
        words = np.ndarray((len(body) - 7,), "<i8", body, 0, (1,))
        cing_ids = conditioning_vocab.ids()
        cing_ids[NULL_FIELD] = NULL_ID
        cing_ids.setdefault(NULL_TOKEN, NULL_ID)
        # Column c of row k runs from bounds[3k + c] + 1 to bounds[3k + c + 1].
        cond = _token_ids(path, body, words, bounds[0:-1:3] + 1, bounds[1::3], conditioned_vocab.ids())
        cing = _token_ids(path, body, words, bounds[1:-1:3] + 1, bounds[2::3], cing_ids)
        probs = _probabilities(path, body, words, bounds[2:-1:3] + 1, bounds[3::3])
        packed = pack(cond, cing)
        order = np.argsort(packed, kind="stable")
        packed = packed[order]
        dup = np.flatnonzero(packed[1:] == packed[:-1])
        if dup.size:
            raise ValueError(f"{path}:{int(order[dup[0] + 1]) + 2}: duplicate entry")
        return cls(header[1], PairMap(packed, probs[order]), int(header[2]), fallback)


def digamma(x):
    """Digamma psi(x) for x > 0, a number or an array, accurate to better than 1e-10.

    Lifts the entries below 6 in place by psi(x) = psi(x+1) - 1/x, then sums
    the asymptotic series in 1/x^2 in place by Horner's rule. A lift step
    takes the bool mask of x < 6 as its 1: other entries lose 0/x and gain 0.
    """
    x = np.array(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError(f"digamma requires x > 0, got {x[x <= 0].flat[0]}")
    result = np.zeros_like(x)
    step = np.empty_like(x)
    low = np.less(x, 6.0, out=np.empty(x.shape, bool))
    while low.any():
        np.divide(low, x, out=step)
        result -= step
        x += low
        np.less(x, 6.0, out=low)
    inv = np.divide(1.0, x, out=step)
    inv2 = inv * inv
    result += np.log(x) - 0.5 * inv
    series = np.multiply(inv2, 691.0 / 32760, out=inv)
    for c in (1.0 / 132, 1.0 / 240, 1.0 / 252, 1.0 / 120, 1.0 / 12):
        np.subtract(c, series, out=series)
        series *= inv2
    result -= series
    return result if result.ndim else float(result)


def oriented(pair, direction):
    """(conditioned sequence, conditioning sequence) for one pair."""
    if direction == FORWARD:
        return pair.source, pair.target
    return pair.target, pair.source


class _Links:
    """Every link of a corpus in one direction, in corpus order.

    A link joins one occurrence of a conditioned word to one word of the
    other side of its pair, NULL last when enabled: the product_cells of
    the pairs, with the conditioned words as rows and NULL as a last
    column. The links of one occurrence are consecutive. keys are the
    distinct co-occurring pairs, packed and sorted: the key set of every EM
    table on this corpus.
    """

    def __init__(self, pairs, direction, use_null):
        sides = [oriented(pair, direction) for pair in pairs]
        null = (NULL_ID,) if use_null else ()
        n = np.fromiter((len(c) for c, _ in sides), np.int64, len(sides))
        m = np.fromiter((len(e) + len(null) for _, e in sides), np.int64, len(sides))
        cond = np.fromiter(chain.from_iterable(c for c, _ in sides), np.int64, int(n.sum()))
        cing = np.fromiter(chain.from_iterable(e + null for _, e in sides), np.int64, int(m.sum()))
        _, _, _, self.occ, col = product_cells(n, m)
        self.null = len(null)
        self.slots = np.repeat(m, n)
        self.keys, self.key_of_link = np.unique(pack(cond[self.occ], cing[col]), return_inverse=True)

    def cond_vocab_size(self):
        return int(np.count_nonzero(np.bincount(self.keys & _LOW)))

    def expected_counts(self, p):
        """E-step counts under probabilities p, each key's shares added link by link in corpus order."""
        share = p[self.key_of_link]
        share /= np.bincount(self.occ, weights=share)[self.occ]
        return np.bincount(self.key_of_link, weights=share, minlength=len(self.keys))

    def viterbi(self, p):
        """Per occurrence, the index of its best conditioning word under p, -1 where NULL wins.

        Ties go to the lowest index. NULL, each occurrence's last slot when
        enabled, so wins only when strictly better than the best word.
        """
        p = p[self.key_of_link]
        first = np.cumsum(self.slots) - self.slots
        peak = np.maximum.reduceat(p, first)
        at = np.arange(len(p))
        at[p != peak.repeat(self.slots)] = len(p)
        best = np.minimum.reduceat(at, first) - first
        if self.null:
            best[best == self.slots - 1] = -1
        return best


def _normalized(counts, group, alpha=None, vocab_size=None):
    """M-step on counts in conditioning groups group: plain, or variational Bayes given alpha."""
    totals = np.bincount(group, weights=counts)
    if alpha is None:
        probs = counts / totals[group]
    else:
        probs = np.exp(digamma(counts + alpha)) / np.exp(digamma(totals + alpha * vocab_size))[group]
    return np.maximum(probs, TINY_PROB)


def expected_counts(pairs, table, config, threads=1):
    """E-step over the corpus as a PairMap of expected counts.

    The E-step is a few array passes, cheaper than starting worker
    processes, so it runs in this process and threads is ignored.
    Summation order is fixed by the corpus alone; a pair missing from table raises KeyError.
    """
    links = _Links(pairs, table.direction, config.use_null)
    where = table.probs.find(links.keys)
    if (where < 0).any():
        k = int(np.flatnonzero(where < 0)[0])
        raise KeyError((int(links.keys[k] & _LOW), int(links.keys[k] >> _SHIFT)))
    return PairMap(links.keys, links.expected_counts(table.probs.data[where]))


def normalize_plain(counts):
    """Plain M-step on a PairMap: per conditioning word, counts normalized to sum 1."""
    return PairMap(counts.packed, _normalized(counts.data, _conditioning_groups(counts.packed)))


def normalize_vb(counts, alpha, vocab_size):
    """Variational-Bayes M-step on a PairMap under a symmetric Dirichlet prior.

    theta(f|e) = exp(psi(c(f,e) + alpha)) / exp(psi(sum_f c(f,e) + alpha * V))
    with V the conditioned-side vocabulary size. Per conditioning word the
    resulting probabilities sum to at most 1.
    """
    group = _conditioning_groups(counts.packed)
    return PairMap(counts.packed, _normalized(counts.data, group, alpha, vocab_size))


def uniform_init(pairs, direction, config):
    """Uniform table over co-occurring pairs (plus NULL when enabled)."""
    links = _Links(pairs, direction, config.use_null)
    group = _conditioning_groups(links.keys)
    probs = 1.0 / np.bincount(group)[group]
    return TTable(direction, PairMap(links.keys, probs), links.cond_vocab_size(), config.fallback)


def _trained(pairs, direction, config, log=None):
    """The corpus links of one direction and the table after config.em_iters
    E+M rounds from the uniform initialization, on arrays aligned with their keys."""
    if not pairs:
        raise ValueError("cannot train on an empty corpus")
    links = _Links(pairs, direction, config.use_null)
    group = _conditioning_groups(links.keys)
    vocab_size = links.cond_vocab_size()
    probs = 1.0 / np.bincount(group)[group]
    for it in range(config.em_iters):
        counts = links.expected_counts(probs)
        probs = _normalized(counts, group, config.alpha if config.vb else None, vocab_size)
        if log is not None:
            log(f"em {direction} iteration {it + 1}/{config.em_iters}")
    return links, TTable(direction, PairMap(links.keys, probs), vocab_size, config.fallback)


def train_ibm1(pairs, direction, config, threads=1):
    """Exactly config.em_iters E+M rounds from the uniform initialization.

    threads is ignored, as in expected_counts.
    """
    return _trained(pairs, direction, config)[1]


def train_tables(pairs, config, log=None):
    """The forward and reverse tables of train_ibm1, re-estimated by VBH when config.vbh is set.

    Under VBH each direction's Viterbi links are read from the links its
    EM ran on, which are then dropped: one direction's links are alive at
    a time, and only the per-word Viterbi arrays cross to the other. log,
    when given, receives a line per EM iteration and one before VBH.
    """
    tables, best = [], []
    for direction in (FORWARD, REVERSE):
        links, table = _trained(pairs, direction, config, log)
        tables.append(table)
        if config.vbh:
            best.append(links.viterbi(table.probs.data))
        del links
    if not config.vbh:
        return tuple(tables)
    if log is not None:
        log("vbh re-estimation from symmetrized Viterbi links")
    return _reestimate(pairs, *tables, *best)


def corpus_log_likelihood(pairs, table, config):
    """Model 1 log-likelihood of the conditioned side given the other side."""
    links = _Links(pairs, table.direction, config.use_null)
    p = table.probs.get_packed(links.keys, table.fallback)[links.key_of_link]
    rows = np.bincount(links.occ, weights=p, minlength=len(links.slots))
    return float(np.log(rows / links.slots).sum())


def symmetric_lexical_score(t_fwd, t_rev, f, e):
    """log sqrt(p(f|e) * p(e|f)) for broadcast source ids f and target ids e.

    Finite and <= 0 through the fallback.
    """
    return 0.5 * (np.log(t_fwd.lookup(f, e)) + np.log(t_rev.lookup(e, f)))


def viterbi_links(pairs, table, use_null):
    """Per-word argmax links of a corpus under one directional table.

    One int per conditioned word, in corpus order: the index of its best
    conditioning word in its pair, or -1 where NULL is strictly better and
    the word stays unlinked. Ties go to the lowest index.
    """
    links = _Links(pairs, table.direction, use_null)
    return links.viterbi(table.probs.get_packed(links.keys, table.fallback))


def _reestimate(pairs, t_fwd, t_rev, best_fwd, best_rev):
    n = np.fromiter((pair.n for pair in pairs), np.int64, len(pairs))
    m = np.fromiter((pair.m for pair in pairs), np.int64, len(pairs))
    row0, col0 = np.cumsum(n) - n, np.cumsum(m) - m
    fwd_at, rev_at = np.flatnonzero(best_fwd >= 0), np.flatnonzero(best_rev >= 0)
    of_row, of_col = np.repeat(np.arange(len(pairs)), n)[fwd_at], np.repeat(np.arange(len(pairs)), m)[rev_at]
    k, j, i = _grow_diag(np.column_stack((of_row, fwd_at - row0[of_row], best_fwd[fwd_at])),
                         np.column_stack((of_col, best_rev[rev_at], rev_at - col0[of_col]))).T
    src_ids = np.fromiter(chain.from_iterable(pair.source for pair in pairs), np.int64, int(n.sum()))[row0[k] + j]
    tgt_ids = np.fromiter(chain.from_iterable(pair.target for pair in pairs), np.int64, int(m.sum()))[col0[k] + i]
    tables = []
    for t, cond, cing in ((t_fwd, src_ids, tgt_ids), (t_rev, tgt_ids, src_ids)):
        packed, counts = np.unique(pack(cond, cing), return_counts=True)
        probs = normalize_plain(PairMap(packed, counts.astype(np.float64)))
        tables.append(TTable(t.direction, probs, t.cond_vocab_size, t.fallback))
    return tuple(tables)


def vbh_reestimate(pairs, t_fwd, t_rev, use_null):
    """Rebuild both tables from gdfa-symmetrized Viterbi links.

    The Viterbi links of all pairs come from viterbi_links, one direction
    at a time; grow-diag then runs over all pairs at once. Every
    symmetrized link contributes one count in each direction; counts are
    normalized per conditioning word. Fallbacks and vocabulary sizes are
    carried over unchanged.
    """
    best_fwd = viterbi_links(pairs, t_fwd, use_null)
    best_rev = viterbi_links(pairs, t_rev, use_null)
    return _reestimate(pairs, t_fwd, t_rev, best_fwd, best_rev)
