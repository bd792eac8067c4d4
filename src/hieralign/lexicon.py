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
model files work on whole arrays.

EM runs on a direction's corpus links, every conditioned word occurrence
joined to each word of the other side of its pair. VBH reads the Viterbi
link of every occurrence off the same links in a few array passes, then
symmetrizes the two directions pair by pair with grow-diag-final-and.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import ne

import numpy as np

from .corpus import NULL_ID, NULL_TOKEN
from .symmetrize import grow_diag_final_and
from .workers import CHUNK_SIZE

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


@dataclass(frozen=True)
class EmConfig:
    """EM settings, a view of pipeline.AlignerConfig that declares and checks them."""

    iterations: int
    vb: bool
    alpha: float
    use_null: bool
    fallback: float


def pack(conditioned, conditioning):
    """int64 keys of (conditioned id, conditioning id) pairs, broadcast.

    Keys sort by conditioning id, then conditioned id. A negative id (an
    unknown word) always gives a negative key, which no table holds.
    """
    cond = np.asarray(conditioned, dtype=np.int64)
    cing = np.asarray(conditioning, dtype=np.int64)
    return (cing << _SHIFT) | cond


class PairMap(Mapping):
    """Read-only map (conditioned id, conditioning id) -> float on two arrays.

    packed holds strictly increasing pack()ed keys, data the values in the
    same order.
    """

    __slots__ = ("packed", "data")

    def __init__(self, packed, data):
        self.packed = packed
        self.data = data

    @classmethod
    def of(cls, mapping):
        """mapping itself if it is a PairMap, else a PairMap of its items."""
        if isinstance(mapping, cls):
            return mapping
        ids = np.array(list(mapping), dtype=np.int64).reshape(-1, 2)
        packed = pack(ids[:, 0], ids[:, 1])
        data = np.fromiter(mapping.values(), np.float64, len(mapping))
        order = np.argsort(packed)
        return cls(packed[order], data[order])

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

    def __iter__(self):
        return zip(self.conditioned().tolist(), self.conditioning().tolist())

    def __getitem__(self, key):
        where = int(self.find(pack(*key)))
        if where < 0:
            raise KeyError(key)
        return float(self.data[where])

    def __eq__(self, other):
        if isinstance(other, PairMap):
            return np.array_equal(self.packed, other.packed) and np.array_equal(self.data, other.data)
        if isinstance(other, Mapping):
            return dict(zip(self, self.data.tolist())) == dict(other.items())
        return NotImplemented

    __hash__ = None


def _conditioning_groups(packed):
    """Per entry, the rank of its conditioning word among the table's."""
    cing = packed >> _SHIFT
    return np.cumsum(np.diff(cing, prepend=cing[:1]) != 0)


def _column_ids(path, tokens, ids):
    out = np.fromiter(map(ids.get, tokens, repeat(-1)), np.int64, len(tokens))
    missing = np.flatnonzero(out < 0)
    if missing.size:
        k = int(missing[0])
        raise ValueError(f"{path}:{k + 2}: token {tokens[k]!r} is not in the vocabulary")
    return out


def _float_or_nan(text):
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _probabilities(path, texts):
    """The float of each text, each run of equal neighbouring texts converted once."""
    starts = np.flatnonzero(np.fromiter(map(ne, texts, chain([None], texts)), bool, len(texts)))
    heads = list(map(texts.__getitem__, starts.tolist()))
    try:
        values = np.fromiter(map(float, heads), np.float64, len(heads))
    except ValueError:
        values = np.array([_float_or_nan(text) for text in heads], dtype=np.float64)
    bad = np.flatnonzero(~((values > 0.0) & (values <= 1.0)))
    if bad.size:
        k = int(starts[bad[0]])
        raise ValueError(f"{path}:{k + 2}: probability {texts[k]!r} is not a number in (0, 1]")
    return np.repeat(values, np.diff(starts, append=len(texts)))


def _check_fields(path, body):
    """Raise ValueError("path:line: ...") unless every newline-terminated line of body has two tabs."""
    text = np.frombuffer(body.encode("utf-8"), np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    tabs = np.flatnonzero(text == ord("\t"))
    # Every line has two tabs exactly when tabs 2k and 2k + 1 both lie on line k.
    if len(tabs) == 2 * len(ends) and (tabs[1::2] < ends).all() and (tabs[2::2] > ends[:-1]).all():
        return
    counts = np.bincount(np.searchsorted(ends, tabs), minlength=len(ends))
    k = int(np.flatnonzero(counts != 2)[0])
    raise ValueError(f"{path}:{k + 2}: expected 3 tab-separated fields, got {counts[k] + 1}")


class TTable:
    """Sparse conditional lexicon for one direction.

    probs is a PairMap from (conditioned id, conditioning id) to a
    probability in (0, 1]; any mapping given is converted to one.
    cond_vocab_size is the number of surface types on the conditioned side,
    used as the dimension of the symmetric Dirichlet prior in VB mode.
    """

    def __init__(self, direction, probs, cond_vocab_size, fallback):
        if direction not in (FORWARD, REVERSE):
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        self.probs = PairMap.of(probs)
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
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            body = fh.read()
        if len(header) != 3 or header[0] != "#ttable" or not header[2].isdecimal():
            raise ValueError(f"{path}:1: not a ttable file")
        if header[1] not in (FORWARD, REVERSE):
            raise ValueError(f"{path}:1: unknown direction {header[1]!r}")
        if not 1 <= int(header[2]) <= conditioned_vocab.real_size:
            raise ValueError(f"{path}:1: vocabulary size {header[2]} outside 1..{conditioned_vocab.real_size}")
        if body and not body.endswith("\n"):
            body += "\n"
        _check_fields(path, body)
        fields = body.replace("\n", "\t").split("\t")[:-1]
        f_toks, e_toks, p_texts = fields[0::3], fields[1::3], fields[2::3]
        cing_ids = conditioning_vocab.ids()
        cing_ids[NULL_FIELD] = NULL_ID
        cing_ids.setdefault(NULL_TOKEN, NULL_ID)
        packed = pack(_column_ids(path, f_toks, conditioned_vocab.ids()),
                      _column_ids(path, e_toks, cing_ids))
        probs = _probabilities(path, p_texts)
        order = np.argsort(packed, kind="stable")
        packed = packed[order]
        dup = np.flatnonzero(packed[1:] == packed[:-1])
        if dup.size:
            raise ValueError(f"{path}:{int(order[dup[0] + 1]) + 2}: duplicate entry")
        return cls(header[1], PairMap(packed, probs[order]), int(header[2]), fallback)


def digamma(x):
    """Digamma psi(x) for x > 0, a number or an array, accurate to better than 1e-10.

    Lifts the entries below 6 in place by psi(x) = psi(x+1) - 1/x, then sums
    the asymptotic series in 1/x^2 in place by Horner's rule.
    """
    x = np.array(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError(f"digamma requires x > 0, got {x[x <= 0].flat[0]}")
    result = np.zeros_like(x)
    step = np.empty_like(x)
    low = np.less(x, 6.0, out=np.empty(x.shape, bool))
    while low.any():
        np.divide(1.0, x, out=step, where=low)
        np.subtract(result, step, out=result, where=low)
        np.add(x, 1.0, out=x, where=low)
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
    other side of its pair, NULL last when enabled; the links of one
    occurrence are consecutive. keys are the distinct co-occurring pairs,
    packed and sorted: the key set of every EM table on this corpus.
    """

    def __init__(self, pairs, direction, use_null):
        sides = [oriented(pair, direction) for pair in pairs]
        null = (NULL_ID,) if use_null else ()
        n = np.fromiter((len(c) for c, _ in sides), np.int64, len(sides))
        m = np.fromiter((len(e) + len(null) for _, e in sides), np.int64, len(sides))
        cond = np.fromiter(chain.from_iterable(c for c, _ in sides), np.int64, int(n.sum()))
        cing = np.fromiter(chain.from_iterable(e + null for _, e in sides), np.int64, int(m.sum()))
        self.pair_of_occ = np.repeat(np.arange(len(sides)), n)
        self.null = len(null)
        self.slots = m[self.pair_of_occ]
        self.occ = np.repeat(np.arange(len(cond)), self.slots)
        first = np.cumsum(self.slots) - self.slots
        offset = np.arange(len(self.occ)) - first[self.occ]
        cing_start = (np.cumsum(m) - m)[self.pair_of_occ]
        link_keys = pack(cond[self.occ], cing[cing_start[self.occ] + offset])
        self.keys, self.key_of_link = np.unique(link_keys, return_inverse=True)

    def chunk_groups(self):
        """(group of each link, key of each group) for groups of one key in one
        chunk of CHUNK_SIZE pairs, numbered chunk by chunk."""
        chunk_of_link = (self.pair_of_occ // CHUNK_SIZE)[self.occ]
        groups, group_of_link = np.unique(
            chunk_of_link * len(self.keys) + self.key_of_link, return_inverse=True
        )
        return group_of_link, groups % max(len(self.keys), 1)

    def cond_vocab_size(self):
        return int(np.count_nonzero(np.bincount(self.keys & _LOW)))

    def expected_counts(self, p, chunk_groups):
        """E-step counts under probabilities p, summed in the order of a chunked corpus loop.

        Within a chunk of CHUNK_SIZE pairs, np.bincount adds link by link in
        corpus order; the chunk sums are then added in chunk order.
        chunk_groups is what self.chunk_groups() returns.
        """
        share = p[self.key_of_link]
        share /= np.bincount(self.occ, weights=share)[self.occ]
        group_of_link, key_of_group = chunk_groups
        partial = np.bincount(group_of_link, weights=share)
        return np.bincount(key_of_group, weights=partial, minlength=len(self.keys))

    def viterbi(self, p):
        """Per occurrence, the index of its best conditioning word under p, -1 where NULL wins.

        Ties go to the lowest index. NULL, each occurrence's last slot when
        enabled, wins only when strictly better than the best word.
        """
        p = p[self.key_of_link]
        first = np.cumsum(self.slots) - self.slots
        if self.null:
            last = first + self.slots - 1
            p_null = p[last]
            p[last] = -np.inf
        peak = np.maximum.reduceat(p, first)
        at = np.arange(len(p))
        at[p != peak.repeat(self.slots)] = len(p)
        best = np.minimum.reduceat(at, first) - first
        if self.null:
            best[p_null > peak] = -1
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
    return PairMap(links.keys, links.expected_counts(table.probs.data[where], links.chunk_groups()))


def normalize_plain(counts):
    """Plain M-step: per conditioning word, counts normalized to sum 1."""
    counts = PairMap.of(counts)
    return PairMap(counts.packed, _normalized(counts.data, _conditioning_groups(counts.packed)))


def normalize_vb(counts, alpha, vocab_size):
    """Variational-Bayes M-step under a symmetric Dirichlet prior.

    theta(f|e) = exp(psi(c(f,e) + alpha)) / exp(psi(sum_f c(f,e) + alpha * V))
    with V the conditioned-side vocabulary size. Per conditioning word the
    resulting probabilities sum to at most 1.
    """
    counts = PairMap.of(counts)
    group = _conditioning_groups(counts.packed)
    return PairMap(counts.packed, _normalized(counts.data, group, alpha, vocab_size))


def uniform_init(pairs, direction, config):
    """Uniform table over co-occurring pairs (plus NULL when enabled)."""
    links = _Links(pairs, direction, config.use_null)
    group = _conditioning_groups(links.keys)
    probs = 1.0 / np.bincount(group)[group]
    return TTable(direction, PairMap(links.keys, probs), links.cond_vocab_size(), config.fallback)


def _trained(pairs, direction, config, progress=None):
    """The corpus links of one direction and the table after config.iterations
    E+M rounds from the uniform initialization, on arrays aligned with their keys."""
    if not pairs:
        raise ValueError("cannot train on an empty corpus")
    links = _Links(pairs, direction, config.use_null)
    chunk_groups = links.chunk_groups()
    group = _conditioning_groups(links.keys)
    vocab_size = links.cond_vocab_size()
    probs = 1.0 / np.bincount(group)[group]
    for it in range(config.iterations):
        counts = links.expected_counts(probs, chunk_groups)
        probs = _normalized(counts, group, config.alpha if config.vb else None, vocab_size)
        if progress is not None:
            progress(it + 1, config.iterations)
    return links, TTable(direction, PairMap(links.keys, probs), vocab_size, config.fallback)


def train_ibm1(pairs, direction, config, threads=1, progress=None):
    """Exactly config.iterations E+M rounds from the uniform initialization.

    threads is ignored, as in expected_counts.
    """
    return _trained(pairs, direction, config, progress)[1]


def train_tables(pairs, config, vbh, log=None):
    """The forward and reverse tables of train_ibm1, re-estimated by VBH when vbh is set.

    Under VBH each direction's Viterbi links are read from the links its
    EM ran on, which are then dropped: one direction's links are alive at
    a time, and only the per-word Viterbi arrays cross to the other. log,
    when given, receives a line per EM iteration and one before VBH.
    """
    tables, best = [], []
    for direction in (FORWARD, REVERSE):
        progress = None if log is None else lambda it, total: log(f"em {direction} iteration {it}/{total}")
        links, table = _trained(pairs, direction, config, progress)
        tables.append(table)
        if vbh:
            best.append(links.viterbi(table.probs.data))
        del links
    if not vbh:
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


def _link_sets(pairs, best, direction):
    """Each pair's links (source index, target index) from a viterbi_links array."""
    best = iter(best.tolist())
    for pair in pairs:
        words = pair.n if direction == FORWARD else pair.m
        links = [(a, b) for a, b in enumerate(islice(best, words)) if b >= 0]
        yield set(links) if direction == FORWARD else {(b, a) for a, b in links}


def _reestimate(pairs, t_fwd, t_rev, best_fwd, best_rev):
    src_ids, tgt_ids = [], []
    a_fwds, a_revs = _link_sets(pairs, best_fwd, FORWARD), _link_sets(pairs, best_rev, REVERSE)
    for pair, a_fwd, a_rev in zip(pairs, a_fwds, a_revs):
        for (j, i) in grow_diag_final_and(a_fwd, a_rev, pair.n, pair.m):
            src_ids.append(pair.source[j])
            tgt_ids.append(pair.target[i])
    tables = []
    for t, cond, cing in ((t_fwd, src_ids, tgt_ids), (t_rev, tgt_ids, src_ids)):
        packed, counts = np.unique(pack(cond, cing), return_counts=True)
        probs = normalize_plain(PairMap(packed, counts.astype(np.float64)))
        tables.append(TTable(t.direction, probs, t.cond_vocab_size, t.fallback))
    return tuple(tables)


def vbh_reestimate(pairs, t_fwd, t_rev, use_null):
    """Rebuild both tables from gdfa-symmetrized Viterbi links.

    The Viterbi links of all pairs come from viterbi_links, one direction
    at a time; grow-diag-final-and then runs pair by pair. Every
    symmetrized link contributes one count in each direction; counts are
    normalized per conditioning word. Fallbacks and vocabulary sizes are
    carried over unchanged.
    """
    best_fwd = viterbi_links(pairs, t_fwd, use_null)
    best_rev = viterbi_links(pairs, t_rev, use_null)
    return _reestimate(pairs, t_fwd, t_rev, best_fwd, best_rev)
