"""Independent reference implementations used as test oracles.

Everything here is written directly from the definitions with its own data
structures (token-keyed dicts, direct double-loop sums, full recursive
enumeration) so that agreement with the package is meaningful. The
exceptions are at the end. The scalar split scoring (asso, cut, ncut,
f_avg) reads one block sum at a time from an integral image of the
matrix's weights, built here in the parser's summation order. The
per-pair matrix build and the reference beam parser are plain loops over
one pair or one state at a time with the package's own lexicon lookups,
blocks and split arithmetic, so that the package's batched output can be
required to equal them exactly, ties included. viterbi_alignment is the
per-pair reference for the package's corpus-wide Viterbi links, one
pair's lookups at a time. em_step, write_alignment_file, pair_map and
as_dict are test helpers built on the package's public API, and
reference_ttable_text writes a ttable one row at a time, the byte
reference for TTable.save, and reference_ttable_load reads one with
str.split, the reference for TTable.load. reference_digamma lifts the whole array at
every step, the bit-exact reference for the package's in-place digamma.
reference_grow_diag grows one pair on Python sets, one candidate at a
time, the reference for the package's corpus-wide lockstep grow-diag.
is_consistent checks a phrase span pair against its definition link by
link, the reference for the package's phrase extraction.
"""

import math

import numpy as np
from scipy.special import digamma as scipy_digamma

from hieralign.alignio import format_alignment
from hieralign.corpus import NULL_ID, NULL_TOKEN
from hieralign.lexicon import (
    FORWARD,
    NULL_FIELD,
    PairMap,
    TTable,
    expected_counts,
    normalize_plain,
    normalize_vb,
    oriented,
    pack,
    symmetric_lexical_score,
)
from hieralign.parser import (
    F_AVG_FLOOR,
    INVERTED,
    STRAIGHT,
    Block,
    Derivation,
    SplitStep,
    _halves,
)

NULL = None  # stands in for the NULL conditioning word


def brute_force_ibm1(oriented_pairs, iterations, use_null, vb=False, alpha=0.01):
    """Textbook Model 1 EM over token pairs.

    oriented_pairs: list of (conditioned tokens, conditioning tokens).
    Returns {(conditioned token, conditioning token or NULL): probability}.
    """
    cooc = {}
    cond_vocab = set()
    for fs, es in oriented_pairs:
        cond_vocab.update(fs)
        conditionings = set(es) | ({NULL} if use_null else set())
        for e in conditionings:
            for f in set(fs):
                cooc.setdefault(e, set()).add(f)
    table = {}
    for e, fset in cooc.items():
        for f in fset:
            table[(f, e)] = 1.0 / len(fset)
    v = len(cond_vocab)

    for _ in range(iterations):
        counts = {}
        for fs, es in oriented_pairs:
            candidates = list(es) + ([NULL] if use_null else [])
            for f in fs:
                z = sum(table[(f, e)] for e in candidates)
                for e in candidates:
                    counts[(f, e)] = counts.get((f, e), 0.0) + table[(f, e)] / z
        totals = {}
        for (f, e), c in counts.items():
            totals[e] = totals.get(e, 0.0) + c
        if vb:
            table = {
                (f, e): math.exp(scipy_digamma(c + alpha))
                / math.exp(scipy_digamma(totals[e] + alpha * v))
                for (f, e), c in counts.items()
            }
        else:
            table = {(f, e): c / totals[e] for (f, e), c in counts.items()}
    return table


def dict_digamma(x):
    """Digamma by recurrence to x >= 6 and the asymptotic series, one scalar at a time."""
    result = 0.0
    while x < 6.0:
        result -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    result += math.log(x) - 0.5 * inv
    result -= inv2 * (
        1.0 / 12
        - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * (1.0 / 240 - inv2 * (1.0 / 132 - inv2 * (691.0 / 32760)))))
    )
    return result


def dict_expected_counts(oriented_pairs, probs, use_null):
    """Model 1 E-step over id pairs with a {(f, e): p} table, NULL as id 0.

    Counts are summed pair by pair in corpus order.
    """
    counts = {}
    for cond_seq, cing_seq in oriented_pairs:
        candidates = list(cing_seq) + ([0] if use_null else [])
        for f in cond_seq:
            denom = 0.0
            for e in candidates:
                denom += probs[(f, e)]
            for e in candidates:
                counts[(f, e)] = counts.get((f, e), 0.0) + probs[(f, e)] / denom
    return counts


def dict_normalize_plain(counts, floor=1e-300):
    """Counts normalized to sum 1 per conditioning word."""
    totals = {}
    for (f, e), c in counts.items():
        totals[e] = totals.get(e, 0.0) + c
    return {(f, e): max(c / totals[e], floor) for (f, e), c in counts.items()}


def dict_normalize_vb(counts, alpha, vocab_size, floor=1e-300):
    """exp(psi(c + alpha)) / exp(psi(sum_f c + alpha * V)) per entry."""
    totals = {}
    for (f, e), c in counts.items():
        totals[e] = totals.get(e, 0.0) + c
    denom = {e: math.exp(dict_digamma(t + alpha * vocab_size)) for e, t in totals.items()}
    return {
        (f, e): max(math.exp(dict_digamma(c + alpha)) / denom[e], floor)
        for (f, e), c in counts.items()
    }


def direct_asso(weights, j0, j1, i0, i1):
    """Block sum by explicit double loop."""
    total = 0.0
    for j in range(j0, j1):
        for i in range(i0, i1):
            total += weights[j][i]
    return total


def independent_f1(weights, x, y, c):
    """F-measure of an aligned sub-block given the severed weight c."""
    a = direct_asso(weights, x[0], x[1], y[0], y[1])
    return 2.0 * a / (2.0 * a + c)


def independent_f_avg(weights, j0, j1, i0, i1, j, i, inverted):
    """Mean of the two aligned sub-blocks' F1 values, from scratch."""
    if not inverted:
        c = direct_asso(weights, j0, j, i, i1) + direct_asso(weights, j, j1, i0, i)
        f1a = independent_f1(weights, (j0, j), (i0, i), c)
        f1b = independent_f1(weights, (j, j1), (i, i1), c)
    else:
        c = direct_asso(weights, j0, j, i0, i) + direct_asso(weights, j, j1, i, i1)
        f1a = independent_f1(weights, (j0, j), (i, i1), c)
        f1b = independent_f1(weights, (j, j1), (i0, i), c)
    return (f1a + f1b) / 2.0


def enumerate_derivation_scores(weights):
    """Log score of every complete BTG derivation of the whole matrix.

    Recursive enumeration over blocks; the score of a derivation is the
    sum of log mean-F1 values over its splits, exactly as the parser
    accumulates it.
    """
    n = len(weights)
    m = len(weights[0])

    def scores(j0, j1, i0, i1):
        if j1 - j0 == 1 or i1 - i0 == 1:
            return [0.0]
        out = []
        for j in range(j0 + 1, j1):
            for i in range(i0 + 1, i1):
                for inverted in (False, True):
                    favg = independent_f_avg(weights, j0, j1, i0, i1, j, i, inverted)
                    step = math.log(max(favg, 1e-300))
                    if not inverted:
                        lefts = scores(j0, j, i0, i)
                        rights = scores(j, j1, i, i1)
                    else:
                        lefts = scores(j0, j, i, i1)
                        rights = scores(j, j1, i0, i)
                    out.extend(step + a + b for a in lefts for b in rights)
        return out

    return scores(0, n, 0, m)


def derivation_count(n, m):
    """Number of complete BTG derivations of an n x m block."""
    memo = {}

    def count(a, b):
        if a == 1 or b == 1:
            return 1
        if (a, b) in memo:
            return memo[(a, b)]
        total = 0
        for j in range(1, a):
            for i in range(1, b):
                total += 2 * count(j, i) * count(a - j, b - i)
        memo[(a, b)] = total
        return total

    return count(n, m)


def random_soft_weights(rng, n, m, floor=1e-8):
    """Weights uniform in [floor, 1), matching the built matrix range."""
    return floor + (1.0 - 1e-12 - floor) * rng.random((n, m))


def distortion(j, i, n, m):
    """Relative-position penalty: h = |j/n - i/m|, delta = log(1 - h).

    Raw 0-based indices over the side lengths keep h strictly below 1.
    """
    if not (0 <= j < n and 0 <= i < m):
        raise ValueError(f"index ({j}, {i}) outside {n}x{m}")
    h = abs(j / n - i / m)
    return h, math.log1p(-h)


def reference_soft_matrix(pair, t_fwd, t_rev, config):
    """Weights of one pair, built on its own with 2-D broadcasting."""
    n, m = pair.n, pair.m
    theta = symmetric_lexical_score(
        t_fwd, t_rev, np.asarray(pair.source)[:, None], np.asarray(pair.target)[None, :]
    )
    raw = np.exp(theta / config.sigma_theta)
    if config.distortion:
        h = np.abs(np.arange(n)[:, None] / n - np.arange(m)[None, :] / m)
        raw *= np.where(h < config.r, np.exp(np.log1p(-h) / config.sigma_delta), config.p0)
    return np.clip(raw, config.p0 * config.p0, 1.0 - 1e-12)


def exact_best_score(weights):
    """Best derivation score by dynamic programming over blocks.

    A derivation's score is a sum over independent sub-blocks, so
    best(B) = max over splits of [log F_avg + best(left) + best(right)],
    with best = 0 on terminal blocks. Block sums come from this function's
    own prefix table, built with plain loops.
    """
    n = len(weights)
    m = len(weights[0])
    prefix = [[0.0] * (m + 1) for _ in range(n + 1)]
    for j in range(n):
        for i in range(m):
            prefix[j + 1][i + 1] = prefix[j][i + 1] + prefix[j + 1][i] - prefix[j][i] + weights[j][i]

    def block_sum(j0, j1, i0, i1):
        return prefix[j1][i1] - prefix[j0][i1] - prefix[j1][i0] + prefix[j0][i0]

    best = {}

    def solve(j0, j1, i0, i1):
        if j1 - j0 == 1 or i1 - i0 == 1:
            return 0.0
        key = (j0, j1, i0, i1)
        if key in best:
            return best[key]
        top = -math.inf
        for j in range(j0 + 1, j1):
            for i in range(i0 + 1, i1):
                xy = block_sum(j0, j, i0, i)
                xbyb = block_sum(j, j1, i, i1)
                xyb = block_sum(j0, j, i, i1)
                xby = block_sum(j, j1, i0, i)
                # Straight keeps xy and xbyb aligned; inverted keeps xyb and xby.
                for a, b, c, left, right in (
                    (xy, xbyb, xyb + xby, (j0, j, i0, i), (j, j1, i, i1)),
                    (xyb, xby, xy + xbyb, (j0, j, i, i1), (j, j1, i0, i)),
                ):
                    favg = (2.0 * a / (2.0 * a + c) + 2.0 * b / (2.0 * b + c)) / 2.0
                    score = math.log(max(favg, 1e-300)) + solve(*left) + solve(*right)
                    top = max(top, score)
        best[key] = top
        return top

    return solve(0, n, 0, m)


# --- scalar split scoring on an integral image of a matrix's weights ---

def prefix_table(weights):
    """(n+1) x (m+1) integral image: [a, b] is the sum of weights[:a, :b],
    accumulated along rows, then down the columns."""
    n, m = weights.shape
    prefix = np.zeros((n + 1, m + 1))
    prefix[1:, 1:] = weights.cumsum(axis=1).cumsum(axis=0)
    return prefix


def asso(matrix, rows, cols):
    """Total weight of the sub-block rows x cols: four lookups in prefix_table(matrix.weights)."""
    j0, j1 = rows
    i0, i1 = cols
    p = prefix_table(matrix.weights)
    return float(p[j1, i1] - p[j0, i1] - p[j1, i0] + p[j0, i0])


def _check_interior(block, step):
    if not (block.j0 < step.j < block.j1 and block.i0 < step.i < block.i1):
        raise ValueError(f"split {step} not interior to {block}")


def cut(matrix, block, step):
    """Weight severed by the split: the two sub-blocks left unaligned."""
    _check_interior(block, step)
    x = (block.j0, step.j)
    xbar = (step.j, block.j1)
    y = (block.i0, step.i)
    ybar = (step.i, block.i1)
    if step.gamma == STRAIGHT:
        return asso(matrix, x, ybar) + asso(matrix, xbar, y)
    return asso(matrix, x, y) + asso(matrix, xbar, ybar)


def ncut(matrix, block, step):
    """Normalized cut of the split; in (0, 2) for positive matrices."""
    _check_interior(block, step)
    x = (block.j0, step.j)
    xbar = (step.j, block.j1)
    y = (block.i0, step.i)
    ybar = (step.i, block.i1)
    c = cut(matrix, block, step)
    if step.gamma == STRAIGHT:
        a = asso(matrix, x, y)
        b = asso(matrix, xbar, ybar)
    else:
        a = asso(matrix, x, ybar)
        b = asso(matrix, xbar, y)
    return c / (c + 2.0 * a) + c / (c + 2.0 * b)


def f_avg(matrix, block, step):
    """Mean F1 of the two aligned sub-blocks; equals 1 - ncut/2."""
    return 1.0 - ncut(matrix, block, step) / 2.0


# --- reference beam search: one vectorized expansion per state ---

def sub_blocks(block, j, i, gamma):
    """(left, right) sub-blocks of a split; left holds source span [j0, j)."""
    left, right = _halves((block.j0, block.j1, block.i0, block.i1), j, i, gamma)
    return Block(*left), Block(*right)


def is_terminal_block(block):
    """True when the block has one source or one target word."""
    return block.j1 - block.j0 == 1 or block.i1 - block.i0 == 1


class ParserState:
    """Search state: unparsed-block stack, split history, score, tie key."""

    __slots__ = ("stack", "splits", "leaves", "v", "seq")

    def __init__(self, stack, splits, leaves, v, seq):
        self.stack = stack
        self.splits = splits
        self.leaves = leaves
        self.v = v
        self.seq = seq

    @property
    def is_terminal(self):
        return not self.stack


def next_states(state, matrix):
    """All successors of a non-terminal state.

    The top stack block is popped and split at every interior (j, i) in
    both orientations; non-terminal sub-blocks go back on the stack (right
    first, then left), terminal sub-blocks become leaves.
    """
    if state.is_terminal:
        raise ValueError("cannot expand a terminal state")
    block = state.stack[-1]
    rest = state.stack[:-1]
    out = []
    for j in range(block.j0 + 1, block.j1):
        for i in range(block.i0 + 1, block.i1):
            for gamma in (STRAIGHT, INVERTED):
                step = SplitStep(j, i, gamma)
                v = state.v + math.log(max(f_avg(matrix, block, step), F_AVG_FLOOR))
                left, right = sub_blocks(block, j, i, gamma)
                stack = rest
                if not is_terminal_block(right):
                    stack = stack + (right,)
                if not is_terminal_block(left):
                    stack = stack + (left,)
                leaves = state.leaves + tuple(b for b in (left, right) if is_terminal_block(b))
                out.append(
                    ParserState(
                        stack,
                        state.splits + ((block, step),),
                        leaves,
                        v,
                        state.seq + ((j, i, gamma),),
                    )
                )
    return out


def _expand_block(matrix, block):
    """Vectorized scores for every interior split of one block.

    Returns (js, is_, logf, term): the split coordinates and, indexed as
    [jj, ii, gamma], the log F_avg of each split and whether both of its
    sub-blocks are terminal.
    """
    p = prefix_table(matrix.weights)
    j0, j1, i0, i1 = block.j0, block.j1, block.i0, block.i1
    js = np.arange(j0 + 1, j1)
    is_ = np.arange(i0 + 1, i1)
    pji = p[np.ix_(js, is_)]
    pj_i0 = p[js, i0][:, None]
    pj_i1 = p[js, i1][:, None]
    pj0_i = p[j0, is_][None, :]
    pj1_i = p[j1, is_][None, :]
    a_xy = pji - pj0_i - pj_i0 + p[j0, i0]
    a_xbyb = p[j1, i1] - pj_i1 - pj1_i + pji
    a_xyb = pj_i1 - p[j0, i1] - pji + pj0_i
    a_xby = pj1_i - pji - p[j1, i0] + pj_i0
    c_s = a_xyb + a_xby
    c_i = a_xy + a_xbyb
    ncut_s = c_s / (c_s + 2.0 * a_xy) + c_s / (c_s + 2.0 * a_xbyb)
    ncut_i = c_i / (c_i + 2.0 * a_xyb) + c_i / (c_i + 2.0 * a_xby)
    favg = np.stack([1.0 - ncut_s / 2.0, 1.0 - ncut_i / 2.0], axis=-1)
    logf = np.log(np.maximum(favg, F_AVG_FLOOR))

    left_narrow = (js - j0 == 1)[:, None]
    right_narrow = (j1 - js == 1)[:, None]
    low_narrow = (is_ - i0 == 1)[None, :]
    high_narrow = (i1 - is_ == 1)[None, :]
    term_s = (left_narrow | low_narrow) & (right_narrow | high_narrow)
    term_i = (left_narrow | high_narrow) & (right_narrow | low_narrow)
    term = np.stack([term_s, term_i], axis=-1)
    return js, is_, logf, term


def _materialize(parent, j, i, gamma, v):
    block = parent.stack[-1]
    step = SplitStep(int(j), int(i), int(gamma))
    left, right = sub_blocks(block, step.j, step.i, step.gamma)
    stack = parent.stack[:-1]
    if not is_terminal_block(right):
        stack = stack + (right,)
    if not is_terminal_block(left):
        stack = stack + (left,)
    leaves = parent.leaves + tuple(b for b in (left, right) if is_terminal_block(b))
    return ParserState(
        stack,
        parent.splits + ((block, step),),
        leaves,
        float(v),
        parent.seq + ((step.j, step.i, step.gamma),),
    )


def reference_top_down_parse(matrix, beam_k):
    """Best derivation found by beam search, one _expand_block call per beam state.

    A 1 x m or n x 1 matrix is already terminal and yields the empty
    derivation whose single leaf is the root block.
    """
    if beam_k < 1:
        raise ValueError("beam_k must be >= 1")
    n, m = matrix.n, matrix.m
    root = Block(0, n, 0, m)
    if is_terminal_block(root):
        return Derivation((), (root,), n, m, 0.0)

    beam = [ParserState((root,), (), (), 0.0, ())]
    best_v = -math.inf
    best_seq = None
    best_state = None

    for _ in range(min(n, m)):
        parents = [s for s in beam if s.stack]
        if not parents:
            break
        vs_parts = []
        term_parts = []
        meta = []  # (parent, JS, IS, length) per part, aligned with offsets
        for s in parents:
            js, is_, logf, term = _expand_block(matrix, s.stack[-1])
            vs_parts.append((s.v + logf).ravel())
            term_parts.append((term & (len(s.stack) == 1)).ravel())
            meta.append((s, js, is_, logf.size))
        pool_v = np.concatenate(vs_parts)
        pool_term = np.concatenate(term_parts)
        offsets = np.cumsum([0] + [mt[3] for mt in meta])

        def candidate(g):
            """(parent, j, i, gamma) of global pool index g."""
            part = int(np.searchsorted(offsets, g, side="right")) - 1
            s, js, is_, _ = meta[part]
            local = g - offsets[part]
            jj, ii, gg = np.unravel_index(local, (len(js), len(is_), 2))
            return s, int(js[jj]), int(is_[ii]), int(gg)

        def seq_key(g):
            s, j, i, gamma = candidate(g)
            return s.seq + ((j, i, gamma),)

        # Every terminal successor competes for the final argmax, pruned or not.
        term_idx = np.flatnonzero(pool_term)
        if term_idx.size:
            tv = pool_v[term_idx]
            group_max = tv.max()
            if group_max >= best_v:
                contenders = term_idx[tv == group_max]
                g = min(contenders, key=seq_key) if contenders.size > 1 else int(contenders[0])
                key = seq_key(g)
                if group_max > best_v or key < best_seq:
                    s, j, i, gamma = candidate(g)
                    best_v = float(group_max)
                    best_seq = key
                    best_state = _materialize(s, j, i, gamma, group_max)

        # Keep the top beam_k candidates by score, ties by step sequence.
        size = pool_v.size
        if size <= beam_k:
            kept = list(range(size))
        else:
            thr = np.partition(pool_v, size - beam_k)[size - beam_k]
            strict = np.flatnonzero(pool_v > thr)
            tied = np.flatnonzero(pool_v == thr)
            need = beam_k - strict.size
            if tied.size > need:
                tied = sorted(tied.tolist(), key=seq_key)[:need]
            kept = strict.tolist() + list(tied)

        new_beam = []
        for g in kept:
            s, j, i, gamma = candidate(g)
            new_beam.append(_materialize(s, j, i, gamma, pool_v[g]))
        new_beam.sort(key=lambda s: (-s.v, s.seq))
        beam = new_beam

    if best_state is None:
        raise RuntimeError("beam search ended without a terminal state")
    return Derivation(best_state.splits, best_state.leaves, n, m, best_state.v)


def viterbi_alignment(pair, table, use_null):
    """Per-word argmax links of one pair under one directional table.

    Each conditioned word links to its best conditioning word; ties go to
    the lowest index. NULL wins only when strictly better, and produces no
    link. Links are always (source index, target index).
    """
    cond_seq, cing_seq = oriented(pair, table.direction)
    cond = np.asarray(cond_seq)
    probs = table.lookup(cond[:, None], np.asarray(cing_seq)[None, :])
    best = probs.argmax(axis=1)
    linked = np.arange(len(cond))
    if use_null:
        linked = linked[table.lookup(cond, NULL_ID) <= probs[linked, best]]
    pairs = zip(linked.tolist(), best[linked].tolist())
    if table.direction == FORWARD:
        return set(pairs)
    return {(b, a) for a, b in pairs}


# 8-neighborhood, adjacent before diagonal.
_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def reference_grow_diag(a_fwd, a_rev):
    """Grow-diag of one pair on Python sets.

    Each pass scans a sorted snapshot of the current links, each link's
    neighbours in order, and adds a union link whose source or target word
    is still unaligned, checked against the live sets, until a pass adds
    nothing.
    """
    union = set(a_fwd) | set(a_rev)
    links = set(a_fwd) & set(a_rev)
    src_aligned = {j for j, _ in links}
    tgt_aligned = {i for _, i in links}
    changed = True
    while changed:
        changed = False
        for (j, i) in sorted(links):
            for dj, di in _NEIGHBORS:
                cand = (j + dj, i + di)
                if cand in links or cand not in union:
                    continue
                if cand[0] not in src_aligned or cand[1] not in tgt_aligned:
                    links.add(cand)
                    src_aligned.add(cand[0])
                    tgt_aligned.add(cand[1])
                    changed = True
    return links


def is_consistent(src_span, tgt_span, links):
    """True when no link crosses the boundary of the span pair."""
    j0, j1 = src_span
    i0, i1 = tgt_span
    for j, i in links:
        if (j0 <= j < j1) != (i0 <= i < i1):
            return False
    return True


def pair_map(mapping):
    """PairMap of a dict {(conditioned id, conditioning id): float}."""
    ids = np.array(list(mapping), dtype=np.int64).reshape(-1, 2)
    packed = pack(ids[:, 0], ids[:, 1])
    data = np.fromiter(mapping.values(), np.float64, len(mapping))
    order = np.argsort(packed)
    return PairMap(packed[order], data[order])


def as_dict(pairs):
    """A PairMap as a dict {(conditioned id, conditioning id): float}."""
    keys = zip(pairs.conditioned().tolist(), pairs.conditioning().tolist())
    return dict(zip(keys, pairs.data.tolist()))


def em_step(pairs, table, config):
    """One E+M round through the package's E- and M-steps; returns a new table."""
    counts = expected_counts(pairs, table, config)
    if config.vb:
        probs = normalize_vb(counts, config.alpha, table.cond_vocab_size)
    else:
        probs = normalize_plain(counts)
    return TTable(table.direction, probs, table.cond_vocab_size, table.fallback)


def write_alignment_file(path, alignments):
    with open(path, "w", encoding="utf-8") as fh:
        for links in alignments:
            fh.write(format_alignment(links) + "\n")


def reference_ttable_text(table, conditioned_vocab, conditioning_vocab):
    """The bytes TTable.save writes, as text, built one row at a time."""
    cond_tokens = conditioned_vocab.tokens()
    cing_tokens = conditioning_vocab.tokens()
    cing_tokens[NULL_ID] = NULL_FIELD
    rows = zip(table.probs.conditioned().tolist(), table.probs.conditioning().tolist(),
               table.probs.data.tolist())
    header = f"#ttable {table.direction} {table.cond_vocab_size}\n"
    return header + "".join(f"{cond_tokens[f]}\t{cing_tokens[e]}\t{p:.17g}\n" for f, e, p in rows)


def reference_ttable_load(path, conditioned_vocab, conditioning_vocab):
    """{(conditioned id, conditioning id): probability} of a well-formed ttable file, split line by line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")[1:]
    if lines[-1] == "":
        lines.pop()
    cond_ids = conditioned_vocab.ids()
    cing_ids = {NULL_TOKEN: NULL_ID, **conditioning_vocab.ids(), NULL_FIELD: NULL_ID}
    table = {}
    for line in lines:
        f, e, p = line.split("\t")
        table[cond_ids[f], cing_ids[e]] = float(p)
    return table


def reference_digamma(x):
    """Digamma with every entry lifted by np.where at each step of the recurrence."""
    x = np.array(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError(f"digamma requires x > 0, got {x[x <= 0].flat[0]}")
    result = np.zeros_like(x)
    low = x < 6.0
    while low.any():
        result -= np.where(low, 1.0 / x, 0.0)
        x += low
        low = x < 6.0
    inv = 1.0 / x
    inv2 = inv * inv
    result += np.log(x) - 0.5 * inv
    result -= inv2 * (
        1.0 / 12
        - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * (1.0 / 240 - inv2 * (1.0 / 132 - inv2 * (691.0 / 32760)))))
    )
    return result if result.ndim else float(result)
