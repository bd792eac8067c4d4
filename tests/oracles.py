"""Independent reference implementations used as test oracles.

Everything here is written directly from the definitions with its own data
structures (token-keyed dicts, direct double-loop sums, full recursive
enumeration) so that agreement with the package is meaningful.
"""

import math

from scipy.special import digamma as scipy_digamma

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


def dict_expected_counts(oriented_pairs, probs, use_null, chunk_size=128):
    """Model 1 E-step over id pairs with a {(f, e): p} table, NULL as id 0.

    Counts are summed pair by pair within chunks of chunk_size pairs, and
    the chunk sums are added in chunk order.
    """
    total = {}
    for start in range(0, len(oriented_pairs), chunk_size):
        counts = {}
        for cond_seq, cing_seq in oriented_pairs[start:start + chunk_size]:
            candidates = list(cing_seq) + ([0] if use_null else [])
            for f in cond_seq:
                denom = 0.0
                for e in candidates:
                    denom += probs[(f, e)]
                for e in candidates:
                    counts[(f, e)] = counts.get((f, e), 0.0) + probs[(f, e)] / denom
        for key, val in counts.items():
            total[key] = total.get(key, 0.0) + val
    return total


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
