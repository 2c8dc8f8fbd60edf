"""Robust letter typicality.

A length-``n`` tuple of sequences is ``delta``-typical for a joint PMF ``p``
when every joint letter cell ``a`` satisfies

    |freq(a) - p(a)| <= delta * p(a),

with ``freq`` the empirical frequency over positions.  The slack is relative,
so cells of probability zero may never occur in a typical tuple.  ``delta``
is a user parameter in (0, 1); inflated slacks (>= 1) arise internally when a
decoder widens its test, and are accepted here.
"""

from __future__ import annotations

import numpy as np

from .budget import check_budget
from .probability import JointPmf


def enumerate_sequences(size: int, n: int, budget: int | None = None) -> np.ndarray:
    """All ``size**n`` length-n words, lexicographic, as a (size**n, n) array."""
    total = size**n
    check_budget(total * n, budget, what="sequence enumeration")
    codes = np.arange(total)
    out = np.empty((total, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        out[:, pos] = codes % size
        codes //= size
    return out


def marginal_typical_mask(seqs: np.ndarray, marginal: np.ndarray, delta: float) -> np.ndarray:
    """Boolean mask over rows of ``seqs``: which words are delta-typical for
    the single-letter distribution ``marginal``."""
    seqs = np.atleast_2d(np.asarray(seqs, dtype=int))
    m, n = seqs.shape
    size = marginal.shape[0]
    counts = np.zeros((m, size), dtype=np.int64)
    for a in range(size):
        counts[:, a] = (seqs == a).sum(axis=1)
    lo = n * marginal * (1 - delta)
    hi = n * marginal * (1 + delta)
    return np.all((counts >= lo - 1e-12) & (counts <= hi + 1e-12), axis=1)


def pairwise_typical_mask(
    seqs_a: np.ndarray, seqs_b: np.ndarray, table_ab: np.ndarray, delta: float
) -> np.ndarray:
    """Joint typicality of every (row of a, row of b) pair.

    Returns an (A, B) boolean matrix for sequence batches of shape (A, n) and
    (B, n) against the two-axis single-letter table ``table_ab``.  Cell
    counts come from one matrix product per letter pair, so the cost is
    O(|A||B| n) per cell rather than per pair.
    """
    seqs_a = np.atleast_2d(np.asarray(seqs_a, dtype=int))
    seqs_b = np.atleast_2d(np.asarray(seqs_b, dtype=int))
    if seqs_a.shape[1] != seqs_b.shape[1]:
        raise ValueError("sequence batches must share one length")
    n = seqs_a.shape[1]
    sa, sb = table_ab.shape
    onehot_a = [(seqs_a == u).astype(np.float64) for u in range(sa)]
    onehot_b = [(seqs_b == v).astype(np.float64) for v in range(sb)]
    ok = np.ones((seqs_a.shape[0], seqs_b.shape[0]), dtype=bool)
    for u in range(sa):
        for v in range(sb):
            counts = onehot_a[u] @ onehot_b[v].T
            p = table_ab[u, v]
            ok &= (counts >= n * p * (1 - delta) - 1e-12) & (
                counts <= n * p * (1 + delta) + 1e-12
            )
    return ok


def typical_set(p: JointPmf, n: int, delta: float, budget: int | None = None) -> np.ndarray:
    """All delta-typical words of length ``n`` for a single-axis PMF.

    Returned as a (T, n) letter array in lexicographic order; T may be 0.
    """
    if len(p.names) != 1:
        raise ValueError("typical_set expects a single-axis PMF")
    size = p.alphabets[0].size
    seqs = enumerate_sequences(size, n, budget)
    mask = marginal_typical_mask(seqs, p.table, delta)
    return seqs[mask]
