"""Blocklength-n synthesis codec for the two-encoder distributed system.

Each encoder is one leg: a single-encoder :class:`CodecParams` (shared n, δ,
η and seed) with its own pruned codebook over its own codeword alphabet, its
own binning and its own randomness share.  It maps its source word to a bin
of the codeword index through the same sub-PMF rule as the single-encoder
system — here with no decoder side information beyond the other message,
so there is no widened typicality slack.  Common randomness is split between
the encoders; the decoder sees the pair of randomness blocks, intersects the
two received bins with the jointly typical codeword pairs, and emits the
unique pair or a fixed fallback pair.

Conventions carried over or pinned down here:

- binning is literal per index: each l gets an IID uniform bin, without
  merging duplicate codewords first, so duplicated words count multiply in
  the decoder's candidate multiset;
- the randomness index μ splits positionally as μ = (μ₁, μ₂) with μ₁ in the
  high bits;
- each codebook is pruned and renormalized by its own exact ε_j (the joint
  analysis tracks min(ε₁, ε₂), but only the per-codebook constant enters
  the law, so nothing here records the minimum);
- the decoder's pair-typicality test runs at the plain slack δ, once per
  distinct codeword pair; each index pair reads it through its word ids;
- degenerate (empty-typical-set) codebooks follow the all-fallback
  convention of the single-encoder module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import check_budget
from .codec_ptp import (
    Codebook,
    CodecParams,
    _check_joint_budget,
    _check_shared,
    _decoded_rows,
    _draw_codebook,
    _encoder_stage,
    _streamed_tv,
    _word_law,
    _word_rows,
    derived_rng,
)
from .probability import CondPmf, JointPmf, ProductPmf
from .typicality import pairwise_typical_mask

#: derived-stream indices off a run seed (matching the single-encoder layout
#: for encoder 1, so reductions replay the same codebook and binning draws)
CODEBOOK1_STREAM = 0
BINNING1_STREAM = 1
CODEBOOK2_STREAM = 2
BINNING2_STREAM = 3


@dataclass(frozen=True)
class DistCodecParams:
    """Blocklength, per-encoder rates, slacks, and the run seed.

    ``rt_j``/``r_j``/``c_j`` are encoder j's codebook, message, and common
    randomness rates in bits per letter.  ``r_j = 0`` (single bin) is
    permitted; it is the natural setting for an encoder that only relays its
    codeword choice through the randomness block.  ``c_total``, when given,
    caps the split c1 + c2.

    n, δ and η are checked once, unprefixed, by the single-encoder checks.
    ``legs`` then holds each encoder's :class:`CodecParams` with the shared
    n, δ, η and seed; their own checks validate each leg's rates, with the
    error prefixed ``encoder j:``.  It is not a dataclass field, so
    ``asdict`` sees the eleven flat fields only.  Each leg's codebook carries
    its own ε; min(ε₁, ε₂) is recorded nowhere.
    """

    n: int
    rt1: float
    rt2: float
    r1: float
    r2: float
    c1: float
    c2: float
    delta: float
    eta: float
    seed: int
    c_total: float | None = None

    def __post_init__(self):
        _check_shared(self.n, self.delta, self.eta)
        legs = []
        for j, (rt, r, c) in enumerate(
            ((self.rt1, self.r1, self.c1), (self.rt2, self.r2, self.c2)), start=1
        ):
            try:
                legs.append(CodecParams(
                    n=self.n, rt=rt, r=r, c=c, delta=self.delta, eta=self.eta, seed=self.seed
                ))
            except ValueError as err:
                raise ValueError(f"encoder {j}: {err}") from None
        object.__setattr__(self, "legs", tuple(legs))
        if self.c_total is not None and self.c1 + self.c2 > self.c_total + 1e-12:
            raise ValueError(
                f"randomness split {self.c1}+{self.c2} exceeds the budget {self.c_total}"
            )

    @property
    def m_sizes(self) -> tuple[int, int]:
        return tuple(leg.m_size for leg in self.legs)

    @property
    def k_sizes(self) -> tuple[int, int]:
        return tuple(leg.k_size for leg in self.legs)


@dataclass(frozen=True)
class DistCodebooks:
    """The two independent pruned codebooks, each with its own exact ε."""

    first: Codebook
    second: Codebook


@dataclass(frozen=True)
class DistBinning:
    """Literal per-index binning for one encoder: labels[μ, l] ∈ 1..M."""

    labels: np.ndarray
    m_size: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 2:
            raise ValueError("labels must have shape (K, L)")
        if labels.size and (labels.min() < 1 or labels.max() > self.m_size):
            raise ValueError("bin labels must lie in 1..M")


def sample_dist_binning(codebook: Codebook, m_size: int, rng: np.random.Generator) -> DistBinning:
    """IID uniform bin per codeword index, one row per randomness block."""
    labels = np.empty((codebook.k_size, codebook.l_size), dtype=np.int64)
    for mu in range(codebook.k_size):
        labels[mu] = rng.integers(1, m_size + 1, size=codebook.l_size)
    return DistBinning(labels=labels, m_size=m_size)


def build_dist_codec(
    p_w1: JointPmf,
    p_w2: JointPmf,
    params: DistCodecParams,
    allow_degenerate: bool = False,
    budget: int | None = None,
) -> tuple[DistCodebooks, tuple[DistBinning, DistBinning]]:
    """Sample both codebooks and binnings from the four derived streams."""
    books = [
        _draw_codebook(p_w, leg, stream, allow_degenerate, budget)
        for p_w, leg, stream in zip(
            (p_w1, p_w2), params.legs, (CODEBOOK1_STREAM, CODEBOOK2_STREAM)
        )
    ]
    binnings = tuple(
        sample_dist_binning(book, leg.m_size, derived_rng(params.seed, stream))
        for book, leg, stream in zip(books, params.legs, (BINNING1_STREAM, BINNING2_STREAM))
    )
    return DistCodebooks(first=books[0], second=books[1]), binnings


# ---------------------------------------------------------------------------
# exact induced law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DistSystemTables:
    """Shared precomputation behind the exact law, the deficit and validity."""

    p_x_words: np.ndarray  # (A1, A2) source-word law
    messages1: np.ndarray  # (K1, A1, M1+1)
    messages2: np.ndarray  # (K2, A2, M2+1)
    decoded: np.ndarray  # (K1, K2, M1+1, M2+1) row ids into y_rows
    y_rows: np.ndarray  # (rows, Ay) output-word laws, row 0 = fallback pair
    valid: bool  # both legs' encoder validity, read off their message tables


def _build_dist_tables(
    p_x1x2: JointPmf,
    p_w1_given_x1: CondPmf,
    p_w2_given_x2: CondPmf,
    p_y_given_w1w2: CondPmf,
    codebooks: DistCodebooks,
    binnings: tuple[DistBinning, DistBinning],
    params: DistCodecParams,
    budget: int | None = None,
) -> _DistSystemTables:
    n = params.n
    nx1, nx2 = (a.size for a in p_x1x2.alphabets)
    (k1, k2), (m1, m2) = params.k_sizes, params.m_sizes
    books = (codebooks.first, codebooks.second)
    cells = max(k1 * nx1**n * (m1 + 1), k2 * nx2**n * (m2 + 1), k1 * k2 * (m1 + 1) * (m2 + 1))
    # the decoder's pair mask: per distinct word pair, gathered to (K1 L1) x (K2 L2) bytes
    pairs = k1 * books[0].l_size * k2 * books[1].l_size
    check_budget(max(cells, pairs), budget, what="message and decoder tables")
    p_x_words = ProductPmf(p_x1x2, n).table(budget)
    bn1, bn2 = binnings
    (numbering1, messages1, ok1), (numbering2, messages2, ok2) = (
        _encoder_stage(p_x1x2, axis, p_w, book, bn.labels, bn.m_size, leg, budget)
        for axis, p_w, book, bn, leg in zip(
            (0, 1), (p_w1_given_x1, p_w2_given_x2), books, binnings, params.legs
        )
    )
    p_w1w2 = np.einsum(
        "ab,aw,bv->wv", p_x1x2.table, p_w1_given_x1.table, p_w2_given_x2.table
    )

    # A (μ1, μ2, m1, m2) cell decodes when exactly one jointly typical index
    # pair sits in it; duplicate codewords count multiply.
    (id1, words1), (id2, words2) = numbering1, numbering2
    typical = pairwise_typical_mask(words1, words2, p_w1w2, params.delta)  # distinct pairs
    a, b = np.nonzero(typical[np.ix_(id1, id2)])
    mu1, mu2 = a // codebooks.first.l_size, b // codebooks.second.l_size
    cell = ((mu1 * k2 + mu2) * (m1 + 1) + bn1.labels.reshape(-1)[a]) * (m2 + 1)
    cell += bn2.labels.reshape(-1)[b]
    pair = id1[a] * words2.shape[0] + id2[b]  # 0 = the fallback pair
    used, decoded = _decoded_rows(cell, pair, k1 * k2 * (m1 + 1) * (m2 + 1))
    decoded = decoded.reshape(k1, k2, m1 + 1, m2 + 1)
    w1s, w2s = words1[used // words2.shape[0]], words2[used % words2.shape[0]]
    ny = p_y_given_w1w2.out_alphabets[0].size  # (rows, Yⁿ) output rows, (X₁ⁿ, X₂ⁿ, rows) mass
    check_budget(used.size * max(ny, nx1 * nx2) ** n, budget, what="output rows and pair mass")
    y_rows = _word_rows([p_y_given_w1w2.table[w1s[:, i], w2s[:, i]] for i in range(n)])
    return _DistSystemTables(p_x_words, messages1, messages2, decoded, y_rows, ok1 and ok2)


def _dist_words(tabs: _DistSystemTables):
    """Yield q[x2, y] = P(x1_c, x2, y) per source-1 word c, in order.

    mass[x1, x2, d] = Σ_μ Σ_{(m1, m2) → d} P(m1|x1, μ1) P(m2|x2, μ2)
    p(x1, x2)/K over the block pairs: the fallback cells (d = 0) in one
    product through their 0/1 mask, each decoded pair over its own cells.
    A word's slice is mass[x1] @ y_rows, in a workspace the next word
    overwrites; no output row is gathered per message pair.
    """
    (k1, a1, _), (k2, a2, _) = tabs.messages1.shape, tabs.messages2.shape
    mass = np.zeros((a1, a2, tabs.y_rows.shape[0]))
    for mu1, mu2 in np.ndindex(k1, k2):
        one, two, dec = tabs.messages1[mu1], tabs.messages2[mu2], tabs.decoded[mu1, mu2]
        mass[:, :, 0] += one @ (dec == 0) @ two.T
        m1s, m2s = np.nonzero(dec)
        ds = dec[m1s, m2s]
        for d in np.flatnonzero(np.bincount(ds)):
            mass[:, :, d] += one[:, m1s[ds == d]] @ two[:, m2s[ds == d]].T
    mass *= tabs.p_x_words[:, :, None] / (k1 * k2)
    q = np.empty((a2, tabs.y_rows.shape[1]))
    for c in range(a1):
        yield np.matmul(mass[c], tabs.y_rows, out=q)


def dist_induced_joint_exact(
    p_x1x2: JointPmf,
    p_w1_given_x1: CondPmf,
    p_w2_given_x2: CondPmf,
    p_y_given_w1w2: CondPmf,
    codebooks: DistCodebooks,
    binnings: tuple[DistBinning, DistBinning],
    params: DistCodecParams,
    budget: int | None = None,
) -> JointPmf:
    """Exact n-letter law of (source 1, source 2, output) words.

    Stacks :func:`_dist_words`' slices: both message chains and the pair
    decoder over every randomness block pair and message pair.  Axes are
    (X₁, X₂, Y) with word alphabets; the table totals one within 1e-9 (checked).
    """
    _check_joint_budget((*p_x1x2.table.shape, p_y_given_w1w2.table.shape[-1]), params.n, budget)
    tabs = _build_dist_tables(
        p_x1x2, p_w1_given_x1, p_w2_given_x2, p_y_given_w1w2,
        codebooks, binnings, params, budget,
    )
    q = np.empty((*tabs.p_x_words.shape, tabs.y_rows.shape[1]))
    for c, q_c in enumerate(_dist_words(tabs)):
        q[c] = q_c
    return _word_law((*p_x1x2.names, p_y_given_w1w2.out_names[0]),
                     (*p_x1x2.alphabets, p_y_given_w1w2.out_alphabets[0]), params.n, q)


def dist_streamed_tv_deficit(
    p_x1x2y: JointPmf,
    p_x1x2: JointPmf,
    p_w1_given_x1: CondPmf,
    p_w2_given_x2: CondPmf,
    p_y_given_w1w2: CondPmf,
    codebooks: DistCodebooks,
    binnings: tuple[DistBinning, DistBinning],
    params: DistCodecParams,
    budget: int | None = None,
) -> tuple[float, bool]:
    """``tv_deficit(p_x1x2y, dist_induced_joint_exact(...))`` and validity.

    :func:`_streamed_tv` over source-1 words, with
    :func:`dist_induced_joint_exact`'s slices (:func:`_dist_words`) and
    half-word target slices; neither word table is built, and the result
    can differ from :func:`tv_deficit` in the last bits.  The budget counts
    the largest array held at once.
    The flag is both legs' encoder validity, read off their message tables.
    """
    tabs = _build_dist_tables(
        p_x1x2, p_w1_given_x1, p_w2_given_x2, p_y_given_w1w2,
        codebooks, binnings, params, budget,
    )
    (a1, a2), ay, ny = tabs.p_x_words.shape, tabs.y_rows.shape[1], p_y_given_w1w2.table.shape[-1]
    n, nx1 = params.n, p_x1x2.alphabets[0].size
    # the letter factors and the target's half-word tables; per word: t and q
    half = sum((nx1 * ny) ** h for h in (n // 2, n - n // 2))
    check_budget(max(n * a1 * a2 * ny, a2 * half, 2 * a2 * ay), budget, what="streamed deficit")
    names = (*p_x1x2.names, p_y_given_w1w2.out_names[0])
    alphabets = (*p_x1x2.alphabets, p_y_given_w1w2.out_alphabets[0])
    return _streamed_tv(p_x1x2y, names, alphabets, n, _dist_words(tabs)), tabs.valid
