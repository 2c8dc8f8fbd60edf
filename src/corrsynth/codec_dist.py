"""Blocklength-n synthesis codec for the two-encoder distributed system.

Each encoder owns an independent pruned codebook over its own codeword
alphabet and maps its source word to a bin of the codeword index through the
same sub-PMF rule as the single-encoder system — here with no decoder side
information beyond the other message, so there is no widened typicality
slack.  Common randomness is split between the encoders; the decoder sees
the pair of randomness blocks, intersects the two received bins with the
jointly typical codeword pairs, and emits the unique pair or a fixed
fallback pair.

Conventions carried over or pinned down here:

- binning is literal per index: each l gets an IID uniform bin, without
  merging duplicate codewords first, so duplicated words count multiply in
  the decoder's candidate multiset;
- the randomness index μ splits positionally as μ = (μ₁, μ₂) with μ₁ in the
  high bits;
- each codebook is pruned and renormalized by its own exact ε_j (the joint
  analysis tracks min(ε₁, ε₂), recorded as a diagnostic, but only the
  per-codebook constant normalizes the sampling law);
- the decoder's pair-typicality test runs at the plain slack δ;
- degenerate (empty-typical-set) codebooks follow the all-fallback
  convention of the single-encoder module.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .budget import check_budget
from .codec_ptp import (
    Codebook,
    CodecParams,
    _check_joint_budget,
    _codebook_from_dict,
    _codebook_to_dict,
    _decoded_rows,
    _draw_codebook,
    _encoder_stage,
    _letter_target,
    _pow2_size,
    _rowwise_categorical,
    _stream_chunk,
    _streamed_tv,
    _word_rows,
    derived_rng,
    tv_deficit,
    word_alphabet,
)
from .probability import CondPmf, JointPmf, ProductPmf
from .typicality import enumerate_sequences, pairwise_typical_mask

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
        if self.n < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.n}")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if not (0 <= self.eta < 1):
            raise ValueError(f"eta must lie in [0,1), got {self.eta}")
        for j, (rt, r, c) in enumerate(
            ((self.rt1, self.r1, self.c1), (self.rt2, self.r2, self.c2)), start=1
        ):
            if rt <= 0:
                raise ValueError(f"codebook rate {j} must be positive, got {rt}")
            if not (0 <= r <= rt):
                raise ValueError(f"message rate {j} must lie in [0, rt{j}], got {r}")
            if c < 0:
                raise ValueError(f"common randomness rate {j} must be >= 0, got {c}")
        if self.c_total is not None and self.c1 + self.c2 > self.c_total + 1e-12:
            raise ValueError(
                f"randomness split {self.c1}+{self.c2} exceeds the budget {self.c_total}"
            )

    @property
    def l_sizes(self) -> tuple[int, int]:
        return (_pow2_size(self.n, self.rt1), _pow2_size(self.n, self.rt2))

    @property
    def m_sizes(self) -> tuple[int, int]:
        return (_pow2_size(self.n, self.r1), _pow2_size(self.n, self.r2))

    @property
    def k_sizes(self) -> tuple[int, int]:
        return (_pow2_size(self.n, self.c1), _pow2_size(self.n, self.c2))

    @property
    def k_size(self) -> int:
        """Total randomness blocks K = K₁·K₂."""
        k1, k2 = self.k_sizes
        return k1 * k2

    def effective_rates(self) -> dict[str, float]:
        l1, l2 = self.l_sizes
        m1, m2 = self.m_sizes
        k1, k2 = self.k_sizes
        return {
            "rt1": math.log2(l1) / self.n,
            "rt2": math.log2(l2) / self.n,
            "r1": math.log2(m1) / self.n,
            "r2": math.log2(m2) / self.n,
            "c1": math.log2(k1) / self.n,
            "c2": math.log2(k2) / self.n,
        }

    def leg(self, j: int) -> tuple[float, float, float]:
        """(rt, r, c) of encoder j ∈ {1, 2}."""
        if j not in (1, 2):
            raise ValueError(f"encoder index must be 1 or 2, got {j}")
        return ((self.rt1, self.r1, self.c1), (self.rt2, self.r2, self.c2))[j - 1]


@dataclass(frozen=True)
class DistCodebooks:
    """The two independent pruned codebooks with their exact ε constants."""

    first: Codebook
    second: Codebook

    @property
    def epsilon(self) -> float:
        """min(ε₁, ε₂), the constant tracked by the joint analysis."""
        return min(self.first.epsilon, self.second.epsilon)

    def book(self, j: int) -> Codebook:
        if j not in (1, 2):
            raise ValueError(f"encoder index must be 1 or 2, got {j}")
        return self.first if j == 1 else self.second


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
        _draw_codebook(p_w, _leg_params(params, j), stream, allow_degenerate, budget)
        for j, p_w, stream in ((1, p_w1, CODEBOOK1_STREAM), (2, p_w2, CODEBOOK2_STREAM))
    ]
    m1, m2 = params.m_sizes
    bn1 = sample_dist_binning(books[0], m1, derived_rng(params.seed, BINNING1_STREAM))
    bn2 = sample_dist_binning(books[1], m2, derived_rng(params.seed, BINNING2_STREAM))
    return DistCodebooks(first=books[0], second=books[1]), (bn1, bn2)


def _leg_params(params: DistCodecParams, j: int) -> CodecParams:
    """Single-encoder parameter view of leg j (shared n, delta, eta, seed)."""
    rt, r, c = params.leg(j)
    return CodecParams(
        n=params.n, rt=rt, r=r, c=c, delta=params.delta, eta=params.eta, seed=params.seed
    )


# ---------------------------------------------------------------------------
# exact induced law and end-to-end sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DistSystemTables:
    """Shared precomputation behind exact enumeration, streaming, sampling and validity."""

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
    e1, e2 = (book.entries.reshape(-1, n) for book in (codebooks.first, codebooks.second))
    cells = max(k1 * nx1**n * (m1 + 1), k2 * nx2**n * (m2 + 1), k1 * k2 * (m1 + 1) * (m2 + 1))
    # the decoder's index-pair typicality mask is (K1 L1) x (K2 L2)
    check_budget(max(cells, e1.shape[0] * e2.shape[0]), budget, what="message and decoder tables")
    p_x_words = ProductPmf(p_x1x2, n).table(budget)
    bn1, bn2 = binnings
    (numbering1, messages1, ok1), (numbering2, messages2, ok2) = (
        _encoder_stage(
            p_x1x2, j - 1, p_w, codebooks.book(j), bn.labels, bn.m_size,
            _leg_params(params, j), budget,
        )
        for j, p_w, bn in ((1, p_w1_given_x1, bn1), (2, p_w2_given_x2, bn2))
    )
    p_w1w2 = np.einsum(
        "ab,aw,bv->wv", p_x1x2.table, p_w1_given_x1.table, p_w2_given_x2.table
    )

    # A (μ1, μ2, m1, m2) cell decodes when exactly one jointly typical index
    # pair sits in it; duplicate codewords count multiply.
    a, b = np.nonzero(pairwise_typical_mask(e1, e2, p_w1w2, params.delta))
    mu1, mu2 = a // codebooks.first.l_size, b // codebooks.second.l_size
    cell = ((mu1 * k2 + mu2) * (m1 + 1) + bn1.labels.reshape(-1)[a]) * (m2 + 1)
    cell += bn2.labels.reshape(-1)[b]
    (id1, words1), (id2, words2) = numbering1, numbering2
    pair = id1[a] * words2.shape[0] + id2[b]  # 0 = the fallback pair
    used, decoded = _decoded_rows(cell, pair, k1 * k2 * (m1 + 1) * (m2 + 1))
    decoded = decoded.reshape(k1, k2, m1 + 1, m2 + 1)
    w1s, w2s = words1[used // words2.shape[0]], words2[used % words2.shape[0]]
    check_budget(used.size * p_y_given_w1w2.out_alphabets[0].size ** n, budget, what="output rows")
    y_rows = _word_rows([p_y_given_w1w2.table[w1s[:, i], w2s[:, i]] for i in range(n)])
    return _DistSystemTables(p_x_words, messages1, messages2, decoded, y_rows, ok1 and ok2)


def _dist_slice(tabs: _DistSystemTables, k_sizes: tuple[int, int], x1s: slice) -> np.ndarray:
    """q[a1, a2, y] of the induced law for the source-1 words ``x1s``."""
    k1, k2 = k_sizes
    out = 0.0
    for mu1, mu2 in np.ndindex(k1, k2):
        y_by_msgs = tabs.y_rows[tabs.decoded[mu1, mu2]]  # (M1+1, M2+1, Ay)
        by_m1 = np.tensordot(tabs.messages2[mu2], y_by_msgs, axes=([1], [1]))  # (A2, M1+1, Ay)
        out = out + np.tensordot(tabs.messages1[mu1][x1s], by_m1, axes=([1], [1]))
    return out * (tabs.p_x_words[x1s, :, None] / (k1 * k2))


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

    Sums the two message chains and the pair decoder over every randomness
    block pair and message pair, the output word drawn from the product
    channel law at the decoded codeword pair.  Axes are (X₁, X₂, Y) with
    word alphabets; the table totals one within 1e-9 (checked).
    """
    _check_joint_budget((*p_x1x2.table.shape, p_y_given_w1w2.table.shape[-1]), params.n, budget)
    tabs = _build_dist_tables(
        p_x1x2, p_w1_given_x1, p_w2_given_x2, p_y_given_w1w2,
        codebooks, binnings, params, budget,
    )
    out = _dist_slice(tabs, params.k_sizes, slice(None))
    total = float(out.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ArithmeticError(f"induced law sums to {total}, expected 1")
    return JointPmf(
        (p_x1x2.names[0], p_x1x2.names[1], p_y_given_w1w2.out_names[0]),
        (
            word_alphabet(p_x1x2.alphabets[0], params.n),
            word_alphabet(p_x1x2.alphabets[1], params.n),
            word_alphabet(p_y_given_w1w2.out_alphabets[0], params.n),
        ),
        out,
    )


def sample_dist_induced(
    p_x1x2: JointPmf,
    p_w1_given_x1: CondPmf,
    p_w2_given_x2: CondPmf,
    p_y_given_w1w2: CondPmf,
    codebooks: DistCodebooks,
    binnings: tuple[DistBinning, DistBinning],
    params: DistCodecParams,
    num_samples: int,
    rng: np.random.Generator,
    budget: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """End-to-end Monte Carlo of the two-encoder chain: word codes (x1, x2, y)."""
    _check_joint_budget((*p_x1x2.table.shape, p_y_given_w1w2.table.shape[-1]), params.n, budget)
    tabs = _build_dist_tables(
        p_x1x2, p_w1_given_x1, p_w2_given_x2, p_y_given_w1w2,
        codebooks, binnings, params, budget,
    )
    k1, k2 = params.k_sizes
    a1, a2 = tabs.p_x_words.shape
    flat = tabs.p_x_words.reshape(-1)
    xx = rng.choice(a1 * a2, size=num_samples, p=flat / flat.sum())
    x1_codes, x2_codes = xx // a2, xx % a2
    mu1s = rng.integers(0, k1, size=num_samples)
    mu2s = rng.integers(0, k2, size=num_samples)
    m1s = _rowwise_categorical(
        tabs.messages1.reshape(k1 * a1, -1), mu1s * a1 + x1_codes, rng.random(num_samples)
    )
    m2s = _rowwise_categorical(
        tabs.messages2.reshape(k2 * a2, -1), mu2s * a2 + x2_codes, rng.random(num_samples)
    )
    rows = tabs.decoded[mu1s, mu2s, m1s, m2s]
    y_codes = _rowwise_categorical(tabs.y_rows, rows, rng.random(num_samples))
    return x1_codes, x2_codes, y_codes


def dist_tv_deficit(p_x1x2y: JointPmf, induced: JointPmf, budget: int | None = None) -> float:
    """Total variation between the n-fold target and the induced word law."""
    return tv_deficit(p_x1x2y, induced, budget)


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
    """``dist_tv_deficit(p_x1x2y, dist_induced_joint_exact(...))``, streamed, and validity.

    Streams over chunks of source-1 words, each with its induced slice and its
    target slice t[x1, x2, y] = Π_i p(x1_i, x2_i, y_i) built letter by letter.
    The flag is both legs' encoder validity, read off their message tables.
    """
    alphabets = (*p_x1x2.alphabets, p_y_given_w1w2.out_alphabets[0])
    target = _letter_target(p_x1x2y, (*p_x1x2.names, p_y_given_w1w2.out_names[0]), alphabets)
    tabs = _build_dist_tables(
        p_x1x2, p_w1_given_x1, p_w2_given_x2, p_y_given_w1w2,
        codebooks, binnings, params, budget,
    )
    n, (m1, m2) = params.n, params.m_sizes
    (a1, a2), ay = tabs.p_x_words.shape, tabs.y_rows.shape[1]
    fixed = max(n * a1 * a2 * alphabets[2].size, (m1 + 1) * max(a2, m2 + 1) * ay)
    chunk = _stream_chunk(a1, a2 * ay, fixed, budget)
    xs1, xs2 = (enumerate_sequences(a.size, n) for a in alphabets[:2])
    head = target[xs1.T[:, :, None], xs2.T[:, None, :]]  # (n, A1, A2, Y) letter factors
    pairs = (
        (_word_rows(list(head[:, x1s])), _dist_slice(tabs, params.k_sizes, x1s))
        for x1s in (slice(s, s + chunk) for s in range(0, a1, chunk))
    )
    return _streamed_tv(pairs, alphabets), tabs.valid


# ---------------------------------------------------------------------------
# serialization for replay
# ---------------------------------------------------------------------------


def dist_codec_to_dict(
    params: DistCodecParams,
    codebooks: DistCodebooks,
    binnings: tuple[DistBinning, DistBinning],
) -> dict:
    return {
        "params": asdict(params),
        "codebooks": [_codebook_to_dict(codebooks.first), _codebook_to_dict(codebooks.second)],
        "binnings": [
            {"labels": bn.labels.tolist(), "m_size": bn.m_size} for bn in binnings
        ],
    }


def dist_codec_from_dict(d: dict):
    try:
        params = DistCodecParams(**d["params"])
        if len(d["codebooks"]) != 2 or len(d["binnings"]) != 2:
            raise ValueError("malformed distributed codec spec: need two codebooks and two binnings")
        first, second = (_codebook_from_dict(blk) for blk in d["codebooks"])
        binnings = tuple(
            DistBinning(labels=np.asarray(blk["labels"], dtype=np.int64), m_size=int(blk["m_size"]))
            for blk in d["binnings"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed distributed codec spec: {exc}") from exc
    return params, DistCodebooks(first=first, second=second), binnings


def write_dist_codec(path, params, codebooks, binnings) -> None:
    with open(path, "w") as fh:
        json.dump(dist_codec_to_dict(params, codebooks, binnings), fh, indent=2, sort_keys=True)


def read_dist_codec(path):
    with open(path) as fh:
        return dist_codec_from_dict(json.load(fh))
