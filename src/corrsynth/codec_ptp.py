"""Blocklength-n synthesis codec for the single-encoder system.

Pipeline: a codebook of L·K words is drawn IID from the pruned n-letter
codeword law (the product law restricted to the typical set, renormalized by
1-ε); the encoder maps a source word to a codeword index by sub-PMF weights
proportional to the posterior likelihood, with index 0 absorbing the deficit;
duplicate codewords are merged and the distinct indices are binned uniformly
into M bins, the transmitted message being the bin (0 = declare failure);
the decoder intersects the received bin with the decoder-side typical set
against its side information and emits the codeword if unique, else a fixed
fallback word.  The induced law over source/output words is measured exactly
by enumeration or estimated by end-to-end sampling; a trial streams its exact
deficit over side-information words, building neither the law nor the target.

Conventions adopted where the construction leaves freedom:

- message 0: emitted when the source word is atypical, when the sub-PMF is
  invalid (total weight above one), or with the leftover deficit weight;
- fallback word w0: the constant word of the first codeword symbol (decoding
  message 0, an empty bin, or an ambiguous bin all yield w0);
- non-integer 2^{n rate}: rounded to the nearest integer, floor one; the
  effective rates log2(size)/n are recorded alongside the requested ones;
- empty typical set: sampling raises; :func:`null_codebook` builds the
  degenerate stand-in (all-w0 entries, ε = 1) whose encoder weights all
  vanish, so every message is 0 and the decoder always falls back — the
  well-defined limit of total pruning, used at blocklengths too short for
  any word to be typical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .budget import check_budget, enumeration_budget
from .probability import Alphabet, CondPmf, JointPmf, ProductPmf, letter_product
from .typicality import (
    TypicalityParams,
    enumerate_sequences,
    marginal_typical_mask,
    pairwise_typical_mask,
    typical_set,
)

#: derived-stream indices off a run seed (the distributed codec uses 0..3)
CODEBOOK_STREAM = 0
BINNING_STREAM = 1
#: cells a streamed-deficit chunk aims at (one word at n=6, one chunk for small laws)
STREAM_CHUNK_CELLS = 1 << 16


class EmptyTypicalSetError(ValueError):
    """No word of the requested blocklength is typical for the codeword law."""


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Child generator for one named stream of a run seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _pow2_size(n: int, rate: float) -> int:
    return max(1, round(2.0 ** (n * rate)))


@dataclass(frozen=True)
class CodecParams:
    """Blocklength, rates (bits/letter), typicality slacks, and the run seed.

    ``rt`` is the codebook rate, ``r`` the message rate, ``c`` the common
    randomness rate.  ``r = 0`` (a single bin) and ``eta = 0`` (no weight
    headroom) are permitted degenerate settings; both arise when this codec
    plays the role of one leg of the two-encoder system.
    """

    n: int
    rt: float
    r: float
    c: float
    delta: float
    eta: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.n}")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if not (0 <= self.eta < 1):
            raise ValueError(f"eta must lie in [0,1), got {self.eta}")
        if self.rt <= 0:
            raise ValueError(f"codebook rate must be positive, got {self.rt}")
        if not (0 <= self.r <= self.rt):
            raise ValueError(f"message rate must lie in [0, rt], got {self.r}")
        if self.c < 0:
            raise ValueError(f"common randomness rate must be >= 0, got {self.c}")

    @property
    def l_size(self) -> int:
        """Codewords per randomness block."""
        return _pow2_size(self.n, self.rt)

    @property
    def m_size(self) -> int:
        """Number of message bins (message 0 is extra)."""
        return _pow2_size(self.n, self.r)

    @property
    def k_size(self) -> int:
        """Number of common-randomness blocks."""
        return _pow2_size(self.n, self.c)

    @property
    def effective_rt(self) -> float:
        return math.log2(self.l_size) / self.n

    @property
    def effective_r(self) -> float:
        return math.log2(self.m_size) / self.n

    @property
    def effective_c(self) -> float:
        return math.log2(self.k_size) / self.n


@dataclass(frozen=True)
class Codebook:
    """IID draws from the pruned codeword law, one row block per μ.

    ``entries[mu, l]`` is the letter array of codeword (l+1, mu+1); ε is the
    exact pruning mass 1 - P(typical set) under the n-fold product law.  A
    degenerate codebook stands in when the typical set is empty: ε = 1 and
    every entry is the fallback word, so encoders built on it carry weight 0.
    """

    entries: np.ndarray
    epsilon: float
    w_size: int
    degenerate: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 3:
            raise ValueError("entries must have shape (K, L, n)")
        if entries.size and (entries.min() < 0 or entries.max() >= self.w_size):
            raise ValueError(f"codeword letters must lie in 0..{self.w_size - 1}")
        if not (0 <= self.epsilon <= 1):
            raise ValueError(f"epsilon must lie in [0,1], got {self.epsilon}")

    @property
    def k_size(self) -> int:
        return self.entries.shape[0]

    @property
    def l_size(self) -> int:
        return self.entries.shape[1]

    @property
    def n(self) -> int:
        return self.entries.shape[2]


def sample_codebook(
    p_w: JointPmf, params: CodecParams, rng: np.random.Generator, budget: int | None = None
) -> Codebook:
    """Draw the L·K codewords IID from the pruned n-letter codeword law."""
    if len(p_w.names) != 1:
        raise ValueError("sample_codebook expects a single-axis codeword PMF")
    words = typical_set(p_w, params.n, params.delta, budget)
    if words.shape[0] == 0:
        raise EmptyTypicalSetError(
            f"no length-{params.n} word is {params.delta}-typical for the codeword law"
        )
    kk, ll = params.k_size, params.l_size
    check_budget(kk * ll * params.n, budget, what="codebook sampling")
    word_probs = np.prod(p_w.table[words], axis=1)
    mass = float(word_probs.sum())
    idx = rng.choice(words.shape[0], size=kk * ll, p=word_probs / mass)
    return Codebook(
        entries=words[idx].reshape(kk, ll, params.n),
        epsilon=1.0 - mass,
        w_size=p_w.alphabets[0].size,
    )


def null_codebook(w_size: int, params: CodecParams) -> Codebook:
    """Degenerate all-fallback codebook for an empty typical set (ε = 1)."""
    shape = (params.k_size, params.l_size, params.n)
    return Codebook(entries=np.zeros(shape, np.int64), epsilon=1.0, w_size=w_size, degenerate=True)


@dataclass(frozen=True)
class BinningMap:
    """Per-μ duplicate merge followed by uniform binning of distinct words.

    ``dedup[mu, l]`` is the distinct-word index of codeword l (equal indices
    iff equal letter arrays, numbered in first-occurrence order);
    ``bins[mu][j]`` is the bin of distinct word j, a value in 1..M.
    """

    dedup: np.ndarray
    bins: tuple[np.ndarray, ...]
    m_size: int

    def __post_init__(self):
        object.__setattr__(self, "dedup", np.asarray(self.dedup, dtype=np.int64))
        object.__setattr__(self, "bins", tuple(np.asarray(b, dtype=np.int64) for b in self.bins))
        for b in self.bins:
            if b.size and (b.min() < 1 or b.max() > self.m_size):
                raise ValueError("bin labels must lie in 1..M")

    @property
    def theta(self) -> tuple[int, ...]:
        """Distinct-codeword count per μ."""
        return tuple(b.shape[0] for b in self.bins)

    def messages(self, mu: int) -> np.ndarray:
        """Bin label of every l in 0..L-1 (composition of dedup and bins)."""
        return self.bins[mu][self.dedup[mu]]


#: bits of one packed numbering key, so that int64 keys stay nonnegative
_KEY_BITS = 62


def _first_occurrence_dedup(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dedup indices over rows, first-occurrence row positions).

    Equal rows share one index, and indices count up in order of first
    occurrence.  The letters, nonnegative integers, are packed into int64
    keys, as many letters per key as 62 bits hold (at least one), and a
    stable sort on the keys brings equal rows together with the earliest
    first, so any word length and letter range works.
    """
    n = block.shape[1]
    bits = max(1, int(block.max(initial=0)).bit_length())
    per = max(1, _KEY_BITS // bits)
    # letters of one key occupy disjoint bits, so a product with powers of two packs them
    place = np.left_shift(1, bits * np.arange(per, dtype=np.int64))
    keys = np.stack([block[:, s : s + per] @ place[: min(per, n - s)] for s in range(0, n, per)])
    order = np.lexsort(keys)
    ranked = keys[:, order]
    starts = np.ones(block.shape[0], dtype=bool)
    starts[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    firsts = order[starts]  # first row of each run of equal rows
    by_first = np.argsort(firsts)
    relabel = np.empty_like(by_first)
    relabel[by_first] = np.arange(by_first.shape[0])
    dedup = np.empty(block.shape[0], dtype=np.int64)
    dedup[order] = relabel[np.cumsum(starts) - 1]
    return dedup, firsts[by_first]


def sample_binning(codebook: Codebook, params: CodecParams, rng: np.random.Generator) -> BinningMap:
    """Merge duplicate codewords per μ, then bin distinct words uniformly."""
    mm = params.m_size
    dedup = np.empty((codebook.k_size, codebook.l_size), dtype=np.int64)
    bins = []
    for mu in range(codebook.k_size):
        dedup[mu], firsts = _first_occurrence_dedup(codebook.entries[mu])
        bins.append(rng.integers(1, mm + 1, size=firsts.shape[0]))
    return BinningMap(dedup=dedup, bins=tuple(bins), m_size=mm)


def _conditional_rows(joint: JointPmf, axis: int) -> np.ndarray:
    """p(other | axis) as a dense (axis, other) table, zeros where undefined."""
    names = joint.names
    cond = joint.condition((names[axis],))
    return np.where(cond.defined[:, None], cond.table, 0.0)


def _weight_columns(
    xs: np.ndarray,
    words: np.ndarray,
    l_size: int,
    p_joint_xw: JointPmf,
    epsilon: float,
    params: CodecParams,
) -> np.ndarray:
    """(A, U) encoder weights of a batch of source words against codewords ``words``.

    A weight is scale(x) · posterior(x | w) · [pair typical], with
    scale(x) = (1-ε) / ((1+η) L p(x^n)) for blocks of ``l_size`` = L
    indices and the posterior multiplied letter by letter, in the order a
    per-index running product takes; atypical source words get all-zero
    rows.  A column depends on its codeword and on L alone.
    """
    p_x = p_joint_xw.table.sum(axis=1)
    typical_x = marginal_typical_mask(xs, p_x, params.delta)
    pair_mask = pairwise_typical_mask(xs, words, p_joint_xw.table, params.delta)
    by_x = _conditional_rows(p_joint_xw, axis=1).T  # (x, w): p(x | w)
    post = np.take(by_x[xs[:, 0]], words[:, 0], axis=1)  # (A, U)
    for i in range(1, xs.shape[1]):
        post *= by_x[xs[:, i]][:, words[:, i]]
    p_xn = np.prod(p_x[xs], axis=1)
    if np.any(typical_x & (p_xn <= 0.0)):
        raise AssertionError("typical source word with zero product probability")
    scale = np.zeros_like(p_xn)
    live = typical_x & (p_xn > 0.0)
    scale[live] = (1.0 - epsilon) / ((1.0 + params.eta) * l_size * p_xn[live])
    return scale[:, None] * post * pair_mask


def _block_tables(
    xs: np.ndarray,
    codebook: Codebook,
    numbering: tuple[np.ndarray, np.ndarray],
    p_joint_xw: JointPmf,
    params: CodecParams,
    budget: int | None = None,
):
    """Yield (table, ids) per block μ: index l of block μ weighs ``table[:, ids[l]]``.

    ``numbering`` is (ids (K·L,), words (U, n)) of the codebook's entries,
    flattened: ``words[ids[e]]`` is entry e.  A weight depends on its
    block and index only through the codeword and the block size L that
    scales it (:func:`_weight_columns`), so one table over the U words can
    serve every block.  That pays when the blocks share most of their words,
    as when L far exceeds the typical set (U = Θ_μ on both benchmarked
    synthesis-demo codebooks); where they share few, one table would hold up
    to K times a block's Θ_μ columns.  So all blocks read one table when U
    is at most twice the largest Θ_μ, and otherwise each block gets a table
    over its own words.  Either way a column holds the same weights.  The
    budget counts the widest table's cells, before any is built.
    """
    ids, words = numbering
    ids = ids.reshape(codebook.k_size, codebook.l_size)
    present = [np.bincount(block, minlength=words.shape[0]) > 0 for block in ids]
    widest = max(np.count_nonzero(p) for p in present)
    shared = words.shape[0] <= 2 * widest
    check_budget(xs.shape[0] * (words.shape[0] if shared else widest), budget, what="encoder weights")
    if shared:
        table = _weight_columns(xs, words, codebook.l_size, p_joint_xw, codebook.epsilon, params)
        for block in ids:
            yield table, block
        return
    for block, here in zip(ids, present):
        cols = np.flatnonzero(here)
        yield (
            _weight_columns(xs, words[cols], codebook.l_size, p_joint_xw, codebook.epsilon, params),
            np.searchsorted(cols, block),
        )


def _block_weights(table: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw index weights of one block from a weight table (:func:`_block_tables`).

    Returns (weights (A, L), s (A,), valid (A,)); atypical source words get
    all-zero weights, which downstream logic reads as a point mass on index 0.
    ``ids[l]`` is the table column of index l.  Each weight is the product a
    per-index evaluation forms, in the same letter order, and the gather
    keeps the per-index memory layout, so weights, s and valid equal a
    per-index evaluation bit for bit (the reference is
    ``encoder_weight_batch`` in ``tests/_oracles.py``).  The message tables
    and the scalar encoder oracle in ``tests/_oracles.py`` gather through
    it, so their index weights agree to the last bit; encoder validity
    decides ``s <= 1`` from the table itself (:func:`_valid_rows`), with the
    same outcome.  Message 0 does not agree to the last bit:
    :func:`_message_table` takes ``max(0, 1 - Σ)`` of the binned row, the
    oracle the compensated complement ``_complement_to_one``, and the two
    can differ in the last bits.
    """
    # t[:, ids] would come back in another memory order, and the row sums
    # would then add in another order; np.take keeps the per-index layout.
    weights = np.take(table, ids, axis=1)
    s = weights.sum(axis=1)
    return weights, s, s <= 1.0


def _valid_rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``s <= 1`` per row, s the row sum of :func:`_block_weights`' weights.

    The weights are nonnegative, so any order of summing them is within
    gamma_L s of their exact sum (Higham 2002, sec. 4.2): the weighted sum
    ``table @ counts`` over the block's own columns, one term per codeword
    times its index count, and the gathered (A, L) row sum alike.  So the
    two lie within 2 L eps of each other, relative, and the weighted sum
    decides every row outside twice that band around 1.  Rows inside it take
    the gathered row sum, summed as :func:`_block_weights` sums it.
    """
    counts = np.bincount(ids, minlength=table.shape[1]).astype(float)
    cols = np.flatnonzero(counts)
    fast = table @ counts if cols.size == counts.size else table[:, cols] @ counts[cols]
    valid = fast <= 1.0
    near = np.flatnonzero(np.abs(fast - 1.0) <= 4.0 * ids.shape[0] * np.finfo(float).eps * fast)
    if near.size:
        valid[near] = np.take(table[near], ids, axis=1).sum(axis=1) <= 1.0
    return valid


def encoder_validity(
    codebook: Codebook,
    p_joint_xw: JointPmf,
    params: CodecParams,
    budget: int | None = None,
) -> tuple[bool, float]:
    """Whether every (typical input word, block) pair yields a proper sub-PMF.

    Returns ``(all_valid, fraction)``, the fraction averaging over typical
    input words and blocks.  The weights are scaled by the block size L, and
    blocks that share most of their words read one table over the
    codebook's distinct words (:func:`_block_tables`).  An empty typical
    input set or a degenerate codebook leaves nothing to oversubscribe:
    vacuously valid, fraction 1.0.  Trials read it off :func:`_message_table`.
    """
    p_x = p_joint_xw.marginalize((p_joint_xw.names[0],))
    xs = typical_set(p_x, params.n, params.delta, budget)
    if xs.shape[0] == 0 or codebook.degenerate:
        return True, 1.0
    numbering = _word_ids(codebook.entries.reshape(-1, params.n))
    flags = np.stack([
        _valid_rows(table, ids)
        for table, ids in _block_tables(xs, codebook, numbering, p_joint_xw, params, budget)
    ])
    return bool(flags.all()), float(flags.mean())


# ---------------------------------------------------------------------------
# exact induced law and end-to-end sampling
# ---------------------------------------------------------------------------


def word_alphabet(base: Alphabet, n: int) -> Alphabet:
    """Alphabet of all length-n words, lexicographic, symbols joined."""
    sep = "" if all(len(sym) == 1 for sym in base.symbols) else ","
    words = enumerate_sequences(base.size, n)
    return Alphabet(tuple(sep.join(base.symbols[c] for c in row) for row in words))


def product_pmf(p: JointPmf, n: int, budget: int | None = None) -> JointPmf:
    """n-fold product law as a JointPmf over word alphabets (same axis names)."""
    table = ProductPmf(p, n).table(budget)
    return JointPmf(p.names, tuple(word_alphabet(a, n) for a in p.alphabets), table)


@dataclass(frozen=True)
class _SystemTables:
    """Shared precomputation behind exact enumeration, streaming, sampling and validity."""

    p_xz_words: np.ndarray  # (Ax, Az) source-word law
    messages: np.ndarray  # (K, Ax, M+1) message PMFs
    decoded: np.ndarray  # (K, Az, M+1) output-row ids, 0 = w0
    zs: np.ndarray  # (Az, n) side-information words
    row_letters: np.ndarray  # (n, Az, R, Y) factors p(y | z_i, w_i); row 0 = w0, then decoded
    valid: bool  # every message-table row is a proper sub-PMF (encoder validity)

    @property
    def y_rows(self) -> np.ndarray:
        """(Az, R, Ay) output-word laws of every side-information word."""
        return _word_rows(list(self.row_letters))


def _word_ids(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number (N, n) words behind the fallback word w0 = 0^n.

    Returns (ids (N,), words (U, n)): ``words[ids[e]]`` equals ``entries[e]``,
    ``words[0]`` is w0, and ids count up in first-occurrence order.
    """
    stacked = np.vstack([np.zeros((1, entries.shape[1]), np.int64), entries])
    ids, firsts = _first_occurrence_dedup(stacked)
    return ids[1:], stacked[firsts]


def _decoded_rows(cell: np.ndarray, code: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Decoder outcome of every cell, as row ids into a table of used codes.

    Candidate t sits in ``cell[t]`` and decodes to ``code[t]``.  A cell with
    exactly one candidate decodes to its code, any other to code 0 (the
    fallback).  Returns (used codes, ascending; row id of each of the
    ``size`` cells into them), so once any cell falls back, code 0 is row 0.
    """
    candidate = np.zeros(size, dtype=np.int64)
    candidate[cell] = code
    decoded = np.where(np.bincount(cell, minlength=size) == 1, candidate, 0)
    # codes are nonnegative word (or word-pair) numbers: a one-byte presence
    # mask over 0..max code replaces a sort of the cells
    present = np.zeros(int(code.max(initial=0)) + 1, dtype=bool)
    present[decoded] = True
    used = np.flatnonzero(present)
    return used, np.searchsorted(used, decoded)


def _word_rows(letters: list[np.ndarray]) -> np.ndarray:
    """Word laws from per-letter factors, extended one letter at a time.

    ``letters[i]`` is a (..., Y) table such as (C, R, Y), the factor of letter
    i per conditioning word c and row r.  The result is (..., Y^n), words coded
    big-endian: ``out[..., y] = Π_i letters[i][..., y_i]``, multiplied in letter
    order as a per-cell running product would.  Each step fills one new-letter
    value at a time, so the inner loops run over the word axis, not over Y.
    """
    rows = letters[0]
    for f in letters[1:]:
        grown = np.empty((*rows.shape, f.shape[-1]))
        for y in range(f.shape[-1]):
            np.multiply(rows, f[..., y, None], out=grown[..., y])
        rows = grown.reshape(*f.shape[:-1], -1)
    return rows


def _message_table(
    xs: np.ndarray,
    codebook: Codebook,
    numbering: tuple[np.ndarray, np.ndarray],
    labels: np.ndarray,
    m_size: int,
    p_joint_xw: JointPmf,
    params: CodecParams,
    budget: int | None = None,
) -> tuple[np.ndarray, bool]:
    """(K, A, M+1) message PMFs, and whether every row is a proper sub-PMF.

    ``labels[μ, l]`` is the bin of index l in block μ; ``numbering`` is
    :func:`_word_ids` of the codebook's entries, flattened, and the blocks
    read their weights through :func:`_block_tables`.  Bins collect the
    index weights, invalid rows send nothing, and message 0 takes
    ``max(0, 1 - Σ)`` of each row.  Atypical rows are all zero, so the flag
    is :func:`encoder_validity`'s on the same joint (by :func:`_valid_rows`'
    band argument).
    """
    check_budget(xs.shape[0] * codebook.l_size, budget, what="encoder index weights")
    msg = np.empty((codebook.k_size, xs.shape[0], m_size + 1))
    all_valid = True
    tables = _block_tables(xs, codebook, numbering, p_joint_xw, params, budget)
    for mu, (table, ids) in enumerate(tables):
        weights, _, valid = _block_weights(table, ids)
        onehot = np.zeros((codebook.l_size, m_size + 1))
        onehot[np.arange(codebook.l_size), labels[mu]] = 1.0
        msg[mu] = weights @ onehot
        msg[mu, ~valid] = 0.0
        all_valid = all_valid and bool(valid.all())
    msg[:, :, 0] = np.maximum(0.0, 1.0 - msg[:, :, 1:].sum(axis=2))
    return msg, all_valid


def _encoder_stage(
    p_source: JointPmf, axis: int, p_w_given_x: CondPmf, codebook: Codebook,
    labels: np.ndarray, m_size: int, params: CodecParams, budget: int | None = None,
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, bool]:
    """(numbering, messages, valid) of one codebook's encoder on source axis ``axis``.

    Forms the (X, W) joint p(x) p(w|x), numbers the codebook behind w0
    (:func:`_word_ids`) and builds :func:`_message_table` over all |X|ⁿ
    source words.  The single-encoder codec runs it once, the two-encoder
    codec once per leg.
    """
    joint = JointPmf(
        (p_source.names[axis], p_w_given_x.out_names[0]),
        (p_source.alphabets[axis], p_w_given_x.out_alphabets[0]),
        p_source.table.sum(axis=1 - axis)[:, None] * p_w_given_x.table,
    )
    xs = enumerate_sequences(p_source.alphabets[axis].size, params.n, budget)
    numbering = _word_ids(codebook.entries.reshape(-1, params.n))
    messages, valid = _message_table(xs, codebook, numbering, labels, m_size, joint, params, budget)
    return numbering, messages, valid


def _check_joint_budget(sizes: tuple[int, ...], n: int, budget: int | None) -> None:
    """Refuse an n-fold joint table over letter alphabets of these sizes."""
    check_budget(math.prod(sizes) ** n, budget, what="exact induced-law enumeration")


def _build_system_tables(
    p_xz: JointPmf,
    p_w_given_x: CondPmf,
    p_y_given_zw: CondPmf,
    codebook: Codebook,
    binning: BinningMap,
    params: CodecParams,
    budget: int | None = None,
) -> _SystemTables:
    nx, nz = (a.size for a in p_xz.alphabets)
    ny = p_y_given_zw.out_alphabets[0].size
    n, kk, mm = params.n, codebook.k_size, binning.m_size
    check_budget(kk * max(nx, nz) ** n * (mm + 1), budget, what="message and decoder tables")
    typ = TypicalityParams(params.delta, nx, ny, nz)
    zs = enumerate_sequences(nz, n, budget)
    p_xz_words = ProductPmf(p_xz, n).table(budget)
    labels = np.stack([binning.messages(mu) for mu in range(kk)])
    numbering, messages, valid = _encoder_stage(
        p_xz, 0, p_w_given_x, codebook, labels, mm, params, budget
    )
    p_zw_table = np.einsum("xz,xw->zw", p_xz.table, p_w_given_x.table)

    # Entry e is distinct word j of block block_of[e], in bin bin_of[e]; its
    # letters are words[gid[e]], numbered across blocks.  Dedup ids count up
    # in first-occurrence order, so an index is a word's first in its block
    # exactly when its id exceeds every id before it.
    dedup = binning.dedup
    first = np.ones(dedup.shape, dtype=bool)
    first[:, 1:] = dedup[:, 1:] > np.maximum.accumulate(dedup, axis=1)[:, :-1]
    block_of, index_of = np.nonzero(first)
    ids, words = numbering
    gid = ids.reshape(kk, -1)[block_of, index_of]
    bin_of = np.concatenate(binning.bins)
    check_budget(zs.shape[0] * max(words.shape[0], gid.size), budget, what="decoder typicality mask")
    ok = pairwise_typical_mask(zs, words, p_zw_table, typ.delta2)[:, gid]  # (Az, ΣΘ)
    zz, ee = np.nonzero(ok)
    cell = (block_of[ee] * zs.shape[0] + zz) * (mm + 1) + bin_of[ee]
    used, decoded = _decoded_rows(cell, gid[ee], kk * zs.shape[0] * (mm + 1))
    decoded = decoded.reshape(kk, zs.shape[0], mm + 1)
    row_letters = p_y_given_zw.table[zs.T[:, :, None], words[used].T[:, None, :]]
    return _SystemTables(p_xz_words, messages, decoded, zs, row_letters, valid)


def _induced_slices(tabs: _SystemTables, chunk: int, head: np.ndarray):
    """Yield (head words, q[c, x, y] = P(x, y, z_c)) per chunk of z-words.

    ``head`` (n, Az, H, Y) holds further letter factors, built into words in
    the same pass as the output rows.  mass[c, r, x] = Σ_μ Σ_{m → r} P(m|x, μ)
    p(x, z_c)/K: a block's distinct words sit in one bin each, so per (μ, z)
    at most one message decodes to a row r >= 1 (index M+1 reads zeros), and
    row 0 (w0) takes every other message.  A slice is one batched product
    with its own output rows, so it does not depend on the chunk size.
    """
    kk, ax, m1 = tabs.messages.shape
    letters = np.concatenate([head, tabs.row_letters], axis=2)
    (_, az, width, _), rr = letters.shape, tabs.row_letters.shape[2]
    mu_i, z_i, m_i = np.nonzero(tabs.decoded)
    source = np.full((kk, az, rr), m1)
    source[mu_i, z_i, tabs.decoded[mu_i, z_i, m_i]] = m_i
    by_message = tabs.messages.transpose(0, 2, 1)  # (K, M+1, Ax)
    padded = np.concatenate([by_message, np.zeros((kk, 1, ax))], axis=1)
    fallback = (tabs.decoded == 0).transpose(1, 0, 2).reshape(az, -1).astype(float)
    fallback_mass = fallback @ by_message.reshape(-1, ax)  # (Az, Ax)
    for start in range(0, az, chunk):
        zs = slice(start, start + chunk)
        mass = padded[np.arange(kk)[:, None, None], source[:, zs]].sum(axis=0)  # (C, R, Ax)
        mass[:, 0, :] = fallback_mass[zs]
        mass *= (tabs.p_xz_words[:, zs].T / kk)[:, None, :]
        words = _word_rows(list(letters[:, zs]))
        yield words[:, : width - rr], np.matmul(mass.transpose(0, 2, 1), words[:, width - rr :])


def induced_joint_exact(
    p_xz: JointPmf,
    p_w_given_x: CondPmf,
    p_y_given_zw: CondPmf,
    codebook: Codebook,
    binning: BinningMap,
    params: CodecParams,
    budget: int | None = None,
) -> JointPmf:
    """Exact n-letter law of (source, output, side information) words.

    Sums the message and decode chain over every μ and m: the output word is
    drawn from the product channel law conditioned on the decoded codeword
    and the side-information word.  Axes are the source names with word
    alphabets; the table totals one within 1e-9 (checked).
    """
    _check_joint_budget((*p_xz.table.shape, p_y_given_zw.table.shape[-1]), params.n, budget)
    tabs = _build_system_tables(p_xz, p_w_given_x, p_y_given_zw, codebook, binning, params, budget)
    # one chunk, one batched product over z; the (X, Y, Z) table is a view of it
    _, q = next(_induced_slices(tabs, tabs.zs.shape[0], tabs.row_letters[:, :, :0]))
    out = q.transpose(1, 2, 0)
    total = float(out.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ArithmeticError(f"induced law sums to {total}, expected 1")
    x_name, z_name = p_xz.names
    y_name = p_y_given_zw.out_names[0]
    return JointPmf(
        (x_name, y_name, z_name),
        (
            word_alphabet(p_xz.alphabets[0], params.n),
            word_alphabet(p_y_given_zw.out_alphabets[0], params.n),
            word_alphabet(p_xz.alphabets[1], params.n),
        ),
        out,
    )


def sample_induced(
    p_xz: JointPmf,
    p_w_given_x: CondPmf,
    p_y_given_zw: CondPmf,
    codebook: Codebook,
    binning: BinningMap,
    params: CodecParams,
    num_samples: int,
    rng: np.random.Generator,
    budget: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """End-to-end Monte Carlo of the codec, returning word codes (x, y, z).

    Draws (x^n, z^n) from the product source, μ uniformly, the message from
    the encoder chain, decodes, and draws y^n from the decoded channel row.
    Categorical draws batch by distinct table row, so the cost is linear in
    the sample count.
    """
    _check_joint_budget((*p_xz.table.shape, p_y_given_zw.table.shape[-1]), params.n, budget)
    tabs = _build_system_tables(p_xz, p_w_given_x, p_y_given_zw, codebook, binning, params, budget)
    ax, az = tabs.p_xz_words.shape
    kk = tabs.messages.shape[0]
    rr = tabs.row_letters.shape[2]

    flat = tabs.p_xz_words.reshape(-1)
    xz = rng.choice(ax * az, size=num_samples, p=flat / flat.sum())
    x_codes, z_codes = xz // az, xz % az
    mus = rng.integers(0, kk, size=num_samples)

    msg_rows = tabs.messages.reshape(kk * ax, -1)
    ms = _rowwise_categorical(msg_rows, mus * ax + x_codes, rng.random(num_samples))

    rows = z_codes * rr + tabs.decoded[mus, z_codes, ms]
    y_rows = tabs.y_rows.reshape(az * rr, -1)
    y_codes = _rowwise_categorical(y_rows, rows, rng.random(num_samples))
    return x_codes, y_codes, z_codes


def _rowwise_categorical(table_rows, row_ids, uniform):
    """Draw one index per sample from its row's PMF via grouped CDFs."""
    out = np.empty(row_ids.shape[0], dtype=np.int64)
    order = np.argsort(row_ids, kind="stable")
    sorted_ids = row_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    for grp in np.split(order, boundaries):
        cdf = np.cumsum(table_rows[row_ids[grp[0]]])
        out[grp] = np.searchsorted(cdf, uniform[grp] * cdf[-1], side="right")
    return np.minimum(out, table_rows.shape[1] - 1)


# ---------------------------------------------------------------------------
# deficits
# ---------------------------------------------------------------------------


def tv_deficit(p_xyz: JointPmf, induced: JointPmf, budget: int | None = None) -> float:
    """Total variation between the n-fold target and the induced word law."""
    marginal = p_xyz.marginalize(induced.names)
    n = None
    for base_alpha, word_alpha in zip(marginal.alphabets, induced.alphabets):
        if base_alpha.size > 1:
            n = round(math.log(word_alpha.size) / math.log(base_alpha.size))
            break
    if n is None:
        # single-letter alphabets throughout: any product is the one point
        # mass, so the laws coincide no matter the blocklength
        return 0.0
    target = product_pmf(marginal, n, budget)
    if target.names != induced.names or target.alphabets != induced.alphabets:
        raise ValueError("tv_deficit requires the induced law on the target's word axes")
    # The target table is this call's own: taking |target - induced| in it
    # leaves two full-size word tables alive at this step, not three.
    diff = np.subtract(target.table, induced.table, out=target.table)
    return 0.5 * float(np.abs(diff, out=diff).sum())


def _letter_target(p: JointPmf, names: tuple[str, ...], alphabets: tuple[Alphabet, ...]):
    """Single-letter target table on the codec's axes, checked like :func:`tv_deficit`."""
    marginal = p.marginalize(names)
    if marginal.alphabets != alphabets:
        raise ValueError("a streamed deficit requires the target on the codec's letter axes")
    return marginal.table


def _stream_chunk(words: int, slice_cells: int, fixed_cells: int, budget: int | None) -> int:
    """Words per chunk of per-word arrays of ``slice_cells`` (budget-checked)."""
    chunk = max(1, min(STREAM_CHUNK_CELLS, enumeration_budget(budget)) // slice_cells)
    check_budget(max(min(chunk, words) * slice_cells, fixed_cells), budget, what="streamed deficit")
    return chunk


def _streamed_tv(pairs, alphabets: tuple[Alphabet, ...]) -> float:
    """½ Σ|t − q| over (target, induced) chunk pairs, overwriting t; Σq must be 1 ± 1e-9."""
    total = dev = 0.0
    for t, q in pairs:
        total += float(q.sum())
        t -= q
        dev += float(np.abs(t, out=t).sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ArithmeticError(f"induced law sums to {total}, expected 1")
    # single-letter alphabets throughout: both laws are the one point mass
    return 0.0 if all(a.size == 1 for a in alphabets) else 0.5 * dev


def streamed_tv_deficit(
    p_xyz: JointPmf,
    p_xz: JointPmf,
    p_w_given_x: CondPmf,
    p_y_given_zw: CondPmf,
    codebook: Codebook,
    binning: BinningMap,
    params: CodecParams,
    budget: int | None = None,
) -> tuple[float, bool]:
    """``tv_deficit(p_xyz, induced_joint_exact(...))`` without either word table, and validity.

    Streams over chunks of side-information words: each chunk builds its own
    output rows, its induced slice and its target slice
    t[z, x, y] = Π_i p(x_i, y_i, z_i), letter by letter, and adds up |t − q|.
    The slices equal the full tables' bit for bit; only the order of the
    final sums differs.  The budget counts the largest array held at once.
    The flag is :func:`encoder_validity`'s, read off the deficit's own message tables.
    """
    x_name, z_name = p_xz.names
    alphabets = (p_xz.alphabets[0], p_y_given_zw.out_alphabets[0], p_xz.alphabets[1])
    target = _letter_target(p_xyz, (x_name, p_y_given_zw.out_names[0], z_name), alphabets)
    tabs = _build_system_tables(p_xz, p_w_given_x, p_y_given_zw, codebook, binning, params, budget)
    (kk, ax, _), (n, az, rr, ny) = tabs.messages.shape, tabs.row_letters.shape
    xs = enumerate_sequences(alphabets[0].size, n)
    chunk = _stream_chunk(az, max((ax + rr) * ny**n, kk * rr * ax), n * az * (ax + rr) * ny, budget)
    # t's letters p(x_i, y, z_i) ride along with the output rows' letters
    head = target[xs.T[:, None, :], :, tabs.zs.T[:, :, None]]  # (n, Az, Ax, Y)
    return _streamed_tv(_induced_slices(tabs, chunk, head), alphabets), tabs.valid


def soft_covering_deficit(
    p_wxyz: JointPmf, codebook: Codebook, params: CodecParams, budget: int | None = None
) -> float:
    """Distance of the raw codeword mixture from the target, pre-binning.

    ½ Σ |p^n_target − (LK)^{-1} Σ_{μ,l} p^n_{target|W}(· | w(l,μ))| over all
    word triples: the pure codebook-approximation error, with the encoder,
    binning, and decoding chain left out.  The first axis of ``p_wxyz`` is
    the codeword letter; the rest are the synthesized ones.
    """
    if codebook.degenerate:
        raise ValueError("the codeword mixture is undefined for a degenerate codebook")
    names = p_wxyz.names
    cond = p_wxyz.condition((names[0],))
    if not cond.defined.all():
        flat = codebook.entries.reshape(-1, params.n)
        if not cond.defined[flat].all():
            raise ValueError("codebook uses a zero-probability codeword letter")
    target_letter = p_wxyz.marginalize(names[1:])
    sizes = [a.size for a in target_letter.alphabets]
    cells = int(np.prod([float(s) ** params.n for s in sizes]))
    flat = codebook.entries.reshape(-1, params.n)
    distinct, counts = np.unique(flat, axis=0, return_counts=True)
    check_budget(cells * (distinct.shape[0] + 1), budget, what="codeword mixture enumeration")
    mixture = np.zeros([s**params.n for s in sizes])
    for word, count in zip(distinct, counts):
        mixture += count * letter_product([cond.table[w] for w in word])
    mixture /= flat.shape[0]
    target = letter_product([target_letter.table] * params.n)
    return 0.5 * float(np.abs(target - mixture).sum())


# ---------------------------------------------------------------------------
# serialization for replay
# ---------------------------------------------------------------------------


def _codebook_to_dict(book: Codebook) -> dict:
    """The codebook block both codecs' replay files share."""
    return {
        "entries": book.entries.tolist(),
        "epsilon": book.epsilon,
        "w_size": book.w_size,
        "degenerate": book.degenerate,
    }


def _codebook_from_dict(blk: dict) -> Codebook:
    """Inverse of :func:`_codebook_to_dict`; a missing key raises ``KeyError``."""
    return Codebook(
        entries=np.asarray(blk["entries"], dtype=np.int64),
        epsilon=float(blk["epsilon"]),
        w_size=int(blk["w_size"]),
        degenerate=bool(blk["degenerate"]),
    )


def codec_to_dict(params: CodecParams, codebook: Codebook, binning: BinningMap) -> dict:
    return {
        "params": asdict(params),
        "codebook": _codebook_to_dict(codebook),
        "binning": {
            "dedup": binning.dedup.tolist(),
            "bins": [b.tolist() for b in binning.bins],
            "m_size": binning.m_size,
        },
    }


def codec_from_dict(d: dict) -> tuple[CodecParams, Codebook, BinningMap]:
    try:
        params = CodecParams(**d["params"])
        codebook = _codebook_from_dict(d["codebook"])
        bn = d["binning"]
        binning = BinningMap(
            dedup=np.asarray(bn["dedup"], dtype=np.int64),
            bins=tuple(np.asarray(b, dtype=np.int64) for b in bn["bins"]),
            m_size=int(bn["m_size"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed codec spec: {exc}") from exc
    return params, codebook, binning


def write_codec(path, params: CodecParams, codebook: Codebook, binning: BinningMap) -> None:
    with open(path, "w") as fh:
        json.dump(codec_to_dict(params, codebook, binning), fh, indent=2, sort_keys=True)


def read_codec(path) -> tuple[CodecParams, Codebook, BinningMap]:
    with open(path) as fh:
        return codec_from_dict(json.load(fh))


def build_ptp_codebook(
    p_w: JointPmf,
    params: CodecParams,
    allow_degenerate: bool = False,
    budget: int | None = None,
) -> Codebook:
    """The codebook of :func:`build_ptp_codec`, drawn from its own stream alone.

    With ``allow_degenerate`` an empty typical set yields the null codebook
    instead of raising, so short-blocklength baselines stay well-defined.
    """
    return _draw_codebook(p_w, params, CODEBOOK_STREAM, allow_degenerate, budget)


def _draw_codebook(
    p_w: JointPmf, params: CodecParams, stream: int, allow_degenerate: bool, budget: int | None
) -> Codebook:
    """Both codecs' codebook draw, from derived stream ``stream`` of the run seed."""
    try:
        return sample_codebook(p_w, params, derived_rng(params.seed, stream), budget)
    except EmptyTypicalSetError:
        if not allow_degenerate:
            raise
        return null_codebook(p_w.alphabets[0].size, params)


def build_ptp_codec(
    p_w: JointPmf,
    params: CodecParams,
    allow_degenerate: bool = False,
    budget: int | None = None,
) -> tuple[Codebook, BinningMap]:
    """Codebook (:func:`build_ptp_codebook`) plus binning from the run seed's derived streams."""
    codebook = build_ptp_codebook(p_w, params, allow_degenerate, budget)
    binning = sample_binning(codebook, params, derived_rng(params.seed, BINNING_STREAM))
    return codebook, binning
