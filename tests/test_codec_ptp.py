"""Tests for the blocklength-n synthesis codec (single-encoder system)."""

import itertools
import json
import math

import numpy as np
import pytest

from corrsynth.budget import BudgetExceededError
from corrsynth.codec_ptp import (
    BinningMap,
    Codebook,
    CodecParams,
    EmptyTypicalSetError,
    build_ptp_codec,
    codec_from_dict,
    codec_to_dict,
    derived_rng,
    encoder_validity,
    induced_joint_exact,
    null_codebook,
    product_pmf,
    sample_binning,
    sample_codebook,
    sample_induced,
    soft_covering_deficit,
    streamed_tv_deficit,
    tv_deficit,
    write_codec,
    read_codec,
)
from corrsynth.codec_ptp import (
    _block_weights,
    _build_system_tables,
    _decoded_rows,
    _first_occurrence_dedup,
    _induced_slices,
    _valid_rows,
)
import corrsynth.codec_ptp as codec_ptp
from corrsynth.harness import named_instance
from corrsynth.harness import ptp_instance_from_tables
from corrsynth.probability import CondPmf, JointPmf, total_variation
from corrsynth.typicality import TypicalityParams, enumerate_sequences, typical_set

import _oracles
from _oracles import decode_map, encoder_subpmf, induced_message_pmf, output_word_law

rng = np.random.default_rng(20260815)


# --------------------------------------------------------------------------
# brute-force oracles, independent of the library's typicality helpers
# --------------------------------------------------------------------------


def brute_letter_typical(word, p):
    """Robust letter typicality by direct counting, delta fixed per test."""
    word = np.asarray(word)
    n, delta = word.shape[0], brute_letter_typical.delta
    for a, pa in enumerate(p):
        count = int(np.sum(word == a))
        if pa == 0:
            if count > 0:
                return False
        elif abs(count - n * pa) > delta * n * pa + 1e-12:
            return False
    return True


def brute_pair_typical(xw_pairs, table):
    """Joint typicality of a letter-pair word against a 2-D PMF table."""
    n, delta = len(xw_pairs), brute_pair_typical.delta
    for (a, b), pab in np.ndenumerate(table):
        count = sum(1 for pr in xw_pairs if pr == (a, b))
        if pab == 0:
            if count > 0:
                return False
        elif abs(count - n * pab) > delta * n * pab + 1e-12:
            return False
    return True


def brute_typical_words(p, n, delta):
    brute_letter_typical.delta = delta
    return [
        w
        for w in itertools.product(range(len(p)), repeat=n)
        if brute_letter_typical(np.array(w), p)
    ]


def encoder_weight_oracle(x, codewords, p_xw_table, epsilon, eta, delta):
    """Direct evaluation of the index-weight formula for one block."""
    brute_letter_typical.delta = delta
    brute_pair_typical.delta = delta
    p_x = p_xw_table.sum(axis=1)
    if not brute_letter_typical(np.asarray(x), p_x):
        return None  # point mass on index 0
    p_xn = float(np.prod(p_x[list(x)]))
    cond = np.divide(
        p_xw_table,
        p_xw_table.sum(axis=0, keepdims=True),
        out=np.zeros_like(p_xw_table),
        where=p_xw_table.sum(axis=0, keepdims=True) > 0,
    )  # p(x | w), columns over w
    big_l = len(codewords)
    weights = []
    for w in codewords:
        if brute_pair_typical(list(zip(x, w)), p_xw_table):
            post = float(np.prod([cond[a, b] for a, b in zip(x, w)]))
            weights.append((1 - epsilon) * post / ((1 + eta) * big_l * p_xn))
        else:
            weights.append(0.0)
    return np.array(weights)


def random_channel(generator, shape):
    table = generator.gamma(1.0, size=shape) + 0.05
    return table / table.sum(axis=-1, keepdims=True)


def identity_instance(generator, n, delta, seed):
    """Random binary source with a copy coupling, alive at small n."""
    t = generator.uniform(0.1, 0.4)
    p_xz = JointPmf.from_table(
        ("X", "Z"), np.array([[0.5 - t / 2, t / 2], [t / 2, 0.5 - t / 2]])
    )
    p_w_given_x = CondPmf.from_rows(("X",), (2,), ("W",), (2,), np.eye(2))
    p_y_given_zw = CondPmf.from_rows(
        ("Z", "W"), (2, 2), ("Y",), (2,), random_channel(generator, (2, 2, 2))
    )
    params = CodecParams(n=n, rt=1.0, r=0.5, c=0.5, delta=delta, eta=0.1, seed=seed)
    return p_xz, p_w_given_x, p_y_given_zw, params


def exact_joint_by_scalar_ops(p_xz, p_w_given_x, p_y_given_zw, codebook, binning, params):
    """Reassemble the induced word law from the per-word operations only."""
    nx, nz = (a.size for a in p_xz.alphabets)
    ny = p_y_given_zw.out_alphabets[0].size
    n, kk = params.n, codebook.k_size
    typ = TypicalityParams(params.delta, nx, ny, nz)
    p_x = p_xz.table.sum(axis=1)
    p_joint_xw = JointPmf.from_table(
        ("X", "W"), p_x[:, None] * p_w_given_x.table
    )
    p_wz = JointPmf.from_table(
        ("W", "Z"), np.einsum("xz,xw->wz", p_xz.table, p_w_given_x.table)
    )
    out = np.zeros((nx**n, ny**n, nz**n))
    for xi, x in enumerate(itertools.product(range(nx), repeat=n)):
        for zi, z in enumerate(itertools.product(range(nz), repeat=n)):
            p_src = float(np.prod([p_xz.table[a, b] for a, b in zip(x, z)]))
            for mu in range(kk):
                msg = induced_message_pmf(np.array(x), mu, codebook, binning, p_joint_xw, params)
                for m, pm in enumerate(msg):
                    if pm == 0.0:
                        continue
                    w_hat = decode_map(np.array(z), m, mu, codebook, binning, p_wz, typ)
                    for yi, y in enumerate(itertools.product(range(ny), repeat=n)):
                        p_y = float(
                            np.prod(
                                [p_y_given_zw.table[b, w, c] for b, w, c in zip(z, w_hat, y)]
                            )
                        )
                        out[xi, yi, zi] += p_src * pm * p_y / kk
    return out


# --------------------------------------------------------------------------
# codebook sampling
# --------------------------------------------------------------------------


def test_point_mass_codeword_law_yields_constant_codebook():
    p_w = JointPmf.from_table(("W",), np.array([1.0, 0.0]))
    params = CodecParams(n=3, rt=1.0, r=0.5, c=0.0, delta=0.3, eta=0.1, seed=0)
    cb = sample_codebook(p_w, params, derived_rng(0, 0))
    assert cb.epsilon == 0.0
    assert not cb.entries.any()
    assert cb.entries.shape == (1, 8, 3)


def test_balanced_binary_codebook_draws_match_typical_set():
    """Ber(1/2) at n=4, delta=0.3: only two-one words, near-uniformly."""
    p_w = JointPmf.from_table(("W",), np.array([0.5, 0.5]))
    params = CodecParams(n=4, rt=3.0, r=0.5, c=0.5, delta=0.3, eta=0.1, seed=11)
    cb = sample_codebook(p_w, params, derived_rng(11, 0))
    assert cb.epsilon == pytest.approx(1 - 6 / 16, abs=1e-15)
    flat = cb.entries.reshape(-1, 4)
    assert flat.shape[0] >= 10_000
    assert np.all(flat.sum(axis=1) == 2)
    words, counts = np.unique(flat, axis=0, return_counts=True)
    assert words.shape[0] == 6
    expected = flat.shape[0] / 6
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 20.5  # 99.9th percentile of chi-square with 5 dof


@pytest.mark.parametrize(
    "probs, n, delta",
    [
        ((0.5, 0.5), 2, 0.3),
        ((0.5, 0.5), 3, 0.5),
        ((0.6, 0.4), 4, 0.3),
        ((0.5, 0.5), 5, 0.5),
        ((0.5, 0.5), 6, 0.3),
        ((0.5, 0.25, 0.25), 4, 0.99),
    ],
)
def test_epsilon_matches_brute_force_enumeration(probs, n, delta):
    p_w = JointPmf.from_table(("W",), np.array(probs))
    params = CodecParams(n=n, rt=1.0, r=0.5, c=0.0, delta=delta, eta=0.1, seed=5)
    cb = sample_codebook(p_w, params, derived_rng(5, 0))
    words = brute_typical_words(probs, n, delta)
    assert words, "test instances are chosen with nonempty typical sets"
    mass = math.fsum(math.prod(probs[a] for a in w) for w in words)
    assert cb.epsilon == pytest.approx(1 - mass, abs=1e-12)
    allowed = set(words)
    for row in cb.entries.reshape(-1, n):
        assert tuple(row) in allowed


def test_empty_typical_set_raises():
    p_w = JointPmf.from_table(("W",), np.array([0.5, 0.5]))
    params = CodecParams(n=3, rt=1.0, r=0.5, c=0.0, delta=0.3, eta=0.1, seed=5)
    with pytest.raises(EmptyTypicalSetError):
        sample_codebook(p_w, params, derived_rng(5, 0))
    fallback = null_codebook(2, params)
    assert fallback.degenerate and fallback.epsilon == 1.0
    assert fallback.entries.shape == (1, 8, 3) and not fallback.entries.any()


def test_build_codec_is_reproducible():
    p_w = JointPmf.from_table(("W",), np.array([0.5, 0.5]))
    params = CodecParams(n=4, rt=1.5, r=1.0, c=0.5, delta=0.3, eta=0.1, seed=42)
    cb1, bn1 = build_ptp_codec(p_w, params)
    cb2, bn2 = build_ptp_codec(p_w, params)
    assert np.array_equal(cb1.entries, cb2.entries)
    assert all(np.array_equal(a, b) for a, b in zip(bn1.bins, bn2.bins))
    other, _ = build_ptp_codec(p_w, CodecParams(4, 1.5, 1.0, 0.5, 0.3, 0.1, seed=43))
    assert not np.array_equal(cb1.entries, other.entries)


# --------------------------------------------------------------------------
# encoder
# --------------------------------------------------------------------------


def test_atypical_source_word_encodes_to_index_zero():
    p_joint_xw = JointPmf.from_table(("X", "W"), np.full((2, 2), 0.25))
    params = CodecParams(n=4, rt=1.0, r=0.5, c=0.25, delta=0.3, eta=0.1, seed=7)
    p_w = JointPmf.from_table(("W",), np.array([0.5, 0.5]))
    cb = sample_codebook(p_w, params, derived_rng(7, 0))
    enc = encoder_subpmf(np.array([0, 0, 0, 0]), 0, cb, p_joint_xw, params)
    assert enc.valid
    assert enc.s == 0.0
    assert enc.weights[0] == 1.0 and not enc.weights[1:].any()


def test_identity_coupling_with_point_mass_source_matches_closed_form():
    """All codewords equal the source word: each index weight is
    (1-eps)/((1+eta) L) and the total is (1-eps)/(1+eta)."""
    p_joint_xw = JointPmf.from_table(("X", "W"), np.array([[1.0, 0.0], [0.0, 0.0]]))
    params = CodecParams(n=4, rt=1.0, r=0.5, c=0.0, delta=0.3, eta=0.1, seed=3)
    for eps in (0.0, 0.2):
        cb = Codebook(entries=np.zeros((1, 16, 4), np.int64), epsilon=eps, w_size=2)
        enc = encoder_subpmf(np.zeros(4, int), 0, cb, p_joint_xw, params)
        assert enc.valid
        want = (1 - eps) / (1.1 * 16)
        np.testing.assert_allclose(enc.weights[1:], want, rtol=1e-14)
        assert enc.s == pytest.approx((1 - eps) / 1.1, abs=1e-14)
        assert math.fsum(enc.weights) == 1.0


def test_encoder_weights_match_direct_formula():
    table = np.array([[0.3, 0.2], [0.2, 0.3]])
    p_joint_xw = JointPmf.from_table(("X", "W"), table)
    p_w = p_joint_xw.marginalize(("W",))
    params = CodecParams(n=4, rt=1.25, r=0.5, c=0.25, delta=0.75, eta=0.05, seed=9)
    cb = sample_codebook(p_w, params, derived_rng(9, 0))
    hits = 0
    for x in itertools.product(range(2), repeat=4):
        for mu in range(cb.k_size):
            enc = encoder_subpmf(np.array(x), mu, cb, p_joint_xw, params)
            want = encoder_weight_oracle(
                x, [tuple(w) for w in cb.entries[mu]], table, cb.epsilon, 0.05, 0.75
            )
            if want is None:
                assert enc.weights[0] == 1.0 and not enc.weights[1:].any()
                continue
            np.testing.assert_allclose(enc.weights[1:], want, rtol=1e-13, atol=0)
            assert enc.valid == (want.sum() <= 1.0)
            if enc.valid:
                assert math.fsum(enc.weights) == 1.0
            hits += enc.weights[1:].any()
    assert hits > 0, "instance chosen so some source words see typical codewords"


def test_oversubscribed_weights_flag_invalid_and_send_message_zero():
    p_joint_xw = JointPmf.from_table(("X", "W"), np.diag([0.5, 0.5]))
    params = CodecParams(n=4, rt=1.0, r=0.5, c=0.0, delta=0.3, eta=0.1, seed=2)
    x = np.array([0, 1, 0, 1])
    cb = Codebook(entries=np.tile(x, (1, 16, 1)), epsilon=0.625, w_size=2)
    enc = encoder_subpmf(x, 0, cb, p_joint_xw, params)
    assert not enc.valid
    assert enc.s == pytest.approx(0.375 * 16 / 1.1, rel=1e-12)
    assert enc.weights[0] == 0.0
    bn = sample_binning(cb, params, derived_rng(2, 1))
    msg = induced_message_pmf(x, 0, cb, bn, p_joint_xw, params)
    assert msg[0] == 1.0 and not msg[1:].any()


def small_case(entries, eta=0.1, table=((0.3, 0.2), (0.2, 0.3))):
    """Every binary source word against hand-made blocks (K, L, n) or one (L, n) block."""
    entries = np.asarray(entries, dtype=np.int64).reshape(-1, *np.shape(entries)[-2:])
    n = entries.shape[-1]
    params = CodecParams(n=n, rt=1.0, r=0.5, c=0.0, delta=0.5, eta=eta, seed=0)
    p_joint_xw = JointPmf.from_table(("X", "W"), np.array(table))
    return enumerate_sequences(2, n), entries, p_joint_xw, 0.2, params


def drawn_case(n, eta):
    """Every binary source word against a drawn synthesis-demo codebook (rt=1.5)."""
    inst = named_instance("synthesis-demo")
    params = CodecParams(n=n, rt=1.5, r=0.0, c=0.25, delta=0.5, eta=eta, seed=n)
    cb, _ = build_ptp_codec(inst.p_w(), params)
    return enumerate_sequences(2, n), cb.entries, inst.p_joint_xw(), cb.epsilon, params


def null_case():
    inst = named_instance("synthesis-demo")
    params = CodecParams(n=4, rt=1.5, r=0.5, c=0.25, delta=0.5, eta=0.1, seed=0)
    entries = null_codebook(3, params).entries
    return enumerate_sequences(2, 4), entries, inst.p_joint_xw(), 1.0, params


def long_word_case():
    """n=48 over |W|=3, where big-endian int64 word codes overflow.

    The block repeats words and holds two distinct words whose codes differ
    by exactly 2^64, so they wrap to one int64 value: with t the
    balanced-ternary digits of 2^64, the words are 1 + t and 1.
    """
    n = 48
    digits, v = [], 2**64
    while v:
        t = (v + 1) % 3 - 1
        digits.append(t)
        v = (v - t) // 3
    pair = np.ones((2, n), dtype=np.int64)
    pair[0, n - len(digits):] += digits[::-1]
    codes = pair @ 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    assert codes[0] == codes[1]
    g = np.random.default_rng(48)
    pool = np.vstack([pair, g.integers(0, 3, size=(6, n))])
    entries = pool[np.r_[0, 1, g.integers(0, pool.shape[0], size=38)]][None]
    xs = np.vstack([pool, g.integers(0, 3, size=(12, n))])
    params = CodecParams(n=n, rt=0.1, r=0.0, c=0.0, delta=0.9, eta=0.1, seed=0)
    p_joint_xw = JointPmf.from_table(("X", "W"), np.full((3, 3), 1.0 / 9.0))
    return xs, entries, p_joint_xw, 0.05, params


# name -> (builder, traits the case must show): "repeats" = some block has a
# repeated word, "weighted" / "unweighted" = some source row has nonzero / all
# zero weights, "invalid" = some row is oversubscribed.
ENCODER_CASES = {
    "drawn-n6": (
        lambda: drawn_case(6, 0.1), {"repeats": True, "weighted": True, "unweighted": True}
    ),
    "drawn-n8": (lambda: drawn_case(8, 0.9), {"repeats": True, "weighted": True}),
    "all-distinct": (
        lambda: small_case(enumerate_sequences(2, 4)[np.random.default_rng(4).permutation(16)]),
        {"repeats": False, "weighted": True},
    ),
    "null-codebook": (null_case, {"repeats": True, "weighted": False}),
    "eta0-oversubscribed": (
        lambda: small_case(
            np.vstack([np.tile([0, 1, 0, 1], (12, 1)), enumerate_sequences(2, 4)[:4]]),
            eta=0.0, table=((0.5, 0.0), (0.0, 0.5)),
        ),
        {"repeats": True, "invalid": True},
    ),
    # 0000 and 1111 are atypical under the uniform source marginal
    "atypical": (
        lambda: small_case(enumerate_sequences(2, 4)[[5, 5, 3, 9, 5, 3]]),
        {"repeats": True, "weighted": True, "unweighted": True},
    ),
    "one-letter": (
        lambda: small_case([[[1], [0], [1], [1]], [[0], [0], [0], [1]]], table=((0, 1.0), (0, 0))),
        {"repeats": True, "weighted": True},
    ),
    "one-codeword": (lambda: small_case([[0, 1, 1, 0]]), {"repeats": False, "weighted": True}),
    "long-words": (long_word_case, {"repeats": True, "weighted": True}),
}


@pytest.mark.parametrize("name", ENCODER_CASES)
def test_encoder_weights_equal_the_per_index_oracle(name):
    build, traits = ENCODER_CASES[name]
    xs, entries, p_joint_xw, epsilon, params = build()
    seen = dict.fromkeys(("repeats", "weighted", "unweighted", "invalid"), False)
    for block in entries:
        table = _oracles.block_weight_table(xs, block, p_joint_xw, epsilon, params)
        got = _block_weights(*table)
        want = _oracles.encoder_weight_batch(xs, block, p_joint_xw, epsilon, params)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        # encoder validity decides s <= 1 from the distinct-codeword table
        assert np.array_equal(_valid_rows(*table), want[2])
        weights, _, valid = got
        seen["repeats"] |= len({w.tobytes() for w in block}) < block.shape[0]
        seen["weighted"] |= bool(weights.any(axis=1).any())
        seen["unweighted"] |= bool((~weights.any(axis=1)).any())
        seen["invalid"] |= bool((~valid).any())
    assert {k: seen[k] for k in traits} == traits


@pytest.mark.parametrize("name", ENCODER_CASES)
def test_word_numbering_equals_the_dict_oracle(name):
    _, entries, *_ = ENCODER_CASES[name][0]()
    for block in entries:
        got = _first_occurrence_dedup(block)
        want = _oracles.first_occurrence_dedup(block)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_encoder_weights_equal_the_per_index_oracle_on_random_shapes():
    """The letter-by-letter posterior equals the oracle's (A, L, n) product."""
    gen = np.random.default_rng(200)
    checked = weighted = 0
    while checked < 200:
        n, nx, nw = (int(v) for v in gen.integers(1, (9, 4, 4)))
        table = gen.gamma(1.0, size=(nx, nw))
        table[gen.random((nx, nw)) < 0.3] = 0.0
        if not table.sum(axis=0).all() or not table.sum(axis=1).all():
            continue
        checked += 1
        p_joint_xw = JointPmf.from_table(("X", "W"), table / table.sum())
        block = gen.integers(0, nw, size=(int(gen.integers(1, 40)), n))
        block[gen.random(block.shape[0]) < 0.4] = block[0]
        # source words drawn through p(x|w) from codewords, so that many pairs are typical
        given = block[gen.integers(0, block.shape[0], size=int(gen.integers(1, 30)))]
        cdf = np.cumsum(table / table.sum(axis=0), axis=0)  # (x, w)
        xs = np.minimum((gen.random(given.shape)[..., None] > cdf.T[given]).sum(axis=-1), nx - 1)
        params = CodecParams(n=n, rt=1.0, r=0.5, c=0.0, delta=0.9, eta=0.1, seed=0)
        table = _oracles.block_weight_table(xs, block, p_joint_xw, 0.1, params)
        got = _block_weights(*table)
        want = _oracles.encoder_weight_batch(xs, block, p_joint_xw, 0.1, params)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.array_equal(_valid_rows(*table), want[2])
        weighted += bool(got[0].any())
    assert weighted >= 50


def test_validity_rows_near_one_take_the_gathered_row_sum(monkeypatch):
    """Identity-coded words, each matched by five of 64 codewords at weight
    0.2 (eta = 0, epsilon = 0.2, 2^n = 16): their sums land on 1 within
    rounding, where only the gathered row sum decides."""
    typical = [w for w in enumerate_sequences(2, 4) if 1 <= w.sum() <= 3]
    block = np.vstack([np.repeat(typical[:12], 5, axis=0), np.zeros((4, 4), dtype=np.int64)])
    xs, entries, p_joint_xw, epsilon, params = small_case(block, eta=0.0, table=((0.5, 0.0), (0.0, 0.5)))
    table, ids = _oracles.block_weight_table(xs, entries[0], p_joint_xw, epsilon, params)
    _, s, _ = _oracles.encoder_weight_batch(xs, entries[0], p_joint_xw, epsilon, params)
    assert np.count_nonzero(np.abs(s - 1.0) <= 1e-15) == 12
    gathered = []
    take = np.take

    def spy(a, indices, axis=None):
        gathered.append(a.shape[0])
        return take(a, indices, axis=axis)

    monkeypatch.setattr(np, "take", spy)
    flags = _valid_rows(table, ids)
    assert gathered == [12]
    assert np.array_equal(flags, s <= 1.0)


def test_packed_word_numbering_equals_the_dict_oracle_on_random_blocks():
    gen = np.random.default_rng(40)
    blocks = []
    for _ in range(300):
        # up to 40 letters over up to 9 symbols: up to three packed keys
        n, size, rows = (int(v) for v in gen.integers(1, (41, 10, 60)))
        pool = gen.integers(0, size, size=(int(gen.integers(1, 10)), n))
        block = pool[gen.integers(0, pool.shape[0], size=rows)]
        # near-duplicates: one letter changed, anywhere in the word
        tweak = np.flatnonzero(gen.random(rows) < 0.3)
        block[tweak, gen.integers(0, n, size=tweak.size)] = gen.integers(0, size, size=tweak.size)
        blocks.append(block)
    blocks.append(np.zeros((7, 13), dtype=np.int64))  # a one-letter alphabet
    # letters too large for two to share a 62-bit key
    large = np.array([0, 1, 2**31, 2**61, 2**62 - 1, 2**63 - 1], dtype=np.int64)
    blocks.append(large[gen.integers(0, large.size, size=(40, 3))])
    blocks.append(large[gen.integers(0, large.size, size=(40, 1))])
    blocks.append(gen.integers(0, 3, size=(1, 9)))  # a single row
    for block in blocks:
        got = _first_occurrence_dedup(block)
        want = _oracles.first_occurrence_dedup(block)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_codebook_validity_equals_the_per_block_oracle():
    """One weight table per codebook gives the flags one table per block
    gives: on random codebooks whose blocks share words, and on blocks whose
    sums land on 1 within rounding, inside ``_valid_rows``' band."""
    gen = np.random.default_rng(12)
    # three blocks of the near-one test's shape, each over its own 12 of
    # the 14 typical words, so the codebook's table has columns a block lacks
    typical = np.array([w for w in enumerate_sequences(2, 4) if 1 <= w.sum() <= 3])
    band = np.stack([
        np.vstack([np.repeat(typical[mu : mu + 12], 5, axis=0), np.zeros((4, 4), dtype=np.int64)])
        for mu in range(3)
    ])
    band_joint = JointPmf.from_table(("X", "W"), np.diag([0.5, 0.5]))
    band_params = CodecParams(n=4, rt=1.5, r=0.0, c=0.4, delta=0.5, eta=0.0, seed=0)
    for block in band:
        _, s, _ = _oracles.encoder_weight_batch(typical, block, band_joint, 0.2, band_params)
        assert np.count_nonzero(np.abs(s - 1.0) <= 1e-15) == 12
    cases = [(Codebook(entries=band, epsilon=0.2, w_size=2), band_joint, band_params)]
    inst = named_instance("synthesis-demo")
    for n, eta in itertools.product((4, 6), (0.0, 0.1)):
        params = CodecParams(n=n, rt=1.5, r=0.0, c=0.5, delta=0.5, eta=eta, seed=n)
        cases.append((build_ptp_codec(inst.p_w(), params)[0], inst.p_joint_xw(), params))
    while len(cases) < 200:
        n, nx, nw = (int(v) for v in gen.integers((2, 1, 1), (7, 4, 4)))
        if len(cases) % 3:
            # a copy channel: a pair is typical when the words agree, so
            # repeated codewords oversubscribe some source words and not others
            nx = nw = 2
            table = np.diag(gen.dirichlet((1.0, 1.0)))
        else:
            table = gen.gamma(1.0, size=(nx, nw))
            table[gen.random((nx, nw)) < 0.3] = 0.0
            if not table.sum(axis=0).all() or not table.sum(axis=1).all():
                continue
        pool = gen.integers(0, nw, size=(int(gen.integers(1, 12)), n))
        entries = pool[gen.integers(0, pool.shape[0], size=tuple(int(v) for v in gen.integers(1, (5, 40))))]
        params = CodecParams(n=n, rt=1.0, r=0.0, c=0.0, delta=float(gen.uniform(0.3, 0.99)),
                             eta=float(gen.uniform(0.0, 0.5)), seed=0)
        book = Codebook(entries=entries, epsilon=float(gen.uniform(0.0, 0.3)), w_size=nw)
        cases.append((book, JointPmf.from_table(("X", "W"), table / table.sum()), params))
    mixed = 0
    for book, p_joint_xw, params in cases:
        got = encoder_validity(book, p_joint_xw, params)
        assert got == _oracles.encoder_validity_per_block(book, p_joint_xw, params)
        mixed += 0.0 < got[1] < 1.0
    assert mixed >= 60


def test_blocks_share_a_weight_table_only_when_they_share_words():
    """Blocks drawn from one pool of words read one table over the
    codebook's words; blocks drawn from pools of their own, U above twice the
    largest Θ_μ, get a table each over their own words.  Either way every
    block's weights, validity flags and message rows equal those of the
    block alone."""
    gen = np.random.default_rng(31)
    shared = own = 0
    while shared < 40 or own < 40:
        n, nw, kk = (int(v) for v in gen.integers((2, 2, 1), (7, 5, 6)))
        table = gen.gamma(1.0, size=(2, nw)) + 0.05
        p_joint_xw = JointPmf.from_table(("X", "W"), table / table.sum())
        pools = [gen.integers(0, nw, size=(int(gen.integers(1, 8)), n))]
        pools *= kk if gen.random() < 0.5 else 1
        while len(pools) < kk:
            pools.append(gen.integers(0, nw, size=(int(gen.integers(1, 8)), n)))
        l_size = int(gen.integers(1, 30))
        entries = np.stack([pool[gen.integers(0, pool.shape[0], size=l_size)] for pool in pools])
        params = CodecParams(n=n, rt=1.0, r=0.5, c=0.0, delta=float(gen.uniform(0.3, 0.99)),
                             eta=float(gen.uniform(0.0, 0.5)), seed=0)
        book = Codebook(entries=entries, epsilon=float(gen.uniform(0.0, 0.3)), w_size=nw)
        xs = enumerate_sequences(2, n)
        flat = entries.reshape(-1, n)
        ids, firsts = _first_occurrence_dedup(flat)
        tables = list(codec_ptp._block_tables(xs, book, (ids, flat[firsts]), p_joint_xw, params))
        thetas = [len(np.unique(ids.reshape(kk, -1)[mu])) for mu in range(kk)]
        if firsts.size <= 2 * max(thetas):
            shared += 1
            assert all(t is tables[0][0] and t.shape[1] == firsts.size for t, _ in tables)
        else:
            own += 1
            assert [t.shape[1] for t, _ in tables] == thetas
        for (t, block_ids), block in zip(tables, entries):
            got = _block_weights(t, block_ids)
            want = _oracles.encoder_weight_batch(xs, block, p_joint_xw, book.epsilon, params)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert np.array_equal(_valid_rows(t, block_ids), want[2])
        assert encoder_validity(book, p_joint_xw, params) == _oracles.encoder_validity_per_block(
            book, p_joint_xw, params
        )
        m_size = int(gen.integers(1, 5))
        labels = gen.integers(1, m_size + 1, size=(kk, l_size))
        msg, _ = codec_ptp._message_table(
            xs, book, codec_ptp._word_ids(flat), labels, m_size, p_joint_xw, params
        )
        for mu in range(kk):
            alone = Codebook(entries=entries[mu : mu + 1], epsilon=book.epsilon, w_size=nw)
            want, _ = codec_ptp._message_table(
                xs, alone, codec_ptp._word_ids(entries[mu]), labels[mu : mu + 1], m_size,
                p_joint_xw, params,
            )
            assert np.array_equal(msg[mu], want[0])


def test_decoded_rows_equal_the_unique_oracle():
    gen = np.random.default_rng(7)
    none = np.zeros(0, dtype=np.int64)
    cases = [
        (none, none, 9),  # no candidate anywhere: every cell falls back
        (np.repeat(np.arange(6), 2), gen.integers(1, 5, size=12), 6),  # every cell ambiguous
        (np.arange(8), gen.integers(1, 20, size=8), 8),  # every cell unique: no fallback row
    ]
    for _ in range(200):
        size = int(gen.integers(1, 300))
        count = int(gen.integers(0, 2 * size))
        cell = gen.integers(0, size, size=count)
        cases.append((cell, gen.integers(0, int(gen.integers(1, 50)), size=count), size))
    for cell, code, size in cases:
        decoded = np.zeros(size, dtype=np.int64)
        for c in range(size):
            here = code[cell == c]
            decoded[c] = here[0] if here.size == 1 else 0
        used, rows = np.unique(decoded, return_inverse=True)
        got_used, got_rows = _decoded_rows(cell, code, size)
        assert np.array_equal(got_used, used) and np.array_equal(got_rows, rows.reshape(-1))


# --------------------------------------------------------------------------
# message PMF
# --------------------------------------------------------------------------


def test_single_bin_collects_all_encoder_weight():
    params = CodecParams(n=4, rt=1.0, r=1e-9, c=0.25, delta=0.3, eta=0.1, seed=7)
    assert params.m_size == 1
    p_w = JointPmf.from_table(("W",), np.array([0.5, 0.5]))
    cb, bn = build_ptp_codec(p_w, params)
    p_joint_xw = JointPmf.from_table(("X", "W"), np.full((2, 2), 0.25))
    x = np.array([0, 1, 0, 1])
    enc = encoder_subpmf(x, 0, cb, p_joint_xw, params)
    assert enc.valid and enc.s > 0
    msg = induced_message_pmf(x, 0, cb, bn, p_joint_xw, params)
    assert msg.shape == (2,)
    assert msg[1] == pytest.approx(math.fsum(enc.weights[1:]), abs=1e-15)


def test_duplicate_codewords_concentrate_on_one_bin():
    p_joint_xw = JointPmf.from_table(("X", "W"), np.full((2, 2), 0.25))
    params = CodecParams(n=4, rt=0.5, r=0.5, c=0.0, delta=0.3, eta=0.1, seed=13)
    x = np.array([0, 0, 1, 1])
    word = np.array([0, 1, 0, 1])  # jointly typical with x under the uniform pair law
    cb = Codebook(entries=np.tile(word, (1, params.l_size, 1)), epsilon=0.625, w_size=2)
    bn = sample_binning(cb, params, derived_rng(13, 1))
    assert bn.theta == (1,)
    msg = induced_message_pmf(x, 0, cb, bn, p_joint_xw, params)
    target_bin = int(bn.bins[0][0])
    assert msg[target_bin] == pytest.approx(0.375 / 1.1, rel=1e-12)
    assert msg[0] + msg[target_bin] == pytest.approx(1.0, abs=0)


def test_message_pmf_always_sums_to_one_exactly():
    generator = np.random.default_rng(77)
    for seed in range(6):
        p_xz, p_w_given_x, _, params = identity_instance(generator, 2, 0.3, seed)
        p_w = JointPmf.from_table(("W",), p_xz.table.sum(axis=1))
        cb, bn = build_ptp_codec(p_w, params, allow_degenerate=True)
        p_joint_xw = JointPmf.from_table(
            ("X", "W"), p_xz.table.sum(axis=1)[:, None] * p_w_given_x.table
        )
        for x in itertools.product(range(2), repeat=2):
            for mu in range(cb.k_size):
                msg = induced_message_pmf(np.array(x), mu, cb, bn, p_joint_xw, params)
                assert math.fsum(msg) == 1.0
                assert np.all(msg >= 0)


def test_message_pmf_matches_sampling_frequencies():
    """Drawing an index from the weights and pushing it through the binning
    reproduces the claimed message PMF within Monte Carlo error."""
    table = np.array([[0.3, 0.2], [0.2, 0.3]])
    p_joint_xw = JointPmf.from_table(("X", "W"), table)
    p_w = p_joint_xw.marginalize(("W",))
    params = CodecParams(n=4, rt=1.25, r=0.5, c=0.0, delta=0.75, eta=0.05, seed=9)
    cb, bn = build_ptp_codec(p_w, params)
    x = np.array([0, 1, 1, 0])
    enc = encoder_subpmf(x, 0, cb, p_joint_xw, params)
    assert enc.valid and enc.weights[1:].any()
    msg = induced_message_pmf(x, 0, cb, bn, p_joint_xw, params)
    draws = np.random.default_rng(4).choice(enc.weights.size, size=100_000, p=enc.weights)
    labels = np.concatenate([[0], bn.messages(0)])[draws]
    freq = np.bincount(labels, minlength=msg.size) / draws.size
    sigma = np.sqrt(np.maximum(msg * (1 - msg), 1e-12) / draws.size)
    assert np.all(np.abs(freq - msg) <= 3 * sigma + 1e-9)


# --------------------------------------------------------------------------
# decoder
# --------------------------------------------------------------------------


def _hand_codec():
    """Three distinct balanced codewords with hand-assigned bins."""
    words = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]])
    entries = words[None, :, :]
    cb = Codebook(entries=entries, epsilon=0.625, w_size=2)
    bn = BinningMap(dedup=np.array([[0, 1, 2]]), bins=(np.array([1, 2, 2]),), m_size=3)
    return cb, bn


def test_decode_empty_single_and_collision_bins():
    cb, bn = _hand_codec()
    p_wz = JointPmf.from_table(("W", "Z"), np.full((2, 2), 0.25))
    typ = TypicalityParams(0.3, 2, 2, 2)  # delta2 = 1.8: every positive cell passes
    z = np.array([0, 1, 0, 1])
    np.testing.assert_array_equal(decode_map(z, 1, 0, cb, bn, p_wz, typ), cb.entries[0, 0])
    np.testing.assert_array_equal(decode_map(z, 2, 0, cb, bn, p_wz, typ), np.zeros(4, int))
    np.testing.assert_array_equal(decode_map(z, 3, 0, cb, bn, p_wz, typ), np.zeros(4, int))
    np.testing.assert_array_equal(decode_map(z, 0, 0, cb, bn, p_wz, typ), np.zeros(4, int))
    with pytest.raises(ValueError):
        decode_map(z, 4, 0, cb, bn, p_wz, typ)


def test_decode_typicality_filter_breaks_collisions():
    """A copy side-information law keeps only the codeword equal to z, so a
    two-word bin can still decode uniquely."""
    cb, bn = _hand_codec()
    p_wz = JointPmf.from_table(("W", "Z"), np.diag([0.5, 0.5]))
    typ = TypicalityParams(0.1, 1, 1, 1)  # delta2 = 0.2, zero cells exact
    z = np.array([0, 1, 0, 1])
    np.testing.assert_array_equal(decode_map(z, 2, 0, cb, bn, p_wz, typ), z)
    # bin 1 holds only 0011, which mismatches z -> fallback
    np.testing.assert_array_equal(decode_map(z, 1, 0, cb, bn, p_wz, typ), np.zeros(4, int))


def test_decode_ignores_placement_of_duplicate_indices():
    words = {"A": (0, 0, 1, 1), "B": (0, 1, 0, 1), "C": (0, 1, 1, 0)}
    layout_one = [words[k] for k in ("A", "B", "A", "C", "B", "A")]
    layout_two = [words[k] for k in ("B", "A", "A", "B", "C", "A")]
    n = 4
    rt = math.log2(6) / n
    params = CodecParams(n=n, rt=rt, r=0.25, c=0.0, delta=0.3, eta=0.1, seed=1)
    assert params.l_size == 6
    word_bins = {"A": 1, "B": 2, "C": 2}

    def build(layout, order):
        cb = Codebook(entries=np.array(layout)[None, :, :], epsilon=0.625, w_size=2)
        dedup, firsts = [], {}
        for row in layout:
            dedup.append(firsts.setdefault(row, len(firsts)))
        bins = np.array([word_bins[k] for k in order])
        return cb, BinningMap(dedup=np.array([dedup]), bins=(bins,), m_size=params.m_size)

    cb1, bn1 = build(layout_one, ("A", "B", "C"))
    cb2, bn2 = build(layout_two, ("B", "A", "C"))
    p_wz = JointPmf.from_table(("W", "Z"), np.full((2, 2), 0.25))
    typ = TypicalityParams(0.3, 2, 2, 2)
    for z in itertools.product(range(2), repeat=4):
        for m in range(params.m_size + 1):
            np.testing.assert_array_equal(
                decode_map(np.array(z), m, 0, cb1, bn1, p_wz, typ),
                decode_map(np.array(z), m, 0, cb2, bn2, p_wz, typ),
            )


# --------------------------------------------------------------------------
# exact induced law
# --------------------------------------------------------------------------


def test_exact_joint_single_cell_system():
    p_xz = JointPmf.from_table(("X", "Z"), np.array([[1.0, 0.0], [0.0, 0.0]]))
    p_w_given_x = CondPmf.from_rows(("X",), (2,), ("W",), (2,), np.array([[1, 0], [1, 0]], float))
    y_rows = np.zeros((2, 2, 2))
    y_rows[:, :, 1] = 1.0  # Y = second symbol no matter what
    p_y_given_zw = CondPmf.from_rows(("Z", "W"), (2, 2), ("Y",), (2,), y_rows)
    params = CodecParams(n=1, rt=1e-9, r=1e-9, c=1e-9, delta=0.3, eta=0.1, seed=0)
    assert (params.l_size, params.m_size, params.k_size) == (1, 1, 1)
    p_w = JointPmf.from_table(("W",), np.array([1.0, 0.0]))
    cb, bn = build_ptp_codec(p_w, params)
    ind = induced_joint_exact(p_xz, p_w_given_x, p_y_given_zw, cb, bn, params)
    want = np.zeros((2, 2, 2))
    want[0, 1, 0] = 1.0
    np.testing.assert_allclose(ind.table, want, atol=1e-15)


@pytest.mark.parametrize("n, delta", [(1, 0.3), (2, 0.3), (3, 0.5)])
def test_exact_joint_preserves_source_word_law(n, delta):
    generator = np.random.default_rng(100 + n)
    for seed in range(4):
        p_xz, p_w_given_x, p_y_given_zw, _ = identity_instance(generator, n, delta, seed)
        params = CodecParams(n=n, rt=1.0, r=0.5, c=0.5, delta=delta, eta=0.1, seed=seed)
        p_w = JointPmf.from_table(("W",), p_xz.table.sum(axis=1))
        cb, bn = build_ptp_codec(p_w, params, allow_degenerate=True)
        if n == 1:
            assert cb.degenerate, "no word is typical at blocklength one"
        ind = induced_joint_exact(p_xz, p_w_given_x, p_y_given_zw, cb, bn, params)
        marg = ind.marginalize((ind.names[0], ind.names[2]))
        target = product_pmf(p_xz, n)
        assert np.abs(marg.table - target.table).max() < 1e-12


def drawn_codec(generator_seed, codec_seed):
    """Codec drawn from its run seed on a random copy-coupled instance (n=2, K=2)."""
    generator = np.random.default_rng(generator_seed)
    p_xz, p_w_given_x, p_y_given_zw, params = identity_instance(generator, 2, 0.3, codec_seed)
    p_w = JointPmf.from_table(("W",), p_xz.table.sum(axis=1))
    cb, bn = build_ptp_codec(p_w, params)
    return p_xz, p_w_given_x, p_y_given_zw, params, cb, bn


def shared_rows_codec(n, kk):
    """Hand-built codec whose blocks share their words, on a copy-coupled source.

    Block μ lists the same distinct words (four at n=2, six at n=3) rotated
    by μ, then word 1 again, so every word recurs in every block at a
    different index and with a different bin.  Distinct words fill bins
    1, 1, 2, 4, 4, 2 in first-occurrence order: bin 3 stays empty and other
    bins hold two words.  At δ = 0.7 the decoder slack admits one mismatched
    letter per off-diagonal cell, so some bins are ambiguous (checked).  At
    n = 2, w0 is itself a codeword.
    """
    p_xz = JointPmf.from_table(("X", "Z"), np.array([[0.4, 0.1], [0.1, 0.4]]))
    p_w_given_x = CondPmf.from_rows(("X",), (2,), ("W",), (2,), np.eye(2))
    p_y_given_zw = CondPmf.from_rows(
        ("Z", "W"), (2, 2), ("Y",), (2,), random_channel(np.random.default_rng(9), (2, 2, 2))
    )
    params = CodecParams(n=n, rt=1.5, r=2.0 / n, c=math.log2(kk) / n, delta=0.7, eta=0.1, seed=0)
    assert (params.m_size, params.k_size) == (4, kk)
    words = np.array(list(itertools.product(range(2), repeat=n)))[:6]
    base = list(range(words.shape[0])) + [1]
    entries, dedup, bins = [], [], []
    for mu in range(kk):
        order = base[mu:] + base[:mu]
        firsts = {}
        dedup.append([firsts.setdefault(w, len(firsts)) for w in order])
        entries.append(words[order])
        bins.append(np.array([1, 1, 2, 4, 4, 2][: len(firsts)]))
    cb = Codebook(entries=np.array(entries), epsilon=0.2, w_size=2)
    bn = BinningMap(dedup=np.array(dedup), bins=tuple(bins), m_size=4)
    delta2 = TypicalityParams(params.delta, 2, 2, 2).delta2
    assert {"unique", "ambiguous", "empty"} <= decode_outcomes(cb, bn, p_xz.table.T, delta2)
    return p_xz, p_w_given_x, p_y_given_zw, params, cb, bn


def decode_outcomes(cb, bn, p_zw_table, delta2):
    """Outcome kinds the decoder meets over every (μ, z, m >= 1), by brute force."""
    brute_pair_typical.delta = delta2
    kinds = set()
    for mu in range(cb.k_size):
        distinct = list(dict.fromkeys(map(tuple, cb.entries[mu])))
        for z in itertools.product(range(2), repeat=cb.n):
            for m in range(1, bn.m_size + 1):
                cands = [w for j, w in enumerate(distinct) if bn.bins[mu][j] == m]
                hits = sum(brute_pair_typical(list(zip(z, w)), p_zw_table) for w in cands)
                kinds.add("empty" if not cands else {0: "miss", 1: "unique"}.get(hits, "ambiguous"))
    return kinds


def shared_rows_case(n, kk):
    return pytest.param(lambda: shared_rows_codec(n, kk), id=f"shared-n{n}-K{kk}")


@pytest.mark.parametrize(
    "codec",
    [pytest.param(lambda: drawn_codec(55, 31), id="drawn")]
    + [shared_rows_case(n, kk) for n in (2, 3) for kk in (2, 3)],
)
def test_exact_joint_agrees_with_scalar_operation_chain(codec):
    p_xz, p_w_given_x, p_y_given_zw, params, cb, bn = codec()
    ind = induced_joint_exact(p_xz, p_w_given_x, p_y_given_zw, cb, bn, params)
    want = exact_joint_by_scalar_ops(p_xz, p_w_given_x, p_y_given_zw, cb, bn, params)
    np.testing.assert_allclose(ind.table, want, atol=1e-13)


@pytest.mark.parametrize("n, kk", [(2, 3), (3, 2)])
def test_output_rows_match_per_cell_oracle(n, kk):
    p_xz, p_w_given_x, p_y_given_zw, params, cb, bn = shared_rows_codec(n, kk)
    tabs = _build_system_tables(p_xz, p_w_given_x, p_y_given_zw, cb, bn, params)
    # one row per decoded word, shared by the blocks: w0 plus at most the distinct words
    distinct = {tuple(w) for w in cb.entries.reshape(-1, n)}
    rows = tabs.y_rows.shape[1]
    assert rows <= 1 + len(distinct) < sum(1 + t for t in bn.theta)
    assert set(np.unique(tabs.decoded)) == set(range(rows))
    p_wz = JointPmf.from_table(("W", "Z"), p_xz.table)  # copy coupling: p(w, z) = p(x=w, z)
    typ = TypicalityParams(params.delta, 2, 2, 2)
    words = list(itertools.product(range(2), repeat=n))
    for mu in range(kk):
        for zi, z in enumerate(words):
            for m in range(bn.m_size + 1):
                w_hat = decode_map(np.array(z), m, mu, cb, bn, p_wz, typ)
                want = [output_word_law(p_y_given_zw.table, z, w_hat, y) for y in words]
                np.testing.assert_array_equal(tabs.y_rows[zi, tabs.decoded[mu, zi, m]], want)


@pytest.mark.parametrize(
    "codec", [pytest.param(lambda: drawn_codec(56, 32), id="drawn"), shared_rows_case(2, 3)]
)
def test_exact_joint_matches_end_to_end_sampling(codec):
    p_xz, p_w_given_x, p_y_given_zw, params, cb, bn = codec()
    assert cb.k_size >= 2
    args = (p_xz, p_w_given_x, p_y_given_zw, cb, bn, params)
    ind = induced_joint_exact(*args)
    xs, ys, zs = sample_induced(*args, 200_000, np.random.default_rng(6))
    emp = np.zeros_like(ind.table)
    np.add.at(emp, (xs, ys, zs), 1.0)
    emp /= emp.sum()
    assert 0.5 * np.abs(emp - ind.table).sum() < 0.02
    again = sample_induced(*args, 200_000, np.random.default_rng(6))
    for first, second in zip((xs, ys, zs), again):
        np.testing.assert_array_equal(first, second)


def test_null_codebook_system_is_fallback_only():
    generator = np.random.default_rng(57)
    p_xz, p_w_given_x, p_y_given_zw, params = identity_instance(generator, 1, 0.3, 33)
    cb = null_codebook(2, params)
    bn = sample_binning(cb, params, derived_rng(params.seed, 1))
    p_joint_xw = JointPmf.from_table(
        ("X", "W"), p_xz.table.sum(axis=1)[:, None] * p_w_given_x.table
    )
    for x in (np.array([0]), np.array([1])):
        enc = encoder_subpmf(x, 0, cb, p_joint_xw, params)
        assert enc.valid and enc.s == 0.0 and enc.weights[0] == 1.0
        msg = induced_message_pmf(x, 0, cb, bn, p_joint_xw, params)
        assert msg[0] == 1.0
    ind = induced_joint_exact(p_xz, p_w_given_x, p_y_given_zw, cb, bn, params)
    want = p_xz.table[:, None, :] * p_y_given_zw.table[None, :, 0, :].transpose(0, 2, 1)
    np.testing.assert_allclose(ind.table, want, atol=1e-15)


def test_exact_joint_budget_guard():
    generator = np.random.default_rng(58)
    p_xz, p_w_given_x, p_y_given_zw, params = identity_instance(generator, 2, 0.3, 34)
    p_w = JointPmf.from_table(("W",), p_xz.table.sum(axis=1))
    cb, bn = build_ptp_codec(p_w, params)
    with pytest.raises(BudgetExceededError):
        induced_joint_exact(p_xz, p_w_given_x, p_y_given_zw, cb, bn, params, budget=10)


# --------------------------------------------------------------------------
# streamed exact deficit
# --------------------------------------------------------------------------

#: gate-10 rates on the demo, the README example's rates on the reference
STREAM_RATES = {
    "synthesis-demo": dict(rt=1.5, r=1.35, c=0.25, delta=0.5, eta=0.1),
    "reference": dict(rt=0.9, r=0.4, c=0.3, delta=0.34, eta=0.1),
}


def instance_codec(name, n, seed=11):
    inst = named_instance(name)
    params = CodecParams(n=n, seed=seed, **STREAM_RATES[name])
    cb, bn = build_ptp_codec(inst.p_w(), params, allow_degenerate=True)
    return inst, (inst.p_xz, inst.p_w_given_x, inst.p_y_given_zw, cb, bn, params)


@pytest.mark.parametrize("name", sorted(STREAM_RATES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_streamed_deficit_equals_tv_of_the_exact_joint(name, n):
    inst, args = instance_codec(name, n)
    want = tv_deficit(inst.target_joint(), induced_joint_exact(*args))
    assert abs(streamed_tv_deficit(inst.target_joint(), *args)[0] - want) <= 1e-12


def test_streamed_deficit_on_a_null_codebook():
    inst = named_instance("synthesis-demo")
    params = CodecParams(n=3, seed=4, **STREAM_RATES["synthesis-demo"])
    cb = null_codebook(3, params)
    bn = sample_binning(cb, params, derived_rng(params.seed, 1))
    args = (inst.p_xz, inst.p_w_given_x, inst.p_y_given_zw, cb, bn, params)
    want = tv_deficit(inst.target_joint(), induced_joint_exact(*args))
    assert want > 0.1
    assert abs(streamed_tv_deficit(inst.target_joint(), *args)[0] - want) <= 1e-12


@pytest.mark.parametrize("seed", [0, 4])
def test_streamed_deficit_on_single_letter_alphabets_is_exactly_zero(seed):
    inst = ptp_instance_from_tables([[1.0]], [[0.25, 0.4, 0.35]], [[[1.0]] * 3])
    params = CodecParams(n=3, rt=1.875, r=0.875, c=0.875, delta=0.9, eta=0.625, seed=seed)
    cb, bn = build_ptp_codec(inst.p_w(), params, allow_degenerate=True)
    args = (inst.p_xz, inst.p_w_given_x, inst.p_y_given_zw, cb, bn, params)
    ind = induced_joint_exact(*args)
    # seed 4: the message complements leave the one cell a few ulps off 1
    assert (ind.table.item() != 1.0) == (seed == 4)
    assert tv_deficit(inst.target_joint(), ind) == 0.0
    assert streamed_tv_deficit(inst.target_joint(), *args)[0] == 0.0


def test_streamed_deficit_checks_the_target_axes():
    inst, args = instance_codec("synthesis-demo", 2)
    other = JointPmf.from_table(("X", "Y", "Z"), np.full((2, 2, 2), 0.125))
    with pytest.raises(ValueError, match="letter axes"):
        streamed_tv_deficit(other, *args)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_chunk_slices_equal_the_full_tables_bit_for_bit(n):
    inst, args = instance_codec("synthesis-demo", n, seed=n)
    ind = induced_joint_exact(*args)
    target = product_pmf(inst.target_joint(), n).table
    tabs = _build_system_tables(*args)
    xs = enumerate_sequences(2, n)
    head = inst.target_joint().table[xs.T[:, None, :], :, tabs.zs.T[:, :, None]]
    for chunk in (1, 8):
        start = 0
        for t, q in _induced_slices(tabs, chunk, head):
            stop = start + q.shape[0]
            assert np.array_equal(q, ind.table[:, :, start:stop].transpose(2, 0, 1))
            assert np.array_equal(t, target[:, :, start:stop].transpose(2, 0, 1))
            start = stop
        assert start == tabs.zs.shape[0]


def test_streamed_deficit_budgets_its_largest_array():
    inst, args = instance_codec("synthesis-demo", 4)
    assert 10_000 < 12**4
    with pytest.raises(BudgetExceededError):
        induced_joint_exact(*args, budget=10_000)
    want = tv_deficit(inst.target_joint(), induced_joint_exact(*args))
    got, _ = streamed_tv_deficit(inst.target_joint(), *args, budget=10_000)
    assert abs(got - want) <= 1e-12
    # the message tables (1,376 cells) fit, the letter factors (5,952) do not
    with pytest.raises(BudgetExceededError, match="streamed deficit"):
        streamed_tv_deficit(inst.target_joint(), *args, budget=2_000)


def test_encoder_and_decoder_arrays_count_against_the_budget():
    """The (A, L) index weights of a block, the (A, U) weight table and the
    Az × ΣΘ decoder typicality mask are each refused before they are built."""
    inst = named_instance("synthesis-demo")

    def codec(**rates):
        params = CodecParams(delta=0.5, eta=0.1, seed=0, **rates)
        cb, bn = build_ptp_codec(inst.p_w(), params)
        return cb, (inst.p_xz, inst.p_w_given_x, inst.p_y_given_zw, cb, bn, params)

    # n=6: 64 source words × L = 512 indices; every other array fits 10,000
    cb, args = codec(n=6, rt=1.5, r=0.05, c=0.0)
    with pytest.raises(BudgetExceededError, match="encoder index weights needs 32768 "):
        _build_system_tables(*args, budget=10_000)
    _build_system_tables(*args, budget=64 * 512)
    # encoder validity's weight table: typical source words × U distinct words
    typical = typical_set(inst.p_joint_xw().marginalize(("X",)), 6, 0.5).shape[0]
    u_size = codec_ptp._word_ids(cb.entries.reshape(-1, 6))[1].shape[0]
    assert typical * u_size > 1_000
    with pytest.raises(BudgetExceededError, match=f"encoder weights needs {typical * u_size} "):
        encoder_validity(cb, inst.p_joint_xw(), args[-1], budget=1_000)
    # n=4, K = 16 blocks of L = 8: 16 side-information words × ΣΘ = 105 decoder cells
    _, args = codec(n=4, rt=0.75, r=0.0, c=1.0)
    assert sum(args[4].theta) == 105
    with pytest.raises(BudgetExceededError, match="decoder typicality mask needs 1680 "):
        _build_system_tables(*args, budget=1_000)
    _build_system_tables(*args, budget=1_680)


def test_streamed_deficit_checks_the_total_mass(monkeypatch):
    inst, args = instance_codec("synthesis-demo", 3)
    message_table = codec_ptp._message_table
    monkeypatch.setattr(codec_ptp, "_message_table", lambda *a: (2.0 * message_table(*a)[0], True))
    with pytest.raises(ArithmeticError, match="induced law sums to"):
        streamed_tv_deficit(inst.target_joint(), *args)


def test_a_nan_induced_law_fails_the_total_mass_check(monkeypatch):
    inst, args = instance_codec("synthesis-demo", 3)
    message_table = codec_ptp._message_table
    monkeypatch.setattr(codec_ptp, "_message_table", lambda *a: (np.nan * message_table(*a)[0], True))
    with pytest.raises(ArithmeticError, match="induced law sums to nan"):
        streamed_tv_deficit(inst.target_joint(), *args)
    with pytest.raises(ArithmeticError, match="induced law sums to nan"):
        induced_joint_exact(*args)


# --------------------------------------------------------------------------
# deficits
# --------------------------------------------------------------------------


def test_tv_deficit_is_zero_only_on_exact_match():
    p_xyz = JointPmf.from_table(("X", "Y", "Z"), random_channel(rng, (8,)).reshape(2, 2, 2))
    exact_product = product_pmf(p_xyz, 2)
    assert tv_deficit(p_xyz, exact_product) == 0.0
    perturbed = exact_product.table.copy()
    perturbed[0, 0, 0] += 0.01
    perturbed[1, 1, 1] -= 0.01
    other = JointPmf(exact_product.names, exact_product.alphabets, perturbed)
    d = tv_deficit(p_xyz, other)
    assert 0 < d <= 1
    assert d == pytest.approx(0.01, abs=1e-15)


def test_tv_deficit_single_codeword_equals_direct_tv():
    """K=L=M=1: the codec output law is computable by hand, and the deficit
    must equal its total variation from the target product."""
    p_xz = JointPmf.from_table(("X", "Z"), np.array([[0.6, 0.0], [0.0, 0.4]]))
    p_w_given_x = CondPmf.from_rows(("X",), (2,), ("W",), (2,), np.array([[1, 0], [1, 0]], float))
    p_y_given_zw = CondPmf.from_rows(
        ("Z", "W"), (2, 2), ("Y",), (2,), random_channel(np.random.default_rng(8), (2, 2, 2))
    )
    params = CodecParams(n=1, rt=1e-9, r=1e-9, c=1e-9, delta=0.5, eta=0.1, seed=0)
    p_w = JointPmf.from_table(("W",), np.array([1.0, 0.0]))
    cb, bn = build_ptp_codec(p_w, params)
    ind = induced_joint_exact(p_xz, p_w_given_x, p_y_given_zw, cb, bn, params)
    # mismatched target: Y drawn from the wrong channel row
    target = JointPmf.from_table(
        ("X", "Y", "Z"),
        np.einsum("xz,y->xyz", p_xz.table, np.array([0.5, 0.5])),
    )
    d = tv_deficit(target, ind)
    direct = 0.5 * np.abs(target.table - ind.table).sum()
    assert d == pytest.approx(direct, abs=1e-15)
    assert 0 <= d <= 1


def test_soft_covering_exact_mixture_is_zero():
    # point-mass codeword law: the single conditional *is* the target
    p_wxyz = JointPmf.from_table(
        ("W", "X", "Y", "Z"),
        np.einsum("w,x,y,z->wxyz", [1.0, 0.0], [0.7, 0.3], [0.5, 0.5], [0.2, 0.8]),
    )
    params = CodecParams(n=2, rt=1.0, r=0.5, c=0.0, delta=0.9, eta=0.1, seed=0)
    cb = Codebook(entries=np.zeros((1, 4, 2), np.int64), epsilon=0.0, w_size=2)
    assert soft_covering_deficit(p_wxyz, cb, params) == pytest.approx(0.0, abs=1e-15)

    # exhaustive multiset reproducing p_W exactly at n=1
    per_w = random_channel(np.random.default_rng(12), (2, 8))
    p2 = JointPmf.from_table(("W", "X", "Y", "Z"), 0.5 * per_w.reshape(2, 2, 2, 2))
    params1 = CodecParams(n=1, rt=1.0, r=1.0, c=0.0, delta=0.99, eta=0.1, seed=0)
    cb1 = Codebook(entries=np.array([[[0], [1]]]), epsilon=0.0, w_size=2)
    assert soft_covering_deficit(p2, cb1, params1) == pytest.approx(0.0, abs=1e-14)


def test_soft_covering_deficit_shrinks_with_codebook_rate():
    p_w = JointPmf.from_table(("W",), np.array([0.5, 0.5]))
    chain = np.einsum(
        "w,wx,xz,zwy->wxyz",
        np.array([0.5, 0.5]),
        np.array([[0.8, 0.2], [0.2, 0.8]]),
        np.array([[0.75, 0.25], [0.25, 0.75]]),
        random_channel(np.random.default_rng(14), (2, 2, 2)),
    )
    p_wxyz = JointPmf.from_table(("W", "X", "Y", "Z"), chain)
    means = []
    for rt in (0.5, 1.5, 2.5):
        vals = []
        for seed in range(50):
            params = CodecParams(n=4, rt=rt, r=0.25, c=0.0, delta=0.3, eta=0.1, seed=seed)
            cb = sample_codebook(p_w, params, derived_rng(seed, 0))
            vals.append(soft_covering_deficit(p_wxyz, cb, params))
        means.append(float(np.mean(vals)))
    assert means[0] > means[1] > means[2]


def test_soft_covering_rejects_degenerate_codebook():
    p_wxyz = JointPmf.from_table(("W", "X", "Y", "Z"), np.full((2, 2, 2, 2), 1 / 16))
    params = CodecParams(n=2, rt=1.0, r=0.5, c=0.0, delta=0.3, eta=0.1, seed=0)
    with pytest.raises(ValueError, match="degenerate"):
        soft_covering_deficit(p_wxyz, null_codebook(2, params), params)


# --------------------------------------------------------------------------
# parameters, serialization
# --------------------------------------------------------------------------


def test_params_rounding_and_effective_rates():
    params = CodecParams(n=3, rt=0.5, r=0.5, c=0.0, delta=0.3, eta=0.1, seed=0)
    assert params.l_size == 3  # 2^1.5 = 2.83 rounds to 3
    assert params.effective_rt == pytest.approx(math.log2(3) / 3)
    assert params.m_size == 3 and params.k_size == 1
    assert params.effective_c == 0.0
    zero_rate = CodecParams(n=2, rt=1.0, r=0.0, c=0.0, delta=0.3, eta=0.0, seed=0)
    assert zero_rate.m_size == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, rt=1.0, r=0.5, c=0.0, delta=0.3, eta=0.1),
        dict(n=2, rt=0.0, r=0.0, c=0.0, delta=0.3, eta=0.1),
        dict(n=2, rt=1.0, r=1.5, c=0.0, delta=0.3, eta=0.1),
        dict(n=2, rt=1.0, r=0.5, c=-0.1, delta=0.3, eta=0.1),
        dict(n=2, rt=1.0, r=0.5, c=0.0, delta=0.0, eta=0.1),
        dict(n=2, rt=1.0, r=0.5, c=0.0, delta=1.0, eta=0.1),
        dict(n=2, rt=1.0, r=0.5, c=0.0, delta=0.3, eta=1.0),
        dict(n=2, rt=1.0, r=0.5, c=0.0, delta=0.3, eta=-0.1),
    ],
)
def test_params_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        CodecParams(seed=0, **kwargs)


def test_codec_json_round_trip(tmp_path):
    p_w = JointPmf.from_table(("W",), np.array([0.5, 0.5]))
    params = CodecParams(n=4, rt=1.0, r=0.5, c=0.5, delta=0.3, eta=0.1, seed=19)
    cb, bn = build_ptp_codec(p_w, params)
    blob = json.dumps(codec_to_dict(params, cb, bn))
    params2, cb2, bn2 = codec_from_dict(json.loads(blob))
    assert params2 == params
    assert np.array_equal(cb2.entries, cb.entries)
    assert cb2.epsilon == cb.epsilon and cb2.w_size == cb.w_size
    assert np.array_equal(bn2.dedup, bn.dedup)
    assert all(np.array_equal(a, b) for a, b in zip(bn2.bins, bn.bins))

    path = tmp_path / "codec.json"
    write_codec(path, params, cb, bn)
    params3, cb3, _ = read_codec(path)
    assert params3 == params and np.array_equal(cb3.entries, cb.entries)
    with pytest.raises(ValueError, match="malformed"):
        codec_from_dict({"params": {}})


@pytest.mark.parametrize("letter", [-1, 2])
def test_codebook_rejects_letters_outside_the_alphabet(letter):
    p_w = JointPmf.from_table(("W",), np.array([0.5, 0.5]))
    params = CodecParams(n=4, rt=1.0, r=0.5, c=0.5, delta=0.3, eta=0.1, seed=19)
    blob = codec_to_dict(params, *build_ptp_codec(p_w, params))
    blob["codebook"]["entries"][0][1][2] = letter
    with pytest.raises(ValueError, match="letters must lie in 0..1"):
        codec_from_dict(blob)
