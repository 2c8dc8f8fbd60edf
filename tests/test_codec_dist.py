"""Tests for the two-encoder distributed synthesis codec."""

import itertools
import json
import math

import numpy as np
import pytest

from corrsynth.budget import BudgetExceededError
from corrsynth.codec_dist import (
    DistBinning,
    DistCodebooks,
    DistCodecParams,
    build_dist_codec,
    dist_codec_from_dict,
    dist_codec_to_dict,
    dist_induced_joint_exact,
    dist_streamed_tv_deficit,
    dist_tv_deficit,
    read_dist_codec,
    sample_dist_binning,
    sample_dist_induced,
    write_dist_codec,
)
from corrsynth.codec_ptp import (
    Codebook,
    CodecParams,
    build_ptp_codec,
    induced_joint_exact,
    product_pmf,
)
from corrsynth.codec_dist import _build_dist_tables
import corrsynth.codec_ptp as codec_ptp
from corrsynth.harness import named_instance
from corrsynth.probability import CondPmf, JointPmf

from _oracles import dist_decode_map, dist_encoder_pmf, encoder_subpmf, output_word_law, split_mu

rng = np.random.default_rng(20260816)


def correlated_binary_instance(generator, n, seed, delta=0.3):
    """Two correlated binary sources with copy couplings into the codewords."""
    t = generator.uniform(0.05, 0.2)
    p_x1x2 = JointPmf.from_table(
        ("X1", "X2"), np.array([[0.5 - t, t], [t, 0.5 - t]])
    )
    p_w1_given_x1 = CondPmf.from_rows(("X1",), (2,), ("W1",), (2,), np.eye(2))
    p_w2_given_x2 = CondPmf.from_rows(("X2",), (2,), ("W2",), (2,), np.eye(2))
    chan = generator.gamma(1.0, size=(2, 2, 2)) + 0.1
    chan /= chan.sum(axis=-1, keepdims=True)
    p_y_given_w1w2 = CondPmf.from_rows(("W1", "W2"), (2, 2), ("Y",), (2,), chan)
    params = DistCodecParams(
        n=n, rt1=1.0, rt2=1.0, r1=0.5, r2=0.5, c1=0.5, c2=0.5,
        delta=delta, eta=0.1, seed=seed,
    )
    return p_x1x2, p_w1_given_x1, p_w2_given_x2, p_y_given_w1w2, params


def joint_codeword_law(p_x1x2, p_w1_given_x1, p_w2_given_x2):
    return JointPmf.from_table(
        ("W1", "W2"),
        np.einsum("ab,aw,bv->wv", p_x1x2.table, p_w1_given_x1.table, p_w2_given_x2.table),
    )


# --------------------------------------------------------------------------
# parameters and sampling plumbing
# --------------------------------------------------------------------------


def test_params_sizes_split_and_validation():
    params = DistCodecParams(
        n=2, rt1=1.0, rt2=1.5, r1=0.5, r2=0.0, c1=1.0, c2=0.5,
        delta=0.3, eta=0.0, seed=0, c_total=1.5,
    )
    assert params.l_sizes == (4, 8)
    assert params.m_sizes == (2, 1)  # r2 = 0 collapses encoder 2 to one bin
    assert params.k_sizes == (4, 2) and params.k_size == 8
    eff = params.effective_rates()
    assert eff["rt2"] == pytest.approx(1.5) and eff["r2"] == 0.0
    assert params.leg(1) == (1.0, 0.5, 1.0)
    assert split_mu(5, params) == (2, 1)  # high bits belong to encoder 1
    assert split_mu(0, params) == (0, 0)
    with pytest.raises(ValueError):
        split_mu(8, params)
    with pytest.raises(ValueError):
        params.leg(3)
    with pytest.raises(ValueError, match="budget"):
        DistCodecParams(
            n=2, rt1=1.0, rt2=1.0, r1=0.5, r2=0.5, c1=1.0, c2=0.6,
            delta=0.3, eta=0.0, seed=0, c_total=1.5,
        )
    with pytest.raises(ValueError):
        DistCodecParams(
            n=2, rt1=1.0, rt2=1.0, r1=1.5, r2=0.5, c1=0.0, c2=0.0,
            delta=0.3, eta=0.0, seed=0,
        )


def test_build_codec_streams_are_reproducible_and_independent():
    p_x1x2, p_w1x1, p_w2x2, _, params = correlated_binary_instance(
        np.random.default_rng(1), 2, seed=17
    )
    p_w1 = JointPmf.from_table(("W1",), p_x1x2.table.sum(axis=1))
    p_w2 = JointPmf.from_table(("W2",), p_x1x2.table.sum(axis=0))
    books_a, bins_a = build_dist_codec(p_w1, p_w2, params)
    books_b, bins_b = build_dist_codec(p_w1, p_w2, params)
    assert np.array_equal(books_a.first.entries, books_b.first.entries)
    assert np.array_equal(books_a.second.entries, books_b.second.entries)
    assert np.array_equal(bins_a[0].labels, bins_b[0].labels)
    assert np.array_equal(bins_a[1].labels, bins_b[1].labels)
    # the two codebooks use distinct derived streams even for identical laws
    assert not np.array_equal(books_a.first.entries, books_a.second.entries)
    assert books_a.epsilon == min(books_a.first.epsilon, books_a.second.epsilon)
    with pytest.raises(ValueError):
        books_a.book(0)


def test_binning_is_per_index_without_dedup():
    entries = np.array([[[0, 1], [0, 1], [1, 0]]])  # duplicate codeword at l=0,1
    cb = Codebook(entries=entries, epsilon=0.5, w_size=2)
    bn = sample_dist_binning(cb, 4, np.random.default_rng(3))
    assert bn.labels.shape == (1, 3)
    assert bn.labels.min() >= 1 and bn.labels.max() <= 4
    with pytest.raises(ValueError, match="1..M"):
        DistBinning(labels=np.array([[0, 1]]), m_size=2)


# --------------------------------------------------------------------------
# encoders
# --------------------------------------------------------------------------


def test_encoder_pmf_handles_atypical_oversubscribed_and_valid_inputs():
    p_joint_xw = JointPmf.from_table(("X1", "W1"), np.full((2, 2), 0.25))
    params = DistCodecParams(
        n=4, rt1=1.0, rt2=1.0, r1=0.5, r2=0.5, c1=0.0, c2=0.0,
        delta=0.3, eta=0.1, seed=4,
    )
    p_w = JointPmf.from_table(("W1",), np.array([0.5, 0.5]))
    books, bins = build_dist_codec(p_w, p_w, params)

    atypical = dist_encoder_pmf(1, np.zeros(4, int), 0, books, bins[0], p_joint_xw, params)
    assert atypical[0] == 1.0 and not atypical[1:].any()

    x = np.array([0, 1, 0, 1])
    valid = dist_encoder_pmf(1, x, 0, books, bins[0], p_joint_xw, params)
    assert math.fsum(valid) == 1.0
    assert np.all(valid >= 0)

    # oversubscribed: identity coupling with every codeword equal to x
    diag = JointPmf.from_table(("X1", "W1"), np.diag([0.5, 0.5]))
    stuffed = DistCodebooks(
        first=Codebook(entries=np.tile(x, (1, 16, 1)), epsilon=0.625, w_size=2),
        second=books.second,
    )
    over = dist_encoder_pmf(1, x, 0, stuffed, bins[0], diag, params)
    assert over[0] == 1.0 and not over[1:].any()


def test_encoder_pmf_matches_single_encoder_weights():
    """Encoder j is the single-encoder sub-PMF pushed through literal bins."""
    p_x1x2, p_w1x1, p_w2x2, _, params = correlated_binary_instance(
        np.random.default_rng(2), 2, seed=23
    )
    p_w1 = JointPmf.from_table(("W1",), p_x1x2.table.sum(axis=1))
    p_w2 = JointPmf.from_table(("W2",), p_x1x2.table.sum(axis=0))
    books, bins = build_dist_codec(p_w1, p_w2, params)
    p_joint = JointPmf.from_table(("X1", "W1"), np.diag(p_x1x2.table.sum(axis=1)))
    leg = CodecParams(
        n=2, rt=params.rt1, r=params.r1, c=params.c1,
        delta=params.delta, eta=params.eta, seed=params.seed,
    )
    for x in itertools.product(range(2), repeat=2):
        for mu in range(params.k_sizes[0]):
            msg = dist_encoder_pmf(1, np.array(x), mu, books, bins[0], p_joint, params)
            enc = encoder_subpmf(np.array(x), mu, books.first, p_joint, leg)
            want = np.zeros(bins[0].m_size + 1)
            if enc.valid:
                for l, w in enumerate(enc.weights[1:]):
                    want[bins[0].labels[mu][l]] += w
                want[0] = 1.0 - want[1:].sum()
            else:
                want[0] = 1.0
            np.testing.assert_allclose(msg, want, atol=1e-15)


# --------------------------------------------------------------------------
# pair decoder
# --------------------------------------------------------------------------


def _decoder_fixture(labels1, labels2):
    words1 = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
    words2 = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])
    books = DistCodebooks(
        first=Codebook(entries=words1[None], epsilon=0.6, w_size=2),
        second=Codebook(entries=words2[None], epsilon=0.6, w_size=2),
    )
    binnings = (
        DistBinning(labels=np.array([labels1]), m_size=2),
        DistBinning(labels=np.array([labels2]), m_size=2),
    )
    params = DistCodecParams(
        n=4, rt1=0.25, rt2=0.25, r1=0.25, r2=0.25, c1=0.0, c2=0.0,
        delta=0.3, eta=0.1, seed=0,
    )
    return books, binnings, params


def test_decode_pair_unique_empty_and_fallback_cases():
    books, binnings, params = _decoder_fixture([1, 2], [1, 2])
    uniform = JointPmf.from_table(("W1", "W2"), np.full((2, 2), 0.25))
    fallback = np.zeros(4, int)

    w1, w2 = dist_decode_map(1, 1, 0, books, binnings, uniform, params)
    np.testing.assert_array_equal(w1, [0, 0, 1, 1])
    np.testing.assert_array_equal(w2, [0, 1, 0, 1])

    # (A, D) are equal sequences: their pair counts are off-diagonal-free,
    # which the uniform pair law rejects -> empty candidate set
    for m1, m2 in [(1, 2), (2, 1)]:
        w1, w2 = dist_decode_map(m1, m2, 0, books, binnings, uniform, params)
        np.testing.assert_array_equal(w1, fallback)
        np.testing.assert_array_equal(w2, fallback)

    for m1, m2 in [(0, 1), (1, 0), (0, 0)]:
        w1, w2 = dist_decode_map(m1, m2, 0, books, binnings, uniform, params)
        np.testing.assert_array_equal(w1, fallback)
    with pytest.raises(ValueError):
        dist_decode_map(3, 1, 0, books, binnings, uniform, params)


def test_decode_two_valid_pairs_fall_back():
    books, binnings, params = _decoder_fixture([1, 1], [1, 1])
    uniform = JointPmf.from_table(("W1", "W2"), np.full((2, 2), 0.25))
    w1, w2 = dist_decode_map(1, 1, 0, books, binnings, uniform, params)
    np.testing.assert_array_equal(w1, np.zeros(4, int))
    np.testing.assert_array_equal(w2, np.zeros(4, int))


def test_decode_duplicates_multi_count_in_the_candidate_set():
    """Literal per-index binning: a duplicated codeword pair is |D| = 2 even
    though only one distinct pair exists."""
    word = np.array([0, 0, 1, 1])
    mate = np.array([0, 1, 0, 1])
    books = DistCodebooks(
        first=Codebook(entries=np.tile(word, (1, 2, 1)), epsilon=0.6, w_size=2),
        second=Codebook(entries=mate[None, None, :], epsilon=0.6, w_size=2),
    )
    binnings = (
        DistBinning(labels=np.array([[1, 1]]), m_size=1),
        DistBinning(labels=np.array([[1]]), m_size=1),
    )
    params = DistCodecParams(
        n=4, rt1=0.25, rt2=1e-9, r1=1e-9, r2=1e-9, c1=0.0, c2=0.0,
        delta=0.3, eta=0.1, seed=0,
    )
    uniform = JointPmf.from_table(("W1", "W2"), np.full((2, 2), 0.25))
    w1, _ = dist_decode_map(1, 1, 0, books, binnings, uniform, params)
    np.testing.assert_array_equal(w1, np.zeros(4, int))


def test_decode_joint_typicality_uses_the_pair_law():
    books, binnings, params = _decoder_fixture([1, 2], [1, 2])
    copy_law = JointPmf.from_table(("W1", "W2"), np.diag([0.5, 0.5]))
    # under the copy law only equal balanced pairs pass: (B, C) = (0101, 0101)
    w1, w2 = dist_decode_map(2, 1, 0, books, binnings, copy_law, params)
    np.testing.assert_array_equal(w1, [0, 1, 0, 1])
    np.testing.assert_array_equal(w2, [0, 1, 0, 1])
    w1, _ = dist_decode_map(1, 1, 0, books, binnings, copy_law, params)
    np.testing.assert_array_equal(w1, np.zeros(4, int))


# --------------------------------------------------------------------------
# exact induced law
# --------------------------------------------------------------------------


def test_induced_joint_single_cell_closed_form():
    ones = np.ones((1, 1))
    p_x1x2 = JointPmf.from_table(("X1", "X2"), ones)
    p_w1 = CondPmf.from_rows(("X1",), (1,), ("W1",), (1,), ones)
    p_w2 = CondPmf.from_rows(("X2",), (1,), ("W2",), (1,), ones)
    p_y = CondPmf.from_rows(("W1", "W2"), (1, 1), ("Y",), (1,), np.ones((1, 1, 1)))
    params = DistCodecParams(
        n=1, rt1=1e-9, rt2=1e-9, r1=1e-9, r2=1e-9, c1=0.0, c2=0.0,
        delta=0.5, eta=0.0, seed=0,
    )
    books, bins = build_dist_codec(
        JointPmf.from_table(("W1",), np.ones(1)), JointPmf.from_table(("W2",), np.ones(1)), params
    )
    ind = dist_induced_joint_exact(p_x1x2, p_w1, p_w2, p_y, books, bins, params)
    assert ind.table.shape == (1, 1, 1)
    assert ind.table[0, 0, 0] == 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_induced_joint_preserves_source_word_law(n):
    generator = np.random.default_rng(40 + n)
    for seed in range(4):
        p_x1x2, p_w1x1, p_w2x2, p_y, _ = correlated_binary_instance(generator, n, seed)
        delta = 0.5 if n == 3 else 0.3
        params = DistCodecParams(
            n=n, rt1=1.0, rt2=1.0, r1=0.5, r2=0.5, c1=0.5, c2=0.5,
            delta=delta, eta=0.1, seed=seed,
        )
        p_w1 = JointPmf.from_table(("W1",), p_x1x2.table.sum(axis=1))
        p_w2 = JointPmf.from_table(("W2",), p_x1x2.table.sum(axis=0))
        books, bins = build_dist_codec(p_w1, p_w2, params, allow_degenerate=True)
        if n == 1:
            assert books.first.degenerate and books.second.degenerate
        ind = dist_induced_joint_exact(p_x1x2, p_w1x1, p_w2x2, p_y, books, bins, params)
        marg = ind.marginalize((ind.names[0], ind.names[1]))
        target = product_pmf(p_x1x2, n)
        assert np.abs(marg.table - target.table).max() < 1e-12


def binary_codec(generator_seed, codec_seed):
    """Codec on a correlated binary instance (n=2); it never decodes a pair."""
    generator = np.random.default_rng(generator_seed)
    p_x1x2, p_w1x1, p_w2x2, p_y, params = correlated_binary_instance(generator, 2, seed=codec_seed)
    p_w1 = JointPmf.from_table(("W1",), p_x1x2.table.sum(axis=1))
    p_w2 = JointPmf.from_table(("W2",), p_x1x2.table.sum(axis=0))
    books, bins = build_dist_codec(p_w1, p_w2, params)
    return p_x1x2, p_w1x1, p_w2x2, p_y, params, books, bins


def dist_demo_codec():
    """Codec on dist-demo (n=2) whose messages reach decoded codeword pairs (checked)."""
    inst = named_instance("dist-demo")
    params = DistCodecParams(
        n=2, rt1=1.5, rt2=1.5, r1=1.0, r2=1.0, c1=0.5, c2=0.5, delta=0.5, eta=0.45, seed=2
    )
    books, bins = build_dist_codec(inst.p_w1(), inst.p_w2(), params)
    args = (inst.p_x1x2, inst.p_w1_given_x1, inst.p_w2_given_x2, inst.p_y_given_w1w2)
    tabs = _build_dist_tables(*args, books, bins, params)
    reached = np.einsum(
        "kam,lbn,klmn,ab->", tabs.messages1, tabs.messages2, tabs.decoded > 0, tabs.p_x_words
    )
    assert reached > 0, "some source mass must decode to a codeword pair"
    return (*args, params, books, bins)


@pytest.mark.parametrize(
    "codec",
    [
        pytest.param(lambda: binary_codec(44, 3), id="binary"),
        pytest.param(dist_demo_codec, id="dist-demo"),
    ],
)
def test_induced_joint_recomposes_from_scalar_factors(codec):
    """Definition-level factorization: encoder 1 law x encoder 2 law x the
    decoded channel row, summed over blocks and messages."""
    p_x1x2, p_w1x1, p_w2x2, p_y, params, books, bins = codec()
    ind = dist_induced_joint_exact(p_x1x2, p_w1x1, p_w2x2, p_y, books, bins, params)

    j1 = JointPmf.from_table(("X1", "W1"), p_x1x2.table.sum(axis=1)[:, None] * p_w1x1.table)
    j2 = JointPmf.from_table(("X2", "W2"), p_x1x2.table.sum(axis=0)[:, None] * p_w2x2.table)
    pair_law = joint_codeword_law(p_x1x2, p_w1x1, p_w2x2)
    (k1, k2), (m1, m2) = params.k_sizes, params.m_sizes
    n = params.n
    (nx1, nx2), ny = p_x1x2.table.shape, p_y.table.shape[-1]
    want = np.zeros_like(ind.table)
    for x1i, x1 in enumerate(itertools.product(range(nx1), repeat=n)):
        for x2i, x2 in enumerate(itertools.product(range(nx2), repeat=n)):
            p_src = float(np.prod([p_x1x2.table[a, b] for a, b in zip(x1, x2)]))
            for mu1 in range(k1):
                msg1 = dist_encoder_pmf(1, np.array(x1), mu1, books, bins[0], j1, params)
                for mu2 in range(k2):
                    msg2 = dist_encoder_pmf(2, np.array(x2), mu2, books, bins[1], j2, params)
                    for mm1 in range(m1 + 1):
                        for mm2 in range(m2 + 1):
                            w1, w2 = dist_decode_map(
                                mm1, mm2, mu1 * k2 + mu2, books, bins, pair_law, params
                            )
                            for yi, y in enumerate(itertools.product(range(ny), repeat=n)):
                                p_out = float(
                                    np.prod(
                                        [p_y.table[a, b, c] for a, b, c in zip(w1, w2, y)]
                                    )
                                )
                                want[x1i, x2i, yi] += (
                                    p_src * msg1[mm1] * msg2[mm2] * p_out / (k1 * k2)
                                )
    np.testing.assert_allclose(ind.table, want, atol=1e-13)


@pytest.mark.parametrize("seed", [0, 1])
def test_output_rows_match_per_cell_oracle(seed):
    """Every (μ, m1, m2) cell's output row is the per-cell product at the
    pair the scalar decoder picks, and each decoded pair has one row."""
    inst = named_instance("dist-demo")
    params = DistCodecParams(
        n=3, rt1=1.75, rt2=1.75, r1=1.0, r2=1.0, c1=0.25, c2=0.25,
        delta=0.5, eta=0.45, seed=seed,
    )
    books, bins = build_dist_codec(inst.p_w1(), inst.p_w2(), params)
    tabs = _build_dist_tables(
        inst.p_x1x2, inst.p_w1_given_x1, inst.p_w2_given_x2, inst.p_y_given_w1w2,
        books, bins, params,
    )
    assert 0 < np.count_nonzero(tabs.decoded) < tabs.decoded.size
    pair_law = inst.pair_law()
    chan = inst.p_y_given_w1w2.table
    (k1, k2), (m1, m2) = params.k_sizes, params.m_sizes
    words = list(itertools.product(range(chan.shape[2]), repeat=params.n))
    pairs = {}
    for mu1, mu2, mm1, mm2 in itertools.product(range(k1), range(k2), range(m1 + 1), range(m2 + 1)):
        w1, w2 = dist_decode_map(mm1, mm2, mu1 * k2 + mu2, books, bins, pair_law, params)
        row = tabs.decoded[mu1, mu2, mm1, mm2]
        want = [output_word_law(chan, w1, w2, y) for y in words]
        np.testing.assert_array_equal(tabs.y_rows[row], want)
        assert pairs.setdefault((tuple(w1), tuple(w2)), row) == row
    assert sorted(pairs.values()) == list(range(tabs.y_rows.shape[0]))


@pytest.mark.parametrize(
    "codec",
    [
        pytest.param(lambda: binary_codec(45, 6), id="binary"),
        pytest.param(dist_demo_codec, id="dist-demo"),
    ],
)
def test_induced_joint_matches_end_to_end_sampling(codec):
    p_x1x2, p_w1x1, p_w2x2, p_y, params, books, bins = codec()
    ind = dist_induced_joint_exact(p_x1x2, p_w1x1, p_w2x2, p_y, books, bins, params)
    x1s, x2s, ys = sample_dist_induced(
        p_x1x2, p_w1x1, p_w2x2, p_y, books, bins, params, 200_000, np.random.default_rng(10)
    )
    emp = np.zeros_like(ind.table)
    np.add.at(emp, (x1s, x2s, ys), 1.0)
    emp /= emp.sum()
    assert 0.5 * np.abs(emp - ind.table).sum() < 0.02


def test_induced_joint_budget_guard():
    generator = np.random.default_rng(46)
    p_x1x2, p_w1x1, p_w2x2, p_y, params = correlated_binary_instance(generator, 2, seed=7)
    p_w1 = JointPmf.from_table(("W1",), p_x1x2.table.sum(axis=1))
    p_w2 = JointPmf.from_table(("W2",), p_x1x2.table.sum(axis=0))
    books, bins = build_dist_codec(p_w1, p_w2, params)
    with pytest.raises(BudgetExceededError):
        dist_induced_joint_exact(p_x1x2, p_w1x1, p_w2x2, p_y, books, bins, params, budget=5)


# --------------------------------------------------------------------------
# reduction to the single-encoder pipeline
# --------------------------------------------------------------------------


def reduction_pair(seed):
    """Matched single-encoder and degenerate-second-leg systems."""
    n, rt1, r1, c1, delta = 6, 0.34, 0.2, 1 / 6, 1 / 3
    t = 0.05 + 0.015 * (seed % 10)
    p_x = np.array([0.5 - t, 0.5 + t])
    y_tab = np.random.default_rng(seed).gamma(1.0, size=(2, 2)) + 0.1
    y_tab /= y_tab.sum(axis=1, keepdims=True)

    p_xz = JointPmf.from_table(("X", "Z"), p_x[:, None], alphabets=(2, 1))
    p_w_given_x = CondPmf.from_rows(("X",), (2,), ("W",), (2,), np.eye(2))
    p_y_given_zw = CondPmf.from_rows(("Z", "W"), (1, 2), ("Y",), (2,), y_tab[None, :, :])
    ptp_params = CodecParams(n=n, rt=rt1, r=r1, c=c1, delta=delta, eta=0.0, seed=seed)

    p_x1x2 = JointPmf.from_table(("X1", "X2"), p_x[:, None], alphabets=(2, 1))
    p_w1x1 = CondPmf.from_rows(("X1",), (2,), ("W1",), (2,), np.eye(2))
    p_w2x2 = CondPmf.from_rows(("X2",), (1,), ("W2",), (1,), np.ones((1, 1)))
    p_y_w1w2 = CondPmf.from_rows(("W1", "W2"), (2, 1), ("Y",), (2,), y_tab[:, None, :])
    dist_params = DistCodecParams(
        n=n, rt1=rt1, rt2=1e-9, r1=r1, r2=0.0, c1=c1, c2=0.0,
        delta=delta, eta=0.0, seed=seed,
    )
    return (
        (p_xz, p_w_given_x, p_y_given_zw, ptp_params, p_x),
        (p_x1x2, p_w1x1, p_w2x2, p_y_w1w2, dist_params),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degenerate_second_leg_reduces_to_single_encoder(seed):
    (p_xz, p_w_given_x, p_y_given_zw, ptp_params, p_x), dist_side = reduction_pair(seed)
    p_x1x2, p_w1x1, p_w2x2, p_y_w1w2, dist_params = dist_side
    cb, bn = build_ptp_codec(JointPmf.from_table(("W",), p_x), ptp_params)
    assert all(
        len({tuple(w) for w in cb.entries[mu]}) == cb.l_size for mu in range(cb.k_size)
    ), "reduction instances are screened to draw duplicate-free codebooks"
    ptp_ind = induced_joint_exact(p_xz, p_w_given_x, p_y_given_zw, cb, bn, ptp_params)
    books, bins = build_dist_codec(
        JointPmf.from_table(("W1",), p_x), JointPmf.from_table(("W2",), np.ones(1)), dist_params
    )
    assert np.array_equal(books.first.entries, cb.entries)
    dist_ind = dist_induced_joint_exact(
        p_x1x2, p_w1x1, p_w2x2, p_y_w1w2, books, bins, dist_params
    )
    assert np.abs(dist_ind.table[:, 0, :] - ptp_ind.table[:, :, 0]).max() < 1e-12


# --------------------------------------------------------------------------
# deficit and serialization
# --------------------------------------------------------------------------


def test_tv_deficit_trivial_and_fallback_instances():
    # matched single-cell instance: zero deficit
    ones = np.ones((1, 1))
    p_x1x2 = JointPmf.from_table(("X1", "X2"), ones)
    p_w1 = CondPmf.from_rows(("X1",), (1,), ("W1",), (1,), ones)
    p_w2 = CondPmf.from_rows(("X2",), (1,), ("W2",), (1,), ones)
    p_y = CondPmf.from_rows(("W1", "W2"), (1, 1), ("Y",), (2,), np.full((1, 1, 2), 0.5))
    params = DistCodecParams(
        n=2, rt1=1e-9, rt2=1e-9, r1=1e-9, r2=1e-9, c1=0.0, c2=0.0,
        delta=0.5, eta=0.0, seed=0,
    )
    books, bins = build_dist_codec(
        JointPmf.from_table(("W1",), np.ones(1)), JointPmf.from_table(("W2",), np.ones(1)), params
    )
    ind = dist_induced_joint_exact(p_x1x2, p_w1, p_w2, p_y, books, bins, params)
    target = JointPmf.from_table(
        ("X1", "X2", "Y"), np.einsum("ab,y->aby", ones, [0.5, 0.5])
    )
    assert dist_tv_deficit(target, ind) == pytest.approx(0.0, abs=1e-15)

    # fallback-only system (degenerate books): TV computable directly
    generator = np.random.default_rng(48)
    p_x1x2b, p_w1b, p_w2b, p_yb, _ = correlated_binary_instance(generator, 1, seed=9)
    params_b = DistCodecParams(
        n=1, rt1=1.0, rt2=1.0, r1=0.5, r2=0.5, c1=0.0, c2=0.0,
        delta=0.3, eta=0.1, seed=9,
    )
    books_b, bins_b = build_dist_codec(
        JointPmf.from_table(("W1",), p_x1x2b.table.sum(axis=1)),
        JointPmf.from_table(("W2",), p_x1x2b.table.sum(axis=0)),
        params_b, allow_degenerate=True,
    )
    ind_b = dist_induced_joint_exact(p_x1x2b, p_w1b, p_w2b, p_yb, books_b, bins_b, params_b)
    target_b = JointPmf.from_table(
        ("X1", "X2", "Y"),
        np.einsum("ab,aw,bv,wvy->aby", p_x1x2b.table, np.eye(2), np.eye(2), p_yb.table),
    )
    d = dist_tv_deficit(target_b, ind_b)
    # every decode falls back to the first-symbol pair, so Y follows that row
    direct = 0.5 * float(
        np.abs(target_b.table - p_x1x2b.table[:, :, None] * p_yb.table[0, 0]).sum()
    )
    assert d == pytest.approx(direct, abs=1e-14)
    assert 0 <= d <= 1


def streamed_case(name, n, seed):
    """(target, codec args) on dist-demo or the correlated binary instance."""
    if name == "dist-demo":
        inst = named_instance("dist-demo")
        args = (inst.p_x1x2, inst.p_w1_given_x1, inst.p_w2_given_x2, inst.p_y_given_w1w2)
        params = DistCodecParams(
            n=n, rt1=1.75, rt2=1.75, r1=1.6, r2=1.6, c1=0.25, c2=0.25,
            delta=0.5, eta=0.45, seed=seed,
        )
    else:
        *args, params = correlated_binary_instance(np.random.default_rng(seed), n, seed, delta=0.5)
    p_x1x2, p_w1x1, p_w2x2, p_y = args
    p_w1 = JointPmf.from_table(("W1",), np.einsum("ab,aw->w", p_x1x2.table, p_w1x1.table))
    p_w2 = JointPmf.from_table(("W2",), np.einsum("ab,bv->v", p_x1x2.table, p_w2x2.table))
    target = JointPmf.from_table(("X1", "X2", "Y"), np.einsum(
        "ab,aw,bv,wvy->aby", p_x1x2.table, p_w1x1.table, p_w2x2.table, p_y.table
    ))
    books, bins = build_dist_codec(p_w1, p_w2, params, allow_degenerate=True)
    return target, (*args, books, bins, params)


@pytest.mark.parametrize("name", ["dist-demo", "binary"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_streamed_deficit_equals_tv_of_the_exact_joint(name, n, monkeypatch):
    target, args = streamed_case(name, n, seed=n)
    want = dist_tv_deficit(target, dist_induced_joint_exact(*args))
    assert abs(dist_streamed_tv_deficit(target, *args)[0] - want) <= 1e-12
    monkeypatch.setattr(codec_ptp, "STREAM_CHUNK_CELLS", 1)  # one source-1 word per chunk
    assert abs(dist_streamed_tv_deficit(target, *args)[0] - want) <= 1e-12


def test_the_decoder_pair_mask_counts_against_the_budget():
    """The decoder's (K₁L₁) × (K₂L₂) pair-typicality mask is refused before it is built."""
    inst = named_instance("dist-demo")
    params = DistCodecParams(n=3, rt1=1.75, rt2=1.75, r1=0.0, r2=0.0, c1=0.0, c2=0.0,
                             delta=0.5, eta=0.45, seed=0)
    assert params.l_sizes == (38, 38) and params.k_sizes == (1, 1)
    books, bins = build_dist_codec(inst.p_w1(), inst.p_w2(), params)
    args = (inst.p_x1x2, inst.p_w1_given_x1, inst.p_w2_given_x2, inst.p_y_given_w1w2, books, bins, params)
    with pytest.raises(BudgetExceededError, match="message and decoder tables needs 1444 "):
        _build_dist_tables(*args, budget=1_000)
    _build_dist_tables(*args, budget=38 * 38)


def test_streamed_deficit_checks_the_total_mass(monkeypatch):
    target, args = streamed_case("dist-demo", 2, seed=2)
    message_table = codec_ptp._message_table
    monkeypatch.setattr(codec_ptp, "_message_table", lambda *a: (2.0 * message_table(*a)[0], True))
    with pytest.raises(ArithmeticError, match="induced law sums to"):
        dist_streamed_tv_deficit(target, *args)


def test_a_nan_induced_law_fails_the_total_mass_check(monkeypatch):
    target, args = streamed_case("dist-demo", 2, seed=2)
    message_table = codec_ptp._message_table
    monkeypatch.setattr(codec_ptp, "_message_table", lambda *a: (np.nan * message_table(*a)[0], True))
    with pytest.raises(ArithmeticError, match="induced law sums to nan"):
        dist_streamed_tv_deficit(target, *args)
    with pytest.raises(ArithmeticError, match="induced law sums to nan"):
        dist_induced_joint_exact(*args)


def test_dist_codec_json_round_trip(tmp_path):
    generator = np.random.default_rng(49)
    p_x1x2, *_rest, params = correlated_binary_instance(generator, 2, seed=12)
    p_w1 = JointPmf.from_table(("W1",), p_x1x2.table.sum(axis=1))
    p_w2 = JointPmf.from_table(("W2",), p_x1x2.table.sum(axis=0))
    books, bins = build_dist_codec(p_w1, p_w2, params)
    blob = json.dumps(dist_codec_to_dict(params, books, bins))
    params2, books2, bins2 = dist_codec_from_dict(json.loads(blob))
    assert params2 == params
    assert np.array_equal(books2.first.entries, books.first.entries)
    assert np.array_equal(books2.second.entries, books.second.entries)
    assert np.array_equal(bins2[0].labels, bins[0].labels)
    assert np.array_equal(bins2[1].labels, bins[1].labels)
    path = tmp_path / "dist_codec.json"
    write_dist_codec(path, params, books, bins)
    params3, books3, _ = read_dist_codec(path)
    assert params3 == params and np.array_equal(books3.second.entries, books.second.entries)
    with pytest.raises(ValueError, match="malformed"):
        dist_codec_from_dict({"params": {}})


@pytest.mark.parametrize("key", ["codebooks", "binnings"])
@pytest.mark.parametrize("count", [1, 3])
def test_dist_codec_spec_needs_exactly_two_codebooks_and_binnings(key, count):
    generator = np.random.default_rng(49)
    p_x1x2, *_rest, params = correlated_binary_instance(generator, 2, seed=12)
    p_w1 = JointPmf.from_table(("W1",), p_x1x2.table.sum(axis=1))
    p_w2 = JointPmf.from_table(("W2",), p_x1x2.table.sum(axis=0))
    spec = dist_codec_to_dict(params, *build_dist_codec(p_w1, p_w2, params))
    spec[key] = (spec[key] * 2)[:count]
    with pytest.raises(ValueError, match="malformed"):
        dist_codec_from_dict(spec)
