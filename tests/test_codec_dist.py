"""Tests for the two-encoder distributed synthesis codec."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from corrsynth.budget import BudgetExceededError
from corrsynth.codec_dist import (
    DistBinning,
    DistCodebooks,
    DistCodecParams,
    build_dist_codec,
    dist_induced_joint_exact,
    dist_streamed_tv_deficit,
    sample_dist_binning,
)
from corrsynth.codec_ptp import (
    Codebook,
    CodecParams,
    build_ptp_codec,
    induced_joint_exact,
    product_pmf,
    tv_deficit,
)
from corrsynth.codec_dist import _build_dist_tables
from corrsynth.codec_ptp import _word_products
import corrsynth.codec_dist as codec_dist
import corrsynth.codec_ptp as codec_ptp
from corrsynth.harness import named_instance
from corrsynth.probability import CondPmf, JointPmf
from corrsynth.typicality import enumerate_sequences, pairwise_typical_mask

from _oracles import (
    dist_decode_map,
    dist_encoder_pmf,
    encoder_subpmf,
    half_word_product,
    output_word_law,
    sample_dist_induced,
    split_mu,
)

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
    assert [leg.l_size for leg in params.legs] == [4, 8]
    assert params.m_sizes == (2, 1)  # r2 = 0 collapses encoder 2 to one bin
    assert params.k_sizes == (4, 2)
    assert split_mu(5, params) == (2, 1)  # high bits belong to encoder 1
    assert split_mu(0, params) == (0, 0)
    with pytest.raises(ValueError):
        split_mu(8, params)
    with pytest.raises(ValueError, match="budget"):
        DistCodecParams(
            n=2, rt1=1.0, rt2=1.0, r1=0.5, r2=0.5, c1=1.0, c2=0.6,
            delta=0.3, eta=0.0, seed=0, c_total=1.5,
        )
    # each leg is validated as a CodecParams, its error naming the encoder
    with pytest.raises(ValueError, match="^encoder 1: message rate"):
        DistCodecParams(
            n=2, rt1=1.0, rt2=1.0, r1=1.5, r2=0.5, c1=0.0, c2=0.0,
            delta=0.3, eta=0.0, seed=0,
        )
    with pytest.raises(ValueError, match=r"^encoder 2: message rate must lie in \[0, rt\]"):
        DistCodecParams(
            n=2, rt1=1.0, rt2=1.0, r1=0.5, r2=1.25, c1=0.0, c2=0.0,
            delta=0.3, eta=0.0, seed=0,
        )


@pytest.mark.parametrize("field, value, message", [
    ("n", 0, "blocklength must be >= 1"),
    ("delta", 1.0, "delta must lie in (0,1)"),
    ("eta", 1.0, "eta must lie in [0,1)"),
])
def test_shared_fields_are_checked_once_without_a_leg_prefix(field, value, message):
    """n, delta and eta belong to both encoders, so their errors name neither."""
    kwargs = dict(n=2, rt1=1.0, rt2=1.0, r1=0.5, r2=0.5, c1=0.0, c2=0.0,
                  delta=0.3, eta=0.0, seed=0)
    with pytest.raises(ValueError) as err:
        DistCodecParams(**{**kwargs, field: value})
    assert str(err.value) == f"{message}, got {value}"
    assert "encoder" not in str(err.value)


def test_legs_are_the_single_encoder_params():
    """Leg j is encoder j's CodecParams with the shared n, delta, eta and seed."""
    params = DistCodecParams(
        n=3, rt1=1.0, rt2=1.5, r1=0.5, r2=0.0, c1=1.0, c2=0.25,
        delta=0.3, eta=0.1, seed=7, c_total=1.5,
    )
    assert params.legs == (
        CodecParams(n=3, rt=1.0, r=0.5, c=1.0, delta=0.3, eta=0.1, seed=7),
        CodecParams(n=3, rt=1.5, r=0.0, c=0.25, delta=0.3, eta=0.1, seed=7),
    )
    # the legs are no dataclass field: asdict sees the eleven flat fields only
    assert "legs" not in dataclasses.asdict(params)
    assert len(dataclasses.fields(params)) == 11


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
    pair_law = joint_codeword_law(inst.p_x1x2, inst.p_w1_given_x1, inst.p_w2_given_x2)
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
    assert tv_deficit(target, ind) == pytest.approx(0.0, abs=1e-15)

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
    d = tv_deficit(target_b, ind_b)
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
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_streamed_deficit_equals_tv_of_the_exact_joint(name, n):
    target, args = streamed_case(name, n, seed=n)
    want = tv_deficit(target, dist_induced_joint_exact(*args))
    assert abs(dist_streamed_tv_deficit(target, *args)[0] - want) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_target_slices_are_half_word_products(n):
    """Each source-1 word's target slice is the half-word product bit for bit
    (at n=1 the head half is empty), and within 4 ulp of :func:`product_pmf`'s."""
    target = streamed_case("dist-demo", n, seed=n)[0]
    x1s, x2s = (enumerate_sequences(a.size, n) for a in target.alphabets[:2])
    head = target.table[x1s.T[:, :, None], x2s.T[:, None, :]]
    full = product_pmf(target, n).table
    words = 0
    for c, t in enumerate(_word_products(head, target.alphabets[0].size)):
        assert np.array_equal(t, half_word_product(head, c))
        assert np.all(np.abs(t - full[c]) <= 4 * np.spacing(full[c]))
        words += 1
    assert words == x1s.shape[0]


#: The reference gathers (M₁+1)(M₂+1)|Y|ⁿ output rows per block pair: 128 MB
#: at n=5 on dist-demo, and as much again in tensordot's transposed copy, so
#: the check runs in a child and the test process never holds that much.
_SLICE_CHECK = """
import json, sys
import numpy as np
from _oracles import dist_joint
from corrsynth.codec_dist import _build_dist_tables, _dist_words
from test_codec_dist import streamed_case
worst = {}
for name, n in json.loads(sys.argv[1]):
    tabs = _build_dist_tables(*streamed_case(name, n, seed=n)[1])
    got = np.stack([q.copy() for q in _dist_words(tabs)])
    worst[f"{name} n={n}"] = float(np.abs(got - dist_joint(tabs)).max())
print(json.dumps(worst))
"""


def test_word_slices_match_the_whole_table_contraction():
    """Each source-1 word's slice of the pair-mass law is the gathered contraction's."""
    cases = [*(("dist-demo", n) for n in range(1, 6)), *(("binary", n) for n in range(1, 5))]
    paths = [str(Path(codec_ptp.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    proc = subprocess.run(
        [sys.executable, "-c", _SLICE_CHECK, json.dumps(cases)], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0, proc.stderr
    worst = json.loads(proc.stdout)
    assert len(worst) == len(cases) and max(worst.values()) <= 1e-15, worst


def test_the_two_encoder_deficit_holds_no_gathered_output_rows():
    """On dist-demo at n=5 both entry points peak at no more than 32 MiB, pair mask included."""
    target, args = streamed_case("dist-demo", 5, seed=0)
    for run in (lambda: dist_streamed_tv_deficit(target, *args),
                lambda: dist_induced_joint_exact(*args, budget=2_000_000)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def test_the_two_encoder_tables_peak_below_160_mib_at_n6():
    """On dist-demo at n=6 (K·L = 4,344 indices a leg) the table build peaks
    at no more than 160 MiB traced, against 309 MiB when every index pair
    was tested for typicality."""
    args = streamed_case("dist-demo", 6, seed=0)[1]
    tracemalloc.start()
    try:
        _build_dist_tables(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * 2**20


def test_the_decoder_tests_pair_typicality_on_distinct_words(monkeypatch):
    """The pair-typicality mask is taken over each leg's distinct words (51 of
    them at n=6 on dist-demo), not over its K·L codebook indices; the indices
    read it through their word ids."""
    calls = []

    def spy(seqs_a, seqs_b, table_ab, delta):
        calls.append((seqs_a.shape, seqs_b.shape))
        return pairwise_typical_mask(seqs_a, seqs_b, table_ab, delta)

    args = streamed_case("dist-demo", 6, seed=0)[1]
    books = (args[4].first, args[4].second)
    assert [book.k_size * book.l_size for book in books] == [4344, 4344]
    monkeypatch.setattr(codec_dist, "pairwise_typical_mask", spy)
    _build_dist_tables(*args)
    words = tuple(codec_ptp._word_ids(book.entries.reshape(-1, 6))[1].shape for book in books)
    assert calls == [((51, 6), (51, 6))] == [words]


def test_the_decoder_pair_mask_counts_against_the_budget():
    """The decoder's (K₁L₁) × (K₂L₂) pair-typicality mask is refused before it is built."""
    inst = named_instance("dist-demo")
    params = DistCodecParams(n=3, rt1=1.75, rt2=1.75, r1=0.0, r2=0.0, c1=0.0, c2=0.0,
                             delta=0.5, eta=0.45, seed=0)
    assert [leg.l_size for leg in params.legs] == [38, 38] and params.k_sizes == (1, 1)
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
