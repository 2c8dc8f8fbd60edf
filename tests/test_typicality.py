import numpy as np
import pytest

from corrsynth.budget import BudgetExceededError
from corrsynth.probability import JointPmf
from corrsynth.typicality import (
    enumerate_sequences,
    marginal_typical_mask,
    pairwise_typical_mask,
    typical_set,
)

from _oracles import is_typical


def coin():
    return JointPmf.from_table(("W",), [0.5, 0.5])


def test_single_letter_point_mass():
    p = JointPmf.from_table(("X",), [1.0, 0.0])
    assert is_typical(np.array([0]), p, 0.5)
    assert not is_typical(np.array([1]), p, 0.5)


def test_zero_probability_letter_never_typical():
    p = JointPmf.from_table(("X",), [0.5, 0.5, 0.0])
    assert not is_typical(np.array([0, 2, 1, 0]), p, 0.9)


def test_fair_coin_n4_delta03_exact_set():
    # hand enumeration: only balanced words pass |freq - 1/2| <= 0.15
    T = typical_set(coin(), 4, 0.3)
    expected = [
        [0, 0, 1, 1],
        [0, 1, 0, 1],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 1, 0],
        [1, 1, 0, 0],
    ]
    assert T.tolist() == expected


def test_is_typical_agrees_with_enumeration():
    p = JointPmf.from_table(("X",), [0.7, 0.3])
    T = {tuple(w) for w in typical_set(p, 5, 0.4)}
    for w in enumerate_sequences(2, 5):
        assert is_typical(w, p, 0.4) == (tuple(w) in T)


def test_joint_typicality_uses_joint_cells():
    # X = W exactly: only aligned, balanced pairs are jointly typical
    t = np.array([[0.5, 0.0], [0.0, 0.5]])
    p = JointPmf.from_table(("X", "W"), t)
    x = np.array([0, 1, 0, 1])
    assert is_typical({"X": x, "W": x}, p, 0.3)
    assert not is_typical({"X": x, "W": 1 - x}, p, 0.3)
    assert not is_typical({"X": np.zeros(4, int), "W": np.zeros(4, int)}, p, 0.3)


def test_typicality_mass_monotone_in_delta():
    # exhaustive check at small n: the typical set grows with delta, so
    # its mass does too
    for p in ([0.5, 0.5], [0.8, 0.2], [0.5, 0.25, 0.25]):
        pmf = JointPmf.from_table(("X",), p)
        for n in range(1, 7):
            sets = [{tuple(w) for w in typical_set(pmf, n, d)} for d in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert all(a <= b for a, b in zip(sets, sets[1:]))


def test_pairwise_mask_matches_is_typical():
    g = np.random.default_rng(3)
    t = g.random((2, 3))
    t /= t.sum()
    p = JointPmf.from_table(("A", "B"), t)
    sa = enumerate_sequences(2, 4)
    sb = enumerate_sequences(3, 4)
    mask = pairwise_typical_mask(sa, sb, t, 0.6)
    for i in (0, 5, 9, 15):
        for j in (0, 17, 44, 80):
            assert mask[i, j] == is_typical({"A": sa[i], "B": sb[j]}, p, 0.6)


def test_cond_typical_set_consistency():
    t = np.array([[0.5, 0.0], [0.0, 0.5]])
    pair = JointPmf.from_table(("X", "W"), t)
    x = np.array([0, 1, 1, 0])
    # the W-words jointly typical with x, against every word as a candidate
    words = enumerate_sequences(2, 4)
    T = words[pairwise_typical_mask(x[None, :], words, pair.table, 0.3)[0]]
    assert T.tolist() == [x.tolist()]


def test_sequence_codes_roundtrip():
    # row i of the enumeration is the word whose big-endian code is i
    seqs = enumerate_sequences(3, 4)
    codes = seqs @ 3 ** np.arange(3, -1, -1)
    assert np.array_equal(codes, np.arange(3**4))


def test_marginal_mask_matches_scalar_route():
    p = JointPmf.from_table(("X",), [0.6, 0.4])
    seqs = enumerate_sequences(2, 6)
    mask = marginal_typical_mask(seqs, p.table, 0.25)
    for i in range(0, 64, 7):
        assert mask[i] == is_typical(seqs[i], p, 0.25)


def test_is_typical_rejects_bad_input():
    p = JointPmf.from_table(("X",), [0.5, 0.5])
    with pytest.raises(ValueError):
        is_typical(np.array([0, 1]), p, 0.0)
    with pytest.raises(ValueError):
        is_typical(np.array([0, 2]), p, 0.3)
    pair = JointPmf.from_table(("X", "Y"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        is_typical({"X": [0, 1], "Y": [0, 1, 0]}, pair, 0.3)


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_sequences(2, 40, budget=10**6)
