import numpy as np
import pytest

from corrsynth.probability import (
    Alphabet,
    CondPmf,
    JointPmf,
    ProductPmf,
    conditional_mutual_information,
    entropy,
    mutual_information,
    total_variation,
)

import _oracles
from _oracles import verify_markov_chain

rng = np.random.default_rng(20260815)


def random_joint(shape, generator=rng):
    t = generator.random(shape)
    return t / t.sum()


# ---------------------------------------------------------------------------
# marginalize / condition
# ---------------------------------------------------------------------------


def test_marginalize_uniform_2x2():
    p = JointPmf.from_table(("X", "Y"), np.full((2, 2), 0.25))
    m = p.marginalize(("X",))
    assert np.allclose(m.table, [0.5, 0.5])


def test_marginalize_matches_loop_sum():
    # oracle: brute-force sum over the dropped axis
    t = random_joint((3, 2, 2))
    p = JointPmf.from_table(("X", "Y", "Z"), t)
    m = p.marginalize(("X", "Z"))
    oracle = np.zeros((3, 2))
    for x in range(3):
        for y in range(2):
            for z in range(2):
                oracle[x, z] += t[x, y, z]
    assert np.abs(m.table - oracle).max() < 1e-15


def test_marginalize_keep_order_controls_axes():
    t = random_joint((3, 2, 4))
    p = JointPmf.from_table(("A", "B", "C"), t)
    m = p.marginalize(("C", "A"))
    assert m.names == ("C", "A")
    assert np.allclose(m.table, t.sum(axis=1).T)


def test_condition_recomposes_joint():
    t = random_joint((2, 3, 2))
    p = JointPmf.from_table(("X", "Y", "Z"), t)
    c = p.condition(("X",))
    px = p.marginalize(("X",)).table
    recomposed = px[:, None, None] * c.table
    assert np.abs(recomposed - t).max() < 1e-12


def test_condition_zero_mass_row_is_undefined():
    t = np.array([[0.5, 0.5], [0.0, 0.0]])
    p = JointPmf.from_table(("X", "Y"), t / t.sum())
    c = p.condition(("X",))
    assert c.defined[0] and not c.defined[1]
    assert np.allclose(c.table[0], [0.5, 0.5])
    assert np.isnan(c.table[1]).all()


def test_point_mass_conditional_row():
    t = np.array([[0.7, 0.0], [0.0, 0.3]])
    p = JointPmf.from_table(("X", "Y"), t)
    c = p.condition(("X",))
    assert c.defined.all()
    assert np.allclose(c.table, [[1.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_extension_n1_identity():
    t = random_joint((2, 3))
    p = JointPmf.from_table(("X", "Y"), t)
    assert np.array_equal(ProductPmf(p, 1).table(), t)


def test_product_extension_fair_coin_cubed():
    p = JointPmf.from_table(("W",), [0.5, 0.5])
    tab = ProductPmf(p, 3).table()
    assert tab.shape == (8,)
    assert np.allclose(tab, 1 / 8)


def test_product_extension_matches_kron_oracle():
    t = random_joint((2, 2))
    p = JointPmf.from_table(("X", "Y"), t)
    got = ProductPmf(p, 2).table()
    oracle = np.einsum("ab,cd->acbd", t, t).reshape(4, 4)
    assert np.array_equal(got, oracle)


@pytest.mark.parametrize("shape, n", [((2,), 6), ((2, 3), 3), ((2, 3, 2), 3), ((3, 1, 2), 2)])
def test_product_extension_equals_outer_product_oracle(shape, n):
    table = random_joint(shape, np.random.default_rng(7))
    p = JointPmf.from_table(tuple("XYZ"[: len(shape)]), table)
    got = ProductPmf(p, n).table()
    assert np.array_equal(got, _oracles.product_table(p.table, n))
    assert not np.shares_memory(ProductPmf(p, 1).table(), p.table)


def test_product_seq_prob_is_product_of_cells():
    t = random_joint((2, 2))
    p = JointPmf.from_table(("X", "Z"), t)
    tab = ProductPmf(p, 3).table()
    # words x = 011 and z = 110, at their big-endian codes 3 and 6
    expected = t[0, 1] * t[1, 1] * t[1, 0]
    assert abs(tab[3, 6] - expected) < 1e-16


# ---------------------------------------------------------------------------
# distances and information measures
# ---------------------------------------------------------------------------


def test_total_variation_extremes():
    a = JointPmf.from_table(("X",), [1.0, 0.0])
    b = JointPmf.from_table(("X",), [0.0, 1.0])
    assert total_variation(a, a) == 0.0
    assert total_variation(a, b) == 1.0


def test_total_variation_quarter():
    a = JointPmf.from_table(("X",), [0.5, 0.5])
    b = JointPmf.from_table(("X",), [0.75, 0.25])
    assert abs(total_variation(a, b) - 0.25) < 1e-15


def test_total_variation_metric_properties():
    for _ in range(25):
        p = JointPmf.from_table(("X",), random_joint((5,)))
        q = JointPmf.from_table(("X",), random_joint((5,)))
        r = JointPmf.from_table(("X",), random_joint((5,)))
        dpq = total_variation(p, q)
        assert 0.0 <= dpq <= 1.0
        assert abs(dpq - total_variation(q, p)) < 1e-15
        assert dpq <= total_variation(p, r) + total_variation(r, q) + 1e-12


def test_mutual_information_independent_is_zero():
    t = np.outer([0.3, 0.7], [0.6, 0.4])
    p = JointPmf.from_table(("X", "Y"), t)
    assert abs(mutual_information(p, "X", "Y")) < 1e-12


def test_mutual_information_identical_fair_bits():
    t = np.array([[0.5, 0.0], [0.0, 0.5]])
    p = JointPmf.from_table(("X", "Y"), t)
    assert abs(mutual_information(p, "X", "Y") - 1.0) < 1e-12


def test_mutual_information_bsc_011():
    # frozen oracle: 1 - h2(0.11) computed from the binary entropy formula
    t = np.array([[0.5 * 0.89, 0.5 * 0.11], [0.5 * 0.11, 0.5 * 0.89]])
    p = JointPmf.from_table(("X", "Y"), t)
    assert abs(mutual_information(p, "X", "Y") - 0.500084041835472) < 1e-12


def test_mutual_information_bounds():
    for _ in range(25):
        t = random_joint((3, 4))
        p = JointPmf.from_table(("X", "Y"), t)
        mi = mutual_information(p, "X", "Y")
        assert mi >= -1e-12
        assert mi <= min(entropy(p, ("X",)), entropy(p, ("Y",))) + 1e-12


def test_cmi_matches_direct_sum_oracle():
    # oracle: sum p(a,b,c) log p(a,b|c)/(p(a|c) p(b|c)) by explicit loops
    t = random_joint((2, 2, 2))
    p = JointPmf.from_table(("A", "B", "C"), t)
    pc = t.sum(axis=(0, 1))
    oracle = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                pabc = t[a, b, c]
                if pabc == 0:
                    continue
                pac = t[a, :, c].sum()
                pbc = t[:, b, c].sum()
                oracle += pabc * np.log2(pabc * pc[c] / (pac * pbc))
    assert abs(conditional_mutual_information(p, "A", "B", "C") - oracle) < 1e-12


def test_markov_chain_by_construction():
    # A - B - C: draw p(a), p(b|a), p(c|b)
    g = np.random.default_rng(7)
    pa = random_joint((2,), g)
    pba = g.random((2, 3))
    pba /= pba.sum(axis=1, keepdims=True)
    pcb = g.random((3, 2))
    pcb /= pcb.sum(axis=1, keepdims=True)
    t = np.einsum("a,ab,bc->abc", pa, pba, pcb)
    p = JointPmf.from_table(("A", "B", "C"), t)
    ok, v = verify_markov_chain(p, ("A", "B", "C"))
    assert ok and abs(v) < 1e-12


def test_markov_chain_violation_certificate():
    # A = C fair bit, B independent: I(A;C|B) = H(A) = 1
    t = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            t[a, b, a] = 0.25
    p = JointPmf.from_table(("A", "B", "C"), t)
    ok, v = verify_markov_chain(p, ("A", "B", "C"))
    assert not ok
    assert abs(v - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_rejects_negative_and_far_from_normalized():
    with pytest.raises(ValueError):
        JointPmf.from_table(("X",), [0.5, 0.6])
    with pytest.raises(ValueError):
        JointPmf.from_table(("X",), [1.1, -0.1])


def test_renormalizes_tiny_drift():
    p = JointPmf.from_table(("X",), [0.5, 0.5 + 5e-10])
    assert abs(p.table.sum() - 1.0) < 1e-15


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_probabilities_are_rejected(bad):
    table = np.array([[0.5, 0.25], [0.25, 0.0]])
    table[1, 1] = bad
    bits = Alphabet(("0", "1"))
    with pytest.raises(ValueError):
        JointPmf(("X", "Y"), (bits, bits), table)
    with pytest.raises(ValueError):
        JointPmf.from_table(("X", "Y"), table)
    rows = np.array([[0.5, 0.5], [bad, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        CondPmf.from_rows(("X",), (bits,), ("Y",), (bits,), rows)
    # a row conditioned on a null event is never read, so it may hold anything
    cond = CondPmf(("X",), (bits,), ("Y",), (bits,), rows, np.array([True, False]))
    assert cond.defined.tolist() == [True, False]
