import itertools
import logging
import re
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    binary_grid_frontier,
    cascade_frontier_value,
    central_difference_gradient,
    chebyshev_to_polyline,
    coarse_grid_scan,
    consistent_y_channel,
    descend_from,
    dist_bindings,
    dist_induced_joint,
    dist_membership,
    logit_gradient,
    max_entropy_kkt,
    nnls,
    nonnegative_lstsq_residual,
    pareto_polyline,
    ptp_induced_joint,
    ptp_membership,
    scalarized,
    scalarized_minimum,
    sequential_descent,
    solve_stack_every_nnls,
    verify_markov_chain,
    z_block,
)
from corrsynth import rate_region
from corrsynth.harness import dist_demo_instance, named_instance
from corrsynth.polyhedra import dist_theorem_system, lp_membership, ptp_theorem_system
from corrsynth.probability import JointPmf
from corrsynth.rate_region import (
    FrontierPoint,
    InconsistentAuxError,
    SearchConfig,
    aux_dist_from_tables,
    aux_ptp_from_tables,
    dist_rates_for,
    pareto_prune,
    ptp_bindings,
    ptp_consistency_residual,
    ptp_frontier,
    ptp_rates_for,
)

rng = np.random.default_rng(20260815)


def random_simplex(generator, shape):
    t = generator.random(shape) + 1e-3
    return t / t.sum(axis=-1, keepdims=True)


def mi_oracle(joint, row_axes, col_axes, ndim):
    """I(A;B) by the direct KL sum over a 2d collapse of the joint table."""
    axes = tuple(row_axes) + tuple(col_axes)
    rest = tuple(i for i in range(ndim) if i not in axes)
    collapsed = joint.sum(axis=rest) if rest else joint
    order = np.argsort(axes)
    collapsed = np.moveaxis(collapsed, order.argsort(), range(len(axes)))
    nrow = int(np.prod([collapsed.shape[i] for i in range(len(row_axes))]))
    two_d = collapsed.reshape(nrow, -1)
    pa = two_d.sum(axis=1, keepdims=True)
    pb = two_d.sum(axis=0, keepdims=True)
    mask = two_d > 0
    return float((two_d[mask] * np.log2(two_d[mask] / (pa * pb)[mask])).sum())


def aux_first_ptp(seed, nx=2, ny=3, nz=2, nw=3):
    """Push random channels forward so the aux is consistent by construction."""
    gen = np.random.default_rng(seed)
    p_xz = gen.random((nx, nz)) + 0.05
    p_xz /= p_xz.sum()
    w_table = random_simplex(gen, (nx, nw))
    y_table = random_simplex(gen, (nz, nw, ny))
    target_table = np.einsum("xz,xw,zwy->xyz", p_xz, w_table, y_table)
    target = JointPmf.from_table(("X", "Y", "Z"), target_table)
    aux = aux_ptp_from_tables(
        [f"w{i}" for i in range(nw)],
        target.alphabet("X"),
        target.alphabet("Z"),
        target.alphabet("Y"),
        w_table,
        y_table,
    )
    return target, aux


def aux_first_dist(seed, nq=2, nx1=2, nx2=2, nw1=2, nw2=2, ny=2, product_sources=False):
    gen = np.random.default_rng(seed)
    p_q = random_simplex(gen, (nq,))
    if product_sources:
        p_x = np.outer(random_simplex(gen, (nx1,)), random_simplex(gen, (nx2,)))
    else:
        p_x = gen.random((nx1, nx2)) + 0.05
        p_x /= p_x.sum()
    w1_table = random_simplex(gen, (nq, nx1, nw1))
    w2_table = random_simplex(gen, (nq, nx2, nw2))
    y_table = random_simplex(gen, (nq, nw1, nw2, ny))
    target_table = np.einsum("q,ab,qaw,qbv,qwvy->aby", p_q, p_x, w1_table, w2_table, y_table)
    target = JointPmf.from_table(("X1", "X2", "Y"), target_table)
    aux = aux_dist_from_tables(
        [f"q{i}" for i in range(nq)],
        p_q,
        target.alphabet("X1"),
        target.alphabet("X2"),
        target.alphabet("Y"),
        [f"a{i}" for i in range(nw1)],
        [f"b{i}" for i in range(nw2)],
        w1_table,
        w2_table,
        y_table,
    )
    return target, aux


# ---------------------------------------------------------------------------
# point-to-point rate evaluation
# ---------------------------------------------------------------------------


def test_identity_aux_rates_without_side_information():
    table = np.zeros((2, 2, 1))
    table[0, 0, 0] = table[1, 1, 0] = 0.5
    target = JointPmf.from_table(("X", "Y", "Z"), table)
    aux = aux_ptp_from_tables(
        ("w0", "w1"),
        target.alphabet("X"),
        target.alphabet("Z"),
        target.alphabet("Y"),
        np.eye(2),
        np.eye(2)[None, :, :],
    )
    rates = ptp_rates_for(target, aux)
    assert abs(rates.r_min - 1.0) < 1e-12
    assert abs(rates.r_plus_c_min - 1.0) < 1e-12
    assert rates.i_w_z == 0.0
    assert rates.corner == (rates.r_min, 0.0)


def test_constant_aux_needs_nothing_when_side_information_suffices():
    # Y depends on X only through Z, so a trivial W synthesizes it for free
    gen = np.random.default_rng(3)
    p_xz = gen.random((3, 2)) + 0.05
    p_xz /= p_xz.sum()
    y_given_z = random_simplex(gen, (2, 2))
    target_table = np.einsum("xz,zy->xyz", p_xz, y_given_z)
    target = JointPmf.from_table(("X", "Y", "Z"), target_table)
    aux = aux_ptp_from_tables(
        ("w0",),
        target.alphabet("X"),
        target.alphabet("Z"),
        target.alphabet("Y"),
        np.ones((3, 1)),
        y_given_z[:, None, :],
    )
    rates = ptp_rates_for(target, aux)
    assert rates.r_min <= 1e-12
    assert rates.r_plus_c_min <= 1e-12
    assert abs(rates.i_xyz_w) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_rates_match_mutual_information_oracle(seed):
    target, aux = aux_first_ptp(seed)
    rates = ptp_rates_for(target, aux)
    joint = ptp_induced_joint(target, aux).table  # axes (W, X, Y, Z)
    i_x_w = mi_oracle(joint, (1,), (0,), 4)
    i_w_z = mi_oracle(joint, (0,), (3,), 4)
    i_xyz_w = mi_oracle(joint, (1, 2, 3), (0,), 4)
    assert abs(rates.i_x_w - i_x_w) < 1e-10
    assert abs(rates.i_w_z - i_w_z) < 1e-10
    assert abs(rates.i_xyz_w - i_xyz_w) < 1e-10
    assert abs(rates.r_min - max(0.0, i_x_w - i_w_z)) < 1e-10
    assert abs(rates.r_plus_c_min - max(0.0, i_xyz_w - i_w_z)) < 1e-10


def test_inconsistent_aux_raises_and_reports_residual():
    target, aux = aux_first_ptp(11)
    bad = aux_ptp_from_tables(
        [s for s in aux.w_alphabet.symbols],
        target.alphabet("X"),
        target.alphabet("Z"),
        target.alphabet("Y"),
        aux.p_w_given_x.table,
        random_simplex(np.random.default_rng(99), aux.p_y_given_zw.table.shape),
    )
    residual = ptp_consistency_residual(target, bad)
    assert residual > 1e-6
    with pytest.raises(InconsistentAuxError) as err:
        ptp_rates_for(target, bad)
    assert err.value.residual == pytest.approx(residual)
    assert err.value.tol == 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_degenerate_side_information_reduces_to_two_informations(seed):
    nw = 2 + seed % 2
    target, aux = aux_first_ptp(seed, nx=2, ny=2, nz=1, nw=nw)
    rates = ptp_rates_for(target, aux)
    joint = ptp_induced_joint(target, aux).table
    assert rates.i_w_z == 0.0
    assert abs(rates.r_min - mi_oracle(joint, (1,), (0,), 4)) < 1e-12
    assert abs(rates.r_plus_c_min - mi_oracle(joint, (1, 2), (0,), 4)) < 1e-12


def test_membership_boundary_and_interior():
    # noisy W from X, Y a copy of W: the randomness bound exceeds the rate bound
    w_table = np.array([[0.8, 0.2], [0.2, 0.8]])
    target_table = 0.5 * w_table[:, :, None]
    target = JointPmf.from_table(("X", "Y", "Z"), target_table)
    aux = aux_ptp_from_tables(
        ("w0", "w1"),
        target.alphabet("X"),
        target.alphabet("Z"),
        target.alphabet("Y"),
        w_table,
        np.eye(2)[None, :, :],
    )
    rates = ptp_rates_for(target, aux)
    r, c = rates.corner
    assert c > 0.1
    assert ptp_membership(target, r, c, aux)
    assert ptp_membership(target, r + 0.5, c + 0.5, aux)
    assert not ptp_membership(target, r - 1e-3, c, aux)
    assert not ptp_membership(target, r, c - 1e-3, aux)


def test_aux_alphabet_cap_is_enforced():
    target, aux = aux_first_ptp(5, nx=2, ny=2, nz=1, nw=17)
    with pytest.raises(ValueError, match="support bound"):
        ptp_rates_for(target, aux)


def test_ptp_bindings_certify_corner_against_closed_form():
    target, aux = aux_first_ptp(7)
    rates = ptp_rates_for(target, aux)
    bindings = ptp_bindings(rates)
    system = ptp_theorem_system()
    r, c = rates.corner
    inside = {"R": Fraction(r) + Fraction(1, 10**9), "C": Fraction(c) + Fraction(1, 10**9)}
    member, violated = lp_membership(system, inside, bindings)
    assert member and violated == []
    below = {"R": Fraction(r) - Fraction(1, 1000), "C": Fraction(c)}
    member, violated = lp_membership(system, below, bindings)
    assert not member and violated


# ---------------------------------------------------------------------------
# inner consistency solve
# ---------------------------------------------------------------------------


def inner_solve_case(kind, seed):
    """(target, p(w|x)) for one of the inner solve's three regimes.

    ``feasible``: the target is pushed forward from |W| = |X| channels.
    ``full-rank``: a free 2x2x2 target with |W| = |X|, so every z-block has
    full column rank and a unique, possibly negative, solution.
    ``rank-deficient``: |W| > |X| and a near-deterministic p(y|z,w), pushed
    forward, so the set is nonempty while the minimum-norm solution is often
    negative.
    """
    gen = np.random.default_rng(seed)
    if kind == "full-rank":
        target = gen.gamma(1.0, size=(2, 2, 2))
        return target / target.sum(), random_simplex(gen, (2, 2))
    nx, ny, nz, nw = (2, 2, 2, 2) if kind == "feasible" else (2, 2, 1, 3)
    p_xz = gen.random((nx, nz)) + 0.05
    p_xz /= p_xz.sum()
    w_table = gen.dirichlet(np.ones(nw), size=nx)
    y_table = gen.dirichlet(np.full(ny, 1.0 if kind == "feasible" else 0.1), size=(nz, nw))
    return np.einsum("xz,xw,zwy->xyz", p_xz, w_table, y_table), w_table


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 2, 2, 4), (2, 3, 1, 3)])
def test_z_blocks_equal_the_entrywise_construction(shape):
    nx, ny, nz, nw = shape
    gen = np.random.default_rng(nw)
    target = gen.gamma(1.0, size=(nx, ny, nz))
    target /= target.sum()
    target[0, :, 0] = 0.0  # a null (x, z) cell gets zero weight
    w_table = random_simplex(gen, (nx, nw))
    blocks, rhs, weights = rate_region._z_blocks(target, w_table)
    p_xz = target.sum(axis=1)
    for z in range(nz):
        big, small = z_block(target, w_table, z)
        assert np.array_equal(blocks[z], big) and np.array_equal(rhs[z], small)
        want = np.repeat([1.0 / p if p > 0 else 0.0 for p in p_xz[:, z]], ny)
        assert np.array_equal(weights[z], want)


def factorization_case(gen):
    """(target, p(w|x)) with |X|, |Y|, |W| in 1..4 and |Z| in 1..2.

    About a third of the cases null one (x, z) cell, a zero row of a_z; a
    third never use one W letter, a zero column; two in five repeat one row of
    p(w|x) for every x, so a_z has rank one, or move the other rows only
    1e-13 away from it, so a_z has singular values near 1e-13, just above
    the rank cutoff (at most 1e-14 here).
    """
    nx, ny, nw = (int(v) for v in gen.integers(1, 5, size=3))
    nz = int(gen.integers(1, 3))
    target = gen.gamma(1.0, size=(nx, ny, nz))
    if gen.random() < 0.3 and nx * nz > 1:
        target[gen.integers(nx), :, gen.integers(nz)] = 0.0
    w_table = gen.dirichlet(np.ones(nw), size=nx)
    if gen.random() < 0.3 and nw > 1:
        w_table[:, gen.integers(nw)] = 0.0
        w_table /= w_table.sum(axis=1, keepdims=True)
    if gen.random() < 0.4:
        w_table[:] = w_table[0] + (1e-13 * (gen.dirichlet(np.ones(nw), size=nx) - w_table[0])
                                   if gen.random() < 0.5 else 0.0)
    return target / target.sum(), w_table


def test_z_block_factorization_equals_the_generic_svd():
    """The Kronecker factorization of every z-block, against ``_pinv`` of the
    explicit block.  Ranks are equal.  Singular values agree within 1e-13
    sigma_max: each SVD is backward stable, so each is within a few eps
    sigma_max of the exact ones (Weyl).  The pseudoinverses agree within
    1e-13 sigma_max / sigma_r^2, sigma_r the least nonzero singular value,
    and the least-squares solutions within that times ||b||_2: a backward
    error dA moves A^+ by at most sqrt(2) ||dA|| / sigma_r^2 when it keeps
    the rank (Wedin 1973)."""
    gen = np.random.default_rng(20261019)
    seen = {"zero row": 0, "zero column": 0, "|X| < |W|": 0, "rank-deficient a": 0, "|Y| = 1": 0,
            "singular value near 1e-13": 0}
    for _ in range(600):
        target, w_table = factorization_case(gen)
        nx, ny, _ = target.shape
        nw = w_table.shape[1]
        coefficients = rate_region._coefficients(target, w_table)
        blocks, rhs, _ = rate_region._z_blocks(target, w_table)
        pinv, rank, sing = rate_region._pinv(blocks)
        got_pinv, got_rank, got_sing = rate_region._z_pinv(coefficients, ny)
        assert np.array_equal(got_rank, rank)
        assert got_sing.shape == sing.shape
        assert np.all(np.abs(got_sing - sing) <= 1e-13 * sing[:, :1])
        least = sing[np.arange(len(rank)), rank - 1]
        bound = 1e-13 * sing[:, 0] / least**2
        assert np.all(np.abs(got_pinv - pinv).max(axis=(1, 2)) <= bound)
        got_sol, sol = rate_region._matvec(got_pinv, rhs), rate_region._matvec(pinv, rhs)
        assert np.all(np.abs(got_sol - sol).max(axis=1) <= bound * np.linalg.norm(rhs, axis=1))
        seen["zero row"] += (np.abs(coefficients).sum(axis=-1) == 0).any()
        seen["zero column"] += (np.abs(coefficients).sum(axis=-2) == 0).any()
        seen["|X| < |W|"] += nx < nw
        seen["rank-deficient a"] += (np.linalg.matrix_rank(coefficients) < min(nx, nw)).any()
        seen["|Y| = 1"] += ny == 1
        small = np.linalg.svd(coefficients, compute_uv=False)
        seen["singular value near 1e-13"] += ((small > 1e-14) & (small < 1e-12)).any()
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("kind", ["feasible", "full-rank", "rank-deficient"])
def test_inner_solve_agrees_with_the_column_subset_oracle(kind):
    """_nnls reaches the brute-force optimum, and the inner solve accepts a
    channel exactly when every z-block has a nonnegative solution."""
    negative_min_norm = 0
    for seed in range(12):
        target, w_table = inner_solve_case(kind, seed)
        blocks, rhs, _ = rate_region._z_blocks(target, w_table)
        feasible = True
        for a, b in zip(blocks, rhs):
            x, residual = nnls(a, b)
            optimum = nonnegative_lstsq_residual(a, b)
            assert x.min() >= 0.0
            assert abs(residual - optimum) <= 1e-10
            assert optimum < 1e-12 or optimum > 1e-6
            feasible &= optimum < 1e-12
            sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
            negative_min_norm += sol.min() < -1e-6
            assert (rank == a.shape[1]) == (kind != "rank-deficient")
        q, residual, violation = consistent_y_channel(target, w_table, 1e-9)[:3]
        assert (q is not None) == feasible
        if q is None:
            assert violation > 0.0
        else:
            assert q.min() >= 0.0
            assert np.abs(q.sum(axis=2) - 1.0).max() <= 1e-12
            assert residual <= 1e-9
            assert violation == 0.0
    if kind == "feasible":
        assert negative_min_norm == 0
    else:
        # the regime the test is about must actually occur
        assert negative_min_norm >= 3


def test_max_entropy_q_meets_its_kkt_conditions_and_beats_the_nnls_vertex():
    cases = [inner_solve_case("rank-deficient", seed) for seed in range(6)]
    for seed, (nx, ny, nz, nw) in enumerate([(2, 3, 2, 3), (2, 2, 1, 4), (3, 2, 2, 4)] * 2):
        gen = np.random.default_rng(seed)
        p_xz = random_simplex(gen, (nx * nz,)).reshape(nx, nz)
        w_table = gen.dirichlet(np.ones(nw), size=nx)
        y_table = gen.dirichlet(np.full(ny, 0.5), size=(nz, nw))
        cases.append((np.einsum("xz,xw,zwy->xyz", p_xz, w_table, y_table), w_table))
    # the zero-cell target: X independent of (Y, Z), Y a copy of Z
    zero_cells = np.einsum("x,z,yz->xyz", [0.3, 0.7], [0.5, 0.5], np.eye(2))
    cases.extend((zero_cells, random_simplex(np.random.default_rng(seed), (2, 3))) for seed in range(3))
    for target, w_table in cases:
        solve = consistent_y_channel(target, w_table, 1e-9)
        assert solve.q is not None and (solve.newton > 0).all()
        p_xz = target.sum(axis=1)
        p_wz = p_xz.T @ w_table
        vertex = np.empty_like(solve.q)
        for z in range(target.shape[2]):
            miss, least, stationarity = max_entropy_kkt(solve.blocks[z], solve.rhs[z], p_wz[z], solve.q[z])
            assert miss <= 1e-9 and least > 0.0 and stationarity <= 1e-8
            x = nnls(solve.blocks[z], solve.rhs[z])[0].reshape(solve.q[z].shape)
            vertex[z] = x / x.sum(axis=1, keepdims=True)
        rates = rate_region.ptp_table_rates(p_xz, w_table, solve.q)
        assert rates.i_xyz_w <= rate_region.ptp_table_rates(p_xz, w_table, vertex).i_xyz_w + 1e-12


def gradient_case(kind, seed):
    """(target, logits, λ) aimed at one regime of the scalarized value."""
    gen = np.random.default_rng(seed)
    lam = 0.3 if seed % 2 else 0.7
    if kind in ("neg", "resid"):
        # a random channel on a random target: |X| = |W| leaves each block
        # consistent but mostly not nonnegative, |X| = 3 > |W| inconsistent
        nx = 2 if kind == "neg" else 3
        target = gen.gamma(1.0, size=(nx, 2, 2))
        return target / target.sum(), gen.normal(0.0, 2.0, size=(nx, 2)), lam
    if kind.startswith("clamp"):
        # Z a copy of X makes I(X;W) = I(W;Z), so r sits at its clamp
        p_x = random_simplex(gen, (2,))
        target = np.einsum("x,xy,xz->xyz", p_x, random_simplex(gen, (2, 2)), np.eye(2))
        lam = 5e-4 if kind == "clamp-low" else 1.0 - 5e-4
        return target, gen.normal(0.0, 2.0, size=(2, 2)), lam
    shapes = {"full-rank": (2, 2, 1.0), "ls-3": (2, 3, 1.0), "ls-4": (2, 4, 1.0), "nnls": (2, 3, 0.5)}
    nz, nw, spread = shapes[kind]
    # pushed forward from the channel itself, so the point is feasible
    p_xz = gen.random((2, nz)) + 0.05
    p_xz /= p_xz.sum()
    w_table = gen.dirichlet(np.ones(nw), size=2)
    y_table = gen.dirichlet(np.full(2, spread), size=(nz, nw))
    return np.einsum("xz,xw,zwy->xyz", p_xz, w_table, y_table), np.log(w_table), lam


def gradient_regime(w_table, solve, rates):
    """Which branch of the scalarized value the inner solve put the point on.

    A rank-deficient block's q is its max-entropy point; the branch names
    say whether its minimum-norm solution was already nonnegative.
    """
    if solve.q is None:
        return "neg" if solve.violation > 0.0 else "resid"
    if min(rates) <= 1e-12:
        return "clamp"
    deficient = [np.linalg.matrix_rank(a) < a.shape[1] for a in solve.blocks]
    if not any(deficient):
        return "full-rank"
    if any(d and sol.min() < 0.0 for d, sol in zip(deficient, solve.sol)):
        return "nnls"
    return f"ls-{w_table.shape[1]}"


@pytest.mark.parametrize(
    "kind", ["full-rank", "ls-3", "ls-4", "nnls", "neg", "resid", "clamp-low", "clamp-high"]
)
def test_logit_gradient_matches_central_differences(kind):
    regime = "clamp" if kind.startswith("clamp") else kind
    hits = 0
    for seed in range(8):
        target, logits, lam = gradient_case(kind, seed)
        w_table = rate_region._softmax(logits)
        _, solve, rates = scalarized(target, w_table, lam, 1e-9)
        hits += gradient_regime(w_table, solve, rates) == regime
        analytic = logit_gradient(target, w_table, lam, solve, rates)
        numeric = central_difference_gradient(target, lam, logits)
        if regime == "clamp":
            # r + c sits at its clamp too: q(y|z,w) = p(y|z) is consistent
            # and makes I(Y;W|X,Z) = 0, so the max-entropy q reaches it.  The
            # value is flat, and both gradients are rounding
            assert max(rates) <= 1e-15
            assert np.abs(analytic).max() <= 1e-15 and np.abs(numeric).max() <= 1e-10
        else:
            assert np.abs(analytic - numeric).max() <= 1e-5 * np.abs(numeric).max()
    # the branch the case is about must actually occur
    assert hits >= 3


def test_scalarized_value_moves_by_order_h_where_q_is_not_unique():
    # |X| = 2, |Y| = 3, |Z| = 2, |W| = 3 at λ = 0.3: on this seed a vertex of
    # the consistent set, picked by the NNLS passive set, jumped by 0.016 bit
    # when one logit moved by 1e-5, 1e-7 or 1e-9.  The max-entropy q moves
    # continuously, so the value moves by at most C h, C = 1 bit per logit.
    gen = np.random.default_rng(8)
    p_xz = gen.random((2, 2)) + 0.05
    p_xz /= p_xz.sum()
    w_table = gen.dirichlet(np.ones(3), size=2)
    y_table = gen.dirichlet(np.full(3, 0.5), size=(2, 3))
    target = np.einsum("xz,xw,zwy->xyz", p_xz, w_table, y_table)
    logits = np.log(w_table)
    base, solve, _ = scalarized(target, w_table, 0.3, 1e-9)
    assert solve.q is not None and (solve.newton > 0).all()
    for h in (1e-5, 1e-7, 1e-9):
        for k in range(logits.size):
            moved = logits.copy()
            moved.flat[k] += h
            value = scalarized(target, rate_region._softmax(moved), 0.3, 1e-9)[0]
            assert abs(value - base) <= 1.0 * h


def test_logit_gradient_is_finite_at_exact_zero_probabilities():
    # X independent of (Y, Z), Y a copy of Z: half the target's cells are 0;
    # logits of +-800 underflow the softmax to exact zeros and ones
    table = np.einsum("x,z,yz->xyz", [0.3, 0.7], [0.5, 0.5], np.eye(2))
    for logits in (np.array([[800.0, -800.0], [-800.0, 800.0]]), np.array([[800.0, -800.0], [0.3, -0.2]])):
        w_table = rate_region._softmax(logits)
        assert (w_table == 0.0).any()
        for lam in (5e-4, 0.5, 1.0 - 5e-4):
            _, solve, rates = scalarized(table, w_table, lam, 1e-9)
            assert solve.q is not None and (solve.q == 0.0).any()
            grad = logit_gradient(table, w_table, lam, solve, rates)
            assert np.isfinite(grad).all()
            assert np.abs(grad - central_difference_gradient(table, lam, logits)).max() <= 1e-9
            run = descend_from(table, lam, logits, 10, 1e-9)
            assert np.isfinite(run.w_given_x).all() and np.isfinite(run.value)


# ---------------------------------------------------------------------------
# frontier tracing
# ---------------------------------------------------------------------------


def test_frontier_reaches_origin_when_target_is_free():
    # X independent of (Y, Z) and Y a copy of Z: nothing must be communicated
    px = np.array([0.3, 0.7])
    pz = np.array([0.5, 0.5])
    table = np.einsum("x,z,yz->xyz", px, pz, np.eye(2))
    target = JointPmf.from_table(("X", "Y", "Z"), table)
    res = ptp_frontier(target, SearchConfig(w_cap=2, restarts=1, lambda_grid=3, iters=20, seed=1))
    assert res.failures == ()
    assert min(max(p.rate, p.cr) for p in res.points) < 1e-6


def test_frontier_rerun_is_bit_identical():
    table = np.einsum("x,z,yz->xyz", [0.3, 0.7], [0.5, 0.5], np.eye(2))
    target = JointPmf.from_table(("X", "Y", "Z"), table)
    cfg = SearchConfig(w_cap=2, restarts=1, lambda_grid=3, iters=15, seed=4)
    first = ptp_frontier(target, cfg)
    second = ptp_frontier(target, cfg)
    assert [(p.lam, p.rate, p.cr, p.value) for p in first.raw] == [
        (p.lam, p.rate, p.cr, p.value) for p in second.raw
    ]


@pytest.mark.parametrize("seed, tol", [(0, 1e-9), (1, 1e-12), (2, 1e-9)])
def test_frontier_points_are_certified_at_the_configured_tolerance(seed, tol):
    # seed 0 once produced a winner with residual 3.7e-9, certified only
    # because the certificate's tolerance was floored at 1e-6
    cells = np.random.default_rng(seed).gamma(1.0, size=(2, 2, 2))
    target = JointPmf.from_table(("X", "Y", "Z"), cells / cells.sum())
    cfg = SearchConfig(w_cap=2, restarts=1, lambda_grid=3, iters=20, seed=0, tol=tol)
    res = ptp_frontier(target, cfg)
    assert res.failures == ()
    for point in res.raw:
        assert point.residual <= cfg.tol
        assert ptp_consistency_residual(target, point.aux) <= cfg.tol


README_TARGET = np.array([[[0.375], [0.125]], [[0.125], [0.375]]])


@pytest.mark.parametrize(
    "cells, cfg",
    [
        # the README's region-ptp target (|Z| = 1) on a short search
        (README_TARGET, SearchConfig(w_cap=2, restarts=0, lambda_grid=5, iters=10)),
        # the benchmark's validity-region target and search
        (
            np.random.default_rng((0xC0DE, 0)).gamma(1.0, size=(2, 2, 2)),
            SearchConfig(w_cap=2, restarts=1, lambda_grid=1, iters=20),
        ),
    ],
    ids=["readme", "benchmark"],
)
def test_frontier_value_is_the_scalarization_of_the_certified_rates(cells, cfg):
    target = JointPmf.from_table(("X", "Y", "Z"), cells / cells.sum())
    res = ptp_frontier(target, cfg)
    lams = np.linspace(0.0, 1.0, cfg.lambda_grid)
    weights = dict(zip(lams, np.clip(lams, 5e-4, 1.0 - 5e-4)))
    assert res.raw
    for point in res.raw:
        lam = weights[point.lam]
        rates = ptp_rates_for(target, point.aux, tol=cfg.tol)
        assert point.value == (1.0 - lam) * rates.r_min + lam * rates.r_plus_c_min


@pytest.fixture(scope="module")
def gate_four_frontier():
    """Gate 4's search on the README target: w_cap = 2, 33 weights.

    The target is a doubly symmetric binary source with crossover 1/4 and no
    side information, whose frontier the cascade curve traces.  Returns
    the search and each raw point's clipped effective weight.
    """
    target = JointPmf.from_table(("X", "Y", "Z"), README_TARGET)
    res = ptp_frontier(target, SearchConfig(w_cap=2, lambda_grid=33, restarts=2, iters=60, seed=0))
    assert res.failures == () and len(res.raw) == 33
    return res, [min(max(point.lam, 5e-4), 1.0 - 5e-4) for point in res.raw]


def test_gate_four_search_meets_the_analytic_cascade_curve(gate_four_frontier):
    """Every weight's value lies within 1e-8 of the cascade curve's minimum.
    The curve is achievable, so a value above it is a search shortfall.  A
    value can also sit below it, by what the search's residual tolerance
    (1e-9) lets an accepted channel gain: -1.3e-9 at most here."""
    res, weights = gate_four_frontier
    for point, lam in zip(res.raw, weights):
        assert abs(point.value - cascade_frontier_value(0.25, lam)) <= 1e-8


def test_gate_four_values_are_consistent_with_the_support_function(gate_four_frontier):
    """The optimal value is a minimum of functions affine in the weight, so
    every returned point bounds every weight's value: no weight's value
    exceeds the best returned point scored at that weight by over 1e-9."""
    res, weights = gate_four_frontier
    for point, lam in zip(res.raw, weights):
        best = min((1.0 - lam) * other.rate + lam * (other.rate + other.cr) for other in res.raw)
        assert point.value <= best + 1e-9


def test_instance_informations_equal_the_rate_evaluators_bit_for_bit():
    for name in ("reference", "synthesis-demo"):
        inst = named_instance(name)
        target = inst.target_joint()
        # the same tables reach both: the target's (X, Z) law is p_xz exactly
        assert np.array_equal(target.marginalize(("X", "Z")).table, inst.p_xz.table)
        aux = aux_ptp_from_tables(
            inst.p_w_given_x.out_alphabets[0].symbols,
            target.alphabet("X"),
            target.alphabet("Z"),
            target.alphabet("Y"),
            inst.p_w_given_x.table,
            inst.p_y_given_zw.table,
        )
        rates = ptp_rates_for(target, aux)
        info = inst.informations()
        assert (info["i_x_w"], info["i_w_z"], info["i_xyz_w"]) == (rates.i_x_w, rates.i_w_z, rates.i_xyz_w)
        assert inst.bounds() == {"r": rates.r_min, "r_plus_c": rates.r_plus_c_min}
    pair = dist_demo_instance()
    target = pair.target_joint()
    assert np.array_equal(target.marginalize(("X1", "X2")).table, pair.p_x1x2.table)
    aux = aux_dist_from_tables(
        ("q",),
        [1.0],
        target.alphabet("X1"),
        target.alphabet("X2"),
        target.alphabet("Y"),
        pair.p_w1_given_x1.out_alphabets[0].symbols,
        pair.p_w2_given_x2.out_alphabets[0].symbols,
        pair.p_w1_given_x1.table[None],
        pair.p_w2_given_x2.table[None],
        pair.p_y_given_w1w2.table[None],
    )
    rates = dist_rates_for(target, aux, enforce_cardinality=False)
    assert tuple(pair.informations().values()) == rates.informations
    assert pair.bounds() == {
        "r1": rates.r1,
        "r2": rates.r2,
        "r1_plus_r2": rates.r1_plus_r2,
        "r1_plus_r2_plus_c": rates.r1_plus_r2_plus_c,
    }


def test_frontier_polishes_an_underdetermined_output_channel(monkeypatch):
    # |W| = 4 > |X| = 2 leaves the consistent p(y|z,w) non-unique, so every
    # accepted candidate is scored at its max-entropy output channel
    solved = []

    def counting_solve(*args, **kwargs):
        solved.append(1)
        return solve(*args, **kwargs)

    solve = rate_region._max_entropy_stack
    monkeypatch.setattr(rate_region, "_max_entropy_stack", counting_solve)
    target = JointPmf.from_table(("X", "Y", "Z"), np.array([[[0.375], [0.125]], [[0.125], [0.375]]]))
    cfg = SearchConfig(w_cap=4, restarts=1, lambda_grid=2, iters=20, seed=0)
    first = ptp_frontier(target, cfg)
    assert solved
    assert first.failures == ()
    # values reached by the earlier alternating-projection solve, plus the
    # 0.01-bit slack of the acceptance gate
    for point, earlier in zip(first.raw, (0.229955, 0.610817)):
        assert point.value <= earlier + 0.01
        assert point.residual <= cfg.tol
        assert ptp_consistency_residual(target, point.aux) <= cfg.tol
    second = ptp_frontier(target, cfg)
    assert [(p.lam, p.rate, p.cr, p.value, p.residual) for p in first.raw] == [
        (p.lam, p.rate, p.cr, p.value, p.residual) for p in second.raw
    ]


def test_frontier_tracks_exhaustive_grid_on_symmetric_binary_source():
    # desk-scale version of the acceptance comparison: coarser grid, looser bars
    p_xy = np.array([[0.375, 0.125], [0.125, 0.375]])
    target = JointPmf.from_table(("X", "Y", "Z"), p_xy[:, :, None])
    r_grid, rc_grid = binary_grid_frontier(p_xy, steps=32)
    frontier_poly = pareto_polyline(r_grid, rc_grid - r_grid)
    res = ptp_frontier(target, SearchConfig(w_cap=2, restarts=1, lambda_grid=5, iters=30, seed=0))
    assert res.failures == ()
    for point in res.raw:
        _, _, grid_value = scalarized_minimum(r_grid, rc_grid, point.lam)
        opt_value = (1.0 - point.lam) * point.rate + point.lam * (point.rate + point.cr)
        assert opt_value <= grid_value + 5e-3
        assert chebyshev_to_polyline((point.rate, point.cr), frontier_poly) <= 0.02


@pytest.mark.parametrize(
    "knob, value",
    [("w_cap", 0), ("w_cap", -2), ("restarts", -1), ("lambda_grid", 0), ("iters", -1),
     ("tol", 0.0), ("tol", -1e-9), ("tol", float("nan"))],
)
def test_search_config_rejects_out_of_range_knobs(knob, value):
    with pytest.raises(ValueError, match=knob):
        SearchConfig(**{knob: value})


def test_search_config_accepts_the_smallest_knobs():
    SearchConfig(w_cap=1, restarts=0, lambda_grid=1, iters=0, tol=1e-15)


def test_frontier_runs_with_a_single_auxiliary_letter():
    # a constant W is consistent exactly when X - Z - Y; then both bounds are 0
    free = np.einsum("x,z,yz->xyz", [0.3, 0.7], [0.5, 0.5], np.eye(2))
    cfg = SearchConfig(w_cap=1, restarts=1, lambda_grid=2, iters=5, seed=0)
    res = ptp_frontier(JointPmf.from_table(("X", "Y", "Z"), free), cfg)
    assert res.failures == () and len(res.raw) == 2
    assert all(p.rate == 0.0 and p.cr == 0.0 and p.residual <= cfg.tol for p in res.raw)
    tied = JointPmf.from_table(("X", "Y", "Z"), np.array([[[0.375], [0.125]], [[0.125], [0.375]]]))
    assert ptp_frontier(tied, cfg).failures == (0.0, 1.0)


def test_frontier_logs_one_debug_record_per_lambda(caplog):
    caplog.set_level(logging.DEBUG, logger="corrsynth.rate_region")
    cells = np.random.default_rng(5).gamma(1.0, size=(2, 2, 2))
    target = JointPmf.from_table(("X", "Y", "Z"), cells / cells.sum())
    cfg = SearchConfig(w_cap=2, restarts=1, lambda_grid=3, iters=10, seed=0)
    res = ptp_frontier(target, cfg)
    # |X| = 2, |W| = 2: corners, one coarse start per W-relabeling orbit, restarts
    starts = len(rate_region._phase_one_starts(2, 2, 1, cfg))
    pattern = re.compile(
        r"lambda (\S+): (\d+) inner solves, (\d+) descent steps, "
        r"(\d+) max-entropy solves \(at most (\d+) Newton iterations, (\d+) missed\), "
        r"winner (corner|coarse|random|warm) start (\d+), residual (\S+)"
    )
    records = [pattern.fullmatch(r.getMessage()) for r in caplog.records if r.getMessage().startswith("lambda")]
    assert len(records) == len(res.raw) == 3 and all(records)
    for match, point in zip(records, res.raw):
        assert float(match[1]) == pytest.approx(point.lam, abs=1e-6)
        # each descent evaluates its start, and at least one candidate per
        # accepted step
        assert int(match[2]) >= starts + int(match[3]) and int(match[3]) >= 1
        # a max-entropy solve takes at least one iteration, at most the cap
        assert (int(match[4]) > 0) == (0 < int(match[5]) <= rate_region._NEWTON_CAP)
        assert float(match[9]) == pytest.approx(point.residual, rel=1e-3, abs=1e-300)


# ---------------------------------------------------------------------------
# lockstep descents
# ---------------------------------------------------------------------------


def phase_one_stack(cells, cfg):
    """(target, weights, logits, iterations) of every first-phase descent of a search."""
    target = cells / cells.sum()
    nx, ny, nz = target.shape
    lams = np.clip(np.linspace(0.0, 1.0, cfg.lambda_grid), 5e-4, 1.0 - 5e-4)
    starts = rate_region._phase_one_starts(nx, min(cfg.w_cap, (nx * ny * nz) ** 2), cfg.lambda_grid, cfg)
    li, logits, iters, _ = zip(*starts)
    return target, lams[list(li)], np.stack(logits), np.array(iters)


def same_descent(a, b):
    both_none = a.q is None and b.q is None
    return (
        a.steps == b.steps
        and np.array_equal(a.value, b.value)
        and np.array_equal(a.w_given_x, b.w_given_x)
        and (both_none or (a.q is not None and b.q is not None and np.array_equal(a.q, b.q)))
        and np.array_equal(a.residual, b.residual)
    )


LOCKSTEP_CASES = {
    # the benchmark's validity-region target and search
    "benchmark": (
        np.random.default_rng((0xC0DE, 0)).gamma(1.0, size=(2, 2, 2)),
        SearchConfig(w_cap=2, restarts=1, lambda_grid=1, iters=20),
    ),
    # the README target at w_cap = 4: |W| > |X| leaves q underdetermined, so
    # every accepted candidate is scored at its max-entropy q
    "readme-w4": (README_TARGET, SearchConfig(w_cap=4, restarts=1, lambda_grid=1, iters=20)),
    # half the target's cells are 0 (the zero-probability gradient test's)
    "zero-cells": (
        np.einsum("x,z,yz->xyz", [0.3, 0.7], [0.5, 0.5], np.eye(2)),
        SearchConfig(w_cap=2, restarts=1, lambda_grid=3, iters=10),
    ),
    "x3": (
        np.random.default_rng(3).gamma(1.0, size=(3, 2, 2)),
        SearchConfig(w_cap=3, restarts=1, lambda_grid=1, iters=15),
    ),
    # five searches accept halving 0 after their descent's previous search
    # accepted a later halving, so a first round must start at halving 0
    "halving-0-again": (
        np.random.default_rng(21).gamma(1.0, size=(3, 2, 2)),
        SearchConfig(w_cap=2, restarts=1, lambda_grid=1, iters=20),
    ),
}


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
def test_lockstep_descents_equal_the_sequential_oracle(case):
    target, lams, logits, iters = phase_one_stack(*LOCKSTEP_CASES[case])
    runs = rate_region._lockstep(target, lams, logits, iters, 1e-9)
    underdetermined = 0
    for lam, start, n, run in zip(lams, logits, iters, runs):
        alone = sequential_descent(target, lam, start, n, 1e-9)
        assert same_descent(run, alone)
        # the value a descent minimized is the value of what it returns
        if run.q is not None:
            assert run.value == rate_region._weigh(lam, rate_region.ptp_table_rates(target.sum(axis=1), run.w_given_x, run.q))
        # the lockstep engine also pays for the halvings after an accepted one
        assert run.solves >= alone.solves
        blocks = rate_region._z_blocks(target, run.w_given_x)[0]
        underdetermined += np.linalg.matrix_rank(blocks).sum() < blocks.shape[0] * blocks.shape[2]
    assert any(run.steps > 0 for run in runs)
    assert (underdetermined == len(runs)) == (case == "readme-w4")


def relabeled(a, b):
    """Is start ``b`` start ``a`` with W relabeled, up to rounding?"""
    pa, pb = np.exp(a), np.exp(b)
    return any(np.allclose(pa[:, list(perm)], pb, rtol=0.0, atol=1e-12)
               for perm in itertools.permutations(range(pa.shape[1])))


@pytest.mark.parametrize("nx", [1, 2, 3])
def test_coarse_starts_keep_the_first_start_of_every_relabeling_orbit(nx):
    """Of the strided scan, the search keeps exactly the first start of each
    orbit under relabeling W, in scan order: no two kept starts are
    relabelings of each other, and every scanned start relabels a kept one."""
    kept_counts = []
    for w_size in (1, 2, 3, 4):
        scan = coarse_grid_scan(nx, w_size)
        kept = rate_region._coarse_grid_inits(nx, w_size)
        firsts = [a for i, a in enumerate(scan) if not any(relabeled(b, a) for b in scan[:i])]
        assert len(kept) == len(firsts)
        assert all(np.array_equal(a, b) for a, b in zip(kept, firsts))
        assert all(any(relabeled(k, a) for k in kept) for a in scan)
        kept_counts.append(len(kept))
    if nx == 2:
        assert kept_counts == [1, 13, 5, 5]


def test_a_descent_does_not_depend_on_its_stack():
    cases = [
        # gate 4's first phase: 33 weights x (3 corners, 13 coarse, 2 random)
        (SearchConfig(w_cap=2, lambda_grid=33, restarts=2, iters=60, seed=0), 33 * 18,
         (0, 1, 2, 3, 10, 17, 18, 268, 297, 592, 593)),
        # the README spec's: 17 weights x (3 corners, 5 coarse, 2 random),
        # where every accepted candidate takes a max-entropy solve
        (SearchConfig(w_cap=4, lambda_grid=17, restarts=2, iters=60, seed=0), 17 * 10,
         (0, 1, 2, 3, 5, 9, 10, 81, 88, 168, 169)),
    ]
    for cfg, size, picks in cases:
        target, lams, logits, iters = phase_one_stack(README_TARGET, cfg)
        assert len(lams) == size
        runs = rate_region._lockstep(target, lams, logits, iters, cfg.tol)
        for i in picks:
            alone = descend_from(target, lams[i], logits[i], iters[i], cfg.tol)
            assert same_descent(runs[i], alone) and runs[i].solves == alone.solves
            assert (runs[i].entropic, runs[i].newton, runs[i].newton_missed) == (
                alone.entropic, alone.newton, alone.newton_missed)
        assert (cfg.w_cap == 4) == any(runs[i].entropic > 0 for i in picks)


def test_benchmark_frontier_stays_under_a_candidate_stack_bound(monkeypatch):
    """The benchmark's one-weight frontier evaluates at most 40 candidate
    stacks on average over 16 of its op seeds: a search's first round reaches
    the halving its descent's previous search accepted.  Starting every
    search at one candidate takes 62.8 stacks on the same seeds."""
    stacks = 0
    scalarized_stack = rate_region._scalarized_stack

    def counting(*args):
        nonlocal stacks
        stacks += 1
        return scalarized_stack(*args)

    monkeypatch.setattr(rate_region, "_scalarized_stack", counting)
    cells = np.random.default_rng((0xC0DE, 0)).gamma(1.0, size=(2, 2, 2))
    target = JointPmf.from_table(("X", "Y", "Z"), cells / cells.sum())
    for index in range(16):
        seed = int(np.random.SeedSequence((0, index)).generate_state(1, np.uint32)[0])
        ptp_frontier(target, SearchConfig(w_cap=2, lambda_grid=1, restarts=1, iters=20, seed=seed))
    assert stacks <= 40 * 16


def test_stacked_nnls_rows_equal_single_solves_and_the_oracle():
    for kind in ("feasible", "full-rank", "rank-deficient"):
        pairs = []
        for seed in range(12):
            blocks, rhs, _ = rate_region._z_blocks(*inner_solve_case(kind, seed))
            pairs.extend(zip(blocks, rhs))
        a, b = (np.stack(t) for t in zip(*pairs))
        x, norms = rate_region._nnls_stack(a, b)
        for i in range(len(a)):
            one, norm = nnls(a[i], b[i])
            assert np.array_equal(x[i], one) and norms[i] == norm
            assert x[i].min() >= 0.0
            assert abs(norm - nonnegative_lstsq_residual(a[i], b[i])) <= 1e-10


def same_inner_solve(got, want):
    """Outcomes and slope inputs on every row; the channel and its solve on accepted rows."""
    ok = want.failing < 0
    return (
        all(np.array_equal(getattr(got, f), getattr(want, f)) for f in ("failing", "residual", "violation"))
        and all(np.array_equal(getattr(got, f)[ok], getattr(want, f)[ok]) for f in ("q", "support", "newton", "dual"))
    )


def boundary_case(gen, t):
    """(target, p(w|x)): |W| < |X|, |Z| = 1, and the unique consistent q has one entry -t."""
    nx, ny, nw = 3, 2, 2
    p_x = random_simplex(gen, (nx,))
    w_table = random_simplex(gen, (nx, nw))
    q = random_simplex(gen, (1, nw, ny))
    q[0, 0] = (-t, 1.0 + t)
    return np.einsum("x,xw,zwy->xyz", p_x, w_table, q), w_table


def test_pre_rejection_never_rejects_a_block_the_nnls_path_accepts():
    """Full-rank blocks whose least-squares minimum runs from -1e-13 to -1:
    the bound rejects a block only where the nonnegative solve and the tol
    test would, and the solve's outcome is the oracle's on every row."""
    gen = np.random.default_rng(17)
    for tol in (1e-12, 1e-9, 1e-6):
        cases = [boundary_case(gen, t) for t in np.logspace(-13, 0, 60) for _ in range(3)]
        cases = [(target, w) for target, w in cases if target.min() >= 0.0]
        accepted = rejected_early = 0
        for target, w in cases:
            blocks, rhs, _ = rate_region._z_blocks(target, w)
            pinv, rank, sing = rate_region._z_pinv(rate_region._coefficients(target, w), target.shape[1])
            sol = rate_region._matvec(pinv, rhs)
            resid = np.abs(rate_region._matvec(blocks, sol) - rhs).max(axis=-1)
            assert rank[0] == blocks.shape[-1] and -1.0 <= sol.min() < -1e-14
            early = bool(rate_region._out_of_reach(blocks, sol, resid, sing, tol)[0])
            want = solve_stack_every_nnls(target, w[None], tol)
            assert same_inner_solve(rate_region._solve_stack(target, w[None], tol), want)
            if want.failing[0] < 0:
                accepted += 1
                assert not early
            rejected_early += early
        # both sides of the bound occur at every tolerance
        assert accepted >= 3 and rejected_early >= 3


PRE_REJECTION_STACKS = {
    # the benchmark's validity-region search: full-rank 2x2x2 blocks
    "benchmark": (
        np.random.default_rng((0xC0DE, 0)).gamma(1.0, size=(2, 2, 2)),
        SearchConfig(w_cap=2, restarts=1, lambda_grid=1, iters=20),
    ),
    # gate 4's 990 descents: the README target at w_cap = 2
    "gate-4": (README_TARGET, SearchConfig(w_cap=2, lambda_grid=33, restarts=2, iters=60, seed=0)),
    # the README spec: every block rank-deficient, none rejected early
    "readme-w4": (README_TARGET, SearchConfig(w_cap=4, lambda_grid=17, restarts=2, iters=60, seed=0)),
}


@pytest.mark.parametrize("case", list(PRE_REJECTION_STACKS))
def test_inner_solve_equals_the_every_block_nnls_oracle(case, monkeypatch):
    """Every stack a short lockstep run solves, from a search's phase-one
    starts, matches the path that sends every negative block to NNLS."""
    cells, cfg = PRE_REJECTION_STACKS[case]
    target, lams, logits, iters = phase_one_stack(cells, cfg)
    nnls_rows = {"solve": 0, "oracle": 0}
    counting = "solve"
    real_solve, real_nnls = rate_region._solve_stack, rate_region._nnls_stack

    def nnls_stack(a, b):
        nnls_rows[counting] += len(a)
        return real_nnls(a, b)

    def solve_stack(target_xyz, w_given_x, tol):
        nonlocal counting
        counting = "solve"
        got = real_solve(target_xyz, w_given_x, tol)
        counting = "oracle"
        assert same_inner_solve(got, solve_stack_every_nnls(target_xyz, w_given_x, tol))
        return got

    monkeypatch.setattr(rate_region, "_nnls_stack", nnls_stack)
    monkeypatch.setattr(rate_region, "_solve_stack", solve_stack)
    rate_region._lockstep(target, lams, logits, np.minimum(iters, 3), cfg.tol)
    assert nnls_rows["oracle"] > 0
    if case == "readme-w4":
        assert nnls_rows["solve"] == nnls_rows["oracle"]
    else:
        assert nnls_rows["solve"] < nnls_rows["oracle"] / 4


def test_stacked_rates_equal_rates_evaluated_alone():
    gen = np.random.default_rng(11)
    for nx, ny, nz, nw in ((2, 2, 2, 2), (3, 2, 1, 4), (2, 3, 2, 3)):
        p_xz = random_simplex(gen, (nx * nz,)).reshape(nx, nz)
        w_tables = random_simplex(gen, (5, nx, nw))
        y_tables = random_simplex(gen, (5, nz, nw, ny))
        w_tables[0, 0] = np.eye(nw)[0]  # exact zeros
        y_tables[1, 0, 0] = np.eye(ny)[0]
        stacked = rate_region.ptp_table_rates(p_xz, w_tables, y_tables)
        for i in range(5):
            alone = rate_region.ptp_table_rates(p_xz, w_tables[i], y_tables[i])
            for field in ("r_min", "r_plus_c_min", "i_x_w", "i_w_z", "i_xyz_w"):
                assert type(getattr(alone, field)) is float
                assert getattr(stacked, field)[i] == getattr(alone, field)


def test_pareto_prune_drops_dominated_and_duplicate_points():
    table = np.zeros((2, 2, 1))
    table[0, 0, 0] = table[1, 1, 0] = 0.5
    target = JointPmf.from_table(("X", "Y", "Z"), table)
    aux = aux_ptp_from_tables(
        ("w0", "w1"),
        target.alphabet("X"),
        target.alphabet("Z"),
        target.alphabet("Y"),
        np.eye(2),
        np.eye(2)[None, :, :],
    )

    def pt(lam, r, c):
        return FrontierPoint(lam, r, c, (1 - lam) * r + lam * (r + c), aux, 0.0)

    points = [pt(0.0, 0.5, 0.5), pt(0.2, 0.6, 0.6), pt(0.4, 0.4, 0.7), pt(0.6, 0.5, 0.5), pt(0.8, 0.45, 0.65)]
    kept = pareto_prune(points)
    assert [(p.rate, p.cr) for p in kept] == [(0.4, 0.7), (0.45, 0.65), (0.5, 0.5)]


# ---------------------------------------------------------------------------
# distributed rate evaluation
# ---------------------------------------------------------------------------


def test_dist_constant_time_sharing_matches_plain_informations():
    target, aux = aux_first_dist(2, nq=1)
    rates = dist_rates_for(target, aux)
    joint = dist_induced_joint(target, aux).table  # axes (Q, W1, W2, X1, X2, Y)
    oracle = (
        mi_oracle(joint, (3,), (1,), 6),
        mi_oracle(joint, (4,), (2,), 6),
        mi_oracle(joint, (3, 4, 2, 5), (1,), 6),
        mi_oracle(joint, (3, 4, 5), (2,), 6),
        mi_oracle(joint, (1,), (2,), 6),
    )
    for got, want in zip(rates.informations, oracle):
        assert abs(got - want) < 1e-10


def test_dist_independent_sources_have_no_binning_rebate():
    target, aux = aux_first_dist(6, nq=1, product_sources=True)
    rates = dist_rates_for(target, aux)
    i1, i2, i3, i4, i5 = rates.informations
    assert abs(i5) < 1e-12
    assert abs(rates.r1 - max(0.0, i1)) < 1e-12
    assert abs(rates.r2 - max(0.0, i2)) < 1e-12
    assert abs(rates.r1_plus_r2 - max(0.0, i1 + i2)) < 1e-12


def test_dist_copy_encoder_rates_are_exact():
    # X1 = X2 = S uniform, W1 copies X1, W2 trivial, Y copies W1
    p_x = np.array([[0.5, 0.0], [0.0, 0.5]])
    w1_table = np.eye(2)[None, :, :]
    w2_table = np.ones((1, 2, 1))
    y_table = np.eye(2)[None, :, None, :]
    target_table = np.einsum("ab,aw,wy->aby", p_x, np.eye(2), np.eye(2))
    target = JointPmf.from_table(("X1", "X2", "Y"), target_table)
    aux = aux_dist_from_tables(
        ("q0",), [1.0],
        target.alphabet("X1"), target.alphabet("X2"), target.alphabet("Y"),
        ("a0", "a1"), ("b0",),
        w1_table, w2_table, y_table,
    )
    rates = dist_rates_for(target, aux)
    assert abs(rates.r1 - 1.0) < 1e-12
    assert abs(rates.r2) < 1e-12
    assert abs(rates.r1_plus_r2 - 1.0) < 1e-12
    assert abs(rates.r1_plus_r2_plus_c - 1.0) < 1e-12
    assert dist_membership(target, 1.0, 0.0, 0.0, aux)
    assert dist_membership(target, 1.2, 0.3, 0.0, aux)
    assert not dist_membership(target, 0.9, 0.0, 0.0, aux)
    assert not dist_membership(target, 0.5, 0.4, 0.0, aux)


@pytest.mark.parametrize("seed", range(3))
def test_dist_conditional_informations_match_per_letter_mixture(seed):
    target, aux = aux_first_dist(seed, nq=2)
    rates = dist_rates_for(target, aux)
    joint = dist_induced_joint(target, aux).table
    p_q = joint.sum(axis=(1, 2, 3, 4, 5))
    groups = [((3,), (1,)), ((4,), (2,)), ((3, 4, 2, 5), (1,)), ((3, 4, 5), (2,)), ((1,), (2,))]
    for got, (rows, cols) in zip(rates.informations, groups):
        want = sum(
            p_q[q] * mi_oracle(joint[q] / p_q[q], tuple(r - 1 for r in rows), tuple(c - 1 for c in cols), 5)
            for q in range(2)
        )
        assert abs(got - want) < 1e-10


def test_dist_cardinality_cap_and_override():
    target, aux = aux_first_dist(9, nq=1, nw1=3)
    with pytest.raises(ValueError, match="W1"):
        dist_rates_for(target, aux)
    rates = dist_rates_for(target, aux, enforce_cardinality=False)
    assert rates.r1 >= 0.0


def dist_case_sizes(seed):
    """|Q| = 1-3 and 2-3 letters on each other axis, varying with the seed."""
    return dict(nq=1 + seed % 3, nx1=2 + seed % 2, nx2=2 + seed // 2 % 2,
                nw1=2 + seed // 4 % 2, nw2=2 + seed // 8 % 2, ny=2 + seed // 3 % 2)


@pytest.mark.parametrize("seed", range(20))
def test_an_inconsistent_aux_reports_the_oracle_joint_residual(seed):
    """An aux drawn apart from the target's: the residual ``dist_rates_for``
    raises is, bit for bit, the largest deviation of the oracle joint's
    (X1, X2, Y) marginal from the target's."""
    sizes = dist_case_sizes(seed)
    target = aux_first_dist(seed, **sizes)[0]
    aux = aux_first_dist(seed + 1000, **sizes)[1]
    induced = dist_induced_joint(target, aux).marginalize(rate_region.DIST_AXES).table
    want = float(np.abs(induced - target.marginalize(rate_region.DIST_AXES).table).max())
    assert want > 1e-6
    with pytest.raises(InconsistentAuxError) as err:
        dist_rates_for(target, aux, enforce_cardinality=False)
    assert err.value.residual == want and err.value.tol == 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_a_consistent_aux_rates_are_read_off_the_oracle_joint(seed):
    """For an aux the target is built from, the rates equal, bit for bit,
    ``dist_table_rates`` of the oracle's checked joint."""
    target, aux = aux_first_dist(seed, **dist_case_sizes(seed))
    want = rate_region.dist_table_rates(dist_induced_joint(target, aux).table)
    assert dist_rates_for(target, aux, enforce_cardinality=False) == want


def test_dist_induced_joint_has_declared_chains():
    target, aux = aux_first_dist(12, nq=2)
    joint = dist_induced_joint(target, aux)
    holds, violation = verify_markov_chain(joint, (("W1",), ("Q", "X1"), ("X2", "W2")))
    assert holds, violation
    holds, violation = verify_markov_chain(joint, (("X1", "X2"), ("Q", "W1", "W2"), ("Y",)))
    assert holds, violation


def test_dist_bindings_certify_sum_corner_against_closed_form():
    target, aux = aux_first_dist(4, nq=2)
    rates = dist_rates_for(target, aux)
    bindings = dist_bindings(rates)
    system = dist_theorem_system()
    corner_c = max(0.0, rates.r1_plus_r2_plus_c - rates.r1 - rates.r2)
    eps = Fraction(1, 10**9)
    inside = {
        "R1": Fraction(rates.r1) + eps,
        "R2": Fraction(max(rates.r2, rates.r1_plus_r2 - rates.r1)) + eps,
        "C": Fraction(corner_c) + eps,
    }
    member, violated = lp_membership(system, inside, bindings)
    assert member and violated == []
    outside = dict(inside)
    outside["R1"] = Fraction(0)
    outside["R2"] = Fraction(0)
    member, violated = lp_membership(system, outside, bindings)
    assert not member and violated
