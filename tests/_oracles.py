"""Brute-force oracles shared by the rate-region, codec and acceptance tests.

The grid oracle scans every binary auxiliary channel p(w|x) on a uniform
(step = 1/steps) grid.  For binary Y with no side information the consistent
output channel p(y|w) is the unique solution of a 2x2 linear system, so each
grid cell is either infeasible or evaluates exactly — no inner search.

``ptp_induced_joint``, ``dist_induced_joint``, ``ptp_membership`` and
``dist_membership`` read one auxiliary pair's joint, or whether it certifies
a rate point, through ``rate_region``'s evaluators; only tests call them.
``dist_induced_joint`` is the (Q, W1, W2, X1, X2, Y) joint as a checked
``JointPmf``: the reference for the one table ``dist_rates_for`` reads its
residual and its bounds off.  ``dist_bindings`` binds
a two-encoder rate triple's informations to the exact systems' constants,
and ``verify_markov_chain`` certifies a chain A - B - C by I(A;C|B).

The exact-rational references run on ``polyhedra``'s systems: ``restrict``
fixes variables, ``lp_feasible`` and ``feasible_with`` decide feasibility by
the exact simplex (the witness side of a projection), ``is_contradiction``
spots a ``0 >= positive`` row, and ``prune_redundant`` drops, one at a time,
each row the others imply (``row_redundant``).
``sign_constrained_dist_system`` is the two-encoder pre-elimination system
with C1 >= 0 and C2 >= 0 added, whose projection is strictly smaller than
the theorem region.

``is_typical`` decides robust typicality of one sequence tuple with a
bincount over joint letter cells: the reference for the batched
marginal and pairwise typicality masks.

``cascade_frontier_value`` minimizes the scalarized value along the
analytic curve of a doubly symmetric binary source (Wyner 1975; Cuff 2013):
the cascade X -> BSC(a) -> W -> BSC(b) -> Y with a * b = p0 is consistent
for every a in [0, p0], so every curve point is achievable, and a search
value above the curve's minimum is a search shortfall.

The nonnegative least-squares oracle decides the inner consistency solve's
question, whether {x >= 0 : A x = b} is empty, by brute force over column
subsets instead of an active set; ``z_block`` builds that system entry by
entry, as the reference for the vectorized construction.

``output_word_law`` evaluates one cell of a codec's output-word table as a
running product over letters, the reference for the letter-by-letter build.
``dense_induced_words`` multiplies each z-word's row mass by its R dense
output rows, and ``onehot_message_table`` multiplies each block's gathered
(A, L) index weights by a one-hot of their bins: the references for the
contraction over distinct half words and for the messages from (word, bin)
counts.

``encoder_weight_batch`` evaluates the encoder's index weights once per
index, through an (A, L, n) gather, and ``first_occurrence_dedup`` numbers
words with a dictionary of their bytes: the references for the per-word
evaluation and the vectorised numbering, which must match them bit for bit.
``block_weights`` gathers one block's index weights from a weight table
and sums each row, as the scalar encoder oracles read them.
``block_weight_table`` builds one block's weight table over the block's own
distinct words, and ``encoder_validity_per_block`` decides validity from one
such table per block: the reference for the tables blocks share.
``product_table`` builds the n-fold product table by outer products and
transposes, the reference for the in-place build.

``max_entropy_kkt`` measures how far a z-block's output channel is from
the Karush-Kuhn-Tucker conditions of the max-entropy inner problem, from the
block matrix alone: the reference for the Newton solve.

``solve_stack_every_nnls`` is the inner solve without the full-rank
pre-rejection: every consistent block with a negative least-squares
solution goes to the nonnegative solve.  It is the reference that the
pre-rejection changes no outcome.

The single-channel views (``nnls``, ``consistent_y_channel``,
``scalarized``, ``logit_gradient`` and ``descend_from``) run one problem,
one p(w|x) or one descent through the frontier search's stacked stages, as
stacks of one.

``coarse_grid_scan`` is the frontier search's strided coarse scan with
every W-relabeling of a start kept: the reference that the scan keeps one
start per orbit and loses none.

``central_difference_gradient`` differentiates the frontier search's
scalarized value in the p(w|x) logits numerically, two full evaluations per
logit: the reference for the closed-form gradient.  ``sequential_descent``
runs one frontier descent one line-search trial at a time, through the
single-channel views of the search: the reference for the lockstep engine,
which must take the same steps and reach the same point bit for bit.

The scalar codec chain evaluates one source word, one message or one
randomness block at a time, the way the construction reads: the
single-encoder sub-PMF (``encoder_subpmf``), its message law
(``induced_message_pmf``) and decoder (``decode_map``, at the widened slack
``decoder_slack``), and their two-encoder
counterparts (``dist_encoder_pmf``, ``split_mu``, ``dist_decode_map``).  They
are the references for the codecs' message and decoder tables.  Message 0 is
the compensated complement ``_complement_to_one`` here and ``max(0, 1 - Σ)``
in the tables, and the two can differ in the last bits.
``sample_dist_induced`` runs the two-encoder chain end to end by Monte Carlo:
the sampling cross-check of ``dist_induced_joint_exact``.  ``dist_joint``
contracts the two-encoder law over every block pair and message pair through
one gather of output rows per block pair: the reference for the per-word
slices of the pair-mass table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from corrsynth import rate_region
from corrsynth.codec_dist import (
    DistBinning,
    DistCodebooks,
    DistCodecParams,
    _build_dist_tables,
    _DistSystemTables,
)
from corrsynth.codec_ptp import (
    BinningMap,
    Codebook,
    CodecParams,
    _block_tables,
    _check_joint_budget,
    _conditional_rows,
    _first_occurrence_dedup,
    _rowwise_categorical,
    _SystemTables,
    _valid_rows,
    _weight_columns,
    _word_products,
)
from corrsynth.polyhedra import (
    LinearRow,
    LinIneqSystem,
    _frac,
    dist_pre_elimination_system,
    lp_minimize,
    row_redundant,
)
from corrsynth.probability import CondPmf, JointPmf, conditional_mutual_information
from corrsynth.typicality import (
    marginal_typical_mask,
    pairwise_typical_mask,
    typical_set,
)


def binary_grid_frontier(p_xy, steps=64):
    """Rate pairs (r, r+c) of every feasible cell of the p(w|x) grid.

    ``p_xy`` is a 2x2 joint table; W and Y are binary and there is no side
    information.  Returns two flat arrays (R, RC) over feasible cells.
    """
    p_xy = np.asarray(p_xy, float)
    px = p_xy.sum(axis=1)
    g = np.arange(steps + 1) / steps
    a, b = np.meshgrid(g, g, indexing="ij")
    # joint p(x, w) entries for row channels [a, 1-a] and [b, 1-b]
    m00, m01 = px[0] * a, px[0] * (1.0 - a)
    m10, m11 = px[1] * b, px[1] * (1.0 - b)
    det = m00 * m11 - m01 * m10
    feasible = np.abs(det) > 1e-12
    q = np.empty((steps + 1, steps + 1, 2, 2))
    for y in range(2):
        rhs0, rhs1 = p_xy[0, y], p_xy[1, y]
        with np.errstate(divide="ignore", invalid="ignore"):
            q[..., 0, y] = (m11 * rhs0 - m01 * rhs1) / det
            q[..., 1, y] = (-m10 * rhs0 + m00 * rhs1) / det
    feasible &= (q.min(axis=(2, 3)) >= -1e-9) & (q.max(axis=(2, 3)) <= 1.0 + 1e-9)
    q = np.clip(q, 0.0, 1.0)
    wt = np.stack([np.stack([a, 1.0 - a], axis=-1), np.stack([b, 1.0 - b], axis=-1)], axis=2)
    joint = np.einsum("abxw,abwy,x->abwxy", wt, q, px)

    def ent(table):
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(table > 0, np.log2(np.where(table > 0, table, 1.0)), 0.0)
        return -(table * logs).sum(axis=-1)

    shape = (steps + 1, steps + 1)
    h_w = ent(joint.sum(axis=(3, 4)))
    h_x = ent(np.broadcast_to(px, shape + (2,)))
    h_wx = ent(joint.sum(axis=4).reshape(shape + (-1,)))
    h_xy = ent(np.broadcast_to(p_xy.reshape(-1), shape + (4,)))
    h_wxy = ent(joint.reshape(shape + (-1,)))
    r = np.maximum(h_w + h_x - h_wx, 0.0)
    rc = np.maximum(h_w + h_xy - h_wxy, 0.0)
    return r[feasible], np.maximum(rc[feasible], r[feasible])


def scalarized_minimum(r, rc, lam):
    """Grid point minimizing (1-lam) r + lam (r+c); returns (r, c, value)."""
    values = (1.0 - lam) * r + lam * rc
    i = int(np.argmin(values))
    return float(r[i]), float(rc[i] - r[i]), float(values[i])


def ptp_induced_joint(p_xyz: JointPmf, aux) -> JointPmf:
    """The joint p(w,x,y,z) = p(x,z) p(w|x) p(y|z,w) with axes (W, X, Y, Z)."""
    p_xz = p_xyz.marginalize(("X", "Z")).table
    table = rate_region.ptp_joint_table(p_xz, aux.p_w_given_x.table, aux.p_y_given_zw.table)
    return JointPmf(
        ("W",) + rate_region.PTP_AXES,
        (aux.w_alphabet,) + tuple(p_xyz.alphabet(a) for a in rate_region.PTP_AXES),
        table,
    )


def dist_induced_joint(p_x1x2y: JointPmf, aux: rate_region.AuxChannelDist) -> JointPmf:
    table = rate_region.dist_joint_table(
        aux.p_q,
        p_x1x2y.marginalize(("X1", "X2")).table,
        aux.p_w1_given_qx1.table,
        aux.p_w2_given_qx2.table,
        aux.p_y_given_qw1w2.table,
    )
    return JointPmf(
        ("Q", "W1", "W2", "X1", "X2", "Y"),
        (
            aux.q_alphabet,
            aux.w1_alphabet,
            aux.w2_alphabet,
            p_x1x2y.alphabet("X1"),
            p_x1x2y.alphabet("X2"),
            p_x1x2y.alphabet("Y"),
        ),
        table,
    )


def ptp_membership(p_xyz: JointPmf, rate: float, cr: float, aux, tol: float = 1e-9) -> bool:
    """Does this aux certify (rate, cr)?  One certifying aux suffices."""
    rates = rate_region.ptp_rates_for(p_xyz, aux, tol=tol)
    return rate >= rates.r_min - tol and rate + cr >= rates.r_plus_c_min - tol


def dist_membership(p_x1x2y: JointPmf, r1: float, r2: float, cr: float, aux, tol: float = 1e-9) -> bool:
    """Does this aux certify (r1, r2, cr) against all four bounds?"""
    rates = rate_region.dist_rates_for(p_x1x2y, aux, tol=tol)
    return (
        r1 >= rates.r1 - tol
        and r2 >= rates.r2 - tol
        and r1 + r2 >= rates.r1_plus_r2 - tol
        and r1 + r2 + cr >= rates.r1_plus_r2_plus_c - tol
    )


def dist_bindings(rates: rate_region.DistRateTriple) -> dict:
    """Exact-rational bindings of a two-encoder rate triple for the dist systems."""
    i1, i2, i3, i4, i5 = rates.informations
    return {
        "I_X1_W1": Fraction(i1),
        "I_X2_W2": Fraction(i2),
        "I_X1X2W2Y_W1": Fraction(i3),
        "I_X1X2Y_W2": Fraction(i4),
        "I_W1_W2": Fraction(i5),
        "slack": Fraction(0),
    }


def verify_markov_chain(p: JointPmf, chain, tol: float = 1e-10) -> tuple[bool, float]:
    """Check A - B - C: returns (holds, I(A;C|B) in bits).

    ``chain`` is three axis groups; the violation certificate is the
    conditional mutual information across the middle group.
    """
    a, b, c = chain
    violation = conditional_mutual_information(p, a, c, b)
    return (violation <= tol, violation)


# ---------------------------------------------------------------------------
# exact-rational systems
# ---------------------------------------------------------------------------


def restrict(system: LinIneqSystem, assignment: dict[str, Fraction]) -> LinIneqSystem:
    """Fix some *variables* to rational values, shrinking the system."""
    keep_idx = [i for i, v in enumerate(system.variables) if v not in assignment]
    rows = []
    for row in system.rows:
        const = row.const
        for name, value in assignment.items():
            const -= row.coeffs[system.var_index(name)] * _frac(value)
        rows.append(LinearRow(tuple(row.coeffs[i] for i in keep_idx), row.sym_coeffs, const))
    return LinIneqSystem(tuple(system.variables[i] for i in keep_idx), system.constants, tuple(rows))


def lp_feasible(rows, n_vars: int) -> bool:
    """Exact feasibility of ``coeffs . x >= rhs`` rows over free variables."""
    status, _ = lp_minimize(rows, n_vars, [Fraction(0)] * n_vars)
    return status == "optimal"


def feasible_with(system: LinIneqSystem, bindings: dict[str, Fraction]) -> bool:
    """Exact feasibility of the system once all constants are bound."""
    bound = system.substitute(bindings)
    if bound.constants:
        raise ValueError(f"bindings miss constants {bound.constants}")
    if any(is_contradiction(r) for r in bound.rows):
        return False
    return lp_feasible([(r.coeffs, r.const) for r in bound.rows], len(bound.variables))


def is_contradiction(row: LinearRow) -> bool:
    """0 >= positive rational: the system holding the row is infeasible outright."""
    return not any(row.coeffs) and not any(row.sym_coeffs) and row.const > 0


def sign_constrained_dist_system() -> LinIneqSystem:
    """The two-encoder pre-elimination system with C1 >= 0 and C2 >= 0 added."""
    base = dist_pre_elimination_system()
    signs = LinIneqSystem.build(
        base.variables, base.constants, [{"vars": {"C1": 1}}, {"vars": {"C2": 1}}]
    )
    return LinIneqSystem(base.variables, base.constants, base.rows + signs.rows)


def prune_redundant(system: LinIneqSystem) -> LinIneqSystem:
    """Drop rows implied by the rest; the region is unchanged."""
    rows = list(system.rows)
    kept: list[LinearRow] = []
    for i, row in enumerate(rows):
        others = kept + rows[i + 1 :]
        if not row_redundant(LinIneqSystem(system.variables, system.constants, tuple(others)), row):
            kept.append(row)
    return LinIneqSystem(system.variables, system.constants, tuple(kept))


# ---------------------------------------------------------------------------
# typicality of one sequence tuple
# ---------------------------------------------------------------------------


def _coerce_sequences(seqs, p: JointPmf) -> np.ndarray:
    """Stack input sequences into a (num_axes, n) int array in p's axis order."""
    if isinstance(seqs, dict):
        arrs = []
        for name in p.names:
            if name not in seqs:
                raise ValueError(f"missing sequence for axis {name!r}")
            arrs.append(np.asarray(seqs[name], int))
    elif isinstance(seqs, (list, tuple)) and len(p.names) > 1:
        if len(seqs) != len(p.names):
            raise ValueError(f"expected {len(p.names)} sequences, got {len(seqs)}")
        arrs = [np.asarray(s, int) for s in seqs]
    else:
        if len(p.names) != 1:
            raise ValueError("a bare sequence only matches a single-axis PMF")
        arrs = [np.asarray(seqs, dtype=int)]
    stacked = np.stack(arrs)
    if stacked.ndim != 2:
        raise ValueError("sequences must be one-dimensional")
    n = stacked.shape[1]
    lengths = {a.shape[0] for a in arrs}
    if len(lengths) != 1:
        raise ValueError(f"sequences must share one length, got {sorted(lengths)}")
    for arr, alpha in zip(stacked, p.alphabets):
        if np.any(arr < 0) or np.any(arr >= alpha.size):
            raise ValueError("letter index out of alphabet range")
    if n < 1:
        raise ValueError("sequences must be nonempty")
    return stacked


def is_typical(seqs, p: JointPmf, delta: float) -> bool:
    """Robust typicality of one sequence tuple for the joint PMF ``p``."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    stacked = _coerce_sequences(seqs, p)
    n = stacked.shape[1]
    sizes = [a.size for a in p.alphabets]
    code = np.zeros(n, dtype=int)
    for arr, size in zip(stacked, sizes):
        code = code * size + arr
    counts = np.bincount(code, minlength=int(np.prod(sizes)))
    flat = p.table.reshape(-1)
    # compare counts, not frequencies, with a hair of float slack so exact
    # boundary cells do not flip on rounding; identical to the batch masks
    lo = n * flat * (1 - delta)
    hi = n * flat * (1 + delta)
    return bool(np.all((counts >= lo - 1e-12) & (counts <= hi + 1e-12)))


def binary_entropy(p):
    """h(p) in bits, with 0 log 0 = 0."""
    p = np.asarray(p, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p > 0.0) & (p < 1.0), terms, 0.0)


def cascade_rates(a, p0):
    """(R, R + C) of the cascade X -> BSC(a) -> W -> BSC(b) -> Y, a * b = p0.

    X is uniform, so R = I(X;W) = 1 - h(a) and
    R + C = I(XY;W) = 1 + h(p0) - h(a) - h(b), with b = (p0 - a) / (1 - 2a).
    """
    a = np.asarray(a, float)
    b = (p0 - a) / (1.0 - 2.0 * a)
    return 1.0 - binary_entropy(a), 1.0 + binary_entropy(p0) - binary_entropy(a) - binary_entropy(b)


def cascade_frontier_value(p0, lam, grid=20001, rounds=80):
    """min over a in [0, p0] of (1 - lam) R + lam (R + C) along the cascade curve.

    A dense grid brackets the minimum; golden-section rounds then shrink the
    bracket around the best grid point to below 1e-15 wide.
    """
    def value(a):
        r, rc = cascade_rates(a, p0)
        return (1.0 - lam) * r + lam * rc

    grid_a = np.linspace(0.0, p0, grid)
    i = int(np.argmin(value(grid_a)))
    lo, hi = grid_a[max(i - 1, 0)], grid_a[min(i + 1, grid - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(rounds):
        left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if value(left) <= value(right):
            hi = right
        else:
            lo = left
    return float(min(value(grid_a[i]), value(lo), value(hi)))


def pareto_polyline(rates, crs):
    """Undominated (rate, cr) points, sorted by rate with cr decreasing."""
    pts = np.stack([np.asarray(rates, float), np.asarray(crs, float)], axis=1)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    kept = []
    best_cr = np.inf
    for i in order:
        if pts[i, 1] < best_cr - 1e-12:
            kept.append(pts[i])
            best_cr = pts[i, 1]
    return np.array(kept)


def chebyshev_to_polyline(point, polyline, samples=257):
    """Max-coordinate distance from a point to a piecewise-linear frontier.

    Segments are densely sampled; with the default resolution the error is
    below segment length / 512, negligible at the tolerances used here.
    """
    point = np.asarray(point, float)
    polyline = np.asarray(polyline, float)
    if len(polyline) == 1:
        return float(np.abs(polyline[0] - point).max())
    best = np.inf
    ts = np.linspace(0.0, 1.0, samples)[:, None]
    for s in range(len(polyline) - 1):
        seg = polyline[s] * (1.0 - ts) + polyline[s + 1] * ts
        best = min(best, float(np.abs(seg - point).max(axis=1).min()))
    return best


def nonnegative_lstsq_residual(a, b):
    """min ||a x - b|| over x >= 0, by scanning every column subset.

    The minimizer can be taken supported on linearly independent columns
    (Carathéodory), where it is the restricted least-squares solution.  So
    the least residual among subsets whose restricted least-squares solution
    is nonnegative is the exact optimum, and the system has a nonnegative
    solution exactly when that residual is zero.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    best = float(np.linalg.norm(b))
    for k in range(1, a.shape[1] + 1):
        for cols in combinations(range(a.shape[1]), k):
            sub = a[:, cols]
            x = np.linalg.lstsq(sub, b, rcond=None)[0]
            if x.min() >= 0.0:
                best = min(best, float(np.linalg.norm(sub @ x - b)))
    return best


def z_block(target_xyz, w_given_x, z):
    """Equality system for q(.|z,.) built entry by entry; unknown is q as (w, y).

    Consistency rows (x, y) come first, then one row-sum row per w.
    """
    nx, ny, _ = target_xyz.shape
    nw = w_given_x.shape[1]
    p_xz = target_xyz.sum(axis=1)
    big = np.zeros((nx * ny + nw, nw * ny))
    for x in range(nx):
        for y in range(ny):
            for w in range(nw):
                big[x * ny + y, w * ny + y] = p_xz[x, z] * w_given_x[x, w]
    for w in range(nw):
        big[nx * ny + w, w * ny : (w + 1) * ny] = 1.0
    rhs = np.concatenate([target_xyz[:, :, z].reshape(-1), np.ones(nw)])
    return big, rhs


def half_word_product(head, c):
    """Word c's slice Π_i head[i, c, h, y_i] over (n, C, H, Y) letter factors.

    The running product of letters 0..n//2−1, and of the rest, each in
    letter order (the head half of n = 1 is empty: 1.0), then their product.
    """
    n, _, width, _ = head.shape
    halves = []
    for letters in (range(n // 2), range(n // 2, n)):
        part = np.ones((width, 1))
        for i in letters:
            part = (part[:, :, None] * head[i, c][:, None, :]).reshape(width, -1)
        halves.append(part)
    return (halves[0][:, :, None] * halves[1][:, None, :]).reshape(width, -1)


def output_word_law(chan, a_word, b_word, y_word):
    """P(y^n | a^n, b^n) = prod_i chan[a_i, b_i, y_i], multiplied in letter order.

    The two conditioning words are (side information, codeword) for the
    single-encoder codec and the decoded codeword pair for the two-encoder one.
    """
    value = 1.0
    for a, b, y in zip(a_word, b_word, y_word):
        value *= chan[a, b, y]
    return value


def first_occurrence_dedup(block):
    """(dedup indices over rows, first-occurrence row positions), by a dict loop."""
    seen = {}
    dedup = np.empty(block.shape[0], dtype=np.int64)
    firsts = []
    for l in range(block.shape[0]):
        key = block[l].tobytes()
        if key not in seen:
            seen[key] = len(firsts)
            firsts.append(l)
        dedup[l] = seen[key]
    return dedup, np.asarray(firsts, dtype=np.int64)


def encoder_weight_batch(xs, entries_mu, p_joint_xw, epsilon, params):
    """(weights (A, L), s (A,), valid (A,)) of one block, evaluated per index."""
    p_x = p_joint_xw.table.sum(axis=1)
    typical_x = marginal_typical_mask(xs, p_x, params.delta)
    pair_mask = pairwise_typical_mask(xs, entries_mu, p_joint_xw.table, params.delta)
    cond_xw = _conditional_rows(p_joint_xw, axis=1)  # (w, x)
    factors = cond_xw[entries_mu[None, :, :], xs[:, None, :]]  # (A, L, n)
    post = factors.prod(axis=2)
    p_xn = np.prod(p_x[xs], axis=1)
    scale = np.zeros_like(p_xn)
    live = typical_x & (p_xn > 0.0)
    scale[live] = (1.0 - epsilon) / ((1.0 + params.eta) * entries_mu.shape[0] * p_xn[live])
    weights = scale[:, None] * post * pair_mask
    s = weights.sum(axis=1)
    return weights, s, s <= 1.0


def block_weights(table, ids):
    """(weights (A, L), s (A,), valid (A,)) of one block, gathered from a weight table.

    ``ids[l]`` is the table column of index l (``codec_ptp._block_tables``).
    Each weight is the product a per-index evaluation forms, in the same
    letter order, and the gather keeps the per-index memory layout, so
    weights, s and valid equal ``encoder_weight_batch`` bit for bit.  The
    scalar encoder oracles below gather through it, as the codec's message
    tables gather with ``np.take``; the codec decides validity by
    ``codec_ptp._valid_rows``, with the same outcome.
    """
    # t[:, ids] would come back in another memory order, and the row sums
    # would then add in another order; np.take keeps the per-index layout.
    weights = np.take(table, ids, axis=1)
    s = weights.sum(axis=1)
    return weights, s, s <= 1.0


def block_weight_table(xs, entries_mu, p_joint_xw, epsilon, params):
    """(table (A, Θ), ids (L,)): one block's weights over its own distinct words."""
    ids, firsts = _first_occurrence_dedup(entries_mu)
    words = entries_mu[firsts]
    return _weight_columns(xs, words, entries_mu.shape[0], p_joint_xw, epsilon, params), ids


def encoder_validity_per_block(codebook, p_joint_xw, params, budget=None):
    """``codec_ptp.encoder_validity`` with one weight table per block, over its own distinct words."""
    p_x = p_joint_xw.marginalize((p_joint_xw.names[0],))
    xs = typical_set(p_x, params.n, params.delta, budget)
    if xs.shape[0] == 0 or codebook.degenerate:
        return True, 1.0
    flags = np.empty((codebook.k_size, xs.shape[0]), dtype=bool)
    for mu in range(codebook.k_size):
        flags[mu] = _valid_rows(*block_weight_table(
            xs, codebook.entries[mu], p_joint_xw, codebook.epsilon, params
        ))
    return bool(flags.all()), float(flags.mean())


def product_table(base, n):
    """n-fold product of a k-axis table: outer product, then interleave the axes."""
    k = base.ndim
    out = base
    for _ in range(n - 1):
        out = np.multiply.outer(out, base)
        out = out.transpose([ax for pair in zip(range(k), range(k, 2 * k)) for ax in pair])
        out = out.reshape([out.shape[2 * ax] * out.shape[2 * ax + 1] for ax in range(k)])
    return out


def max_entropy_kkt(a, b, p_w, q):
    """KKT measures of q as the max-entropy point of {q >= 0 : a q = b}.

    ``a`` is one z-block (consistency rows, then row sums) and ``b`` its
    right-hand side; the objective is sum_w p_w[w] H(q(.|w)), q of shape
    (|W|, |Y|).  A column is a forced zero when a row with b = 0 puts
    positive weight on it, since a >= 0.  Returns the largest equality miss
    |a q - b|, the least entry of q off the forced zeros, and the residual
    of the least-squares fit of the objective's gradient there,
    -p_w (ln q + 1), by the rows of ``a`` restricted to those columns: 0
    exactly when the gradient lies in their row space, the stationarity
    condition of an interior optimum.
    """
    x = q.reshape(-1)
    forced = ((a > 0) & (b[:, None] == 0)).any(axis=0)
    free = ~forced
    with np.errstate(divide="ignore"):
        grad = -(np.repeat(p_w, q.shape[1])[free] * (np.log(x[free]) + 1.0))
    a_free = a[:, free]
    mult = np.linalg.lstsq(a_free.T, grad, rcond=None)[0]
    return (float(np.abs(a @ x - b).max()), float(x[free].min()),
            float(np.linalg.norm(a_free.T @ mult - grad)))


def nnls(a, b):
    """One problem of ``rate_region._nnls_stack``: (x, residual 2-norm)."""
    x, norm = rate_region._nnls_stack(a[None], b[None])
    return x[0], float(norm[0])


def consistent_y_channel(target_xyz, w_given_x, tol):
    """One p(w|x) through ``rate_region._solve_stack``; q is None when rejected."""
    return rate_region._solve_stack(target_xyz, w_given_x[None], tol).row(0)


def solve_stack_every_nnls(target_xyz, w_given_x, tol):
    """``rate_region._solve_stack`` with every consistent negative block sent to NNLS.

    No block is rejected from its least-squares solution alone: the path
    before the full-rank pre-rejection, the reference for it.
    """
    nx, ny, nz = target_xyz.shape
    nb, _, nw = w_given_x.shape
    blocks, rhs, weights = rate_region._z_blocks(target_xyz, w_given_x)
    pinv, rank, _ = rate_region._z_pinv(rate_region._coefficients(target_xyz, w_given_x), ny)
    sol = rate_region._matvec(pinv, rhs)
    resid = np.abs(rate_region._matvec(blocks, sol) - rhs).max(axis=-1)
    consistent = resid <= 1e-9
    exact = sol.copy()
    negative = consistent & (sol.min(axis=-1) < 0.0)
    if negative.any():
        bz = np.nonzero(negative)
        exact[bz] = rate_region._nnls_stack(blocks[bz], rhs[bz[1]])[0]
    support = exact > 0.0
    support[~negative] = True
    q = rate_region._stochastic_rows(exact.reshape(nb, nz, nw, ny))
    gaps = rate_region._conditional_gaps(blocks, rhs, weights, q)
    fails = ~consistent | ~(gaps <= tol)
    newton = np.zeros((nb, nz), dtype=np.int64)
    dual = np.zeros((nb, nz, nx * ny))
    bz = np.nonzero((rank < nw * ny) & ~fails.any(axis=1)[:, None])
    if bz[0].size:
        c = target_xyz.sum(axis=1).T[bz[1], :, None] * w_given_x[bz[0]]
        q[bz], v, newton[bz] = rate_region._max_entropy_stack(c, target_xyz.transpose(2, 0, 1)[bz[1]])
        dual[bz] = v.reshape(len(v), -1)
        gaps[bz] = rate_region._conditional_gaps(blocks[bz], rhs[bz[1]], weights[bz[1]], q[bz])
        fails[bz] = ~(gaps[bz] <= tol)
    failing = np.where(fails.any(axis=1), fails.argmax(axis=1), -1)
    rows = np.flatnonzero(failing >= 0)
    at = failing[rows]
    residual = gaps.max(axis=1)
    residual[rows] = resid[rows, at]
    violation = np.zeros(nb)
    most_negative = -sol[rows, at].min(axis=-1)
    violation[rows] = np.where(consistent[rows, at] & (most_negative > 0.0), most_negative, 0.0)
    return rate_region.InnerSolve(q, residual, violation, blocks, rhs, support, failing, pinv, sol, newton, dual)


def scalarized(target_xyz, w_given_x, lam, tol):
    """(value, inner solve, clamped (r, r+c) or None) of one p(w|x)."""
    value, solve, rates = rate_region._scalarized_stack(target_xyz, w_given_x[None], np.array([lam]), tol)
    solve = solve.row(0)
    return float(value[0]), solve, None if solve.q is None else (float(rates[0, 0]), float(rates[0, 1]))


def logit_gradient(target_xyz, w_given_x, lam, solve, rates):
    """``rate_region._gradient_stack`` for one p(w|x), its inner solve and rates (or None).

    The solve goes back to a stack of one; a rejected q becomes NaN.
    """
    _, ny, nz = target_xyz.shape
    q = np.full((nz, w_given_x.shape[1], ny), np.nan) if solve.q is None else solve.q
    stacked = rate_region.InnerSolve(*(f if name == "rhs" else np.asarray(f)[None]
                                       for name, f in zip(solve._fields, solve._replace(q=q))))
    rates = np.array([(np.nan, np.nan) if rates is None else rates])
    return rate_region._gradient_stack(target_xyz, w_given_x[None], np.array([lam]), stacked, rates)[0]


def descend_from(target_xyz, lam, logits, iters, tol):
    """One descent of ``rate_region._lockstep``, from one (|X|, |W|) logit table."""
    return rate_region._lockstep(target_xyz, np.array([lam]), logits[None], np.array([iters]), tol)[0]


def coarse_grid_scan(nx, w_size, cap=24):
    """Logits of the strided coarse scan, relabeled duplicates included.

    Rows come from a bank of distributions (p, 1 - p for binary W; uniform
    and one 0.9 mass per letter otherwise); every product of |X| rows is
    taken in order and strided down to at most ``cap`` starts.
    """
    if w_size == 2:
        bank = [np.array([p, 1.0 - p]) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    else:
        bank = [np.full(w_size, 1.0 / w_size)]
        for j in range(w_size if w_size > 1 else 0):
            row = np.full(w_size, 0.1 / (w_size - 1))
            row[j] = 0.9
            bank.append(row)
    combos = [[]]
    for _ in range(nx):
        combos = [c + [row] for c in combos for row in bank]
    stride = max(1, len(combos) // cap)
    return [np.log(np.clip(np.array(c), 1e-6, None)) for c in combos[::stride]]


def central_difference_gradient(target_xyz, lam, logits, tol=1e-9, h=1e-5):
    """d(scalarized value)/d(logits) by central differences of step ``h``."""
    logits = np.array(logits, float)
    grad = np.zeros_like(logits)
    flat = logits.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = scalarized(target_xyz, rate_region._softmax(logits), lam, tol)[0]
        flat[k] = orig - h
        dn = scalarized(target_xyz, rate_region._softmax(logits), lam, tol)[0]
        flat[k] = orig
        gflat[k] = (up - dn) / (2 * h)
    return grad


def sequential_descent(target_xyz, lam, logits, iters, tol):
    """One frontier descent, one candidate at a time, as a ``_Descent``.

    Each step starts at 1/max(1, ||g||inf) and halves until the value falls
    by more than 1e-12, 25 trials at most.  ``solves`` counts the trials made.
    """
    w_given_x = rate_region._softmax(logits)
    value, solve, rates = scalarized(target_xyz, w_given_x, lam, tol)
    solves, steps = 1, 0
    for _ in range(iters):
        grad = logit_gradient(target_xyz, w_given_x, lam, solve, rates)
        norm = float(np.abs(grad).max())
        if norm < 1e-9:
            break
        step = 1.0 / max(1.0, norm)
        for _ in range(25):
            trial = logits - step * grad
            trial_w = rate_region._softmax(trial)
            trial_value, trial_solve, trial_rates = scalarized(target_xyz, trial_w, lam, tol)
            solves += 1
            if trial_value < value - 1e-12:
                logits, w_given_x = trial, trial_w
                value, solve, rates = trial_value, trial_solve, trial_rates
                steps += 1
                break
            step *= 0.5
        else:
            break
    return rate_region._Descent(value, w_given_x, solve.q, solve.residual, solves, steps)


# ---------------------------------------------------------------------------
# scalar codec chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncoderSubPmf:
    """Sub-PMF over codeword indices {0} ∪ [L] for one source word and μ.

    ``weights[0]`` is the deficit when valid; when the raw weights total more
    than one the flag drops and downstream consumers send message 0.
    """

    weights: np.ndarray
    s: float
    valid: bool


def _complement_to_one(partial: np.ndarray) -> float:
    """Mass completing ``partial`` so the full vector fsums to exactly one.

    ``fsum([1, -v...])`` is the correctly rounded value of 1 - Σv, and adding
    it back leaves a residual below half an ulp of 1, so the completed
    vector's compensated total rounds to 1.0 exactly.  The clamp covers the
    knife-edge where the true total already exceeds one by under an ulp.
    """
    return max(0.0, math.fsum(np.concatenate(([1.0], -np.asarray(partial, dtype=float)))))


def _coerce_word(seq, n: int) -> np.ndarray:
    arr = np.asarray(seq, dtype=int)
    if arr.shape != (n,):
        raise ValueError(f"expected a length-{n} word, got shape {arr.shape}")
    return arr


def encoder_subpmf(
    x_seq, mu: int, codebook: Codebook, p_joint_xw: JointPmf, params: CodecParams
) -> EncoderSubPmf:
    """Sub-PMF of the index encoder for one source word and one μ.

    Typical source words weight index l by the pruned posterior likelihood of
    codeword (l, μ); atypical ones put all mass on index 0.  The weights are
    a valid sub-PMF when their total s is at most one, index 0 absorbing the
    deficit; otherwise the flag drops and the message convention takes over.
    """
    x = _coerce_word(x_seq, params.n)
    weights, s, valid = block_weights(*block_weight_table(
        x[None, :], codebook.entries[mu], p_joint_xw, codebook.epsilon, params
    ))
    s0, valid0 = float(s[0]), bool(valid[0])
    out = np.empty(codebook.l_size + 1)
    out[1:] = weights[0]
    out[0] = _complement_to_one(out[1:]) if valid0 else 0.0
    return EncoderSubPmf(weights=out, s=s0, valid=valid0)


def induced_message_pmf(
    x_seq,
    mu: int,
    codebook: Codebook,
    binning: BinningMap,
    p_joint_xw: JointPmf,
    params: CodecParams,
) -> np.ndarray:
    """PMF over messages {0} ∪ [M] induced by encoder, dedup, and binning.

    An invalid sub-PMF sends message 0 deterministically.  Message 0 takes
    exactly the complement of the binned mass, so the vector always totals
    one under compensated summation.
    """
    enc = encoder_subpmf(x_seq, mu, codebook, p_joint_xw, params)
    return _message_pmf_from_labels(enc.weights[1:], enc.valid, binning.messages(mu), binning.m_size)


def _message_pmf_from_labels(
    weights: np.ndarray, valid: bool, labels: np.ndarray, m_size: int
) -> np.ndarray:
    """Three-case message law: invalid → 0, else bin sums with 0 = deficit."""
    out = np.zeros(m_size + 1)
    if not valid:
        out[0] = 1.0
        return out
    out += np.bincount(labels, weights=weights, minlength=m_size + 1)
    out[0] = _complement_to_one(out[1:])
    return out


def decoder_slack(delta: float, x_size: int, y_size: int, z_size: int) -> float:
    """The single-encoder decoder's widened slack δ₂ = δ(|X||Y| + |Z|)."""
    return delta * (x_size * y_size + z_size)


def decode_map(
    z_seq,
    m: int,
    mu: int,
    codebook: Codebook,
    binning: BinningMap,
    p_joint_wz: JointPmf,
    delta2: float,
) -> np.ndarray:
    """Codeword selected by the bin/side-information intersection, else w0.

    The candidate set is the distinct codewords of block μ whose bin is m and
    whose pair with z is typical at the widened slack delta2; the unique
    candidate wins, any other cardinality (including m = 0) falls back to the
    constant word of the first codeword symbol.
    """
    n = codebook.n
    z = _coerce_word(z_seq, n)
    w0 = np.zeros(n, dtype=np.int64)
    if not (0 <= m <= binning.m_size):
        raise ValueError(f"message must lie in 0..{binning.m_size}, got {m}")
    if m == 0:
        return w0
    _, firsts = _first_occurrence_dedup(codebook.entries[mu])
    words = codebook.entries[mu][firsts]
    candidates = words[binning.bins[mu] == m]
    if candidates.shape[0] == 0:
        return w0
    ok = pairwise_typical_mask(z[None, :], candidates, p_joint_wz.table.T, delta2)[0]
    matches = candidates[ok]
    if matches.shape[0] == 1:
        return matches[0]
    return w0


def dist_encoder_pmf(
    j: int,
    x_seq,
    mu: int,
    codebooks: DistCodebooks,
    binning: DistBinning,
    p_joint_xw: JointPmf,
    params: DistCodecParams,
) -> np.ndarray:
    """Message PMF of encoder j for one source word and randomness block.

    Same three-case rule as the single-encoder chain: oversubscribed or
    atypical inputs send message 0, otherwise bins collect the index weights
    and message 0 absorbs the deficit; the vector always totals one.
    """
    book = (codebooks.first, codebooks.second)[j - 1]
    x = np.asarray(x_seq, dtype=int)
    if x.shape != (params.n,):
        raise ValueError(f"expected a length-{params.n} word, got shape {x.shape}")
    weights, s, valid = block_weights(*block_weight_table(
        x[None, :], book.entries[mu], p_joint_xw, book.epsilon, params.legs[j - 1]
    ))
    return _message_pmf_from_labels(weights[0], bool(valid[0]), binning.labels[mu], binning.m_size)


def split_mu(mu: int, params: DistCodecParams) -> tuple[int, int]:
    """Positional decomposition μ → (μ₁, μ₂) with μ₁ in the high bits."""
    k1, k2 = params.k_sizes
    if not (0 <= mu < k1 * k2):
        raise ValueError(f"randomness index must lie in 0..{k1 * k2 - 1}, got {mu}")
    return mu // k2, mu % k2


def dist_decode_map(
    m1: int,
    m2: int,
    mu: int,
    codebooks: DistCodebooks,
    binnings: tuple[DistBinning, DistBinning],
    p_w1w2: JointPmf,
    params: DistCodecParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique jointly-typical codeword pair in the bin pair, else fallback.

    Candidates are indexed by (l₁, l₂) — duplicate codewords count multiply
    — with bins matched per encoder and the pair tested against the joint
    codeword law at the plain slack δ.  Every failure mode (either message
    0, empty intersection, or multiplicity) yields the fallback pair of
    constant first-symbol words.
    """
    mu1, mu2 = split_mu(mu, params)
    bn1, bn2 = binnings
    n = params.n
    fallback = (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    if not (0 <= m1 <= bn1.m_size and 0 <= m2 <= bn2.m_size):
        raise ValueError("messages must lie in 0..M_j")
    if m1 == 0 or m2 == 0:
        return fallback
    sel1 = np.flatnonzero(bn1.labels[mu1] == m1)
    sel2 = np.flatnonzero(bn2.labels[mu2] == m2)
    if sel1.size == 0 or sel2.size == 0:
        return fallback
    words1 = codebooks.first.entries[mu1][sel1]
    words2 = codebooks.second.entries[mu2][sel2]
    ok = pairwise_typical_mask(words1, words2, p_w1w2.table, params.delta)
    if int(ok.sum()) != 1:
        return fallback
    i, k = np.argwhere(ok)[0]
    return words1[i].copy(), words2[k].copy()


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


def dist_joint(tabs: _DistSystemTables) -> np.ndarray:
    """q[a1, a2, y] of the two-encoder law: one contraction over every block and message pair."""
    k1, k2 = tabs.messages1.shape[0], tabs.messages2.shape[0]
    out = 0.0
    for mu1, mu2 in np.ndindex(k1, k2):
        y_by_msgs = tabs.y_rows[tabs.decoded[mu1, mu2]]  # (M1+1, M2+1, Ay)
        by_m1 = np.tensordot(tabs.messages2[mu2], y_by_msgs, axes=([1], [1]))  # (A2, M1+1, Ay)
        out = out + np.tensordot(tabs.messages1[mu1], by_m1, axes=([1], [1]))
    return out * (tabs.p_x_words[:, :, None] / (k1 * k2))


def dense_induced_words(tabs: _SystemTables):
    """Yield q[x, y] = P(x, y, z_c) per z-word c as the mass times R dense output rows.

    The row mass is built as ``_induced_words`` builds it; each word's (R, Yⁿ) output rows
    come from ``_word_products`` of ``row_letters``, in the half-word
    association, and q is their (Ax, R) @ (R, Yⁿ) product: the reference
    for the contraction over distinct half words.
    """
    kk, ax, m1 = tabs.messages.shape
    n, az, rr, ny = tabs.row_letters.shape
    mu_i, z_i, m_i = np.nonzero(tabs.decoded)
    source = np.full((kk, az, rr), m1) + (m1 + 1) * np.arange(kk)[:, None, None]
    source[mu_i, z_i, tabs.decoded[mu_i, z_i, m_i]] = m_i + (m1 + 1) * mu_i
    by_message = tabs.messages.transpose(0, 2, 1)  # (K, M+1, Ax)
    padded = np.concatenate([by_message, np.zeros((kk, 1, ax))], axis=1).reshape(-1, ax)
    fallback = (tabs.decoded == 0).transpose(1, 0, 2).reshape(az, -1).astype(float)
    fallback_mass = fallback @ by_message.reshape(-1, ax)  # (Az, Ax)
    scale = tabs.p_xz_words.T / kk  # (Az, Ax)
    for c, rows in enumerate(_word_products(tabs.row_letters, int(tabs.zs[-1, 0]) + 1)):
        mass = padded[source[:, c]].sum(axis=0)  # (R, Ax)
        mass[0] = fallback_mass[c]
        mass *= scale[c]
        yield mass.T @ rows


def onehot_message_table(xs, codebook, numbering, labels, m_size, p_joint_xw, params):
    """(K, A, M+1) message PMFs and validity, each block's bins as an (L, M+1) one-hot.

    Gathers a block's (A, L) index weights per index and multiplies them by
    the one-hot of the indices' bins: the reference for the messages from
    (word, bin) counts.  Rows are decided by ``_valid_rows``.
    """
    msg = np.empty((codebook.k_size, xs.shape[0], m_size + 1))
    all_valid = True
    for mu, (table, ids) in enumerate(_block_tables(xs, codebook, numbering, p_joint_xw, params)):
        weights = np.take(table, ids, axis=1)
        valid = _valid_rows(table, ids)
        onehot = np.zeros((codebook.l_size, m_size + 1))
        onehot[np.arange(codebook.l_size), labels[mu]] = 1.0
        msg[mu] = weights @ onehot
        msg[mu, ~valid] = 0.0
        all_valid = all_valid and bool(valid.all())
    msg[:, :, 0] = np.maximum(0.0, 1.0 - msg[:, :, 1:].sum(axis=2))
    return msg, all_valid
