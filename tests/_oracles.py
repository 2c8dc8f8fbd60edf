"""Brute-force oracles shared by the rate-region, codec and acceptance tests.

The grid oracle scans every binary auxiliary channel p(w|x) on a uniform
(step = 1/steps) grid.  For binary Y with no side information the consistent
output channel p(y|w) is the unique solution of a 2x2 linear system, so each
grid cell is either infeasible or evaluates exactly — no inner search.

The nonnegative least-squares oracle decides the inner consistency solve's
question, whether {x >= 0 : A x = b} is empty, by brute force over column
subsets instead of an active set; ``z_block`` builds that system entry by
entry, as the reference for the vectorized construction.

``output_word_law`` evaluates one cell of a codec's output-word table as a
running product over letters, the reference for the letter-by-letter build.

``encoder_weight_batch`` evaluates the encoder's index weights once per
index, through an (A, L, n) gather, and ``first_occurrence_dedup`` numbers
words with a dictionary of their bytes: the references for the per-word
evaluation and the vectorised numbering, which must match them bit for bit.
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

``central_difference_gradient`` differentiates the frontier search's
scalarized value in the p(w|x) logits numerically, two full evaluations per
logit: the reference for the closed-form gradient.  ``sequential_descent``
runs one frontier descent one line-search trial at a time, through the
single-channel views of the search: the reference for the lockstep engine,
which must take the same steps and reach the same point bit for bit.

The scalar codec chain evaluates one source word, one message or one
randomness block at a time, the way the construction reads: the
single-encoder sub-PMF (``encoder_subpmf``), its message law
(``induced_message_pmf``) and decoder (``decode_map``), and their two-encoder
counterparts (``dist_encoder_pmf``, ``split_mu``, ``dist_decode_map``).  They
are the references for the codecs' message and decoder tables.  Message 0 is
the compensated complement ``_complement_to_one`` here and ``max(0, 1 - Σ)``
in the tables, and the two can differ in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from corrsynth import rate_region
from corrsynth.codec_dist import DistBinning, DistCodebooks, DistCodecParams, _leg_params
from corrsynth.codec_ptp import (
    BinningMap,
    Codebook,
    CodecParams,
    _block_weights,
    _conditional_rows,
    _first_occurrence_dedup,
    _valid_rows,
    _weight_columns,
)
from corrsynth.probability import JointPmf
from corrsynth.typicality import (
    Sequence,
    TypicalityParams,
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
    pinv, rank, _ = rate_region._pinv(blocks)
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
    arr = seq.as_array() if isinstance(seq, Sequence) else np.asarray(seq, dtype=int)
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
    weights, s, valid = _block_weights(*block_weight_table(
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


def decode_map(
    z_seq,
    m: int,
    mu: int,
    codebook: Codebook,
    binning: BinningMap,
    p_joint_wz: JointPmf,
    typ: TypicalityParams,
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
    ok = pairwise_typical_mask(z[None, :], candidates, p_joint_wz.table.T, typ.delta2)[0]
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
    book = codebooks.book(j)
    x = np.asarray(x_seq, dtype=int)
    if x.shape != (params.n,):
        raise ValueError(f"expected a length-{params.n} word, got shape {x.shape}")
    weights, s, valid = _block_weights(*block_weight_table(
        x[None, :], book.entries[mu], p_joint_xw, book.epsilon, _leg_params(params, j)
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
