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
``product_table`` builds the n-fold product table by outer products and
transposes, the reference for the in-place build.

``central_difference_gradient`` differentiates the frontier search's
scalarized value in the p(w|x) logits numerically, two full evaluations per
logit: the reference for the closed-form gradient.
"""

from itertools import combinations

import numpy as np

from corrsynth import rate_region
from corrsynth.codec_ptp import _conditional_rows
from corrsynth.typicality import marginal_typical_mask, pairwise_typical_mask


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


def product_table(base, n):
    """n-fold product of a k-axis table: outer product, then interleave the axes."""
    k = base.ndim
    out = base
    for _ in range(n - 1):
        out = np.multiply.outer(out, base)
        out = out.transpose([ax for pair in zip(range(k), range(k, 2 * k)) for ax in pair])
        out = out.reshape([out.shape[2 * ax] * out.shape[2 * ax + 1] for ax in range(k)])
    return out


def central_difference_gradient(target_xyz, lam, logits, tol=1e-9, h=1e-5):
    """d(scalarized value)/d(logits) by central differences of step ``h``."""
    logits = np.array(logits, float)
    grad = np.zeros_like(logits)
    flat = logits.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = rate_region._scalarized(target_xyz, rate_region._softmax(logits), lam, tol)[0]
        flat[k] = orig - h
        dn = rate_region._scalarized(target_xyz, rate_region._softmax(logits), lam, tol)[0]
        flat[k] = orig
        gflat[k] = (up - dn) / (2 * h)
    return grad
