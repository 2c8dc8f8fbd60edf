"""Achievable-rate evaluation and frontier search for correlated synthesis.

Point-to-point: an encoder sees X^n, a decoder sees side information Z^n and
must emit Y^n so the triple looks iid ~ p_XYZ.  The achievable (message rate,
common randomness) pairs for a given auxiliary channel pair are

    R >= I(X;W) - I(W;Z),        R + C >= I(XYZ;W) - I(W;Z),

evaluated on the induced joint p_XZ * p_{W|X} * p_{Y|ZW}.  Distributed: two
encoders see X1^n, X2^n and one decoder emits Y^n; four analogous lower
bounds apply, conditioned on a time-sharing variable Q.

The frontier tracer scalarizes the two point-to-point bounds over a weight
grid and, for each weight, runs multi-start softmax-parametrized descent on
p_{W|X}.  Once p_{W|X} is fixed the consistency constraint is linear in
p_{Y|ZW}, so each objective evaluation finds p_{Y|ZW}, one z at a time, as
a nonnegative solution of a small linear system.  An exact active-set
nonnegative least-squares solve (Lawson & Hanson 1974) decides it: such a
solution exists exactly when the residual vanishes, and one is accepted
when its residual, as :func:`ptp_consistency_residual` measures it, is
within the search tolerance that the winners are certified at.  The same
routine projects the polish steps back onto the consistent set.

The descent's gradient is exact.  Each block's solution is x_S = A_S^+ b on
its support S, so it moves with p_{W|X} by the derivative of the
pseudoinverse (Golub & Pereyra 1973), and the gradient of the bounds, or of
the infeasibility penalty, follows by the chain rule from what the current
point's inner solve already built: a descent step needs no extra solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .probability import Alphabet, CondPmf, JointPmf, table_entropy

logger = logging.getLogger(__name__)

PTP_AXES = ("X", "Y", "Z")
DIST_AXES = ("X1", "X2", "Y")

#: default search-time cap on auxiliary alphabet sizes (the support-lemma
#: bound (|X||Y||Z|)^2 is an upper limit, not a requirement, and explodes)
DEFAULT_W_CAP = 8
#: default cap on the time-sharing alphabet in distributed evaluations
DEFAULT_Q_CAP = 4


class InconsistentAuxError(ValueError):
    """Auxiliary channels whose induced marginal misses the target."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"aux channels are inconsistent with the target: residual {residual:.3e} > tol {tol:.3e}"
        )
        self.residual = residual
        self.tol = tol


# ---------------------------------------------------------------------------
# point-to-point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxChannelPtp:
    """Auxiliary pair (p_{W|X}, p_{Y|ZW}) defining a synthesis strategy.

    The induced joint p(w,x,y,z) = p(x,z) p(w|x) p(y|z,w) satisfies the
    chains Z - X - W and X - (Z,W) - Y by construction.
    """

    w_alphabet: Alphabet
    p_w_given_x: CondPmf
    p_y_given_zw: CondPmf

    def __post_init__(self):
        if self.p_w_given_x.out_alphabets != (self.w_alphabet,):
            raise ValueError("p_w_given_x must emit the W alphabet")
        if not self.p_w_given_x.defined.all() or not self.p_y_given_zw.defined.all():
            raise ValueError("aux channels must be fully defined")
        if self.p_y_given_zw.given_alphabets[1] != self.w_alphabet:
            raise ValueError("p_y_given_zw must condition on (Z, W)")


def aux_ptp_from_tables(w_symbols, x_alphabet, z_alphabet, y_alphabet, w_table, y_table):
    """Assemble an :class:`AuxChannelPtp` from raw conditional tables.

    ``w_table`` has shape (|X|, |W|); ``y_table`` has shape (|Z|, |W|, |Y|).
    """
    w_alpha = Alphabet(tuple(w_symbols))
    return AuxChannelPtp(
        w_alpha,
        CondPmf.from_rows(("X",), (x_alphabet,), ("W",), (w_alpha,), np.asarray(w_table, float)),
        CondPmf.from_rows(
            ("Z", "W"), (z_alphabet, w_alpha), ("Y",), (y_alphabet,), np.asarray(y_table, float)
        ),
    )


def ptp_consistency_residual(p_xyz: JointPmf, aux: AuxChannelPtp) -> float:
    """max over (x,z) with p(x,z)>0, and y, of |sum_w p(w|x)p(y|z,w) - p(y|x,z)|."""
    blocks, rhs, weights = _z_blocks(p_xyz.marginalize(PTP_AXES).table, aux.p_w_given_x.table)
    return float(_conditional_gaps(blocks, rhs, weights, aux.p_y_given_zw.table).max())


def ptp_joint_table(p_xz, w_given_x, y_given_zw) -> np.ndarray:
    """The (W, X, Y, Z) table p(x,z) p(w|x) p(y|z,w)."""
    return np.einsum("xz,xw,zwy->wxyz", p_xz, w_given_x, y_given_zw)


def ptp_induced_joint(p_xyz: JointPmf, aux: AuxChannelPtp) -> JointPmf:
    """The joint p(w,x,y,z) = p(x,z) p(w|x) p(y|z,w) with axes (W, X, Y, Z)."""
    p_xz = p_xyz.marginalize(("X", "Z")).table
    table = ptp_joint_table(p_xz, aux.p_w_given_x.table, aux.p_y_given_zw.table)
    return JointPmf(
        ("W",) + PTP_AXES,
        (aux.w_alphabet,) + tuple(p_xyz.alphabet(a) for a in PTP_AXES),
        table,
    )


@dataclass(frozen=True)
class PtpRatePair:
    """Clamped lower bounds (bits) plus the raw informations behind them."""

    r_min: float
    r_plus_c_min: float
    i_x_w: float
    i_w_z: float
    i_xyz_w: float

    @property
    def corner(self) -> tuple[float, float]:
        """(R, C) corner: least message rate, then least randomness at it."""
        return (self.r_min, max(0.0, self.r_plus_c_min - self.r_min))


def ptp_table_rates(p_xz: np.ndarray, w_given_x: np.ndarray, y_given_zw: np.ndarray) -> PtpRatePair:
    """Both bounds on the joint p(x,z) p(w|x) p(y|z,w), clamped at zero.

    Tables have shapes (|X|, |Z|), (|X|, |W|) and (|Z|, |W|, |Y|); every
    entropy is taken on the one induced joint.  Degenerate side information
    (|Z| = 1) makes I(W;Z) zero identically, not merely numerically; it is
    pinned to exact 0 in that case.  No consistency check: see
    :func:`ptp_rates_for`.
    """
    joint = ptp_joint_table(p_xz, w_given_x, y_given_zw)
    p_wx = joint.sum(axis=(2, 3))
    h_w = table_entropy(p_wx.sum(axis=1))
    i_x_w = h_w + table_entropy(p_wx.sum(axis=0)) - table_entropy(p_wx)
    i_w_z = 0.0
    if p_xz.shape[1] > 1:
        p_wz = joint.sum(axis=(1, 2))
        i_w_z = h_w + table_entropy(p_wz.sum(axis=0)) - table_entropy(p_wz)
    i_xyz_w = h_w + table_entropy(joint.sum(axis=0)) - table_entropy(joint)
    return PtpRatePair(max(0.0, i_x_w - i_w_z), max(0.0, i_xyz_w - i_w_z), i_x_w, i_w_z, i_xyz_w)


def ptp_rates_for(p_xyz: JointPmf, aux: AuxChannelPtp, tol: float = 1e-9) -> PtpRatePair:
    """Evaluate both lower bounds (:func:`ptp_table_rates`) for a consistent aux."""
    residual = ptp_consistency_residual(p_xyz, aux)
    if residual > tol:
        raise InconsistentAuxError(residual, tol)
    support_cap = (
        p_xyz.alphabet("X").size * p_xyz.alphabet("Y").size * p_xyz.alphabet("Z").size
    ) ** 2
    if aux.w_alphabet.size > support_cap:
        raise ValueError(f"|W| = {aux.w_alphabet.size} exceeds the support bound {support_cap}")
    return ptp_table_rates(
        p_xyz.marginalize(("X", "Z")).table, aux.p_w_given_x.table, aux.p_y_given_zw.table
    )


def ptp_membership(
    p_xyz: JointPmf, rate: float, cr: float, aux: AuxChannelPtp, tol: float = 1e-9
) -> bool:
    """Does this aux certify (rate, cr)?  One certifying aux suffices."""
    rates = ptp_rates_for(p_xyz, aux, tol=tol)
    return rate >= rates.r_min - tol and rate + cr >= rates.r_plus_c_min - tol


# ---------------------------------------------------------------------------
# inner solve: consistent p_{Y|ZW} for a fixed p_{W|X}
# ---------------------------------------------------------------------------


def _z_blocks(target_xyz: np.ndarray, w_given_x: np.ndarray):
    """Per-z equality systems for q(.|z,.): consistency rows then row-sum rows.

    The unknown of block z is q(.|z,.) flattened as (w, y); consistency row
    (x, y) reads sum_w p(x,z) p(w|x) q(y|z,w) = p(x,y,z).  Returns the
    matrices (|Z|, |X||Y| + |W|, |W||Y|), the right-hand sides
    (|Z|, |X||Y| + |W|) and per-row weights (|Z|, |X||Y|): 1/p(x,z), or 0
    where p(x,z) = 0, which turn consistency-row residuals into conditional
    ones.
    """
    nx, ny, nz = target_xyz.shape
    nw = w_given_x.shape[1]
    nxy = nx * ny
    p_xz = target_xyz.sum(axis=1)
    a = p_xz.T[:, :, None] * w_given_x  # (z, x, w)
    blocks = np.empty((nz, nxy + nw, nw * ny))
    blocks[:, :nxy] = (a[:, :, None, :, None] * np.eye(ny)[:, None, :]).reshape(nz, nxy, nw * ny)
    blocks[:, nxy:] = np.repeat(np.eye(nw), ny, axis=1)
    rhs = np.ones((nz, nxy + nw))
    rhs[:, :nxy] = target_xyz.transpose(2, 0, 1).reshape(nz, nxy)
    weights = np.divide(1.0, p_xz, out=np.zeros_like(p_xz), where=p_xz > 0).T.repeat(ny, axis=1)
    return blocks, rhs, weights


def _conditional_gaps(blocks, rhs, weights, q) -> np.ndarray:
    """Per z: max over y, and x with p(x,z)>0, of |sum_w p(w|x)q(y|z,w) - p(y|x,z)|.

    Arguments are (slices of) the output of :func:`_z_blocks` and q with
    shape (|Z|, |W|, |Y|).  A NaN in q yields NaN, which fails every test.
    """
    nxy = weights.shape[1]
    joint = np.einsum("zrc,zc->zr", blocks[:, :nxy], q.reshape(len(q), -1)) - rhs[:, :nxy]
    return np.abs(joint * weights).max(axis=1)


def _nnls(a: np.ndarray, b: np.ndarray):
    """Lawson-Hanson active-set solution of min ||a x - b|| subject to x >= 0.

    Returns (x, residual 2-norm).  Each outer step frees the bound variable
    with the largest positive dual; each inner step walks back towards the
    new least-squares point until a variable hits zero, and drops it.  No
    passive set repeats, so it ends in finitely many steps (Lawson & Hanson
    1974, ch. 23); the outer cap only guards against rounding cycles, and
    since callers test the residual, stopping early can only reject.
    """
    n = a.shape[1]
    tol = 10.0 * np.finfo(float).eps * max(a.shape) * np.abs(a).sum(axis=0).max()
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    dual = a.T @ b
    for _ in range(3 * n):
        if passive.all() or dual[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, dual))] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (s[passive] > 0).all():
                break
            blocking = np.flatnonzero(passive & (s <= 0))
            ratios = x[blocking] / (x[blocking] - s[blocking])
            x += ratios.min() * (s - x)
            passive &= x > tol
            passive[blocking[np.argmin(ratios)]] = False
        x = s
        dual = a.T @ (b - a @ x)
    return x, float(np.linalg.norm(a @ x - b))


def _stochastic_rows(q: np.ndarray) -> np.ndarray:
    """Rows rescaled to sum to one; an all-zero row becomes NaN and fails every test."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return q / q.sum(axis=-1, keepdims=True)


class InnerSolve(NamedTuple):
    """What one inner solve decided, and what the descent's gradient reuses."""

    #: consistent p(y|z,w) of shape (|Z|, |W|, |Y|), or None when rejected
    q: np.ndarray | None
    residual: float
    violation: float
    blocks: np.ndarray
    rhs: np.ndarray
    #: (|Z|, |W||Y|) columns each accepted block's solution lives on: all
    #: of them on the least-squares path, the passive set on the NNLS path
    support: np.ndarray
    #: the block that rejected the channel, or -1 when every block passed
    failing: int


def _consistent_y_channel(target_xyz: np.ndarray, w_given_x: np.ndarray, tol: float) -> InnerSolve:
    """Consistent p(y|z,w) for a fixed p(w|x), or None when none exists.

    For each z the constraints sum_w p(x,z) p(w|x) q(y|z,w) = p(x,y,z) and
    sum_y q(y|z,w) = 1 are linear in q(.|z,.), so a consistent q is a
    nonnegative solution of one small linear system per z.  The block's
    least-squares solution is that solution when it is already nonnegative;
    otherwise the exact nonnegative least-squares solve :func:`_nnls`
    decides.  A block is feasible exactly when that solution, rows
    renormalized, has conditional residual (what
    :func:`ptp_consistency_residual` measures) at most ``tol``; an empty
    feasible set leaves a residual and is rejected at once.

    Accepted: q, its conditional residual, and violation 0.  Rejected: q is
    None, with the least-squares residual (max norm) of the failing block and
    max(0, -min) of its least-squares solution, the slope inputs of the
    infeasibility penalty.
    """
    _, ny, nz = target_xyz.shape
    nw = w_given_x.shape[1]
    blocks, rhs, weights = _z_blocks(target_xyz, w_given_x)
    q = np.empty((nz, nw, ny))
    support = np.ones((nz, nw * ny), dtype=bool)
    worst = 0.0
    for z, (a, b) in enumerate(zip(blocks, rhs)):
        sol = np.linalg.lstsq(a, b, rcond=None)[0]
        resid = float(np.abs(a @ sol - b).max())
        if resid > 1e-9:
            return InnerSolve(None, resid, 0.0, blocks, rhs, support, z)
        exact = sol
        if sol.min() < 0.0:
            exact = _nnls(a, b)[0]
            support[z] = exact > 0.0
        q[z] = _stochastic_rows(exact.reshape(nw, ny))
        at_z = slice(z, z + 1)
        gap = float(_conditional_gaps(blocks[at_z], rhs[at_z], weights[at_z], q[at_z])[0])
        if not gap <= tol:
            return InnerSolve(None, resid, max(0.0, -float(sol.min())), blocks, rhs, support, z)
        worst = max(worst, gap)
    return InnerSolve(q, worst, 0.0, blocks, rhs, support, -1)


def _project_consistent(blocks, rhs, weights, point, tol):
    """Euclidean projection of ``point`` onto the consistent q-set.

    Per z this is least-distance programming: minimize ||d|| subject to
    point + d >= 0 and A (point + d) = b, each equality written as two
    inequalities G d >= h.  Lawson & Hanson (1974, ch. 23) solve it as one
    NNLS: with r the residual of [G^T; h^T] u ~ e_last, d = -r[:-1] / r[-1],
    and r = 0 means the set is empty.  Returns (q, conditional residual), or
    None when q fails the test of :func:`_consistent_y_channel`.
    """
    out = np.empty_like(point)
    for z, (a, b) in enumerate(zip(blocks, rhs)):
        t = point[z].reshape(-1)
        miss = b - a @ t
        e = np.vstack([np.hstack([np.eye(t.size), a.T, -a.T]), np.concatenate([-t, miss, -miss])])
        f = np.zeros(t.size + 1)
        f[-1] = 1.0
        r = e @ _nnls(e, f)[0] - f
        with np.errstate(divide="ignore", invalid="ignore"):
            d = -r[:-1] / r[-1]
        # d meets the bounds up to rounding; clip that away before the test
        out[z] = _stochastic_rows(np.maximum(t + d, 0.0).reshape(point[z].shape))
    gap = float(_conditional_gaps(blocks, rhs, weights, out).max())
    if not gap <= tol:
        return None
    return out, gap


def _log2_ratio(num, den):
    """log2(num / den), and 0 where num is 0: the convention 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num > 0, np.log2(num / den), 0.0)


def _i_xyz_w_partials(c, q):
    """Partials of I(XYZ;W) = H(W) + H(XYZ) - H(WXYZ) in c and in q.

    The joint is p(w,x,y,z) = c[z,x,w] q[z,w,y], with c[z,x,w] = p(x,z) p(w|x)
    and H(XYZ) held constant: on the consistent set it is the target's.  The
    partial in a joint cell is log2(p(w,x,y,z) / p(w)), taken as 0 on an
    empty cell.  Returns d/dc of shape (|Z|, |X|, |W|) and d/dq of shape
    (|Z|, |W|, |Y|).
    """
    joint = c[:, :, :, None] * q[:, None, :, :]  # (z, x, w, y)
    log_ratio = _log2_ratio(joint, joint.sum(axis=(0, 1, 3))[:, None])
    return np.einsum("zxwy,zwy->zxw", log_ratio, q), np.einsum("zxwy,zxw->zwy", log_ratio, c)


def _polish_y_channel(target_xyz, w_given_x, q, resid, tol, iters=30):
    """Descend I(XYZ;W) over the consistent q-polytope (projected gradient).

    Only a consistency system with a positive-dimensional solution set has
    anything to polish; a unique q is returned unchanged.  Each gradient
    step is projected back exactly by :func:`_project_consistent`, and a
    step is kept only when it lowers I(XYZ;W).  Returns q and its
    conditional residual (``resid`` belongs to the q passed in).
    """
    blocks, rhs, weights = _z_blocks(target_xyz, w_given_x)
    if np.linalg.matrix_rank(blocks).sum() == blocks.shape[0] * blocks.shape[2]:
        return q, resid
    p_xz = target_xyz.sum(axis=1)
    c = p_xz.T[:, :, None] * w_given_x

    def info(qq):
        return ptp_table_rates(p_xz, w_given_x, qq).i_xyz_w

    best = info(q)
    step = 0.25
    for _ in range(iters):
        grad = _i_xyz_w_partials(c, q)[1]
        projected = _project_consistent(blocks, rhs, weights, q - step * grad, tol)
        if projected is None:
            step *= 0.5
            continue
        val = info(projected[0])
        if val < best - 1e-12:
            best, (q, resid) = val, projected
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return q, resid


# ---------------------------------------------------------------------------
# frontier tracing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the scalarized frontier search."""

    w_cap: int = DEFAULT_W_CAP
    restarts: int = 2
    lambda_grid: int = 33
    iters: int = 60
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name, least in (("w_cap", 1), ("restarts", 0), ("lambda_grid", 1), ("iters", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"search {name} must be at least {least}, got {getattr(self, name)}")
        if not self.tol > 0:
            raise ValueError(f"search tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class FrontierPoint:
    lam: float
    rate: float
    cr: float
    value: float
    aux: AuxChannelPtp
    residual: float


@dataclass(frozen=True)
class FrontierResult:
    points: tuple[FrontierPoint, ...]
    #: λ values for which no consistent aux was found
    failures: tuple[float, ...]
    #: every optimizer outcome before Pareto pruning, one per λ
    raw: tuple[FrontierPoint, ...]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _weigh(lam, rates: PtpRatePair) -> float:
    """The scalarized value (1-λ) r_min + λ r_plus_c_min of clamped rates."""
    return (1.0 - lam) * rates.r_min + lam * rates.r_plus_c_min


def _scalarized(target_xyz, w_given_x, lam, tol):
    """(value, inner solve, clamped (r, r+c) or None) of one p(w|x)."""
    solve = _consistent_y_channel(target_xyz, w_given_x, tol)
    if solve.q is None:
        # infeasible: large penalty, sloped by how badly equalities fail
        return 10.0 + 100.0 * (solve.residual + solve.violation), solve, None
    rates = ptp_table_rates(target_xyz.sum(axis=1), w_given_x, solve.q)
    return _weigh(lam, rates), solve, (rates.r_min, rates.r_plus_c_min)


def _bilinear_in_c(rows, cols, dims):
    """Slope of sum(dA * outer(rows, cols)) per unit of c[z,x,w].

    c[z,x,w] sits at row (x,y), column (w,y) of block z for every y, so the
    slope is sum_y rows(x,y) cols(w,y).  Works on one block or a stack.
    """
    nx, nw, ny = dims
    lead = rows.shape[:-1]
    return np.einsum(
        "...xy,...wy->...xw", rows[..., : nx * ny].reshape(lead + (nx, ny)), cols.reshape(lead + (nw, ny))
    )


def _solution_slope(blocks, support, x, g, dims):
    """g . dx per unit of c, where x = A_S^+ b solves a consistent block.

    On the support S, dx = -A_S^+ dA x + (I - A_S^+ A_S) dA^T A_S^+T x
    (Golub & Pereyra 1973), so g . dx = sum(dA * (outer(s, v) - outer(u, x)))
    with u = A_S^+T g, s = A_S^+T x and v = (I - A_S^+ A_S) g.  Columns off
    S are masked to zero, which zeroes the pseudoinverse's rows there.
    """
    masked = blocks * support[..., None, :]
    pinv = np.linalg.pinv(masked)
    u = np.einsum("...nm,...n->...m", pinv, g)
    s = np.einsum("...nm,...n->...m", pinv, x)
    v = support * (g - (pinv @ (masked @ g[..., None]))[..., 0])
    return _bilinear_in_c(s, v, dims) - _bilinear_in_c(u, x, dims)


def _logit_gradient(target_xyz, w_given_x, lam, solve, rates):
    """Exact gradient of the scalarized value in the p(w|x) logits.

    Every term is differentiated in c[z,x,w] = p(x,z) p(w|x), the
    coefficients of the inner solve's consistency rows, and pulled back
    through p(w|x) and the softmax at the end.  At a feasible point the
    value is (1-λ) max(0, I(X;W) - I(W;Z)) + λ max(0, I(XYZ;W) - I(W;Z));
    I(XYZ;W) also moves with q = p(y|z,w), which each block's solution
    carries into c by :func:`_solution_slope`.  At an infeasible point the
    penalty 10 + 100 (resid + neg) slopes with the failing block's
    least-squares solution: its most negative entry when the block is
    consistent, otherwise its largest residual, whose projection
    r = (A A^+ - I) b moves as dr = (I - A A^+) dA sol - A^+T dA^T r.
    Empty cells contribute 0 (0 log 0 = 0), so the gradient stays finite
    when p(w|x) or q has exact zeros.
    """
    nx, ny, nz = target_xyz.shape
    nw = w_given_x.shape[1]
    dims = (nx, nw, ny)
    p_xz = target_xyz.sum(axis=1)
    c = p_xz.T[:, :, None] * w_given_x  # (z, x, w)
    d_c = np.zeros_like(c)
    if solve.q is None:
        z = solve.failing
        a, b = solve.blocks[z], solve.rhs[z]
        pinv = np.linalg.pinv(a)
        sol = pinv @ b
        if solve.violation > 0.0:
            g = np.zeros_like(sol)
            g[np.argmin(sol)] = -100.0
            d_c[z] = _solution_slope(a, np.ones(sol.shape, dtype=bool), sol, g, dims)
        else:
            r = a @ sol - b
            worst = np.argmax(np.abs(r))
            e = np.zeros_like(r)
            e[worst] = 100.0 * np.sign(r[worst])
            ae = pinv @ e
            d_c[z] = _bilinear_in_c(e - a @ ae, sol, dims) - _bilinear_in_c(r, ae, dims)
    else:
        pw = c.sum(axis=(0, 1))
        w_z = _log2_ratio(c.sum(axis=1), pw)[:, None, :]  # log2 p(w,z)/p(w)
        if rates[0] > 0:
            d_c += (1.0 - lam) * (_log2_ratio(c.sum(axis=0), pw) - w_z)
        if rates[1] > 0:
            d_cq, d_q = _i_xyz_w_partials(c, solve.q)
            through_q = _solution_slope(
                solve.blocks, solve.support, solve.q.reshape(nz, -1), d_q.reshape(nz, -1), dims
            )
            d_c += lam * (d_cq - w_z + through_q)
    d_w = np.einsum("xz,zxw->xw", p_xz, d_c)
    return w_given_x * (d_w - (w_given_x * d_w).sum(axis=1, keepdims=True))


class _Descent(NamedTuple):
    value: float
    w_given_x: np.ndarray
    q: np.ndarray | None
    residual: float
    #: inner solves and accepted descent steps this run took
    solves: int
    steps: int


def _descend_from(target_xyz, lam, logits, iters, tol) -> _Descent:
    """Gradient descent with backtracking on the p_{W|X} logits.

    The gradient is exact (:func:`_logit_gradient`) and reuses the current
    point's inner solve, so a step costs one inner solve per line-search
    trial and nothing more.  The last point's output channel is polished.
    """
    w_given_x = _softmax(logits)
    value, solve, rates = _scalarized(target_xyz, w_given_x, lam, tol)
    solves, steps = 1, 0
    for _ in range(iters):
        grad = _logit_gradient(target_xyz, w_given_x, lam, solve, rates)
        norm = float(np.abs(grad).max())
        if norm < 1e-9:
            break
        step = 1.0 / max(1.0, norm)
        for _ in range(25):
            trial = logits - step * grad
            trial_w = _softmax(trial)
            trial_value, trial_solve, trial_rates = _scalarized(target_xyz, trial_w, lam, tol)
            solves += 1
            if trial_value < value - 1e-12:
                logits, w_given_x = trial, trial_w
                value, solve, rates = trial_value, trial_solve, trial_rates
                steps += 1
                break
            step *= 0.5
        else:
            break
    q, resid = solve.q, solve.residual
    if q is not None and lam > 0:
        q, resid = _polish_y_channel(target_xyz, w_given_x, q, resid, tol)
        value = _weigh(lam, ptp_table_rates(target_xyz.sum(axis=1), w_given_x, q))
    return _Descent(value, w_given_x, q, resid, solves, steps)


def _corner_logit_inits(nx, w_size):
    """Deterministic starts: copy-like, constant-W, uniform."""
    inits = []
    diag = -6.0 * np.ones((nx, w_size))
    for x in range(nx):
        diag[x, x % w_size] = 6.0
    inits.append(diag)
    const = -6.0 * np.ones((nx, w_size))
    const[:, 0] = 6.0
    inits.append(const)
    inits.append(np.zeros((nx, w_size)))
    return inits


def _coarse_grid_inits(nx, w_size, cap=24):
    """Low-resolution scans of p_{W|X} as extra deterministic starts.

    Rows are drawn from a small bank of distributions; the full product is
    strided down to at most ``cap`` starts so higher-dimensional searches
    stay affordable.
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
    inits = []
    for c in combos[::stride]:
        probs = np.clip(np.array(c), 1e-6, None)
        inits.append(np.log(probs))
    return inits


def ptp_frontier(p_xyz: JointPmf, cfg: SearchConfig = SearchConfig()) -> FrontierResult:
    """Trace (R, C) corner points of the point-to-point region.

    For each λ on a uniform grid, minimizes (1-λ) r_min + λ r_plus_c_min over
    the aux pair by multi-start descent; the best aux per λ is re-evaluated
    through :func:`ptp_rates_for` and its corner recorded.  Points are Pareto
    pruned (ties broken lexicographically by R then C).  Deterministic given
    the seed: every (λ, restart) pair owns a derived RNG stream, and results
    merge by sorted order, so parallel evaluation cannot reorder them.

    Each λ logs one DEBUG record: its inner solves, accepted descent steps,
    the winning start (corner, coarse, random or warm, with its index; a
    warm start's index is the λ whose winner it adopted) and the winner's
    residual.
    """
    target = p_xyz.marginalize(PTP_AXES).table
    p_xz = target.sum(axis=1)
    nx, ny, nz = target.shape
    w_size = min(cfg.w_cap, (nx * ny * nz) ** 2)
    # strictly interior weights keep every argmin Pareto-consistent (a pure
    # single-coordinate objective would leave the other coordinate loose)
    lams = np.linspace(0.0, 1.0, cfg.lambda_grid)
    effective = np.clip(lams, 5e-4, 1.0 - 5e-4)
    short_iters = max(10, cfg.iters // 3)
    winners: list[tuple[_Descent, tuple[str, int]] | None] = []
    effort = np.zeros((len(lams), 2), dtype=np.int64)  # inner solves, steps

    def descend(li, logits, iters, start, best):
        run = _descend_from(target, float(effective[li]), logits, iters, cfg.tol)
        effort[li] += (run.solves, run.steps)
        if run.q is not None and (best is None or run.value < best[0].value):
            return run, start
        return best

    for li in range(len(lams)):
        # corner and random starts descend in full; the coarse scan exists for
        # basin coverage and only needs enough steps to sort the basins out
        corners = _corner_logit_inits(nx, w_size)
        starts = [(logits, cfg.iters, ("corner", i)) for i, logits in enumerate(corners)]
        coarse = _coarse_grid_inits(nx, w_size)
        starts.extend((logits, short_iters, ("coarse", i)) for i, logits in enumerate(coarse))
        for s in range(cfg.restarts):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(li, s)))
            starts.append((rng.normal(0.0, 2.0, size=(nx, w_size)), cfg.iters, ("random", s)))
        best = None
        for logits, iters, start in starts:
            best = descend(li, logits, iters, start, best)
        winners.append(best)
    # warm-start sweep: each λ may adopt another λ's winner if it scores
    # better, then takes a short polishing descent from the adopted channel;
    # each pool entry carries its rate pair so candidates can be ranked per
    # λ, and the λ it came from
    pool: list[tuple[np.ndarray, PtpRatePair, int]] = []
    seen = set()
    for li, w in enumerate(winners):
        if w is None:
            continue
        run = w[0]
        key = tuple(np.round(run.w_given_x, 6).reshape(-1))
        if key not in seen:
            seen.add(key)
            pool.append((run.w_given_x, ptp_table_rates(p_xz, run.w_given_x, run.q), li))
    raw_points: list[FrontierPoint] = []
    failures: list[float] = []
    for li, lam in enumerate(effective):
        best = winners[li]
        for wt, _, source in sorted(pool, key=lambda e: _weigh(lam, e[1]))[:6]:
            with np.errstate(all="ignore"):
                logits = np.log(np.clip(wt, 1e-12, None))
            best = descend(li, logits, short_iters, ("warm", source), best)
        solves, steps = effort[li]
        if best is None:
            logger.debug("lambda %.6g: %d inner solves, %d descent steps, no consistent aux",
                         lams[li], solves, steps)
            failures.append(float(lams[li]))
            continue
        (value, wt, q, resid, _, _), (kind, index) = best
        logger.debug("lambda %.6g: %d inner solves, %d descent steps, winner %s start %d, residual %.3e",
                     lams[li], solves, steps, kind, index, resid)
        aux = aux_ptp_from_tables(
            tuple(f"w{i}" for i in range(w_size)),
            p_xyz.alphabet("X"),
            p_xyz.alphabet("Z"),
            p_xyz.alphabet("Y"),
            wt,
            q,
        )
        rates = ptp_rates_for(p_xyz, aux, tol=cfg.tol)
        r, c = rates.corner
        raw_points.append(FrontierPoint(float(lams[li]), r, c, float(value), aux, float(resid)))
    pruned = pareto_prune(raw_points)
    return FrontierResult(tuple(pruned), tuple(failures), tuple(raw_points))


def pareto_prune(points) -> list[FrontierPoint]:
    """Drop dominated (R, C) points; lexicographic (R, C) order on output."""
    ordered = sorted(points, key=lambda p: (p.rate, p.cr, p.lam))
    kept: list[FrontierPoint] = []
    for pt in ordered:
        dominated = any(
            (other.rate <= pt.rate + 1e-12 and other.cr <= pt.cr + 1e-12)
            and (other.rate < pt.rate - 1e-12 or other.cr < pt.cr - 1e-12)
            for other in ordered
            if other is not pt
        )
        duplicate = any(
            abs(other.rate - pt.rate) <= 1e-12 and abs(other.cr - pt.cr) <= 1e-12
            for other in kept
        )
        if not dominated and not duplicate:
            kept.append(pt)
    return kept


# ---------------------------------------------------------------------------
# distributed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxChannelDist:
    """Time-shared auxiliary channels for the two-encoder setting.

    Induced joint: p(q) p(x1,x2) p(w1|q,x1) p(w2|q,x2) p(y|q,w1,w2); the
    chains W1 - (Q,X1) - (Q,X2) - W2 and (X1,X2) - (Q,W1,W2) - Y hold by
    construction.
    """

    q_alphabet: Alphabet
    p_q: np.ndarray
    p_w1_given_qx1: CondPmf
    p_w2_given_qx2: CondPmf
    p_y_given_qw1w2: CondPmf

    def __post_init__(self):
        object.__setattr__(self, "p_q", np.asarray(self.p_q, float))
        if self.p_q.shape != (self.q_alphabet.size,):
            raise ValueError("p_q shape must match the Q alphabet")
        if not abs(self.p_q.sum() - 1.0) <= 1e-9 or (self.p_q < 0).any():
            raise ValueError("p_q must be a distribution")
        for ch in (self.p_w1_given_qx1, self.p_w2_given_qx2, self.p_y_given_qw1w2):
            if not ch.defined.all():
                raise ValueError("aux channels must be fully defined")

    @property
    def w1_alphabet(self) -> Alphabet:
        return self.p_w1_given_qx1.out_alphabets[0]

    @property
    def w2_alphabet(self) -> Alphabet:
        return self.p_w2_given_qx2.out_alphabets[0]


def aux_dist_from_tables(
    q_symbols, p_q, x1_alphabet, x2_alphabet, y_alphabet, w1_symbols, w2_symbols, w1_table, w2_table, y_table
):
    """Tables: w1 (|Q|,|X1|,|W1|); w2 (|Q|,|X2|,|W2|); y (|Q|,|W1|,|W2|,|Y|)."""
    q_alpha = Alphabet(tuple(q_symbols))
    w1_alpha = Alphabet(tuple(w1_symbols))
    w2_alpha = Alphabet(tuple(w2_symbols))
    return AuxChannelDist(
        q_alpha,
        np.asarray(p_q, float),
        CondPmf.from_rows(("Q", "X1"), (q_alpha, x1_alphabet), ("W1",), (w1_alpha,), np.asarray(w1_table, float)),
        CondPmf.from_rows(("Q", "X2"), (q_alpha, x2_alphabet), ("W2",), (w2_alpha,), np.asarray(w2_table, float)),
        CondPmf.from_rows(
            ("Q", "W1", "W2"), (q_alpha, w1_alpha, w2_alpha), ("Y",), (y_alphabet,), np.asarray(y_table, float)
        ),
    )


def dist_joint_table(p_q, p_x1x2, w1_given_qx1, w2_given_qx2, y_given_qw1w2) -> np.ndarray:
    """The (Q, W1, W2, X1, X2, Y) table p(q) p(x1,x2) p(w1|q,x1) p(w2|q,x2) p(y|q,w1,w2)."""
    return np.einsum(
        "q,ab,qaw,qbv,qwvy->qwvaby", p_q, p_x1x2, w1_given_qx1, w2_given_qx2, y_given_qw1w2
    )


def dist_induced_joint(p_x1x2y: JointPmf, aux: AuxChannelDist) -> JointPmf:
    table = dist_joint_table(
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


def dist_consistency_residual(p_x1x2y: JointPmf, aux: AuxChannelDist) -> float:
    """max |induced (X1,X2,Y) marginal - target| over all cells."""
    induced = dist_induced_joint(p_x1x2y, aux).marginalize(DIST_AXES).table
    target = p_x1x2y.marginalize(DIST_AXES).table
    return float(np.abs(induced - target).max())


@dataclass(frozen=True)
class DistRateTriple:
    """The four clamped lower bounds of the two-encoder region (bits)."""

    r1: float
    r2: float
    r1_plus_r2: float
    r1_plus_r2_plus_c: float
    informations: tuple[float, float, float, float, float]


def dist_table_rates(joint: np.ndarray) -> DistRateTriple:
    """The four bounds of a (Q, W1, W2, X1, X2, Y) joint table, clamped at zero.

    The informations, each conditioned on Q (axis 0), are I(X1;W1|Q),
    I(X2;W2|Q), I(X1X2W2Y;W1|Q), I(X1X2Y;W2|Q) and I(W1;W2|Q).
    """

    def h(*axes):  # H(Q, axes)
        return table_entropy(joint.sum(axis=tuple(a for a in range(1, 6) if a not in axes)))

    h_q = h()

    def info(a, b):  # I(A;B|Q) = H(AQ) + H(BQ) - H(ABQ) - H(Q)
        return h(*a) + h(*b) - h(*a, *b) - h_q

    i1, i2 = info((3,), (1,)), info((4,), (2,))
    i3, i4 = info((2, 3, 4, 5), (1,)), info((3, 4, 5), (2,))
    i5 = info((1,), (2,))
    bounds = (i1 - i5, i2 - i5, i1 + i2 - i5, i3 + i4 - i5)
    return DistRateTriple(*(max(0.0, b) for b in bounds), informations=(i1, i2, i3, i4, i5))


def dist_rates_for(
    p_x1x2y: JointPmf,
    aux: AuxChannelDist,
    tol: float = 1e-9,
    enforce_cardinality: bool = True,
) -> DistRateTriple:
    """Evaluate the four lower bounds on the induced joint.

    The per-encoder cardinality defaults |W_j| <= |X_j| are working caps, not
    theoretical necessities; pass ``enforce_cardinality=False`` to lift them.
    """
    residual = dist_consistency_residual(p_x1x2y, aux)
    if residual > tol:
        raise InconsistentAuxError(residual, tol)
    if enforce_cardinality:
        if aux.w1_alphabet.size > p_x1x2y.alphabet("X1").size:
            raise ValueError("|W1| exceeds |X1|; pass enforce_cardinality=False to allow")
        if aux.w2_alphabet.size > p_x1x2y.alphabet("X2").size:
            raise ValueError("|W2| exceeds |X2|; pass enforce_cardinality=False to allow")
    if aux.q_alphabet.size > DEFAULT_Q_CAP:
        logger.debug("time-sharing alphabet size %d exceeds default cap", aux.q_alphabet.size)
    return dist_table_rates(dist_induced_joint(p_x1x2y, aux).table)


def dist_membership(
    p_x1x2y: JointPmf,
    r1: float,
    r2: float,
    cr: float,
    aux: AuxChannelDist,
    tol: float = 1e-9,
) -> bool:
    rates = dist_rates_for(p_x1x2y, aux, tol=tol)
    return (
        r1 >= rates.r1 - tol
        and r2 >= rates.r2 - tol
        and r1 + r2 >= rates.r1_plus_r2 - tol
        and r1 + r2 + cr >= rates.r1_plus_r2_plus_c - tol
    )


# ---------------------------------------------------------------------------
# bridges to the exact inequality systems
# ---------------------------------------------------------------------------


def ptp_bindings(rates: PtpRatePair) -> dict:
    """Exact-rational bindings for the point-to-point inequality systems."""
    from fractions import Fraction

    return {
        "I_X_W": Fraction(rates.i_x_w),
        "I_W_Z": Fraction(rates.i_w_z),
        "I_XYZ_W": Fraction(rates.i_xyz_w),
    }


def dist_bindings(rates: DistRateTriple) -> dict:
    from fractions import Fraction

    i1, i2, i3, i4, i5 = rates.informations
    return {
        "I_X1_W1": Fraction(i1),
        "I_X2_W2": Fraction(i2),
        "I_X1X2W2Y_W1": Fraction(i3),
        "I_X1X2Y_W2": Fraction(i4),
        "I_W1_W2": Fraction(i5),
        "slack": Fraction(0),
    }
