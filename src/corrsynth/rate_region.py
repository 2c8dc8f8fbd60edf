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
p_{Y|ZW}: the consistent channels are the nonnegative solutions of one small
linear system per z.  An exact active-set nonnegative least-squares solve
(Lawson & Hanson 1974) decides whether one exists, and a channel is accepted
when its residual, as :func:`ptp_consistency_residual` measures it, is
within the search tolerance that the winners are certified at.  A system of
full column rank needs no such solve when its unique least-squares solution
x is too negative: any accepted q is >= 0 and lies within
sqrt(m) (tol + r) / s of x in every entry (m rows, least singular value s,
least-squares residual r), so min(x) below minus twice that, with rounding
allowances, rejects the block outright (:func:`_out_of_reach`).  Where a
block's solution is not unique, I(XYZ;W), which depends on p_{Y|ZW} only
through -H(Y|W,Z), is least at the block's maximum-entropy solution, an
I-projection (Csiszar 1975).  Every candidate is scored there, so the
descent minimizes the value it reports.

The descent's gradient is exact: the chain rule, from what the current
point's inner solve already built, with no extra solve.  A unique solution
x_S = A_S^+ b (S its support) moves with p_{W|X} by the derivative of the
pseudoinverse (Golub & Pereyra 1973); a maximum-entropy solution moves the
bounds by the envelope theorem, through its dual multipliers.

Every descent of a search runs in one lockstep stack: each round builds the
blocks of every open line search's next chunk of trial steps, for every
weight and start at once, and solves, scores and differentiates them as
stacks.  Each stage works on each stacked problem alone, so a descent takes
the same steps, bit for bit, as it would run by itself.
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
    """The (..., W, X, Y, Z) table p(x,z) p(w|x) p(y|z,w); channels may be stacks."""
    return np.einsum("xz,...xw,...zwy->...wxyz", p_xz, w_given_x, y_given_zw)


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

    The two channels may carry the same leading axes, a stack of channel
    pairs; the fields are then arrays of that shape.  A pair's rates inside
    a stack equal, bit for bit, its rates evaluated alone.
    """
    joint = ptp_joint_table(p_xz, w_given_x, y_given_zw)
    p_wx = joint.sum(axis=(-2, -1))
    h_w = table_entropy(p_wx.sum(axis=-1), 1)
    i_x_w = h_w + table_entropy(p_wx.sum(axis=-2), 1) - table_entropy(p_wx, 2)
    i_w_z = np.zeros_like(h_w)
    if p_xz.shape[1] > 1:
        p_wz = joint.sum(axis=(-3, -2))
        i_w_z = h_w + table_entropy(p_wz.sum(axis=-2), 1) - table_entropy(p_wz, 2)
    i_xyz_w = h_w + table_entropy(joint.sum(axis=-4), 3) - table_entropy(joint, 4)
    r, rc = (np.where(b > 0.0, b, 0.0) for b in (i_x_w - i_w_z, i_xyz_w - i_w_z))
    fields = (r, rc, i_x_w, i_w_z, i_xyz_w)
    if joint.ndim == 4:
        fields = (float(f) for f in fields)
    return PtpRatePair(*fields)


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
    matrices (..., |Z|, |X||Y| + |W|, |W||Y|), with the leading axes of
    ``w_given_x``, and the right-hand sides (|Z|, |X||Y| + |W|) and per-row
    weights (|Z|, |X||Y|), which do not depend on p(w|x): 1/p(x,z), or 0
    where p(x,z) = 0, which turn consistency-row residuals into conditional
    ones.
    """
    nx, ny, nz = target_xyz.shape
    nw = w_given_x.shape[-1]
    lead = w_given_x.shape[:-2]
    nxy = nx * ny
    p_xz = target_xyz.sum(axis=1)
    a = p_xz.T[:, :, None] * w_given_x[..., None, :, :]  # (..., z, x, w)
    blocks = np.empty(lead + (nz, nxy + nw, nw * ny))
    blocks[..., :nxy, :] = (a[..., None, :, None] * np.eye(ny)[:, None, :]).reshape(lead + (nz, nxy, nw * ny))
    blocks[..., nxy:, :] = np.repeat(np.eye(nw), ny, axis=1)
    rhs = np.ones((nz, nxy + nw))
    rhs[:, :nxy] = target_xyz.transpose(2, 0, 1).reshape(nz, nxy)
    weights = np.divide(1.0, p_xz, out=np.zeros_like(p_xz), where=p_xz > 0).T.repeat(ny, axis=1)
    return blocks, rhs, weights


def _conditional_gaps(blocks, rhs, weights, q) -> np.ndarray:
    """Per z: max over y, and x with p(x,z)>0, of |sum_w p(w|x)q(y|z,w) - p(y|x,z)|.

    Arguments are (slices of) the output of :func:`_z_blocks` and q with
    shape (..., |Z|, |W|, |Y|).  A NaN in q yields NaN, which fails every test.
    """
    nxy = weights.shape[-1]
    joint = (blocks[..., :nxy, :] @ q.reshape(q.shape[:-2] + (-1, 1)))[..., 0] - rhs[..., :nxy]
    return np.abs(joint * weights).max(axis=-1)


def _matvec(a, x):
    """a @ x over stacks of matrices and vectors."""
    return (a @ x[..., None])[..., 0]


def _pinv(a: np.ndarray):
    """Moore-Penrose pseudoinverses, ranks and singular values of a stack, by SVD.

    Singular values at most eps * max(m, n) times the largest count as zero,
    the cutoff ``np.linalg.lstsq(..., rcond=None)`` and
    ``np.linalg.matrix_rank`` use, so ``_pinv(a)[0] @ b`` is the
    minimum-norm least-squares solution and the rank is the count of the
    others.  The singular values come last, min(m, n) per matrix in
    descending order.  LAPACK factors each matrix on its own, so a matrix's
    pseudoinverse does not depend on its stack.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(float).eps * max(a.shape[-2:]) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    return vt.swapaxes(-1, -2) * inv[..., None, :] @ u.swapaxes(-1, -2), (s > cutoff).sum(axis=-1), s


def _nnls_stack(a: np.ndarray, b: np.ndarray):
    """Lawson-Hanson active-set solutions of min ||a x - b|| subject to x >= 0.

    ``a`` is a (k, m, n) stack and ``b`` a (k, m) stack; returns x (k, n) and
    the residual 2-norms (k,).  Each problem keeps its own passive set: each
    outer step frees the bound variable with the largest positive dual; each
    inner step walks back towards the new least-squares point until a
    variable hits zero, and drops it.  No passive set repeats, so a problem
    ends in finitely many steps (Lawson & Hanson 1974, ch. 23); the outer cap
    only guards against rounding cycles, and since callers test the residual,
    stopping early can only reject.  The problems move in lockstep, each
    masked out of an outer or inner step once its own test stops it, so a
    problem's solution does not depend on its stack.
    """
    k, m, n = a.shape
    tol = 10.0 * np.finfo(float).eps * max(m, n) * np.abs(a).sum(axis=1).max(axis=1)
    x = np.zeros((k, n))
    passive = np.zeros((k, n), dtype=bool)
    dual = _matvec(a.swapaxes(1, 2), b)
    live = np.ones(k, dtype=bool)
    for _ in range(3 * n):
        free = np.where(passive, -np.inf, dual)
        live &= ~(passive.all(axis=1) | (free.max(axis=1) <= tol))
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        passive[rows, np.argmax(free[rows], axis=1)] = True
        while rows.size:
            on = passive[rows]
            s = np.where(on, _matvec(_pinv(a[rows] * on[:, None, :])[0], b[rows]), 0.0)
            settled = ~(on & ~(s > 0)).any(axis=1)
            done = rows[settled]
            x[done] = s[settled]
            dual[done] = _matvec(a[done].swapaxes(1, 2), b[done] - _matvec(a[done], x[done]))
            rows, s, on = rows[~settled], s[~settled], on[~settled]
            xs = x[rows]
            blocking = on & (s <= 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(blocking, xs / (xs - s), np.inf)
            first = np.argmin(ratios, axis=1)
            xs += ratios[np.arange(rows.size), first][:, None] * (s - xs)
            on &= xs > tol[rows, None]
            on[np.arange(rows.size), first] = False
            x[rows], passive[rows] = xs, on
    return x, np.linalg.norm(_matvec(a, x) - b, axis=-1)


def _stochastic_rows(q: np.ndarray) -> np.ndarray:
    """Rows rescaled to sum to one; an all-zero row becomes NaN and fails every test."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return q / q.sum(axis=-1, keepdims=True)


#: the max-entropy solve's iterations, at most, and its stopping test: no
#: consistency equation misses by more than a few roundings
_NEWTON_CAP = 40
_NEWTON_STOP = 1e-15


def _max_entropy_stack(c: np.ndarray, b: np.ndarray):
    """q(y|w) maximizing sum_w p(w) H(q(.|w)) s.t. sum_w c[x,w] q(y|w) = b[x,y].

    For a z-block, c[x,w] = p(x,z) p(w|x), b[x,y] = p(x,y,z) and p(w) =
    sum_x c[x,w].  The solution is q(y|w) ∝ exp(sum_x v[x,y] c[x,w] / p(w)),
    with v the minimizer of the convex dual sum_w p(w) log sum_y exp(...) -
    sum v b, whose gradient is the consistency miss.  Damped Newton finds v
    from v = 0, each step scaled by 1 / (1 + its Newton decrement) (Nesterov
    2004, sec. 4.1.5).  Cells with b[x,y] = 0 < c[x,w] are held at q = 0 and
    rows with b[x,y] = 0 at v = 0; so is the first free v[x,.] of each x,
    since a shift of v[x,.] constant in y does not move q.  A column with
    p(w) = 0 gets the uniform row.

    ``c`` is a (k, |X|, |W|) and ``b`` a (k, |X|, |Y|) stack.  Returns q
    (k, |W|, |Y|), v (k, |X|, |Y|) in nats and the iterations, each of which
    sets q from v, tests it and steps unless the test stops the problem.  A
    problem still open after :data:`_NEWTON_CAP` is returned as it is, for
    the caller's test.  Each problem stops on its own test, so its solution
    does not depend on its stack.
    """
    k, nx, nw = c.shape
    ny = b.shape[-1]
    p_w = c.sum(axis=1, keepdims=True)
    r = np.divide(c, p_w, out=np.zeros_like(c), where=p_w > 0)
    forced = ((c[..., None] > 0) & (b[:, :, None, :] == 0)).any(axis=1)
    free = b > 0
    free[np.arange(k)[:, None], np.arange(nx), free.argmax(axis=2)] = False
    free = free.reshape(k, -1)
    v = np.zeros((k, nx, ny))
    q = np.empty((k, nw, ny))
    iterations = np.zeros(k, dtype=np.int64)
    live = np.arange(k)
    for i in range(_NEWTON_CAP):
        theta = np.where(forced[live], -np.inf, r[live].swapaxes(1, 2) @ v[live])
        e = np.exp(theta - theta.max(axis=-1, keepdims=True))
        q[live] = e / e.sum(axis=-1, keepdims=True)
        iterations[live] += 1
        grad = (c[live] @ q[live] - b[live]).reshape(live.size, -1) * free[live]
        keep = np.abs(grad).max(axis=1) > _NEWTON_STOP
        live, grad = live[keep], grad[keep]
        if i == _NEWTON_CAP - 1 or not live.size:
            break
        cl, rl, ql, mask = c[live], r[live], q[live], free[live]
        # Hessian: sum_w c[x,w] r[x',w] (q(y|w) [y = y'] - q(y|w) q(y'|w))
        hess = (np.einsum("kaw,kbw,kwy->kayb", cl, rl, ql)[..., None] * np.eye(ny)[:, None, :]
                - np.einsum("kaw,kbw,kwy,kwz->kaybz", cl, rl, ql, ql)).reshape(live.size, nx * ny, -1)
        step = -_matvec(_pinv(hess * mask[:, :, None] * mask[:, None, :])[0], grad)
        decrement = np.sqrt(np.maximum(-(grad * step).sum(axis=1), 0.0))
        v[live] += (step / (1.0 + decrement[:, None])).reshape(-1, nx, ny)
    return q, v, iterations


class InnerSolve(NamedTuple):
    """What inner solves decided, and what the descent's gradient reuses.

    :func:`_solve_stack` fills every field with a leading stack axis;
    :meth:`row` takes one row of it, with plain numbers.
    """

    #: consistent p(y|z,w) of shape (|Z|, |W|, |Y|); a single solve's is None
    #: when rejected, a stack's row is then undefined
    q: np.ndarray | None
    residual: float
    violation: float
    blocks: np.ndarray
    #: (|Z|, |X||Y| + |W|) right-hand sides, shared by every row of a stack
    rhs: np.ndarray
    #: (|Z|, |W||Y|) columns a full-rank block's solution lives on: all of
    #: them on the least-squares path, the passive set on the NNLS path
    support: np.ndarray
    #: the block that rejected the channel, or -1 when every block passed
    failing: int
    #: per block, the pseudoinverse and the least-squares solution
    pinv: np.ndarray
    sol: np.ndarray
    #: per block, the iterations of its max-entropy solve and that solve's
    #: (|X||Y|,) multipliers in nats, 0 where none ran
    newton: np.ndarray
    dual: np.ndarray

    def take(self, rows) -> InnerSolve:
        """The stack's rows ``rows``."""
        return InnerSolve(*(f if name == "rhs" else f[rows] for name, f in zip(self._fields, self)))

    def put(self, rows, other: InnerSolve, picks) -> None:
        """Overwrite the stack's rows ``rows`` with rows ``picks`` of ``other``."""
        for name, mine, theirs in zip(self._fields, self, other):
            if name != "rhs":
                mine[rows] = theirs[picks]

    def row(self, i: int) -> InnerSolve:
        """Row ``i`` as a single solve."""
        one = self.take(i)
        failing = int(one.failing)
        return one._replace(q=one.q if failing < 0 else None, residual=float(one.residual),
                            violation=float(one.violation), failing=failing)


def _out_of_reach(blocks, sol, resid, sing, tol: float) -> np.ndarray:
    """Blocks whose least-squares solution is too negative for any channel to pass.

    Let a block A (m x n) have full column rank, least-squares solution x,
    residual r = max|Ax - b| and least singular value s.  A q the
    feasibility test accepts is >= 0 and misses each equation by at most
    tol: a consistency row is p(x,z) <= 1 times a conditional gap, and the
    row sums of a renormalized q are 1 up to rounding.  Since
    ||A v||_2 >= s ||v||_2 for every v, no entry of q - x exceeds
    sqrt(m) (tol + r) / s, so min(x) >= -sqrt(m) (tol + r) / s.  A block
    below that cannot pass, and no nonnegative solve need decide it.

    The test is made safe against rounding.  tol + r gains
    (n + 1) n eps (1 + max|x|), which covers the rounding of the gap test,
    of the row sums and of r (Higham 2002, sec. 3.1 and 4.2; a row of A has
    absolute sum at most n).  s loses m n eps times the largest singular
    value, which covers the backward error of the SVD (Weyl's inequality);
    a block whose s does not survive that is never out of reach.  The bound
    is then doubled, the safety factor.  Arguments are stacks over blocks:
    the blocks, x, r and the singular values of :func:`_pinv`; the caller
    checks the rank.
    """
    m, n = blocks.shape[-2:]
    eps = np.finfo(float).eps
    floor = sing[..., -1] - m * n * eps * sing[..., 0]
    slack = tol + resid + (n + 1) * n * eps * (1.0 + np.abs(sol).max(axis=-1))
    with np.errstate(divide="ignore"):
        reach = 2.0 * np.sqrt(m) * slack / np.where(floor > 0.0, floor, 0.0)
    return -sol.min(axis=-1) > reach


def _solve_stack(target_xyz: np.ndarray, w_given_x: np.ndarray, tol: float) -> InnerSolve:
    """Consistent p(y|z,w) for each p(w|x) of a (B, |X|, |W|) stack.

    For each z the constraints sum_w p(x,z) p(w|x) q(y|z,w) = p(x,y,z) and
    sum_y q(y|z,w) = 1 are linear in q(.|z,.), so a consistent q is a
    nonnegative solution of one small linear system per z.  The block's
    minimum-norm least-squares solution is that solution when it is already
    nonnegative; otherwise the exact nonnegative least-squares solve
    :func:`_nnls_stack` decides.  A block is feasible exactly when that
    solution, rows renormalized, has conditional residual (what
    :func:`ptp_consistency_residual` measures) at most ``tol``; an empty
    feasible set leaves a residual and is rejected.

    That solution is unique when the block has full column rank, and then
    most negative blocks are rejected without the nonnegative solve
    (:func:`_out_of_reach`).  In a row every block passes, each other block
    takes the max-entropy point of its consistent set instead
    (:func:`_max_entropy_stack`), the q with the least I(XYZ;W), which must
    pass the same test.

    Per row, the blocks are tested in z order and the first one that fails
    rejects the channel.  Accepted: q, its conditional residual, and
    violation 0.  Rejected: the least-squares residual (max norm) of the
    failing block, and max(0, -min) of its least-squares solution when the
    block was consistent, the slope inputs of the infeasibility penalty.
    """
    nx, ny, nz = target_xyz.shape
    nb, _, nw = w_given_x.shape
    blocks, rhs, weights = _z_blocks(target_xyz, w_given_x)
    pinv, rank, sing = _pinv(blocks)
    sol = _matvec(pinv, rhs)
    resid = np.abs(_matvec(blocks, sol) - rhs).max(axis=-1)
    consistent = resid <= 1e-9
    exact = sol.copy()
    negative = consistent & (sol.min(axis=-1) < 0.0)
    hopeless = negative & (rank == nw * ny) & _out_of_reach(blocks, sol, resid, sing, tol)
    negative &= ~hopeless
    if negative.any():
        bz = np.nonzero(negative)
        exact[bz] = _nnls_stack(blocks[bz], rhs[bz[1]])[0]
    support = exact > 0.0
    support[~negative] = True
    q = _stochastic_rows(exact.reshape(nb, nz, nw, ny))
    gaps = _conditional_gaps(blocks, rhs, weights, q)
    fails = ~consistent | hopeless | ~(gaps <= tol)
    newton = np.zeros((nb, nz), dtype=np.int64)
    dual = np.zeros((nb, nz, nx * ny))
    bz = np.nonzero((rank < nw * ny) & ~fails.any(axis=1)[:, None])
    if bz[0].size:
        c = target_xyz.sum(axis=1).T[bz[1], :, None] * w_given_x[bz[0]]
        q[bz], v, newton[bz] = _max_entropy_stack(c, target_xyz.transpose(2, 0, 1)[bz[1]])
        dual[bz] = v.reshape(len(v), -1)
        gaps[bz] = _conditional_gaps(blocks[bz], rhs[bz[1]], weights[bz[1]], q[bz])
        fails[bz] = ~(gaps[bz] <= tol)
    failing = np.where(fails.any(axis=1), fails.argmax(axis=1), -1)
    rows = np.flatnonzero(failing >= 0)
    at = failing[rows]
    residual = gaps.max(axis=1)
    residual[rows] = resid[rows, at]
    violation = np.zeros(nb)
    most_negative = -sol[rows, at].min(axis=-1)
    violation[rows] = np.where(consistent[rows, at] & (most_negative > 0.0), most_negative, 0.0)
    return InnerSolve(q, residual, violation, blocks, rhs, support, failing, pinv, sol, newton, dual)


def _log2_ratio(num, den):
    """log2(num / den), and 0 where num is 0: the convention 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num > 0, np.log2(num / den), 0.0)


def _i_xyz_w_partials(c, q):
    """Partials of I(XYZ;W) = H(W) + H(XYZ) - H(WXYZ) in c and in q.

    The joint is p(w,x,y,z) = c[z,x,w] q[z,w,y], with c[z,x,w] = p(x,z) p(w|x)
    and H(XYZ) held constant: on the consistent set it is the target's.  The
    partial in a joint cell is log2(p(w,x,y,z) / p(w)), taken as 0 on an
    empty cell.  Returns d/dc of shape (..., |Z|, |X|, |W|) and d/dq of shape
    (..., |Z|, |W|, |Y|); leading axes are a stack.
    """
    joint = c[..., None] * q[..., None, :, :]  # (..., z, x, w, y)
    p_w = joint.sum(axis=(-4, -3, -1))
    log_ratio = _log2_ratio(joint, p_w[..., None, None, :, None])
    return (log_ratio * q[..., None, :, :]).sum(axis=-1), (log_ratio * c[..., None]).sum(axis=-3)


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


def _weigh(lam, rates: PtpRatePair):
    """The scalarized value (1-λ) r_min + λ r_plus_c_min of clamped rates."""
    return (1.0 - lam) * rates.r_min + lam * rates.r_plus_c_min


def _scalarized_stack(target_xyz, w_given_x, lam, tol):
    """Values, inner solves and clamped (r, r+c) of a (B, |X|, |W|) stack.

    ``lam`` holds one weight per row.  A rejected row's value is the
    infeasibility penalty and its rates are NaN.
    """
    solve = _solve_stack(target_xyz, w_given_x, tol)
    # infeasible: large penalty, sloped by how badly equalities fail
    value = 10.0 + 100.0 * (solve.residual + solve.violation)
    rates = np.full((len(value), 2), np.nan)
    ok = solve.failing < 0
    if ok.any():
        pair = ptp_table_rates(target_xyz.sum(axis=1), w_given_x[ok], solve.q[ok])
        value[ok] = _weigh(lam[ok], pair)
        rates[ok, 0], rates[ok, 1] = pair.r_min, pair.r_plus_c_min
    return value, solve, rates


def _bilinear_in_c(rows, cols, dims):
    """Slope of sum(dA * outer(rows, cols)) per unit of c[z,x,w].

    c[z,x,w] sits at row (x,y), column (w,y) of block z for every y, so the
    slope is sum_y rows(x,y) cols(w,y).  Works on one block or a stack.
    """
    nx, nw, ny = dims
    lead = rows.shape[:-1]
    return rows[..., : nx * ny].reshape(lead + (nx, ny)) @ cols.reshape(lead + (nw, ny)).swapaxes(-1, -2)


def _solution_slope(blocks, support, pinv, x, g, dims):
    """g . dx per unit of c, where x = A_S^+ b solves a consistent block.

    On the support S, dx = -A_S^+ dA x + (I - A_S^+ A_S) dA^T A_S^+T x
    (Golub & Pereyra 1973), so g . dx = sum(dA * (outer(s, v) - outer(u, x)))
    with u = A_S^+T g, s = A_S^+T x and v = (I - A_S^+ A_S) g.  ``pinv`` is
    the pseudoinverse of the blocks with the columns off S masked to zero,
    which zeroes its rows there.
    """
    pinv_t = pinv.swapaxes(-1, -2)
    u = _matvec(pinv_t, g)
    s = _matvec(pinv_t, x)
    v = support * (g - _matvec(pinv, _matvec(blocks * support[..., None, :], g)))
    return _bilinear_in_c(s, v, dims) - _bilinear_in_c(u, x, dims)


def _gradient_stack(target_xyz, w_given_x, lam, solve, rates):
    """Exact gradient of the scalarized value in the p(w|x) logits, per row.

    Every term is differentiated in c[z,x,w] = p(x,z) p(w|x), the
    coefficients of the inner solve's consistency rows, and pulled back
    through p(w|x) and the softmax at the end.  At a feasible point the
    value is (1-λ) max(0, I(X;W) - I(W;Z)) + λ max(0, I(XYZ;W) - I(W;Z));
    I(XYZ;W) also moves with q = p(y|z,w).  A full-rank block's solution
    carries that into c by :func:`_solution_slope`.  A max-entropy block's q
    minimizes I(XYZ;W) on its consistent set, so by the envelope theorem its
    slope through q is -sum_y v[x,y] q(y|z,w) / ln 2, with v the solve's
    multipliers (:func:`_max_entropy_stack`).  At an infeasible point the
    penalty 10 + 100 (resid + neg) slopes with the failing block's
    least-squares solution: its most negative entry when the block is
    consistent, otherwise its largest residual, whose projection
    r = (A A^+ - I) b moves as dr = (I - A A^+) dA sol - A^+T dA^T r.
    Empty cells contribute 0 (0 log 0 = 0), so the gradient stays finite
    when p(w|x) or q has exact zeros.

    Arguments are stacks: (B, |X|, |W|) channels, (B,) weights, the
    :class:`InnerSolve` stack and the (B, 2) rates of
    :func:`_scalarized_stack`.  Each row's gradient depends on that row alone.
    """
    nx, ny, nz = target_xyz.shape
    nw = w_given_x.shape[-1]
    dims = (nx, nw, ny)
    p_zx = target_xyz.sum(axis=1).T[:, :, None]
    c = p_zx * w_given_x[:, None]  # (b, z, x, w)
    d_c = np.zeros_like(c)
    rows = np.flatnonzero(solve.failing >= 0)
    for neg in (True, False):
        at = rows[(solve.violation[rows] > 0.0) == neg]
        if not at.size:
            continue
        z = solve.failing[at]
        a, pinv, sol = solve.blocks[at, z], solve.pinv[at, z], solve.sol[at, z]
        if neg:
            g = np.zeros_like(sol)
            g[np.arange(at.size), np.argmin(sol, axis=-1)] = -100.0
            d_c[at, z] = _solution_slope(a, np.ones(sol.shape, dtype=bool), pinv, sol, g, dims)
        else:
            r = _matvec(a, sol) - solve.rhs[z]
            worst = np.argmax(np.abs(r), axis=-1)
            e = np.zeros_like(r)
            e[np.arange(at.size), worst] = 100.0 * np.sign(r[np.arange(at.size), worst])
            ae = _matvec(pinv, e)
            d_c[at, z] = _bilinear_in_c(e - _matvec(a, ae), sol, dims) - _bilinear_in_c(r, ae, dims)
    ok = solve.failing < 0
    pw = c.sum(axis=(1, 2))[:, None, None, :]
    w_z = _log2_ratio(c.sum(axis=2)[:, :, None, :], pw)  # log2 p(w,z)/p(w)
    at = np.flatnonzero(ok & (rates[:, 0] > 0))
    d_c[at] += (1.0 - lam[at, None, None, None]) * (_log2_ratio(c[at].sum(axis=1)[:, None], pw[at]) - w_z[at])
    at = np.flatnonzero(ok & (rates[:, 1] > 0))
    if at.size:
        d_cq, d_q = _i_xyz_w_partials(c[at], solve.q[at])
        q = solve.q[at].reshape(at.size, nz, -1)
        through_q = -_bilinear_in_c(solve.dual[at], q, dims) / np.log(2.0)
        full = np.nonzero(solve.newton[at] == 0)
        if full[0].size:
            bz = at[full[0]], full[1]
            blocks, support, pinv = solve.blocks[bz], solve.support[bz], solve.pinv[bz]
            masked = ~support.all(axis=-1)
            if masked.any():
                pinv[masked] = _pinv(blocks[masked] * support[masked][:, None, :])[0]
            through_q[full] = _solution_slope(blocks, support, pinv, q[full], d_q.reshape(at.size, nz, -1)[full], dims)
        d_c[at] += lam[at, None, None, None] * (d_cq - w_z[at] + through_q)
    d_w = (p_zx * d_c).sum(axis=1)
    return w_given_x * (d_w - (w_given_x * d_w).sum(axis=-1, keepdims=True))


class _Descent(NamedTuple):
    value: float
    w_given_x: np.ndarray
    q: np.ndarray | None
    residual: float
    #: candidates evaluated and accepted descent steps this run took
    solves: int
    steps: int
    #: over those: max-entropy solves, most iterations of one, rejections
    entropic: int = 0
    newton: int = 0
    newton_missed: int = 0


#: chunk sizes that cut halvings 0..24 into rounds: a search's first round
#: tries halvings 0..k, k the halving its descent's previous search accepted
#: (0 in a descent's first search); after a round that accepts no step, the
#: next round runs from the following halving to the end of its chunk.  A
#: search gives up after all 25.
_HALVING_CHUNKS = (1, 2, 4, 8, 10)


def _lockstep(target_xyz, lam, logits, iters, tol) -> list[_Descent]:
    """Gradient descents with backtracking on a (D, |X|, |W|) stack of logits.

    Descent d minimizes the scalarized value at weight ``lam[d]`` for at
    most ``iters[d]`` steps.  A step starts at 1/max(1, ||g||inf) and halves
    until the value falls by more than 1e-12, at most 24 times; the descent
    stops when its gradient vanishes or no halving is accepted.  The
    gradient is exact (:func:`_gradient_stack`) and reuses the current
    point's inner solve.  The descents step in lockstep: each round takes
    one gradient stack of the descents that just moved, then evaluates one
    stack of candidates, the next halvings of every open search, and each
    search accepts its first candidate in halving order.  A search's first
    round reaches the halving its descent's previous search accepted, and a
    miss goes on along :data:`_HALVING_CHUNKS`, so a descent's rounds depend
    on its own history alone.  ``step * 2**-k`` is exact, so a descent takes
    the steps it would take alone, whatever else is in the stack.  A
    descent's value is the scalarized value of the channel pair it returns.

    ``solves`` counts the candidates evaluated, start point included, so
    the halvings after an accepted one in its round count too; so do the
    max-entropy counts.
    """
    nd = len(lam)
    logits = np.array(logits, dtype=float)
    w_given_x = _softmax(logits)
    value, solve, rates = _scalarized_stack(target_xyz, w_given_x, lam, tol)
    entropic = np.zeros((nd, 3), dtype=np.int64)

    def tally(owner, trials):
        # a rejected row whose max-entropy solve ran was rejected by it
        if trials.newton.any():
            np.add.at(entropic[:, 0], owner, (trials.newton > 0).sum(axis=1))
            np.maximum.at(entropic[:, 1], owner, trials.newton.max(axis=1))
            np.add.at(entropic[:, 2], owner, (trials.failing >= 0) & (trials.newton > 0).any(axis=1))

    tally(np.arange(nd), solve)
    solves = np.ones(nd, dtype=np.int64)
    steps = np.zeros(nd, dtype=np.int64)
    grad = np.zeros_like(logits)
    step = np.zeros(nd)
    # the open search's next round tries halvings lo..hi-1; last is the
    # halving the previous search accepted
    lo, hi, last = (np.zeros(nd, dtype=np.int64) for _ in range(3))
    live = steps < iters
    moved = live.copy()
    ends = np.cumsum(_HALVING_CHUNKS)
    while True:
        at = np.flatnonzero(moved)
        if at.size:
            g = _gradient_stack(target_xyz, w_given_x[at], lam[at], solve.take(at), rates[at])
            norm = np.abs(g).max(axis=(1, 2))
            live[at[norm < 1e-9]] = False
            keep = ~(norm < 1e-9)
            at, g, norm = at[keep], g[keep], norm[keep]
            grad[at] = g
            step[at] = 1.0 / np.where(norm > 1.0, norm, 1.0)
            lo[at], hi[at] = 0, last[at] + 1
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        count = hi[rows] - lo[rows]
        owner = np.repeat(rows, count)
        k = lo[owner] + np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        trial = logits[owner] - np.ldexp(step[owner], -k)[:, None, None] * grad[owner]
        trial_w = _softmax(trial)
        trial_value, trial_solve, trial_rates = _scalarized_stack(target_xyz, trial_w, lam[owner], tol)
        solves[rows] += count
        tally(owner, trial_solve)
        hits = np.flatnonzero(trial_value < value[owner] - 1e-12)
        took, first = np.unique(owner[hits], return_index=True)
        picks = hits[first]
        logits[took], w_given_x[took], value[took] = trial[picks], trial_w[picks], trial_value[picks]
        solve.put(took, trial_solve, picks)
        rates[took] = trial_rates[picks]
        last[took] = k[picks]
        steps[took] += 1
        moved[:] = False
        moved[took] = live[took] = steps[took] < iters[took]
        missed = np.setdiff1d(rows, took, assume_unique=True)
        lo[missed] = hi[missed]
        live[missed[lo[missed] == ends[-1]]] = False
        hi[missed] = ends[np.minimum(np.searchsorted(ends, lo[missed], side="right"), len(ends) - 1)]
    runs = []
    for d in range(nd):
        one = solve.row(d)
        runs.append(_Descent(float(value[d]), w_given_x[d], one.q, one.residual, int(solves[d]), int(steps[d]),
                             *(int(n) for n in entropic[d])))
    return runs


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


def _phase_one_starts(nx, w_size, n_lams, cfg):
    """Every λ's first-phase descents as (λ index, logits, iterations, start).

    Corner and random starts descend in full; the coarse scan exists for
    basin coverage and only needs enough steps to sort the basins out.  Per
    λ the order is corners, coarse scan, random restarts: the order in which
    ties between equal values are broken.  Every (λ, restart) pair owns a
    derived RNG stream.
    """
    short_iters = max(10, cfg.iters // 3)
    corners = _corner_logit_inits(nx, w_size)
    coarse = _coarse_grid_inits(nx, w_size)
    starts = []
    for li in range(n_lams):
        starts.extend((li, logits, cfg.iters, ("corner", i)) for i, logits in enumerate(corners))
        starts.extend((li, logits, short_iters, ("coarse", i)) for i, logits in enumerate(coarse))
        for s in range(cfg.restarts):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(li, s)))
            starts.append((li, rng.normal(0.0, 2.0, size=(nx, w_size)), cfg.iters, ("random", s)))
    return starts


def ptp_frontier(p_xyz: JointPmf, cfg: SearchConfig = SearchConfig()) -> FrontierResult:
    """Trace (R, C) corner points of the point-to-point region.

    For each λ on a uniform grid, minimizes (1-λ) r_min + λ r_plus_c_min over
    the aux pair by multi-start descent; the best aux per λ is re-evaluated
    through :func:`ptp_rates_for` and its corner recorded.  Points are Pareto
    pruned (ties broken lexicographically by R then C).  Deterministic given
    the seed: every (λ, restart) pair owns a derived RNG stream, and every
    descent of every λ runs in one lockstep stack (:func:`_lockstep`), then
    the warm-start sweep in a second one.  A descent's result does not depend
    on the stack it runs in, and each λ keeps the first of its best runs in
    start order.

    Each candidate is scored at the consistent output channel with the least
    I(XYZ;W) (:func:`_solve_stack`), so each point's value is the
    scalarization of its aux pair's rates.

    Each λ logs one DEBUG record: its inner solves (the candidates its
    descents evaluated, see :func:`_lockstep`), accepted descent steps, the
    max-entropy solves among them, the most Newton iterations one took and
    the candidates one rejected, the winning start (corner, coarse, random
    or warm, with its index; a warm start's index is the λ whose winner it
    adopted) and the winner's residual.
    """
    target = p_xyz.marginalize(PTP_AXES).table
    p_xz = target.sum(axis=1)
    nx, ny, nz = target.shape
    w_size = min(cfg.w_cap, (nx * ny * nz) ** 2)
    # strictly interior weights keep every argmin Pareto-consistent (a pure
    # single-coordinate objective would leave the other coordinate loose)
    lams = np.linspace(0.0, 1.0, cfg.lambda_grid)
    effective = np.clip(lams, 5e-4, 1.0 - 5e-4)
    best: list[tuple[_Descent, tuple[str, int]] | None] = [None] * len(lams)
    # inner solves, steps, max-entropy solves, most Newton iterations, misses
    effort = np.zeros((len(lams), 5), dtype=np.int64)

    def descend(starts):
        li, logits, iters, labels = zip(*starts)
        runs = _lockstep(target, effective[list(li)], np.stack(logits), np.array(iters), cfg.tol)
        for i, run, start in zip(li, runs, labels):
            effort[i] += (run.solves, run.steps, run.entropic, 0, run.newton_missed)
            effort[i, 3] = max(effort[i, 3], run.newton)
            if run.q is not None and (best[i] is None or run.value < best[i][0].value):
                best[i] = (run, start)

    descend(_phase_one_starts(nx, w_size, len(lams), cfg))
    # warm-start sweep: each λ may adopt another λ's winner if it scores
    # better, then takes a short descent from the adopted channel;
    # each pool entry carries its rate pair so candidates can be ranked per
    # λ, and the λ it came from
    pool: list[tuple[np.ndarray, PtpRatePair, int]] = []
    seen = set()
    for li, w in enumerate(best):
        if w is None:
            continue
        run = w[0]
        key = tuple(np.round(run.w_given_x, 6).reshape(-1))
        if key not in seen:
            seen.add(key)
            pool.append((run.w_given_x, ptp_table_rates(p_xz, run.w_given_x, run.q), li))
    warm = []
    for li, lam in enumerate(effective):
        for wt, _, source in sorted(pool, key=lambda e: _weigh(lam, e[1]))[:6]:
            with np.errstate(all="ignore"):
                logits = np.log(np.clip(wt, 1e-12, None))
            warm.append((li, logits, max(10, cfg.iters // 3), ("warm", source)))
    if warm:
        descend(warm)
    raw_points: list[FrontierPoint] = []
    failures: list[float] = []
    counts = ("lambda %.6g: %d inner solves, %d descent steps, "
              "%d max-entropy solves (at most %d Newton iterations, %d missed), ")
    for li in range(len(lams)):
        if best[li] is None:
            logger.debug(counts + "no consistent aux", lams[li], *effort[li])
            failures.append(float(lams[li]))
            continue
        run, (kind, index) = best[li]
        value, wt, q, resid = run[:4]
        logger.debug(counts + "winner %s start %d, residual %.3e", lams[li], *effort[li], kind, index, resid)
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
