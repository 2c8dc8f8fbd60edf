"""Experiment drivers tying the codecs, regions, and typicality tools together.

The module ships three self-contained problem instances (a binary symmetric
reference, plus two identity-coded demos whose decoder fallback letter is
visible in total variation), a Monte Carlo runner for end-to-end
total-variation deficits, an encoder-validity checker with its union bound,
and a concentration-inequality spot check.  A deficit trial builds each
codebook's encoder once: the message tables behind its deficit also give its
``valid`` flag, so it runs no separate validity check.  Everything is
deterministic: each trial's randomness derives from ``(seed, trial index)``,
worker count never changes results, and emitted artifacts (CSV rows plus a
JSON sidecar carrying the spec and aggregates) are byte-identical across
reruns.  Wall-clock runtimes are kept on the in-memory rows only, never
serialized.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .budget import BudgetExceededError
from .codec_dist import DistCodecParams, build_dist_codec, dist_streamed_tv_deficit
from .codec_ptp import (
    CodecParams,
    build_ptp_codebook,
    build_ptp_codec,
    encoder_validity,
    soft_covering_deficit,
    streamed_tv_deficit,
)
from .probability import CondPmf, JointPmf, entropy
from .rate_region import dist_joint_table, dist_table_rates, ptp_joint_table, ptp_table_rates
from .typicality import typical_set

__all__ = [
    "PtpInstance",
    "DistInstance",
    "ptp_instance_from_tables",
    "dist_instance_from_tables",
    "instance_to_dict",
    "instance_from_dict",
    "named_instance",
    "reference_instance",
    "synthesis_demo_instance",
    "dist_demo_instance",
    "trial_seed",
    "parse_sweep",
    "ExperimentSpec",
    "TrialRow",
    "Aggregate",
    "ExperimentReport",
    "experiment_spec_to_dict",
    "experiment_spec_from_dict",
    "aggregate_rows",
    "run_tv_experiment",
    "soft_covering_trials",
    "write_report",
    "read_report_rows",
    "format_cell",
    "ChernoffCheck",
    "validity_union_bound",
    "validity_rate",
    "ChernoffLemmaResult",
    "chernoff_lemma_check",
]


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PtpInstance:
    """A point-to-point synthesis problem.

    ``p_xz`` is the source/side-information law; ``p_w_given_x`` the designed
    coupling of source letters into codeword letters; ``p_y_given_zw`` the
    decoder's output channel.  The synthesis target is the (X, Y, Z) joint
    these induce.
    """

    p_xz: JointPmf
    p_w_given_x: CondPmf
    p_y_given_zw: CondPmf

    def __post_init__(self):
        if self.p_xz.names != ("X", "Z"):
            raise ValueError(f"source law axes must be ('X', 'Z'), got {self.p_xz.names}")
        if self.p_w_given_x.given_names != ("X",) or self.p_w_given_x.out_names != ("W",):
            raise ValueError("codeword coupling must map ('X',) -> ('W',)")
        if self.p_y_given_zw.given_names != ("Z", "W") or self.p_y_given_zw.out_names != ("Y",):
            raise ValueError("output channel must map ('Z', 'W') -> ('Y',)")
        nx, nz = (a.size for a in self.p_xz.alphabets)
        nw = self.p_w_given_x.out_alphabets[0].size
        if self.p_w_given_x.given_alphabets[0].size != nx:
            raise ValueError("codeword coupling disagrees with |X|")
        got = tuple(a.size for a in self.p_y_given_zw.given_alphabets)
        if got != (nz, nw):
            raise ValueError(f"output channel conditions on sizes {got}, expected {(nz, nw)}")

    # -- derived laws -------------------------------------------------------

    def p_w(self) -> JointPmf:
        return JointPmf.from_table(
            ("W",), np.einsum("xz,xw->w", self.p_xz.table, self.p_w_given_x.table)
        )

    def p_joint_xw(self) -> JointPmf:
        return JointPmf.from_table(
            ("X", "W"), np.einsum("xz,xw->xw", self.p_xz.table, self.p_w_given_x.table)
        )

    def target_joint(self) -> JointPmf:
        """The (X, Y, Z) law the codec is asked to synthesize."""
        return JointPmf.from_table(
            ("X", "Y", "Z"),
            np.einsum(
                "xz,xw,zwy->xyz",
                self.p_xz.table,
                self.p_w_given_x.table,
                self.p_y_given_zw.table,
            ),
        )

    def design_joint(self) -> JointPmf:
        """Full (W, X, Y, Z) design law, codeword letter first."""
        return JointPmf.from_table(
            ("W", "X", "Y", "Z"),
            ptp_joint_table(self.p_xz.table, self.p_w_given_x.table, self.p_y_given_zw.table),
        )

    def _rates(self):
        return ptp_table_rates(self.p_xz.table, self.p_w_given_x.table, self.p_y_given_zw.table)

    def informations(self) -> dict[str, float]:
        """The mutual informations behind the rate bounds, in bits."""
        rates, j = self._rates(), self.design_joint()
        return {
            "i_x_w": rates.i_x_w,
            "i_w_z": rates.i_w_z,
            "i_xyz_w": rates.i_xyz_w,
            "h_x_given_w": entropy(j, ("X", "W")) - entropy(j, ("W",)),
        }

    def bounds(self) -> dict[str, float]:
        """Clamped lower bounds on (message rate, message + randomness)."""
        rates = self._rates()
        return {"r": rates.r_min, "r_plus_c": rates.r_plus_c_min}


@dataclass(frozen=True)
class DistInstance:
    """A two-encoder synthesis problem.

    ``p_x1x2`` is the correlated source pair, each ``p_wj_given_xj`` couples
    one source into that encoder's codeword letters, and ``p_y_given_w1w2``
    is the decoder's output channel on the decoded pair.
    """

    p_x1x2: JointPmf
    p_w1_given_x1: CondPmf
    p_w2_given_x2: CondPmf
    p_y_given_w1w2: CondPmf

    def __post_init__(self):
        if self.p_x1x2.names != ("X1", "X2"):
            raise ValueError(f"source law axes must be ('X1', 'X2'), got {self.p_x1x2.names}")
        for j, leg in ((1, self.p_w1_given_x1), (2, self.p_w2_given_x2)):
            if leg.given_names != (f"X{j}",) or leg.out_names != (f"W{j}",):
                raise ValueError(f"coupling {j} must map ('X{j}',) -> ('W{j}',)")
            if leg.given_alphabets[0].size != self.p_x1x2.alphabets[j - 1].size:
                raise ValueError(f"coupling {j} disagrees with |X{j}|")
        if self.p_y_given_w1w2.given_names != ("W1", "W2") or self.p_y_given_w1w2.out_names != ("Y",):
            raise ValueError("output channel must map ('W1', 'W2') -> ('Y',)")
        want = (
            self.p_w1_given_x1.out_alphabets[0].size,
            self.p_w2_given_x2.out_alphabets[0].size,
        )
        got = tuple(a.size for a in self.p_y_given_w1w2.given_alphabets)
        if got != want:
            raise ValueError(f"output channel conditions on sizes {got}, expected {want}")

    # -- derived laws -------------------------------------------------------

    def p_w1(self) -> JointPmf:
        return JointPmf.from_table(
            ("W1",), np.einsum("ab,aw->w", self.p_x1x2.table, self.p_w1_given_x1.table)
        )

    def p_w2(self) -> JointPmf:
        return JointPmf.from_table(
            ("W2",), np.einsum("ab,bv->v", self.p_x1x2.table, self.p_w2_given_x2.table)
        )

    def pair_law(self) -> JointPmf:
        return JointPmf.from_table(
            ("W1", "W2"),
            np.einsum(
                "ab,aw,bv->wv",
                self.p_x1x2.table,
                self.p_w1_given_x1.table,
                self.p_w2_given_x2.table,
            ),
        )

    def target_joint(self) -> JointPmf:
        return JointPmf.from_table(
            ("X1", "X2", "Y"),
            np.einsum(
                "ab,aw,bv,wvy->aby",
                self.p_x1x2.table,
                self.p_w1_given_x1.table,
                self.p_w2_given_x2.table,
                self.p_y_given_w1w2.table,
            ),
        )

    def _rates(self):
        # the two-encoder bounds with a one-letter time-sharing variable
        return dist_table_rates(dist_joint_table(
            np.ones(1),
            self.p_x1x2.table,
            self.p_w1_given_x1.table[None],
            self.p_w2_given_x2.table[None],
            self.p_y_given_w1w2.table[None],
        ))

    def informations(self) -> dict[str, float]:
        keys = ("i_x1_w1", "i_x2_w2", "i_x1x2w2y_w1", "i_x1x2y_w2", "i_w1_w2")
        return dict(zip(keys, self._rates().informations))

    def bounds(self) -> dict[str, float]:
        """Clamped lower bounds on the two-encoder rate tuple."""
        rates = self._rates()
        return {
            "r1": rates.r1,
            "r2": rates.r2,
            "r1_plus_r2": rates.r1_plus_r2,
            "r1_plus_r2_plus_c": rates.r1_plus_r2_plus_c,
        }


def ptp_instance_from_tables(p_xz, w_given_x, y_given_zw) -> PtpInstance:
    """Build a point-to-point instance straight from dense tables."""
    p = np.asarray(p_xz, dtype=float)
    w = np.asarray(w_given_x, dtype=float)
    y = np.asarray(y_given_zw, dtype=float)
    return PtpInstance(
        JointPmf.from_table(("X", "Z"), p),
        CondPmf.from_rows(("X",), (w.shape[0],), ("W",), (w.shape[1],), w),
        CondPmf.from_rows(("Z", "W"), y.shape[:2], ("Y",), (y.shape[2],), y),
    )


def dist_instance_from_tables(p_x1x2, w1_given_x1, w2_given_x2, y_given_w1w2) -> DistInstance:
    """Build a two-encoder instance straight from dense tables."""
    p = np.asarray(p_x1x2, dtype=float)
    w1 = np.asarray(w1_given_x1, dtype=float)
    w2 = np.asarray(w2_given_x2, dtype=float)
    y = np.asarray(y_given_w1w2, dtype=float)
    return DistInstance(
        JointPmf.from_table(("X1", "X2"), p),
        CondPmf.from_rows(("X1",), (w1.shape[0],), ("W1",), (w1.shape[1],), w1),
        CondPmf.from_rows(("X2",), (w2.shape[0],), ("W2",), (w2.shape[1],), w2),
        CondPmf.from_rows(("W1", "W2"), y.shape[:2], ("Y",), (y.shape[2],), y),
    )


def instance_to_dict(instance) -> dict:
    """JSON-ready dict of the instance tables."""
    if isinstance(instance, PtpInstance):
        return {
            "kind": "ptp",
            "p_xz": instance.p_xz.table.tolist(),
            "p_w_given_x": instance.p_w_given_x.table.tolist(),
            "p_y_given_zw": instance.p_y_given_zw.table.tolist(),
        }
    if isinstance(instance, DistInstance):
        return {
            "kind": "dist",
            "p_x1x2": instance.p_x1x2.table.tolist(),
            "p_w1_given_x1": instance.p_w1_given_x1.table.tolist(),
            "p_w2_given_x2": instance.p_w2_given_x2.table.tolist(),
            "p_y_given_w1w2": instance.p_y_given_w1w2.table.tolist(),
        }
    raise TypeError(f"not an instance: {type(instance).__name__}")


def instance_from_dict(d: dict):
    """Inverse of :func:`instance_to_dict`."""
    try:
        kind = d["kind"]
        if kind == "ptp":
            return ptp_instance_from_tables(d["p_xz"], d["p_w_given_x"], d["p_y_given_zw"])
        if kind == "dist":
            return dist_instance_from_tables(
                d["p_x1x2"], d["p_w1_given_x1"], d["p_w2_given_x2"], d["p_y_given_w1w2"]
            )
    except (KeyError, TypeError) as err:
        raise ValueError("malformed instance spec") from err
    raise ValueError(f"malformed instance spec: unknown kind {kind!r}")


def _flip(eps: float) -> np.ndarray:
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])


#: mutually contrasting 3-letter output rows used by the demo instances; the
#: third row belongs to the reserved fallback letter, so failed decodes pull
#: the synthesized output visibly away from the target
_ROW_A = (0.9, 0.05, 0.05)
_ROW_B = (0.05, 0.9, 0.05)
_ROW_FALLBACK = (0.05, 0.05, 0.9)


def reference_instance() -> PtpInstance:
    """Binary symmetric reference problem.

    A hidden fair bit is read through a 0.1-flip into the source X, the
    decoder sees Z (a 0.2-flip of X), and the target output Y is a 0.1-flip
    of the hidden bit.  All the information constants are hand-computable.
    """
    return ptp_instance_from_tables(
        0.5 * _flip(0.2),
        _flip(0.1),
        np.tile(_flip(0.1)[None, :, :], (2, 1, 1)),
    )


def synthesis_demo_instance() -> PtpInstance:
    """Identity-coded demo with a reserved decoder-fallback letter.

    A fair source bit is copied into codeword letter 1 or 2 (letter 0 has
    probability zero and is reserved for the decoder fallback), the side
    information is a 0.25-flip of the source, and the three output rows are
    mutually contrasting — so decode failures show up in total variation
    instead of hiding behind a benign output law.
    """
    y = np.empty((2, 3, 3))
    y[:, 0, :] = _ROW_FALLBACK
    y[:, 1, :] = _ROW_A
    y[:, 2, :] = _ROW_B
    return ptp_instance_from_tables(
        0.5 * _flip(0.25),
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        y,
    )


def dist_demo_instance() -> DistInstance:
    """Two-encoder analogue of the identity-coded demo.

    Both encoders observe the same fair bit and copy it into their own
    codeword letters (letter 0 reserved for fallback on each side).  The
    output row matches the coded bit only when the decoded pair agrees;
    mismatched or fallback pairs emit the contrast row.
    """
    y = np.empty((3, 3, 3))
    y[:, :, :] = _ROW_FALLBACK
    y[1, 1, :] = _ROW_A
    y[2, 2, :] = _ROW_B
    leg = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return dist_instance_from_tables(np.diag([0.5, 0.5]), leg, leg, y)


_NAMED_INSTANCES = {
    "reference": reference_instance,
    "synthesis-demo": synthesis_demo_instance,
    "dist-demo": dist_demo_instance,
}


def named_instance(name: str):
    """Look up a shipped instance by its registry name."""
    try:
        return _NAMED_INSTANCES[name]()
    except KeyError:
        raise ValueError(
            f"unknown instance {name!r}; shipped: {sorted(_NAMED_INSTANCES)}"
        ) from None


# ---------------------------------------------------------------------------
# trial plumbing
# ---------------------------------------------------------------------------


def trial_seed(seed: int, index: int) -> int:
    """Stable per-trial seed derived from the run seed and the trial index."""
    if seed < 0 or index < 0:
        raise ValueError("seed and trial index must be nonnegative")
    return int(np.random.SeedSequence(entropy=(seed, index)).generate_state(1, np.uint64)[0])


def parse_sweep(text: str) -> tuple[str, tuple[float, ...]]:
    """Parse a grid expression ``param=a:b:step`` into (name, values).

    Endpoints are inclusive up to rounding slack; the step must be positive
    and the grid finite and nonempty.
    """
    name, sep, grid = text.partition("=")
    parts = grid.split(":")
    if not sep or not name or len(parts) != 3:
        raise ValueError(f"sweep must look like 'param=a:b:step', got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-numeric sweep bounds in {text!r}") from None
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)):
        raise ValueError("sweep bounds must be finite")
    if step <= 0 or b < a:
        raise ValueError("sweep needs step > 0 and b >= a")
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return name, tuple(a + k * step for k in range(count))


_SWEEPABLE = {
    "ptp": ("rt", "r", "c", "delta", "eta"),
    "dist": ("rt1", "rt2", "r1", "r2", "c1", "c2", "delta", "eta"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a Monte Carlo run depends on, and nothing else.

    ``sweep`` optionally varies one codec parameter over a finite grid; every
    grid point reuses the same per-trial seeds, so swept comparisons are
    paired.  ``budget`` caps the enumeration size per trial.
    """

    kind: str
    instance: PtpInstance | DistInstance
    params: CodecParams | DistCodecParams
    trials: int
    seed: int
    sweep: tuple[str, tuple[float, ...]] | None = None
    budget: int | None = None

    def __post_init__(self):
        if self.kind not in ("ptp", "dist"):
            raise ValueError(f"kind must be 'ptp' or 'dist', got {self.kind!r}")
        want_inst = PtpInstance if self.kind == "ptp" else DistInstance
        want_par = CodecParams if self.kind == "ptp" else DistCodecParams
        if not isinstance(self.instance, want_inst):
            raise ValueError(f"a {self.kind} spec needs a {want_inst.__name__}")
        if not isinstance(self.params, want_par):
            raise ValueError(f"a {self.kind} spec needs {want_par.__name__}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.budget is not None and (not isinstance(self.budget, int) or self.budget < 1):
            raise ValueError("budget must be a positive integer when given")
        if self.sweep is not None:
            name, values = self.sweep
            if name not in _SWEEPABLE[self.kind]:
                raise ValueError(
                    f"cannot sweep {name!r}; sweepable: {_SWEEPABLE[self.kind]}"
                )
            values = tuple(float(v) for v in values)
            if not values or not all(math.isfinite(v) for v in values):
                raise ValueError("sweep grid must be nonempty and finite")
            object.__setattr__(self, "sweep", (name, values))
        self.grid()  # fail fast on parameter combinations the codec rejects

    def grid(self) -> tuple[tuple[str, float | None, CodecParams | DistCodecParams], ...]:
        """(swept param, value, params) triples in run order."""
        if self.sweep is None:
            return (("", None, self.params),)
        name, values = self.sweep
        return tuple((name, v, replace(self.params, **{name: v})) for v in values)


@dataclass(frozen=True)
class TrialRow:
    """One codec draw: which trial, what it scored, and how it ended."""

    index: int
    seed: int
    param: str
    value: float | None
    n: int
    tv_deficit: float
    valid: bool
    degenerate: bool
    skipped: bool
    reason: str
    #: wall seconds; diagnostic only and never serialized, so artifacts stay
    #: a pure function of (spec, seed)
    runtime: float = 0.0


@dataclass(frozen=True)
class Aggregate:
    """Summary statistics of the non-skipped rows in one sweep group."""

    group: str
    count: int
    skipped: int
    mean: float
    std: float
    min: float
    max: float


def aggregate_rows(rows) -> tuple[Aggregate, ...]:
    """Per-group (or overall, when unswept) deficit statistics.

    Skipped rows are counted but excluded from the statistics; an all-skipped
    group reports NaN moments.  Calling this on rows parsed back from a
    report CSV reproduces the emitted aggregates exactly.
    """
    order: list[str] = []
    values: dict[str, list[float]] = {}
    skipped: dict[str, int] = {}
    for row in rows:
        label = f"{row.param}={row.value!r}" if row.param else "all"
        if label not in values:
            order.append(label)
            values[label] = []
            skipped[label] = 0
        if row.skipped:
            skipped[label] += 1
        else:
            values[label].append(row.tv_deficit)
    out = []
    for label in order:
        vals = np.asarray(values[label], dtype=float)
        if vals.size:
            stats = (
                float(vals.mean()),
                float(vals.std()),
                float(vals.min()),
                float(vals.max()),
            )
        else:
            stats = (float("nan"),) * 4
        out.append(Aggregate(label, int(vals.size), skipped[label], *stats))
    return tuple(out)


@dataclass(frozen=True)
class ExperimentReport:
    """Rows in trial order plus their aggregates, traceable to the spec."""

    spec: ExperimentSpec
    rows: tuple[TrialRow, ...]
    aggregates: tuple[Aggregate, ...]

    def recompute_aggregates(self) -> tuple[Aggregate, ...]:
        return aggregate_rows(self.rows)


def experiment_spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "kind": spec.kind,
        "instance": instance_to_dict(spec.instance),
        "params": asdict(spec.params),
        "trials": spec.trials,
        "seed": spec.seed,
        "sweep": None if spec.sweep is None else {"param": spec.sweep[0], "values": list(spec.sweep[1])},
        "budget": spec.budget,
    }


def experiment_spec_from_dict(d: dict) -> ExperimentSpec:
    """Inverse of :func:`experiment_spec_to_dict`.

    The instance entry may also be a registry name like ``"reference"``.
    """
    try:
        kind = d["kind"]
        raw_inst = d["instance"]
        instance = named_instance(raw_inst) if isinstance(raw_inst, str) else instance_from_dict(raw_inst)
        params_cls = CodecParams if kind == "ptp" else DistCodecParams
        params = params_cls(**d["params"])
        sweep = d.get("sweep")
        if isinstance(sweep, str):
            sweep = parse_sweep(sweep)
        elif isinstance(sweep, dict):
            sweep = (sweep["param"], tuple(float(v) for v in sweep["values"]))
        return ExperimentSpec(
            kind=kind,
            instance=instance,
            params=params,
            trials=d.get("trials", 1),
            seed=d.get("seed", 0),
            sweep=sweep,
            budget=d.get("budget"),
        )
    except (KeyError, TypeError) as err:
        raise ValueError("malformed experiment spec") from err


# ---------------------------------------------------------------------------
# Monte Carlo runner
# ---------------------------------------------------------------------------


def _ptp_trial(instance: PtpInstance, params: CodecParams, budget):
    codebook, binning = build_ptp_codec(
        instance.p_w(), params, allow_degenerate=True, budget=budget
    )
    tv, valid = streamed_tv_deficit(
        instance.target_joint(), instance.p_xz, instance.p_w_given_x, instance.p_y_given_zw,
        codebook, binning, params, budget,
    )
    return tv, valid, codebook.degenerate


def _dist_trial(instance: DistInstance, params: DistCodecParams, budget):
    books, binnings = build_dist_codec(
        instance.p_w1(), instance.p_w2(), params, allow_degenerate=True, budget=budget
    )
    tv, valid = dist_streamed_tv_deficit(
        instance.target_joint(), instance.p_x1x2, instance.p_w1_given_x1,
        instance.p_w2_given_x2, instance.p_y_given_w1w2, books, binnings, params, budget,
    )
    return tv, valid, books.first.degenerate or books.second.degenerate


def run_tv_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentReport:
    """Draw a fresh codec per trial and score its exact end-to-end deficit.

    Per-trial randomness comes from ``trial_seed(spec.seed, index)``; sweep
    points share those seeds, so grid comparisons are paired.  A row's
    ``valid`` is the encoder validity the streamed deficit reads off its
    message tables (every leg's, for the two-encoder codec).  A trial whose
    enumeration exceeds the budget is reported as a skipped row, never
    dropped.  Rows are ordered by (grid point, trial index) no matter how
    many workers run them.
    """
    jobs = []
    for param, value, base in spec.grid():
        for t in range(spec.trials):
            jobs.append((param, value, base, t))

    def execute(item):
        index, (param, value, base, t) = item
        params = replace(base, seed=trial_seed(spec.seed, t))
        start = time.perf_counter()
        tv, all_valid, degenerate = float("nan"), False, False
        skipped, reason = False, ""
        try:
            if spec.kind == "ptp":
                tv, all_valid, degenerate = _ptp_trial(spec.instance, params, spec.budget)
            else:
                tv, all_valid, degenerate = _dist_trial(spec.instance, params, spec.budget)
        except BudgetExceededError:
            skipped, reason = True, "budget"
        return TrialRow(
            index=index,
            seed=params.seed,
            param=param,
            value=value,
            n=params.n,
            tv_deficit=tv,
            valid=all_valid,
            degenerate=degenerate,
            skipped=skipped,
            reason=reason,
            runtime=time.perf_counter() - start,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = tuple(pool.map(execute, enumerate(jobs)))
    else:
        rows = tuple(execute(item) for item in enumerate(jobs))
    return ExperimentReport(spec=spec, rows=rows, aggregates=aggregate_rows(rows))


def soft_covering_trials(
    instance: PtpInstance, params: CodecParams, trials: int, budget: int | None = None
) -> np.ndarray:
    """Codeword-mixture deficits over independently drawn codebooks.

    Trial t uses ``trial_seed(params.seed, t)``, so runs with different
    rates but equal base seeds are paired draws.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    target = instance.design_joint()
    out = np.empty(trials)
    for t in range(trials):
        codebook = build_ptp_codebook(
            instance.p_w(), replace(params, seed=trial_seed(params.seed, t)), budget=budget
        )
        out[t] = soft_covering_deficit(target, codebook, params, budget)
    return out


# ---------------------------------------------------------------------------
# report I/O
# ---------------------------------------------------------------------------

TV_REPORT_HEADER = (
    "index", "seed", "param", "value", "n",
    "tv_deficit", "valid", "degenerate", "skipped", "reason",
)


def format_cell(value) -> str:
    """Canonical CSV cell text: floats via repr so they round-trip exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_report(path, report: ExperimentReport) -> None:
    """Write rows as CSV and (spec, aggregates) as a JSON sidecar.

    The sidecar lands next to the CSV with a ``.json`` suffix.  Runtimes are
    deliberately not emitted; both files are byte-identical across reruns of
    the same spec.
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TV_REPORT_HEADER)
        for r in report.rows:
            writer.writerow(
                format_cell(v)
                for v in (
                    r.index, r.seed, r.param, r.value, r.n,
                    r.tv_deficit, r.valid, r.degenerate, r.skipped, r.reason,
                )
            )
    sidecar = {
        "spec": experiment_spec_to_dict(report.spec),
        "aggregates": [asdict(a) for a in report.aggregates],
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_report_rows(path) -> tuple[TrialRow, ...]:
    """Parse report rows back; runtimes come back as zero (not serialized)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TV_REPORT_HEADER:
            raise ValueError(f"unexpected report header {header}")
        for rec in reader:
            index, seed, param, value, n, tv, valid, degen, skipped, reason = rec
            rows.append(
                TrialRow(
                    index=int(index),
                    seed=int(seed),
                    param=param,
                    value=None if value == "" else float(value),
                    n=int(n),
                    tv_deficit=float(tv),
                    valid=valid == "true",
                    degenerate=degen == "true",
                    skipped=skipped == "true",
                    reason=reason,
                )
            )
    return tuple(rows)


# ---------------------------------------------------------------------------
# encoder-validity law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChernoffCheck:
    """Empirical codebook-validity probability next to its union bound.

    ``delta1`` is the robust-typicality slack constant ``delta * H(X|W)``;
    it is recorded for inspection rather than asserted, since the exact
    constant depends on the typicality flavor.  The bound can be arbitrarily
    negative at small blocklengths but never exceeds one.
    """

    n: int
    rt: float
    c: float
    delta: float
    eta: float
    delta1: float
    i_x_w: float
    typical_count: int
    k_size: int
    trials: int
    empirical: float
    empirical_pointwise: float
    bound: float

    def __post_init__(self):
        for name in ("empirical", "empirical_pointwise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.bound > 1.0 + 1e-12:
            raise ValueError(f"bound exceeds 1: {self.bound}")


def validity_union_bound(
    params: CodecParams, i_x_w: float, typical_count: int, delta1: float
) -> float:
    """1 − 2·K·|T| · exp(−η² · 2^{n(rt − I − 4δ₁)} / (4 ln 2))."""
    exponent = (
        params.eta ** 2
        * 2.0 ** (params.n * (params.rt - i_x_w - 4.0 * delta1))
        / (4.0 * math.log(2.0))
    )
    return 1.0 - 2.0 * params.k_size * typical_count * math.exp(-exponent)


def validity_rate(
    instance: PtpInstance,
    params_list,
    trials: int = 200,
    budget: int | None = None,
) -> list[ChernoffCheck]:
    """Empirical P(every typical input gets a proper sub-PMF) per parameter set.

    Each entry draws ``trials`` codebooks (seeds derived from the parameter
    seed and the trial index) and reports the all-inputs validity frequency,
    the per-(input, block) frequency, and the closed-form union bound.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    info = instance.informations()
    p_w = instance.p_w()
    p_joint_xw = instance.p_joint_xw()
    p_x = p_joint_xw.marginalize(("X",))
    checks = []
    for params in params_list:
        all_valid = np.empty(trials, dtype=bool)
        pointwise = np.empty(trials)
        for t in range(trials):
            codebook = build_ptp_codebook(
                p_w,
                replace(params, seed=trial_seed(params.seed, t)),
                allow_degenerate=True,
                budget=budget,
            )
            all_valid[t], pointwise[t] = encoder_validity(codebook, p_joint_xw, params, budget)
        count = typical_set(p_x, params.n, params.delta, budget).shape[0]
        delta1 = params.delta * info["h_x_given_w"]
        checks.append(
            ChernoffCheck(
                n=params.n,
                rt=params.rt,
                c=params.c,
                delta=params.delta,
                eta=params.eta,
                delta1=delta1,
                i_x_w=info["i_x_w"],
                typical_count=count,
                k_size=params.k_size,
                trials=trials,
                empirical=float(all_valid.mean()),
                empirical_pointwise=float(pointwise.mean()),
                bound=validity_union_bound(params, info["i_x_w"], count, delta1),
            )
        )
    return checks


# ---------------------------------------------------------------------------
# concentration spot check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChernoffLemmaResult:
    """Outcome of one sample-mean concentration experiment."""

    n_samples: int
    theta: float
    eta: float
    trials: int
    empirical: float
    bound: float
    #: binomial standard error of ``empirical``
    sigma: float


def chernoff_lemma_check(
    n_samples: int,
    theta: float,
    eta: float,
    trials: int = 10_000,
    seed: int = 0,
    sampler=None,
    mean_value: float | None = None,
) -> ChernoffLemmaResult:
    """Concentration of an IID [0,1] sample mean versus its Chernoff bound.

    Draws ``trials`` batches of ``n_samples`` variables (Bernoulli(theta) by
    default; pass ``sampler(rng, shape)`` for other [0,1]-bounded laws with
    mean ``mean_value``) and reports the frequency of the sample mean landing
    within (1 ± eta) of the true mean, next to the closed-form floor
    1 − 2·exp(−N·η²·θ / (4 ln 2)).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if not 0.0 < eta < 0.5:
        raise ValueError(f"eta must lie in (0, 1/2), got {eta}")
    if (1.0 + eta) * theta >= 1.0:
        raise ValueError("(1 + eta) * theta must stay below 1")
    if n_samples < 1 or trials < 1:
        raise ValueError("n_samples and trials must be positive")
    mu = theta if mean_value is None else float(mean_value)
    if mu < theta:
        raise ValueError("the sampler mean must be at least theta")
    lo, hi = (1.0 - eta) * mu, (1.0 + eta) * mu
    rng = np.random.default_rng(seed)
    if sampler is None:
        means = rng.binomial(n_samples, theta, size=trials) / n_samples
        hits = int(np.count_nonzero((means >= lo) & (means <= hi)))
    else:
        hits = 0
        chunk = max(1, 1_000_000 // n_samples)
        for start in range(0, trials, chunk):
            m = min(chunk, trials - start)
            block = np.asarray(sampler(rng, (m, n_samples)), dtype=float)
            if block.shape != (m, n_samples):
                raise ValueError(f"sampler returned shape {block.shape}, wanted {(m, n_samples)}")
            if block.min() < 0.0 or block.max() > 1.0:
                raise ValueError("sampler values must lie in [0, 1]")
            means = block.mean(axis=1)
            hits += int(np.count_nonzero((means >= lo) & (means <= hi)))
    empirical = hits / trials
    bound = 1.0 - 2.0 * math.exp(-n_samples * eta * eta * theta / (4.0 * math.log(2.0)))
    sigma = math.sqrt(empirical * (1.0 - empirical) / trials)
    return ChernoffLemmaResult(
        n_samples=n_samples,
        theta=theta,
        eta=eta,
        trials=trials,
        empirical=empirical,
        bound=bound,
        sigma=sigma,
    )
