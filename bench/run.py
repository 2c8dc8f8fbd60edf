#!/usr/bin/env python3
"""corrsynth benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload ptp-exact --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from the
checkout's ``src/``, never from an installed copy.  Metric names and units
come from ``BENCHMARK.json``; each workload's op, parameters and threads, and
the layer -> end-to-end mapping, live in ``bench/ledger.json``.

Each op is a fixed unit of work drawn from ``--seed`` and sent through the
entry point a user calls (``cli.cli_dispatch`` in-process, or
``rate_region.ptp_frontier`` for the frontier call); every op's output is
checked.
With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs every op twice, untraced and traced (alternating which
goes first), checks that both write the same bytes, and reports the
per-layer metrics as the median per traced op plus the tracing overhead.

stdout: one line per metric (name, value, unit), then a ``detail`` JSON line
(machine block, op count, tail percentile, failures), then the result JSON
as the last line.  Exit 0 on a completed run; a run that cannot start exits
non-zero with a message on stderr and prints no result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (T0 must be taken before any other import)
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LEDGER = json.loads((BENCH / "ledger.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE_PATH = BENCH / "reference.json"
#: the seed whose outputs are pinned in reference.json
DEFAULT_SEED = 0
#: set-up is measured in this process and in this many fresh processes
SETUP_PROBES = 2
#: op_tail_s is the latency with this many ops beyond it
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def harness_threads(call: dict) -> int:
    return nproc() if call["threads"] == "nproc" else int(call["threads"])


def pin_blas() -> int:
    """One BLAS thread per harness thread, so harness x BLAS threads <= nproc.

    Must run before numpy loads.  A single-threaded workload stays on one
    core rather than letting OpenBLAS spread onto (and wait for) the others.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return 1


def import_corrsynth():
    """Import the package from this checkout's src/, or exit with a message."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import corrsynth
    except ImportError as err:
        sys.exit(f"bench: cannot import corrsynth from {src}: {err}")
    if src.resolve() not in Path(corrsynth.__file__).resolve().parents:
        sys.exit(f"bench: corrsynth was imported from {corrsynth.__file__}, not {src}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def op_key(seed: int, index: int) -> tuple[int, int]:
    """Entropy of op ``index``; index -1 is the warm-up op, the same for every seed."""
    return (seed, index) if index >= 0 else (0xC0DE, 0)


def op_seed(seed: int, index: int) -> int:
    """Codec or search seed of op ``index``."""
    import numpy as np

    return int(np.random.SeedSequence(op_key(seed, index)).generate_state(1, np.uint32)[0])


@dataclass
class Outcome:
    """What one op produced: exit code, artifact bytes and checked values."""

    rc: int
    files: dict = field(default_factory=dict)
    #: one list of checked values per call
    values: list = field(default_factory=list)
    #: bytes the op's CLI calls wrote
    artifact_bytes: int = 0
    error: str = ""


def call_trials(call: dict):
    """Trials of a CLI call; None for the frontier call, which has none."""
    if "trials" not in call:
        return None
    return nproc() if call["trials"] == "nproc" else int(call["trials"])


class CliCall:
    """One ``cli_dispatch`` call on a spec file drawn from the op seed."""

    def __init__(self, call: dict):
        self.call = call
        self.command = call["op"].split()[1]
        self.trials = call_trials(call)

    def prepare(self, seed: int, call_dir: Path) -> list[str]:
        # simulate-* derives trial seeds from the top-level seed, validity
        # from the parameter seed
        payload = {
            "instance": self.call["instance"],
            "params": {**self.call["params"], "seed": seed},
            "seed": seed,
            "trials": self.trials,
        }
        if "ns" in self.call:
            payload["ns"] = self.call["ns"]
        (call_dir / "out").mkdir(parents=True)
        spec_path = call_dir / "spec.json"
        spec_path.write_text(json.dumps(payload))
        return [self.command, "--spec", str(spec_path), "--out", str(call_dir / "out" / "result.csv"),
                "--threads", str(harness_threads(self.call))]

    def run(self, argv) -> tuple[int, str]:
        from corrsynth import cli

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.cli_dispatch(argv)
        return rc, err.getvalue().strip()

    def collect(self, argv) -> tuple[dict, list]:
        """The artifacts' bytes and checked values (read after timing)."""
        csv_path = Path(argv[argv.index("--out") + 1])
        files = {p.name: p.read_bytes() for p in sorted(csv_path.parent.iterdir())}
        parse = parse_validity if self.command == "validity" else parse_report
        return files, parse(csv_path, self.trials)

    def matches(self, got: float, want: float) -> bool:
        if self.command == "validity":
            return got == want
        return abs(got - want) <= 1e-9


def parse_report(csv_path: Path, trials: int) -> list[float]:
    """Deficits of a simulate-* report, after checking rows and sidecar agree."""
    from corrsynth.harness import aggregate_rows, read_report_rows

    rows = read_report_rows(csv_path)
    sidecar = json.loads(csv_path.with_suffix(".json").read_text())
    if len(rows) != trials:
        raise ValueError(f"{len(rows)} rows, expected {trials}")
    for row in rows:
        if row.skipped:
            raise ValueError(f"trial {row.index} skipped ({row.reason})")
        if not 0.0 <= row.tv_deficit <= 1.0:
            raise ValueError(f"trial {row.index} deficit {row.tv_deficit} outside [0, 1]")
    recomputed = [vars(a) for a in aggregate_rows(rows)]
    if json.loads(json.dumps(recomputed)) != sidecar["aggregates"]:
        raise ValueError("sidecar aggregates disagree with the rows")
    return [row.tv_deficit for row in rows]


def parse_validity(csv_path: Path, trials: int) -> list[float]:
    """Validity fractions of a validity report, each a multiple of 1/trials."""
    import csv

    with open(csv_path, newline="") as fh:
        records = list(csv.DictReader(fh))
    json.loads(csv_path.with_suffix(".json").read_text())
    if len(records) != 1:
        raise ValueError(f"{len(records)} validity rows, expected 1")
    values = []
    for rec in records:
        if int(rec["trials"]) != trials:
            raise ValueError(f"row reports {rec['trials']} trials, expected {trials}")
        for key in ("empirical", "empirical_pointwise"):
            v = float(rec[key])
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{key} {v} outside [0, 1]")
            values.append(v)
        hits = values[-2] * trials
        if abs(hits - round(hits)) > 1e-9:
            raise ValueError(f"empirical {values[-2]} is not a multiple of 1/{trials}")
    return values


class FrontierCall:
    """Traces one frontier and certifies its corners through polyhedra.

    The target is the same for every op and seed, so every call costs about
    the same; the op seed is the search seed (its random restarts).  Drawing
    a new target per op made op cost range from 7 to 17 s.
    """

    trials = None
    #: entropy of the fixed 2x2x2 target
    TARGET_KEY = (0xC0DE, 0)

    def __init__(self, call: dict):
        import numpy as np

        from corrsynth import polyhedra
        from corrsynth.probability import JointPmf

        self.search = call["search"]
        self.system = polyhedra.ptp_pre_elimination_system()
        cells = np.random.default_rng(self.TARGET_KEY).gamma(1.0, size=(2, 2, 2))
        self.target = JointPmf.from_table(("X", "Y", "Z"), cells / cells.sum())

    def prepare(self, seed: int, call_dir: Path) -> dict:
        from corrsynth.rate_region import SearchConfig

        return {"cfg": SearchConfig(**self.search, seed=seed)}

    def run(self, state: dict) -> tuple[int, str]:
        from fractions import Fraction

        from corrsynth import polyhedra, rate_region

        target, cfg = self.target, state["cfg"]
        result = rate_region.ptp_frontier(target, cfg)
        region = polyhedra.fm_eliminate_all(self.system, ["Rt"]).system
        values, errors = [], []
        if result.failures:
            errors.append(f"no consistent aux at lambda {list(result.failures)}")
        for point in result.raw:
            rates = rate_region.ptp_rates_for(target, point.aux, tol=max(cfg.tol, 1e-6))
            bindings = rate_region.ptp_bindings(rates)
            r, c = Fraction(point.rate), Fraction(point.cr)
            eps = Fraction(1, 10**9)
            if not polyhedra.lp_membership(region, {"R": r + eps, "C": c + eps}, bindings)[0]:
                errors.append(f"corner ({point.rate}, {point.cr}) + 1e-9 is not a member")
            step = Fraction(1, 1000)
            if r > step and polyhedra.lp_membership(region, {"R": r - step, "C": c}, bindings)[0]:
                errors.append(f"corner ({point.rate}, {point.cr}) - 1e-3 in R is a member")
            values.append((1.0 - point.lam) * point.rate + point.lam * (point.rate + point.cr))
        state["files"] = {"frontier": json.dumps(
            [[p.lam, p.rate, p.cr, p.value, p.residual] for p in result.raw]).encode()}
        state["values"] = values
        return (1 if errors else 0), "; ".join(errors)

    def collect(self, state: dict) -> tuple[dict, list]:
        return state["files"], state["values"]

    def matches(self, got: float, want: float) -> bool:
        return got <= want + 0.01  # gate 4's tolerance on the scalarized value


class Workload:
    """An op is the workload's calls in order, all on one seed drawn per op."""

    def __init__(self, name: str, spec: dict, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.calls = [FrontierCall(c) if c["op"].startswith("api ") else CliCall(c)
                      for c in spec["calls"]]
        self.trials = [call.trials for call in self.calls]

    def prepare(self, index: int, seed: int, tag: str) -> tuple[Path, list]:
        """The op's directory and each call's prepared input."""
        seed = op_seed(seed, index)
        op_dir = self.workdir / f"{tag}{index}"
        return op_dir, [call.prepare(seed, op_dir / f"call{i}")
                        for i, call in enumerate(self.calls)]

    def run(self, prepared) -> Outcome:
        for call, state in zip(self.calls, prepared[1]):
            rc, error = call.run(state)
            if rc != 0:
                return Outcome(rc, error=error)
        return Outcome(0)

    def collect(self, prepared, outcome: Outcome) -> None:
        """Read every call's artifacts and values back (after timing)."""
        op_dir, states = prepared
        try:
            if outcome.rc != 0:
                return
            for i, (call, state) in enumerate(zip(self.calls, states)):
                files, values = call.collect(state)
                outcome.files.update({f"{i}/{name}": data for name, data in files.items()})
                if isinstance(call, CliCall):
                    outcome.artifact_bytes += sum(len(data) for data in files.values())
                outcome.values.append(values)
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)


def make_workload(name: str, workdir: Path) -> Workload:
    return Workload(name, LEDGER["workloads"][name], workdir)


def check(workload: Workload, outcome: Outcome, reference) -> str:
    """Empty when the op passed; else the reason it failed."""
    if outcome.rc != 0:
        return f"exit {outcome.rc}: {outcome.error}"
    if reference is None:
        return ""
    for call, got_values, want_values in zip(workload.calls, outcome.values, reference):
        if len(got_values) != len(want_values):
            return f"{len(got_values)} values, reference has {len(want_values)}"
        for got, want in zip(got_values, want_values):
            if not call.matches(got, want):
                return f"value {got!r} does not match the reference {want!r}"
    return ""


def reference_values(workload: Workload, seed: int) -> dict:
    """Pinned outputs per op index (one list per call) for the default seed.

    ``ptp-exact`` runs nproc trials per op, so its pins apply only on a
    machine with the recorded core count.
    """
    if seed != DEFAULT_SEED or not REFERENCE_PATH.exists():
        return {}
    ref = json.loads(REFERENCE_PATH.read_text()).get(workload.name)
    if ref is None or ref["trials"] != workload.trials:
        return {}
    return ref["ops"]


# ---------------------------------------------------------------------------
# tracing hooks
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def trace_targets() -> dict:
    """Traced public functions and the counts read off each call."""

    def budget_terms(a, k, r):
        return {"terms": int(_arg(a, k, 0, "terms"))}

    def rows(a, k, r):
        return {"rows": int(r.shape[0])}

    def theta(a, k, r):
        return {"theta": int(sum(r.theta))}

    def ptp_exact(a, k, r):
        p_xz, _, p_y, book, binning, params = (_arg(a, k, i, n) for i, n in enumerate(
            ("p_xz", "p_w_given_x", "p_y_given_zw", "codebook", "binning", "params")))
        nx, nz = (al.size for al in p_xz.alphabets)
        ny, n = p_y.out_alphabets[0].size, params.n
        return {
            "joint_cells": (nx * ny * nz) ** n,
            "y_row_bytes": sum(nz**n * (1 + t) * ny**n * 8 for t in binning.theta),
            "weight_cells": nx**n * book.l_size * n * book.k_size,
        }

    def validity(a, k, r):
        book, params = _arg(a, k, 0, "codebook"), _arg(a, k, 2, "params")
        live = 0 if book.degenerate else book.l_size * params.n * book.k_size
        return {"cells_per_input": live}

    def dist_exact(a, k, r):
        p_x, p_y = _arg(a, k, 0, "p_x1x2"), _arg(a, k, 3, "p_y_given_w1w2")
        params = _arg(a, k, 6, "params")
        n = params.n
        (k1, k2), (m1, m2) = params.k_sizes, params.m_sizes
        a1, a2 = (al.size**n for al in p_x.alphabets)
        ay = p_y.out_alphabets[0].size ** n
        return {
            "joint_cells": a1 * a2 * ay,
            "decode_pairs": k1 * k2 * m1 * m2,
            # the unoptimised einsum "am,bv,mvy->aby": 2 multiplies + 1 add per
            # term, once per randomness-block pair
            "flops": 3 * k1 * k2 * a1 * a2 * (m1 + 1) * (m2 + 1) * ay,
        }

    def tv_rows(a, k, r):
        return {"trial_runtime_s": sum(row.runtime for row in r.rows)}

    def frontier(a, k, r):
        cfg = _arg(a, k, 1, "cfg")
        return {"lambdas": cfg.lambda_grid, "raw_points": len(r.raw), "failures": len(r.failures)}

    return {
        "cli.cli_dispatch": None,
        "harness.run_tv_experiment": tv_rows,
        "harness.validity_rate": None,
        "codec_ptp.induced_joint_exact": ptp_exact,
        "codec_ptp.tv_deficit": None,
        "codec_ptp.product_pmf": None,
        "codec_ptp.encoder_validity": validity,
        "codec_ptp.sample_codebook": None,
        "codec_ptp.sample_binning": theta,
        "codec_dist.dist_induced_joint_exact": dist_exact,
        "codec_dist.build_dist_codec": None,
        "typicality.typical_set": rows,
        "typicality.pairwise_typical_mask": None,
        "typicality.enumerate_sequences": None,
        "probability.total_variation": None,
        "probability.ProductPmf.table": None,
        "probability.mutual_information": None,
        "budget.check_budget": budget_terms,
        "rate_region.ptp_frontier": frontier,
        "rate_region.ptp_rates_for": None,
        "polyhedra.fm_eliminate_all": None,
        "polyhedra.lp_membership": None,
    }


def layer_values(spans, latency: float, outcome: Outcome) -> dict:
    """Per-layer numbers of one traced op (root span first)."""
    from tracing import self_times

    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans[1:]:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return sum(selfs[id(s)] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by_name.get(name, ()))

    out = {f"{name}.self_s": total(name) for name in trace_targets()}
    weight_cells = attr_sum("codec_ptp.induced_joint_exact", "weight_cells")
    for s in by_name.get("codec_ptp.encoder_validity", ()):
        inputs = sum(c.attrs["rows"] for c in by_name.get("typicality.typical_set", ())
                     if c.parent is s)
        weight_cells += inputs * s.attrs["cells_per_input"]
    tv_runs = by_name.get("harness.run_tv_experiment", ())
    tv_wall = sum(s.end - s.start for s in tv_runs)
    frontier_wall = sum(s.end - s.start for s in by_name.get("rate_region.ptp_frontier", ()))
    lambdas = attr_sum("rate_region.ptp_frontier", "lambdas")
    out.update({
        "cli.artifact_bytes": outcome.artifact_bytes,
        "harness.trial_concurrency": (
            attr_sum("harness.run_tv_experiment", "trial_runtime_s") / tv_wall if tv_wall else 0.0),
        "codec_ptp.y_row_bytes": attr_sum("codec_ptp.induced_joint_exact", "y_row_bytes"),
        "codec_ptp.encoder_weight_cells": weight_cells,
        "codec_ptp.joint_cells": attr_sum("codec_ptp.induced_joint_exact", "joint_cells"),
        "codec_ptp.theta": attr_sum("codec_ptp.sample_binning", "theta"),
        "codec_dist.joint_cells": attr_sum("codec_dist.dist_induced_joint_exact", "joint_cells"),
        "codec_dist.decode_pairs": attr_sum("codec_dist.dist_induced_joint_exact", "decode_pairs"),
        "codec_dist.contraction_flops": attr_sum("codec_dist.dist_induced_joint_exact", "flops"),
        "typicality.typical_set.calls": calls("typicality.typical_set"),
        "typicality.pairwise_typical_mask.calls": calls("typicality.pairwise_typical_mask"),
        "typicality.typical_words": attr_sum("typicality.typical_set", "rows"),
        "probability.mutual_information.calls": calls("probability.mutual_information"),
        "budget.check_budget.max_terms": max(
            [s.attrs["terms"] for s in by_name.get("budget.check_budget", ())], default=0),
        "rate_region.ptp_frontier.s_per_lambda": frontier_wall / lambdas if lambdas else 0.0,
        "rate_region.ptp_rates_for.calls": calls("rate_region.ptp_rates_for"),
        "rate_region.raw_points": attr_sum("rate_region.ptp_frontier", "raw_points"),
        "rate_region.failures": attr_sum("rate_region.ptp_frontier", "failures"),
        "polyhedra.lp_membership.calls": calls("polyhedra.lp_membership"),
        "op.self_s": selfs[id(spans[0])],
        "op.self_time_sum_s": sum(selfs.values()),
        "op.wall_s": latency,
    })
    return out


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def timed(workload, prepared, tracer=None):
    """Run one op; returns (outcome, latency seconds, spans or None)."""
    if tracer is None:
        start = time.perf_counter()
        outcome = workload.run(prepared)
        return outcome, time.perf_counter() - start, None
    tracer.install()
    try:
        with tracer.op() as spans:
            start = time.perf_counter()
            outcome = workload.run(prepared)
            latency = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return outcome, latency, spans


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND ops beyond it.

    That is the latency of the (TAIL_BEYOND + 1)-th slowest op.  Below the
    median, which a run of 2 * TAIL_BEYOND ops or fewer would reach, it is the
    median.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND  # 1-based rank of the op with TAIL_BEYOND beyond it
    if rank <= n / 2:
        return 50.0, statistics.median(ordered)
    return 100.0 * rank / n, ordered[rank - 1]


def machine(blas_threads: int, threads: int, seconds: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "harness_threads": threads,
        "run_seconds": seconds,
    }


def set_up(name: str, workdir: Path):
    """Build the workload and run one untimed warm-up op on a fixed input."""
    workload = make_workload(name, workdir)
    prepared = workload.prepare(-1, 0, "warmup")
    outcome = workload.run(prepared)
    workload.collect(prepared, outcome)
    if outcome.rc != 0:
        raise RuntimeError(f"warm-up op failed: exit {outcome.rc}: {outcome.error}")
    return workload


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run(args) -> dict:
    threads = max(harness_threads(c) for c in LEDGER["workloads"][args.workload]["calls"])
    blas_threads = pin_blas()
    import_corrsynth()
    workdir = BENCH / ".work" / str(os.getpid())
    try:
        workload = set_up(args.workload, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            return {"setup_s": setup_s}
        return measure(args, workload, setup_s, blas_threads, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_s, blas_threads, threads) -> dict:
    setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    reference = reference_values(workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer("corrsynth", trace_targets())

    latencies, overheads, layers = [], [], []
    failures: list[str] = []
    attempted = 0
    cpu0, start = time.process_time(), time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds:
        # a traced run times each op both ways, alternating which goes first
        # so that order effects cancel out of trace.overhead_frac
        passes = [None, tracer] if index % 2 == 0 else [tracer, None]
        twin = None  # the other pass's outcome of this op, in a traced run
        walls = {}
        for pass_tracer in passes if tracer else [None]:
            prepared = workload.prepare(index, args.seed, "t" if pass_tracer else "u")
            outcome, latency, spans = timed(workload, prepared, pass_tracer)
            attempted += 1
            try:
                workload.collect(prepared, outcome)
                why = check(workload, outcome, reference.get(str(index)))
            except (OSError, ValueError, KeyError) as err:
                why = f"unreadable output: {err}"
            if not why and twin is not None and outcome.files != twin.files:
                why = "artifacts differ with tracing on and off"
            if why:
                failures.append(f"op {index}: {why}")
            twin = outcome
            walls[spans is not None] = latency
            if spans is None:
                latencies.append(latency)
            else:
                layers.append(layer_values(spans, latency, outcome))
        if tracer:
            overheads.append(walls[True] / walls[False] - 1.0)
        index += 1
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    failed = len(failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(blas_threads, threads, args.seconds),
        "ops": attempted,
        "loop_wall_s": wall,
        "setup_samples_s": setups,
        "reference_checked_ops": sum(1 for i in range(index) if str(i) in reference),
        "failures": failures[:20],
    }
    if not tracer:
        pct, tail_s = tail(latencies)
        detail["tail_percentile"] = pct
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (attempted - failed) / wall,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        detail["failed_frac"] = failed / attempted
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    else:
        medians = {key: statistics.median(op[key] for op in layers) for key in layers[0]}
        closure = max(abs(op["op.self_time_sum_s"] - op["op.wall_s"]) / op["op.wall_s"]
                      for op in layers)
        detail["self_time_closure"] = closure
        detail["layers"] = medians
        medians["process.cpu_util"] = cpu / wall
        medians["trace.overhead_frac"] = statistics.median(overheads)
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        metrics = {k: medians[k] for k in units}
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(json.dumps({"detail": detail}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LEDGER["workloads"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
