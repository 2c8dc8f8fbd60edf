#!/usr/bin/env python3
"""Record the benchmark's pinned outputs and its baseline statistics.

    python3 bench/baseline.py reference            # writes bench/reference.json
    python3 bench/baseline.py stats [--seeds 10]   # updates bench/baseline.json

``reference`` runs the first ops of the default seed of every workload and
pins their outputs (deficits, validity fractions, scalarized frontier
values); ``run.py`` compares against them whenever it runs that seed.

``stats`` runs ``run.py`` once per seed on each workload, reports the median
and quartiles of every end-to-end metric and the spread (q3 - q1) / median,
adds one traced run's per-layer numbers, and writes the result together with
the machine block.  Run both from the root of the checkout being measured.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
#: ops pinned per workload: more than one run of BENCHMARK.json's length completes
REFERENCE_OPS = {"ptp-exact": 96, "dist-exact": 64, "validity-region": 8}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, detail) of one benchmark process."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def record_reference(workloads: list[str]) -> None:
    sys.path.insert(0, str(BENCH))
    import run

    run.pin_blas()
    run.import_corrsynth()
    out = json.loads(run.REFERENCE_PATH.read_text()) if run.REFERENCE_PATH.exists() else {}
    workdir = BENCH / ".work" / "reference"
    for name in workloads:
        workload = run.make_workload(name, workdir)
        ops = {}
        for index in range(REFERENCE_OPS[name]):
            prepared = workload.prepare(index, run.DEFAULT_SEED, "r")
            outcome = workload.run(prepared)
            workload.collect(prepared, outcome)
            if run.check(workload, outcome, None):
                raise SystemExit(f"{name} op {index} failed: {outcome.error}")
            ops[str(index)] = outcome.values
        out[name] = {"seed": run.DEFAULT_SEED, "trials": workload.trials, "ops": ops}
        print(f"pinned {len(ops)} {name} ops", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def record_stats(workloads: list[str], seeds: int, seconds: int, path: Path) -> None:
    out = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    for name in workloads:
        runs = []
        for seed in range(1, seeds + 1):
            result, detail = run_once(name, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed} failed: {detail['failures']}")
            runs.append((result, detail))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        traced, traced_detail = run_once(name, 0, seconds, 1)
        metrics = {k: summarize([r["metrics"][k]["value"] for r, _ in runs])
                   for k in runs[0][0]["metrics"]}
        for k, m in metrics.items():
            print(f"{name} {k}: median {m['median']:.4g}, spread {m['spread']:.3%}", flush=True)
        out["workloads"][name] = {
            "seconds": seconds,
            "seeds": list(range(1, seeds + 1)),
            "ops_per_run": [d["ops"] for _, d in runs],
            "end_to_end": metrics,
            "traced_seed": 0,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_detail": traced_detail,
        }
        # thread counts and run length are per workload (see traced_detail)
        out["machine"] = {k: v for k, v in runs[0][1]["machine"].items()
                          if k not in ("blas_threads", "harness_threads", "run_seconds")}
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ledger = json.loads((BENCH / "ledger.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("reference", "stats"))
    parser.add_argument("--workload", action="append", choices=sorted(ledger["workloads"]),
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json",
                        help="stats file to update (default: bench/baseline.json)")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or list(ledger["workloads"])
    if args.what == "reference":
        record_reference(workloads)
    else:
        record_stats(workloads, args.seeds, args.seconds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
