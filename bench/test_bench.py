"""The benchmark's own test: every workload at minimal length, traced and not.

    python3 -m pytest -q bench/test_bench.py

Takes a few minutes (each run sets up three times, and a validity-region op
takes about five seconds).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Span, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LEDGER = run.LEDGER


def invoke(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(LEDGER["workloads"]))
def test_minimal_run_reports_every_metric(workload, trace):
    proc = invoke(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1 + trace
    if trace:
        wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        # self times of an op's spans account for its wall time
        assert detail["self_time_closure"] <= 0.05
    else:
        wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert detail["machine"]["blas_threads"] * detail["machine"]["harness_threads"] \
            <= detail["machine"]["nproc"]
        assert all(result["metrics"][m]["value"] > 0 for m in wanted)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {}
    for line in lines[:-2]:
        _, name, value, unit = line.split()
        printed[name] = unit
        assert float(value) == result["metrics"][name]["value"]
    assert printed == wanted
    # a traced run fails any op whose artifacts differ from its untraced twin,
    # and the default seed's outputs are compared to the pinned reference
    pinned = json.loads(run.REFERENCE_PATH.read_text())[workload]
    if pinned["trials"] == [run.call_trials(c) for c in LEDGER["workloads"][workload]["calls"]]:
        assert detail["reference_checked_ops"] >= 1


def test_self_times_split_overlapping_children_and_sum_to_wall():
    def span(name, parent, start, end):
        s = Span(name, parent)
        s.start, s.end = start, end
        return s

    root = span("op", None, 0.0, 10.0)
    pool = span("harness", root, 1.0, 9.0)
    a = span("trial", pool, 2.0, 6.0)
    b = span("trial", pool, 4.0, 8.0)
    inner = span("kernel", a, 2.0, 3.0)
    got = self_times([root, pool, a, b, inner])
    assert got[id(root)] == pytest.approx(2.0)
    assert got[id(pool)] == pytest.approx(2.0)  # 1-2 and 8-9
    assert got[id(inner)] == pytest.approx(1.0)
    assert got[id(a)] == pytest.approx(1.0 + 1.0)  # 3-4 alone, 4-6 shared with b
    assert got[id(b)] == pytest.approx(1.0 + 2.0)  # 4-6 shared, 6-8 alone
    assert sum(got.values()) == pytest.approx(10.0)


def test_every_listed_workload_and_layer_is_in_the_ledger():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(LEDGER["workloads"])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(LEDGER["layers"])


def test_tail_is_the_op_with_ten_beyond_it():
    assert run.tail([float(i) for i in range(1, 29)]) == (100.0 * 18 / 28, 18.0)
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = invoke(tmp_path, "dist-exact", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
