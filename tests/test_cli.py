"""Tests for the command line front end: subcommands, artifacts, exit codes."""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrsynth
from corrsynth.cli import cli_dispatch, main
from corrsynth.harness import (
    instance_to_dict,
    read_report_rows,
    reference_instance,
)
from corrsynth.polyhedra import (
    ptp_pre_elimination_system,
    ptp_theorem_system,
    read_system,
    write_system,
)

rng = np.random.default_rng(20260815)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def sim_spec(tmp_path):
    return write_json(
        tmp_path / "sim.json",
        {
            "instance": "reference",
            "params": {
                "n": 2, "rt": 0.9, "r": 0.4, "c": 0.3,
                "delta": 0.34, "eta": 0.1, "seed": 3,
            },
            "trials": 5,
            "seed": 3,
        },
    )


# --------------------------------------------------------------------------
# analysis subcommands
# --------------------------------------------------------------------------


def test_region_ptp_writes_frontier_rows(tmp_path):
    p = rng.gamma(1.0, size=(2, 2, 2))
    spec = write_json(
        tmp_path / "region.json",
        {
            "p_xyz": (p / p.sum()).tolist(),
            "w_cap": 2, "lambda_grid": 2, "restarts": 1, "iters": 10,
        },
    )
    out = tmp_path / "frontier.csv"
    assert cli_dispatch(["region-ptp", "--spec", spec, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["lambda", "rate", "cr", "value", "residual", "on_frontier"]
    assert len(rows) == 3
    for rec in rows[1:]:
        assert float(rec[1]) >= 0.0 and float(rec[2]) >= 0.0
        assert rec[5] in ("true", "false")
    sidecar = json.loads((tmp_path / "frontier.json").read_text())
    assert sidecar["failures"] == []
    assert sidecar["spec"]["lambda_grid"] == 2


@pytest.mark.parametrize("knob, value", [("w_cap", 0), ("lambda_grid", 0), ("iters", -1), ("tol", 0.0)])
def test_region_ptp_rejects_out_of_range_search_knobs(tmp_path, capsys, knob, value):
    spec = write_json(tmp_path / "region.json", {"p_xyz": np.full((2, 2, 2), 0.125).tolist(), knob: value})
    out = tmp_path / "frontier.csv"
    assert cli_dispatch(["region-ptp", "--spec", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and knob in err
    assert not out.exists()


def test_region_dist_writes_the_bound_row(tmp_path):
    spec = write_json(
        tmp_path / "dist.json",
        {
            "p_x1x2y": (np.full((2, 2, 2), 0.125)).tolist(),
            "aux": {
                "p_q": [1.0],
                "w1_given_qx1": [np.eye(2).tolist()],
                "w2_given_qx2": [np.eye(2).tolist()],
                "y_given_qw1w2": np.full((1, 2, 2, 2), 0.5).tolist(),
            },
        },
    )
    out = tmp_path / "bounds.csv"
    assert cli_dispatch(["region-dist", "--spec", spec, "--out", str(out)]) == 0
    header, row = read_rows(out)
    assert header[:4] == ["r1", "r2", "r1_plus_r2", "r1_plus_r2_plus_c"]
    # independent fair sources copied into the codewords: I(X1;W1) = 1 bit,
    # I(W1;W2) = 0, and the uniform output channel contributes nothing
    values = dict(zip(header, map(float, row)))
    assert values["r1"] == pytest.approx(1.0, abs=1e-9)
    assert values["r1_plus_r2"] == pytest.approx(2.0, abs=1e-9)
    assert values["i_w1_w2"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "name, table",
    [
        ("p_q", 1.0),
        ("w1_given_qx1", np.eye(2).tolist()),
        ("w2_given_qx2", [[np.eye(2).tolist()]]),
        ("y_given_qw1w2", np.full((2, 2, 2), 0.5).tolist()),
    ],
)
def test_region_dist_rejects_aux_tables_of_the_wrong_rank(tmp_path, capsys, name, table):
    aux = {
        "p_q": [1.0],
        "w1_given_qx1": [np.eye(2).tolist()],
        "w2_given_qx2": [np.eye(2).tolist()],
        "y_given_qw1w2": np.full((1, 2, 2, 2), 0.5).tolist(),
    }
    aux[name] = table
    spec = write_json(tmp_path / "dist.json", {"p_x1x2y": np.full((2, 2, 2), 0.125).tolist(), "aux": aux})
    out = tmp_path / "bounds.csv"
    assert cli_dispatch(["region-dist", "--spec", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and name in err
    assert "Traceback" not in err and not out.exists()


def test_non_finite_probabilities_exit_one(tmp_path, capsys):
    instance = instance_to_dict(reference_instance())
    instance["p_xz"][0][0] = float("nan")
    params = {"n": 2, "rt": 0.9, "r": 0.4, "c": 0.3, "delta": 0.34, "eta": 0.1, "seed": 3}
    runs = [
        ("simulate-ptp", {"instance": instance, "params": params, "trials": 1}),
        ("region-ptp", {"p_xyz": [[[float("nan")], [0.5]], [[0.25], [0.25]]]}),
    ]
    for command, payload in runs:
        spec = write_json(tmp_path / f"{command}.json", payload)
        out = tmp_path / f"{command}.csv"
        assert cli_dispatch([command, "--spec", spec, "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "nan" in err, command
        assert not out.exists()


def test_fm_projects_the_packaged_system(tmp_path):
    sys_path = tmp_path / "system.json"
    write_system(sys_path, ptp_pre_elimination_system())
    out = tmp_path / "projected.json"
    code = cli_dispatch(
        ["fm", "--system", str(sys_path), "--eliminate", "Rt", "--out", str(out)]
    )
    assert code == 0
    projected = read_system(out)
    assert "Rt" not in projected.variables
    assert set(projected.variables) == set(ptp_theorem_system().variables)
    assert cli_dispatch(["fm", "--spec", str(sys_path), "--out", str(out)]) == 1


# --------------------------------------------------------------------------
# simulation subcommands
# --------------------------------------------------------------------------


def test_simulate_ptp_reports_are_replayable(tmp_path, sim_spec):
    out = tmp_path / "report.csv"
    assert cli_dispatch(["simulate-ptp", "--spec", sim_spec, "--out", str(out)]) == 0
    rows = read_report_rows(out)
    assert len(rows) == 5
    assert all(not r.skipped for r in rows)
    again = tmp_path / "again.csv"
    assert cli_dispatch(["simulate-ptp", "--spec", sim_spec, "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "report.json").read_bytes()


def test_simulate_flags_override_the_spec(tmp_path, sim_spec):
    out = tmp_path / "swept.csv"
    code = cli_dispatch(
        [
            "simulate-ptp", "--spec", sim_spec, "--out", str(out),
            "--trials", "2", "--seed", "12", "--sweep", "rt=0.6:1.2:0.6",
            "--threads", "2",
        ]
    )
    assert code == 0
    rows = read_report_rows(out)
    assert len(rows) == 4
    assert [(r.param, r.value) for r in rows[:2]] == [("rt", 0.6), ("rt", 0.6)]
    assert rows[0].seed == rows[2].seed  # paired across the grid
    sidecar = json.loads((tmp_path / "swept.json").read_text())
    assert sidecar["spec"]["seed"] == 12
    assert sidecar["spec"]["sweep"] == {"param": "rt", "values": [0.6, 1.2]}


def test_simulate_dist_runs_the_two_encoder_codec(tmp_path):
    spec = write_json(
        tmp_path / "dist.json",
        {
            "instance": "dist-demo",
            "params": {
                "n": 1, "rt1": 1.0, "rt2": 1.0, "r1": 1.0, "r2": 1.0,
                "c1": 0.5, "c2": 0.5, "delta": 0.5, "eta": 0.2, "seed": 1,
            },
            "trials": 3,
        },
    )
    out = tmp_path / "dist.csv"
    assert cli_dispatch(["simulate-dist", "--spec", spec, "--out", str(out)]) == 0
    rows = read_report_rows(out)
    assert len(rows) == 3
    assert all(0.0 <= r.tv_deficit <= 1.0 for r in rows)


def test_validity_subcommand_writes_one_row_per_blocklength(tmp_path):
    spec = write_json(
        tmp_path / "validity.json",
        {
            "instance": instance_to_dict(reference_instance()),
            "params": {
                "n": 2, "rt": 1.6688, "r": 0.0, "c": 0.0,
                "delta": 0.34, "eta": 0.1, "seed": 5,
            },
            "ns": [2, 3],
            "trials": 5,
        },
    )
    out = tmp_path / "validity.csv"
    assert cli_dispatch(["validity", "--spec", spec, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0][0] == "n" and len(rows) == 3
    assert [rec[0] for rec in rows[1:]] == ["2", "3"]
    assert all(float(rec[10]) == 1.0 for rec in rows[1:])  # empirical column
    assert (tmp_path / "validity.json").exists()


def test_chernoff_subcommand_emits_the_check(tmp_path):
    spec = write_json(
        tmp_path / "coin.json", {"n_samples": 100, "theta": 0.3, "eta": 0.2}
    )
    out = tmp_path / "coin.csv"
    code = cli_dispatch(
        ["chernoff", "--spec", spec, "--out", str(out), "--trials", "500", "--seed", "2"]
    )
    assert code == 0
    header, row = read_rows(out)
    rec = dict(zip(header, row))
    assert rec["trials"] == "500"
    assert 0.0 <= float(rec["empirical"]) <= 1.0
    assert float(rec["bound"]) <= 1.0


def test_softcover_subcommand_lists_per_trial_deficits(tmp_path):
    spec = write_json(
        tmp_path / "soft.json",
        {
            "instance": "reference",
            "params": {
                "n": 2, "rt": 1.2, "r": 0.0, "c": 0.0,
                "delta": 0.34, "eta": 0.0, "seed": 7,
            },
        },
    )
    out = tmp_path / "soft.csv"
    assert cli_dispatch(["softcover", "--spec", spec, "--out", str(out), "--trials", "4"]) == 0
    rows = read_rows(out)
    assert rows[0] == ["index", "seed", "deficit"]
    assert len(rows) == 5
    deficits = [float(rec[2]) for rec in rows[1:]]
    assert all(0.0 <= d <= 1.0 for d in deficits)
    sidecar = json.loads((tmp_path / "soft.json").read_text())
    assert sidecar["mean"] == pytest.approx(np.mean(deficits))


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------


def test_usage_errors_exit_one(tmp_path, capsys):
    assert cli_dispatch([]) == 1
    assert cli_dispatch(["not-a-command"]) == 1
    assert cli_dispatch(["simulate-ptp", "--out", "x.csv"]) == 1  # missing --spec
    assert cli_dispatch(["chernoff", "--spec", "x.json", "--out", "y.csv", "--wat"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_validation_errors_exit_one(tmp_path, sim_spec):
    missing = str(tmp_path / "nope.json")
    assert cli_dispatch(["simulate-ptp", "--spec", missing, "--out", "o.csv"]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli_dispatch(["simulate-ptp", "--spec", str(garbled), "--out", "o.csv"]) == 1
    empty = write_json(tmp_path / "empty.json", {})
    assert cli_dispatch(["simulate-ptp", "--spec", empty, "--out", "o.csv"]) == 1
    assert cli_dispatch(
        ["simulate-ptp", "--spec", sim_spec, "--out", str(tmp_path / "o.csv"),
         "--sweep", "volume=1:2:1"]
    ) == 1


@pytest.mark.parametrize(
    "error",
    [
        ArithmeticError("induced law sums to 0.98, expected 1"),
        AssertionError("typical source word with zero product probability"),
        np.linalg.LinAlgError("Singular matrix\nin the inner solve"),
    ],
    ids=lambda err: type(err).__name__,
)
def test_numerical_failures_exit_one_without_traceback(
    tmp_path, sim_spec, capsys, monkeypatch, error
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("corrsynth.harness.streamed_tv_deficit", fail)
    out = tmp_path / "o.csv"
    assert cli_dispatch(["simulate-ptp", "--spec", sim_spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: simulate-ptp: {type(error).__name__}: ")
    assert " ".join(str(error).split()) in err


def test_exhausted_budgets_exit_two(tmp_path):
    spec = write_json(
        tmp_path / "soft.json",
        {
            "instance": "reference",
            "params": {
                "n": 4, "rt": 1.0, "r": 0.0, "c": 0.0,
                "delta": 0.34, "eta": 0.0, "seed": 0,
            },
        },
    )
    code = cli_dispatch(
        ["softcover", "--spec", spec, "--out", str(tmp_path / "s.csv"), "--budget", "1"]
    )
    assert code == 2
    # the Monte Carlo runner absorbs budget misses into skipped rows instead
    sim = write_json(
        tmp_path / "sim.json",
        {
            "instance": "reference",
            "params": {
                "n": 2, "rt": 0.9, "r": 0.4, "c": 0.3,
                "delta": 0.34, "eta": 0.1, "seed": 3,
            },
            "trials": 2,
        },
    )
    out = tmp_path / "skipped.csv"
    assert cli_dispatch(
        ["simulate-ptp", "--spec", sim, "--out", str(out), "--budget", "1"]
    ) == 0
    assert all(r.skipped and r.reason == "budget" for r in read_report_rows(out))


def test_module_entry_point_runs(tmp_path):
    spec = write_json(
        tmp_path / "coin.json", {"n_samples": 50, "theta": 0.5, "eta": 0.4}
    )
    out = tmp_path / "coin.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "corrsynth.cli",
            "chernoff", "--spec", spec, "--out", str(out), "--trials", "200",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert main(["not-a-command"]) == 1


def test_one_process_dispatches_like_separate_processes(tmp_path):
    """The parser is built once, on the first dispatch: a bad command, then
    ``validity``, then ``simulate-ptp`` in one process exit with the codes
    and write the bytes each call gives in a process of its own."""
    validity = write_json(tmp_path / "validity.json", {
        "instance": "synthesis-demo", "trials": 2,
        "params": {"n": 4, "rt": 1.5, "r": 0.0, "c": 0.25, "delta": 0.5, "eta": 0.9, "seed": 0},
    })
    simulate = write_json(tmp_path / "simulate.json", {
        "instance": "synthesis-demo", "trials": 2,
        "params": {"n": 4, "rt": 1.5, "r": 1.0, "c": 0.25, "delta": 0.5, "eta": 0.1, "seed": 0},
    })
    calls = [
        ["not-a-command"],
        ["validity", "--spec", validity, "--out", "validity.csv"],
        ["simulate-ptp", "--spec", simulate, "--out", "report.csv"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(corrsynth.__file__).resolve().parent.parent)}
    script = (
        "import json, sys\n"
        "from corrsynth import cli\n"
        "assert cli._parser.cache_info().currsize == 0\n"
        "codes = [cli.cli_dispatch(argv) for argv in json.loads(sys.argv[1])]\n"
        "assert cli._parser.cache_info().misses == 1\n"
        "print(json.dumps(codes))\n"
    )
    together = tmp_path / "together"
    together.mkdir()
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)], cwd=together,
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    written = []
    for i, argv in enumerate(calls):
        alone = tmp_path / f"alone{i}"
        alone.mkdir()
        proc = subprocess.run([sys.executable, "-m", "corrsynth.cli", *argv], cwd=alone,
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == codes[i]
        for path in sorted(alone.iterdir()):
            assert (together / path.name).read_bytes() == path.read_bytes()
            written.append(path.name)
    assert codes == [1, 0, 0]
    assert sorted(written) == sorted(p.name for p in together.iterdir()) == [
        "report.csv", "report.json", "validity.csv", "validity.json"]


def test_cli_import_loads_only_the_standard_library_numpy_and_the_package():
    # modules the interpreter loaded before the import (site hooks) are not
    # the package's doing, so only the ones the import adds are checked
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import corrsynth.cli\n"
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    src = str(Path(corrsynth.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.strip())
    assert "corrsynth" in loaded and "numpy" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names and m not in ("numpy", "corrsynth")] == []
