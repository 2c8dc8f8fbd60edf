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
from corrsynth import cli, harness
from corrsynth.cli import cli_dispatch
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
        out = tmp_path / f"{command}-out.csv"
        assert cli_dispatch([command, "--spec", spec, "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "nan" in err, command
        assert not out.exists()


def test_fm_projects_the_packaged_system(tmp_path):
    sys_path = tmp_path / "system.json"
    write_system(sys_path, ptp_pre_elimination_system())
    out = tmp_path / "projected.json"
    code = cli_dispatch(
        ["fm", "--spec", str(sys_path), "--eliminate", "Rt", "--out", str(out)]
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


def test_threads_never_change_an_n6_simulate_ptp_artifact(tmp_path):
    """The benchmark's n=6 spec: at n=6 the z-word prefix walk branches at every
    letter, and two workers write the same CSV and sidecar bytes as one."""
    spec = write_json(tmp_path / "simulate.json", {
        "instance": "synthesis-demo", "trials": 4,
        "params": {"n": 6, "rt": 1.5, "r": 1.35, "c": 0.25, "delta": 0.5, "eta": 0.1, "seed": 0},
    })
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}.csv")
        assert cli_dispatch(["simulate-ptp", "--spec", spec, "--out", out, "--threads", threads]) == 0
    assert len(read_report_rows(tmp_path / "threads1.csv")) == 4
    for suffix in (".csv", ".json"):
        one, two = (tmp_path / f"threads{t}{suffix}" for t in ("1", "2"))
        assert one.read_bytes() == two.read_bytes()


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
    out = tmp_path / "report.csv"
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
    out = tmp_path / "rows.csv"
    assert cli_dispatch(["validity", "--spec", spec, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0][0] == "n" and len(rows) == 3
    assert [rec[0] for rec in rows[1:]] == ["2", "3"]
    assert all(float(rec[10]) == 1.0 for rec in rows[1:])  # empirical column
    assert (tmp_path / "rows.json").exists()


def test_validity_threads_draw_in_parallel_and_never_change_a_row(tmp_path, monkeypatch):
    pools = []

    class Recording(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
    spec = write_json(tmp_path / "validity.json", {
        "instance": "synthesis-demo", "trials": 3, "ns": [4, 5],
        "params": {"n": 4, "rt": 1.5, "r": 0.0, "c": 0.25, "delta": 0.5, "eta": 0.9, "seed": 2},
    })
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}.csv")
        assert cli_dispatch(["validity", "--spec", spec, "--out", out, "--threads", threads]) == 0
    assert pools == [2, 2]  # one pool per blocklength, none at --threads 1
    for suffix in (".csv", ".json"):
        one, two = (tmp_path / f"threads{t}{suffix}" for t in ("1", "2"))
        assert one.read_bytes() == two.read_bytes()


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
    out = tmp_path / "deficits.csv"
    assert cli_dispatch(["softcover", "--spec", spec, "--out", str(out), "--trials", "4"]) == 0
    rows = read_rows(out)
    assert rows[0] == ["index", "seed", "deficit"]
    assert len(rows) == 5
    deficits = [float(rec[2]) for rec in rows[1:]]
    assert all(0.0 <= d <= 1.0 for d in deficits)
    sidecar = json.loads((tmp_path / "deficits.json").read_text())
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


#: the flags each subcommand reads besides --spec and --out
FLAG_ROWS = {
    "region-ptp": {"seed"},
    "region-dist": set(),
    "fm": {"eliminate"},
    "simulate-ptp": {"trials", "seed", "budget", "threads", "sweep"},
    "simulate-dist": {"trials", "seed", "budget", "threads", "sweep"},
    "validity": {"trials", "seed", "budget", "threads"},
    "chernoff": {"trials", "seed"},
    "softcover": {"trials", "seed", "budget"},
}


@pytest.mark.parametrize("command", sorted(FLAG_ROWS))
def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys, command):
    argv = [command, "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out.csv")]
    if command == "fm":
        argv += ["--eliminate", "Rt"]
    everything = {"trials", "seed", "budget", "threads", "eliminate", "sweep", "system"}
    for flag in sorted(everything - FLAG_ROWS[command]):
        assert cli_dispatch([*argv, f"--{flag}", "1"]) == 1, flag
        err = capsys.readouterr().err
        assert "usage: corrsynth" in err and f"--{flag}" in err
    row = [word for flag in FLAG_ROWS[command] - {"eliminate"} for word in (f"--{flag}", "1")]
    parsed = cli._parser().parse_args(argv + row)
    assert set(vars(parsed)) == {"command", "spec", "out"} | FLAG_ROWS[command]
    assert not list(tmp_path.iterdir())


SIDECAR_SPECS = {
    "region-ptp": {"p_xyz": np.full((2, 2, 2), 0.125).tolist(), "lambda_grid": 1, "iters": 1},
    "simulate-ptp": {"instance": "reference", "trials": 1, "params": {
        "n": 2, "rt": 0.9, "r": 0.4, "c": 0.3, "delta": 0.34, "eta": 0.1, "seed": 3}},
    "simulate-dist": {"instance": "dist-demo", "trials": 1, "params": {
        "n": 1, "rt1": 1.0, "rt2": 1.0, "r1": 1.0, "r2": 1.0,
        "c1": 0.5, "c2": 0.5, "delta": 0.5, "eta": 0.2, "seed": 1}},
    "validity": {"instance": "reference", "trials": 1, "params": {
        "n": 2, "rt": 1.6688, "r": 0.0, "c": 0.0, "delta": 0.34, "eta": 0.1, "seed": 5}},
    "softcover": {"instance": "reference", "trials": 1, "params": {
        "n": 2, "rt": 1.2, "r": 0.0, "c": 0.0, "delta": 0.34, "eta": 0.0, "seed": 7}},
}


@pytest.mark.parametrize("command", sorted(SIDECAR_SPECS))
def test_a_sidecar_never_overwrites_the_spec(tmp_path, capsys, command, monkeypatch):
    """``--out spec.csv`` would put the sidecar at spec.json: refused before any work."""
    spec = tmp_path / "spec.json"
    write_json(spec, SIDECAR_SPECS[command])
    before = spec.read_bytes()
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    for out in (tmp_path / "spec.csv", "../spec.csv"):
        assert cli_dispatch([command, "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "overwrite" in err
        assert spec.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "sub"]
    # a name of its own runs, and writes the sidecar beside it
    assert cli_dispatch([command, "--spec", str(spec), "--out", "out.csv"]) == 0
    assert spec.read_bytes() == before
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["out.csv", "out.json"]


def test_commands_without_a_sidecar_may_share_the_spec_stem(tmp_path):
    spec = write_json(tmp_path / "coin.json", {"n_samples": 50, "theta": 0.5, "eta": 0.4})
    out = tmp_path / "coin.csv"
    assert cli_dispatch(["chernoff", "--spec", spec, "--out", str(out), "--trials", "20"]) == 0
    assert len(read_rows(out)) == 2


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_out_never_names_the_spec(tmp_path, capsys, command, monkeypatch):
    """``--out`` resolving to ``--spec`` is refused before any work, sidecar or not."""
    spec = tmp_path / "spec.json"
    write_json(spec, {"n_samples": 50, "theta": 0.5, "eta": 0.4})
    before = spec.read_bytes()
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    extra = ["--eliminate", "Rt"] if command == "fm" else []
    for out in (spec, "../spec.json"):
        assert cli_dispatch([command, "--spec", str(spec), "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "overwrite --spec" in err
        assert spec.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "sub"]
        assert not list((tmp_path / "sub").iterdir())


def test_a_flag_outside_the_row_prints_the_subcommands_usage(tmp_path, capsys):
    spec = write_json(tmp_path / "region.json", {"p_xyz": np.full((2, 2, 2), 0.125).tolist()})
    argv = ["region-ptp", "--spec", spec, "--out", str(tmp_path / "out.csv"), "--threads", "2"]
    assert cli_dispatch(argv) == 1
    # the error, then the usage line naming the subcommand and the flags it does take
    assert capsys.readouterr().err.splitlines() == [
        "corrsynth region-ptp: error: unrecognized arguments: --threads 2",
        "usage: corrsynth region-ptp [-h] --spec SPEC --out OUT [--seed SEED]",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["region.json"]


@pytest.mark.parametrize("before, error", [
    ([], "a command is required"),
    (["--threads", "2"], "--threads must follow the command"),
    (["--threads=2"], "--threads must follow the command"),
])
def test_a_missing_or_late_command_prints_the_error_and_the_usage_line(tmp_path, capsys, before, error):
    spec = write_json(tmp_path / "region.json", {"p_xyz": np.full((2, 2, 2), 0.125).tolist()})
    argv = before + (["region-ptp", "--spec", spec, "--out", str(tmp_path / "out.csv")] if before else [])
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"corrsynth: error: {error}", "usage: corrsynth [-h] command ...",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["region.json"]


@pytest.mark.parametrize("budget", ["100000", 2.5e6, True], ids=["string", "float", "bool"])
@pytest.mark.parametrize("command", ["validity", "softcover", "simulate-ptp"])
def test_spec_budgets_must_be_integers(tmp_path, capsys, command, budget):
    spec = write_json(tmp_path / "spec.json", {
        "instance": "reference", "trials": 1, "budget": budget,
        "params": {"n": 2, "rt": 0.9, "r": 0.4, "c": 0.3, "delta": 0.34, "eta": 0.1, "seed": 3},
    })
    assert cli_dispatch([command, "--spec", spec, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: budget must be an integer, got {budget!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


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


@pytest.mark.parametrize("command, budget", [("validity", "0"), ("softcover", "-3")])
def test_nonpositive_budgets_exit_one(tmp_path, capsys, command, budget):
    """A budget <= 0 is a bad argument, as in simulate-* and $CORRSYNTH_BUDGET,
    not an exceeded budget."""
    spec = write_json(
        tmp_path / "spec.json",
        {
            "instance": "reference",
            "params": {
                "n": 2, "rt": 0.9, "r": 0.4, "c": 0.3,
                "delta": 0.34, "eta": 0.1, "seed": 3,
            },
            "trials": 2,
        },
    )
    out = tmp_path / "out.csv"
    assert cli_dispatch([command, "--spec", spec, "--out", str(out), "--budget", budget]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == f"error: budget must be positive, got {budget}\n"
    assert not out.exists()


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
    assert cli_dispatch(["not-a-command"]) == 1


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
