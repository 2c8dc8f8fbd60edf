"""Tests for the experiment drivers: instances, sweeps, reports, and bounds."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrsynth
from corrsynth.budget import BudgetExceededError
import corrsynth.codec_ptp as codec_ptp
import corrsynth.harness as harness
from corrsynth.codec_dist import DistCodecParams, build_dist_codec
from corrsynth.codec_ptp import CodecParams, build_ptp_codec, encoder_validity, soft_covering_deficit
from corrsynth.harness import (
    Aggregate,
    ChernoffCheck,
    ExperimentSpec,
    TrialRow,
    aggregate_rows,
    chernoff_lemma_check,
    dist_demo_instance,
    dist_instance_from_tables,
    experiment_spec_from_dict,
    experiment_spec_to_dict,
    instance_from_dict,
    instance_to_dict,
    named_instance,
    parse_sweep,
    ptp_instance_from_tables,
    read_report_rows,
    reference_instance,
    run_tv_experiment,
    soft_covering_trials,
    synthesis_demo_instance,
    trial_seed,
    validity_rate,
    validity_union_bound,
    write_report,
)
from corrsynth.probability import JointPmf
from corrsynth.typicality import typical_set

import _oracles


def h2(p):
    """Binary entropy in bits."""
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def entropy_bits(table):
    t = np.asarray(table, dtype=float).reshape(-1)
    t = t[t > 0]
    return float(-(t * np.log2(t)).sum())


def single_cell_ptp():
    """One-letter alphabets everywhere: the codec cannot miss."""
    return ptp_instance_from_tables([[1.0]], [[1.0]], [[[1.0]]])


def single_cell_dist():
    return dist_instance_from_tables([[1.0]], [[1.0]], [[1.0]], [[[1.0]]])


# --------------------------------------------------------------------------
# shipped instances
# --------------------------------------------------------------------------


def test_reference_instance_information_constants():
    """The binary reference's informations match their closed forms."""
    inst = reference_instance()
    info = inst.informations()
    # W = X + Ber(0.1) noise and X is uniform, so I(X;W) = 1 - h2(0.1)
    assert info["i_x_w"] == pytest.approx(1.0 - h2(0.1), abs=1e-12)
    assert info["h_x_given_w"] == pytest.approx(h2(0.1), abs=1e-12)
    # W and Z differ from X by independent 0.1 / 0.2 flips
    flip = 0.1 * 0.8 + 0.9 * 0.2
    assert info["i_w_z"] == pytest.approx(1.0 - h2(flip), abs=1e-12)
    # grouped information recomputed from raw entropy sums
    j = inst.design_joint().table
    oracle = (
        entropy_bits(j.sum(axis=(1, 2, 3)))
        + entropy_bits(j.sum(axis=0))
        - entropy_bits(j)
    )
    assert info["i_xyz_w"] == pytest.approx(oracle, abs=1e-12)
    bounds = inst.bounds()
    assert bounds["r"] == pytest.approx(info["i_x_w"] - info["i_w_z"], abs=1e-12)
    assert bounds["r_plus_c"] == pytest.approx(info["i_xyz_w"] - info["i_w_z"], abs=1e-12)
    assert bounds["r_plus_c"] >= bounds["r"]


def test_demo_instance_information_constants():
    """The identity-coded demo carries exactly one bit into its codeword."""
    inst = synthesis_demo_instance()
    info = inst.informations()
    assert info["i_x_w"] == pytest.approx(1.0, abs=1e-12)
    assert info["h_x_given_w"] == pytest.approx(0.0, abs=1e-12)
    assert info["i_w_z"] == pytest.approx(1.0 - h2(0.25), abs=1e-12)
    assert inst.bounds()["r"] == pytest.approx(h2(0.25), abs=1e-12)
    # codeword letter 0 is reserved: the designed coupling never emits it
    assert inst.p_w().table[0] == 0.0


def test_dist_demo_instance_information_constants():
    """Both demo legs copy the same fair bit, so every information is 1 bit."""
    inst = dist_demo_instance()
    info = inst.informations()
    for name, value in info.items():
        assert value == pytest.approx(1.0, abs=1e-12), name
    assert inst.bounds() == pytest.approx(
        {"r1": 0.0, "r2": 0.0, "r1_plus_r2": 1.0, "r1_plus_r2_plus_c": 1.0}, abs=1e-12
    )
    # agreeing pairs emit their own contrast row
    target = inst.target_joint().table
    np.testing.assert_allclose(target[0, 0], 0.5 * np.array([0.9, 0.05, 0.05]))
    np.testing.assert_allclose(target[1, 1], 0.5 * np.array([0.05, 0.9, 0.05]))
    np.testing.assert_allclose(target[0, 1], 0.0)


def test_instance_axis_validation():
    mislabeled = JointPmf.from_table(("X", "Y"), np.full((2, 2), 0.25))
    good = reference_instance()
    with pytest.raises(ValueError, match=r"\('X', 'Z'\)"):
        dataclasses.replace(good, p_xz=mislabeled)
    with pytest.raises(ValueError, match="disagrees"):
        ptp_instance_from_tables(
            np.full((3, 3), 1 / 9), [[0.5, 0.5], [0.5, 0.5]], np.full((3, 2, 2), 0.5)
        )
    with pytest.raises(ValueError, match="output channel"):
        ptp_instance_from_tables(
            np.full((2, 2), 0.25), np.eye(2), np.full((2, 3, 2), 0.5)
        )
    with pytest.raises(ValueError, match="coupling 2"):
        dist_instance_from_tables(
            np.full((2, 3), 1 / 6), np.eye(2), np.eye(2), np.full((2, 2, 2), 0.5)
        )


@pytest.mark.parametrize("name", ["reference", "synthesis-demo", "dist-demo"])
def test_instance_serialization_round_trip(name):
    inst = named_instance(name)
    restored = instance_from_dict(instance_to_dict(inst))
    assert type(restored) is type(inst)
    for field in (f.name for f in dataclasses.fields(inst)):
        np.testing.assert_array_equal(
            getattr(restored, field).table, getattr(inst, field).table
        )


def test_instance_lookup_and_malformed_dicts():
    with pytest.raises(ValueError, match="unknown instance"):
        named_instance("missing")
    with pytest.raises(ValueError, match="malformed instance spec"):
        instance_from_dict({"kind": "mystery"})
    with pytest.raises(ValueError, match="malformed instance spec"):
        instance_from_dict({"p_xz": [[1.0]]})
    with pytest.raises(TypeError, match="not an instance"):
        instance_to_dict({"kind": "ptp"})


# --------------------------------------------------------------------------
# trial seeds and sweep grids
# --------------------------------------------------------------------------


def test_trial_seed_is_stable_and_index_sensitive():
    assert trial_seed(7, 3) == trial_seed(7, 3)
    assert trial_seed(7, 3) != trial_seed(3, 7)
    assert trial_seed(0, 0) != trial_seed(0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        trial_seed(-1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        trial_seed(0, -2)


def test_parse_sweep_grids_include_both_endpoints():
    name, values = parse_sweep("rt=0.5:1.5:0.25")
    assert name == "rt"
    assert values == pytest.approx((0.5, 0.75, 1.0, 1.25, 1.5))
    # accumulated float error must not drop the far endpoint
    _, tenths = parse_sweep("delta=0.1:0.3:0.1")
    assert len(tenths) == 3
    assert tenths[-1] == pytest.approx(0.3)
    _, single = parse_sweep("eta=0.2:0.2:1.0")
    assert single == (0.2,)


@pytest.mark.parametrize(
    "text",
    ["rt", "rt=1:2", "rt=a:b:c", "rt=1:2:0", "rt=1:2:-0.5", "rt=2:1:0.5", "rt=inf:3:1"],
)
def test_parse_sweep_rejects_malformed_grids(text):
    with pytest.raises(ValueError):
        parse_sweep(text)


def ptp_params(**overrides):
    base = dict(n=2, rt=0.9, r=0.4, c=0.3, delta=0.34, eta=0.1, seed=3)
    base.update(overrides)
    return CodecParams(**base)


def dist_params(**overrides):
    base = dict(
        n=1, rt1=1.0, rt2=1.0, r1=1.0, r2=1.0, c1=0.5, c2=0.5,
        delta=0.5, eta=0.2, seed=1,
    )
    base.update(overrides)
    return DistCodecParams(**base)


def test_experiment_spec_validation():
    inst = reference_instance()
    ExperimentSpec("ptp", inst, ptp_params(), trials=2, seed=0)
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec("both", inst, ptp_params(), trials=1, seed=0)
    with pytest.raises(ValueError, match="DistInstance"):
        ExperimentSpec("dist", inst, dist_params(), trials=1, seed=0)
    with pytest.raises(ValueError, match="DistCodecParams"):
        ExperimentSpec("dist", dist_demo_instance(), ptp_params(), trials=1, seed=0)
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec("ptp", inst, ptp_params(), trials=0, seed=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentSpec("ptp", inst, ptp_params(), trials=1, seed=-4)
    with pytest.raises(ValueError, match="budget"):
        ExperimentSpec("ptp", inst, ptp_params(), trials=1, seed=0, budget=0)
    with pytest.raises(ValueError, match="cannot sweep"):
        ExperimentSpec("ptp", inst, ptp_params(), trials=1, seed=0, sweep=("rt1", (1.0,)))
    with pytest.raises(ValueError, match="nonempty"):
        ExperimentSpec("ptp", inst, ptp_params(), trials=1, seed=0, sweep=("rt", ()))
    # grid construction runs eagerly, so codec-level rejections surface here
    with pytest.raises(ValueError, match="delta"):
        ExperimentSpec("ptp", inst, ptp_params(), trials=1, seed=0, sweep=("delta", (2.0,)))


def test_experiment_spec_grid_replaces_one_parameter():
    spec = ExperimentSpec(
        "ptp", reference_instance(), ptp_params(), trials=2, seed=0,
        sweep=("rt", (0.6, 1.2)),
    )
    grid = spec.grid()
    assert [(g[0], g[1]) for g in grid] == [("rt", 0.6), ("rt", 1.2)]
    assert grid[0][2].rt == 0.6 and grid[1][2].rt == 1.2
    assert grid[0][2].r == spec.params.r
    unswept = ExperimentSpec("ptp", reference_instance(), ptp_params(), trials=1, seed=0)
    assert unswept.grid() == (("", None, unswept.params),)


def test_experiment_spec_dict_round_trip():
    spec = ExperimentSpec(
        "ptp", reference_instance(), ptp_params(), trials=3, seed=9,
        sweep=("rt", (0.6, 1.2)), budget=50_000,
    )
    revived = experiment_spec_from_dict(experiment_spec_to_dict(spec))
    assert revived.kind == spec.kind
    assert revived.params == spec.params
    assert revived.trials == spec.trials and revived.seed == spec.seed
    assert revived.sweep == spec.sweep and revived.budget == spec.budget
    np.testing.assert_array_equal(revived.instance.p_xz.table, spec.instance.p_xz.table)


def test_experiment_spec_from_dict_accepts_names_and_sweep_text():
    spec = experiment_spec_from_dict(
        {
            "kind": "dist",
            "instance": "dist-demo",
            "params": dataclasses.asdict(dist_params()),
            "trials": 2,
            "seed": 5,
            "sweep": "eta=0.1:0.3:0.1",
        }
    )
    assert isinstance(spec.params, DistCodecParams)
    assert spec.sweep[0] == "eta" and len(spec.sweep[1]) == 3
    np.testing.assert_array_equal(
        spec.instance.p_x1x2.table, dist_demo_instance().p_x1x2.table
    )
    for broken in (
        {},
        {"kind": "ptp", "instance": "reference"},
        {"kind": "ptp", "instance": "reference", "params": {"n": 2}},
    ):
        with pytest.raises(ValueError, match="malformed experiment spec"):
            experiment_spec_from_dict(broken)


# --------------------------------------------------------------------------
# Monte Carlo runner
# --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["ptp", "dist"])
def test_single_cell_instances_score_exactly_zero(kind):
    """With one-letter alphabets every decode is right: deficit exactly 0."""
    if kind == "ptp":
        spec = ExperimentSpec(
            "ptp", single_cell_ptp(),
            CodecParams(n=3, rt=0.5, r=0.5, c=0.5, delta=0.5, eta=0.1, seed=0),
            trials=3, seed=0,
        )
    else:
        spec = ExperimentSpec(
            "dist", single_cell_dist(),
            DistCodecParams(
                n=3, rt1=0.5, rt2=0.5, r1=0.5, r2=0.5, c1=0.5, c2=0.5,
                delta=0.5, eta=0.1, seed=0,
            ),
            trials=3, seed=0,
        )
    report = run_tv_experiment(spec)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.tv_deficit == 0.0
        assert row.valid and not row.degenerate and not row.skipped
    assert report.aggregates[0].mean == 0.0 and report.aggregates[0].max == 0.0


def test_rerun_and_thread_count_leave_results_identical(tmp_path):
    def fresh_spec():
        return ExperimentSpec(
            "ptp", reference_instance(), ptp_params(), trials=50, seed=21
        )

    first = run_tv_experiment(fresh_spec())
    second = run_tv_experiment(fresh_spec())
    threaded = run_tv_experiment(fresh_spec(), threads=4)

    def stripped(report):
        return [dataclasses.replace(r, runtime=0.0) for r in report.rows]

    assert stripped(first) == stripped(second) == stripped(threaded)
    assert first.aggregates == second.aggregates == threaded.aggregates
    write_report(tmp_path / "a.csv", first)
    write_report(tmp_path / "b.csv", threaded)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_trials_never_build_the_joint_table_or_word_alphabets(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a trial built a full word table")

    for target in (
        "corrsynth.codec_ptp.induced_joint_exact",
        "corrsynth.codec_ptp.tv_deficit",
        "corrsynth.codec_ptp.product_pmf",
        "corrsynth.codec_ptp.word_alphabet",
        "corrsynth.codec_dist.dist_induced_joint_exact",
        "corrsynth.codec_dist._word_law",
    ):
        monkeypatch.setattr(target, fail)
    for name in ("induced_joint_exact", "tv_deficit", "dist_induced_joint_exact"):
        monkeypatch.setattr(f"corrsynth.harness.{name}", fail, raising=False)
    specs = [
        ExperimentSpec("ptp", synthesis_demo_instance(), ptp_params(n=4), trials=2, seed=1),
        ExperimentSpec("dist", dist_demo_instance(), dist_params(n=2), trials=2, seed=1),
    ]
    for spec in specs:
        report = run_tv_experiment(spec)
        assert not any(row.skipped for row in report.rows)
        assert all(0.0 <= row.tv_deficit <= 1.0 for row in report.rows)


def test_an_n7_trial_peaks_below_300_mb(tmp_path):
    spec = tmp_path / "sim.json"
    spec.write_text(json.dumps({
        "instance": "synthesis-demo",
        "params": {"n": 7, "rt": 1.5, "r": 1.35, "c": 0.25, "delta": 0.5, "eta": 0.1, "seed": 0},
        "trials": 1,
    }))
    # the child's own VmHWM: its ru_maxrss would start from this process's
    # peak, which a process started by vfork and exec inherits
    script = (
        "import re, sys\n"
        "from corrsynth.cli import cli_dispatch\n"
        "rc = cli_dispatch(['simulate-ptp', '--spec', sys.argv[1], '--out', sys.argv[2]])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(rc, re.search(r'VmHWM:\\s*(\\d+) kB', status.read()).group(1))\n"
    )
    src = str(Path(corrsynth.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(spec), str(tmp_path / "report.csv")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    rc, peak_kib = proc.stdout.split()[-2:]
    assert rc == "0"
    assert not read_report_rows(tmp_path / "report.csv")[0].skipped
    assert int(peak_kib) < 300 * 1024


def test_trials_over_budget_become_skipped_rows():
    spec = ExperimentSpec(
        "ptp", reference_instance(), ptp_params(), trials=4, seed=2, budget=1
    )
    report = run_tv_experiment(spec)
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.skipped and row.reason == "budget"
        assert math.isnan(row.tv_deficit)
    agg = report.aggregates[0]
    assert agg.count == 0 and agg.skipped == 4
    assert math.isnan(agg.mean) and math.isnan(agg.std)


def test_sweep_points_share_trial_seeds():
    spec = ExperimentSpec(
        "ptp", reference_instance(), ptp_params(), trials=3, seed=11,
        sweep=("rt", (0.6, 1.2)),
    )
    report = run_tv_experiment(spec)
    assert len(report.rows) == 6
    low, high = report.rows[:3], report.rows[3:]
    assert [r.seed for r in low] == [r.seed for r in high]
    assert [r.seed for r in low] == [trial_seed(11, t) for t in range(3)]
    assert {r.param for r in report.rows} == {"rt"}
    assert [a.group for a in report.aggregates] == ["rt=0.6", "rt=1.2"]
    assert [r.index for r in report.rows] == list(range(6))


def test_aggregates_recompute_exactly_from_parsed_reports(tmp_path):
    spec = ExperimentSpec(
        "ptp", reference_instance(), ptp_params(), trials=8, seed=4,
        sweep=("rt", (0.6, 1.2)),
    )
    report = run_tv_experiment(spec)
    assert aggregate_rows(report.rows) == report.aggregates
    path = tmp_path / "report.csv"
    write_report(path, report)
    parsed = read_report_rows(path)
    assert aggregate_rows(parsed) == report.aggregates
    sidecar = json.loads((tmp_path / "report.json").read_text())
    assert sidecar["aggregates"] == [dataclasses.asdict(a) for a in report.aggregates]
    assert sidecar["spec"] == experiment_spec_to_dict(spec)


def test_report_round_trip_restores_every_column(tmp_path):
    spec = ExperimentSpec("ptp", reference_instance(), ptp_params(), trials=5, seed=6)
    report = run_tv_experiment(spec)
    path = tmp_path / "rows.csv"
    write_report(path, report)
    parsed = read_report_rows(path)
    assert parsed == tuple(dataclasses.replace(r, runtime=0.0) for r in report.rows)
    # runtimes stay off disk: rerunning must reproduce the files byte for byte
    again = tmp_path / "rows2.csv"
    write_report(again, run_tv_experiment(spec))
    assert again.read_bytes() == path.read_bytes()


def test_report_reader_rejects_foreign_headers(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_report_rows(path)


def test_aggregate_rows_groups_by_sweep_label():
    rows = [
        TrialRow(0, 1, "rt", 0.5, 2, 0.25, True, False, False, ""),
        TrialRow(1, 2, "rt", 0.5, 2, 0.75, True, False, False, ""),
        TrialRow(2, 3, "rt", 1.0, 2, 0.5, True, False, True, "budget"),
    ]
    groups = aggregate_rows(rows)
    assert groups[0] == Aggregate("rt=0.5", 2, 0, 0.5, 0.25, 0.25, 0.75)
    assert groups[1].group == "rt=1.0"
    assert groups[1].count == 0 and groups[1].skipped == 1


def test_soft_covering_trials_are_deterministic_and_paired():
    inst = reference_instance()
    params = CodecParams(n=2, rt=1.2, r=0.0, c=0.0, delta=0.34, eta=0.0, seed=7)
    first = soft_covering_trials(inst, params, trials=6)
    second = soft_covering_trials(inst, params, trials=6)
    np.testing.assert_array_equal(first, second)
    assert first.shape == (6,)
    assert np.all(first >= 0.0) and np.all(first <= 1.0)
    with pytest.raises(ValueError, match="trials"):
        soft_covering_trials(inst, params, trials=0)


# --------------------------------------------------------------------------
# encoder validity and its union bound
# --------------------------------------------------------------------------


def test_encoder_validity_is_vacuous_without_typical_inputs():
    inst = reference_instance()
    params = CodecParams(n=1, rt=0.5, r=0.0, c=0.0, delta=0.34, eta=0.0, seed=0)
    codebook, _ = build_ptp_codec(inst.p_w(), params, allow_degenerate=True)
    assert codebook.degenerate
    assert encoder_validity(codebook, inst.p_joint_xw(), params) == (True, 1.0)
    # same conclusion with a live codebook: constant W but a skewed source
    skewed = ptp_instance_from_tables(
        [[0.75], [0.25]], [[1.0], [1.0]], [[[0.4, 0.6]]]
    )
    codebook, _ = build_ptp_codec(skewed.p_w(), params)
    assert not codebook.degenerate
    assert encoder_validity(codebook, skewed.p_joint_xw(), params) == (True, 1.0)
    assert skewed.informations()["i_w_z"] == 0.0


def test_encoder_validity_flags_oversubscribed_inputs():
    """A one-word codebook on the identity-coded demo always overshoots.

    Each codeword is one of the two typical coded words; the matching input
    word concentrates ratio 2^n against codebook size 1, so exactly half of
    the (input, block) pairs are invalid — deterministically, any seed.
    """
    inst = synthesis_demo_instance()
    for seed in range(5):
        params = CodecParams(n=2, rt=1e-9, r=0.0, c=0.0, delta=0.5, eta=0.0, seed=seed)
        codebook, _ = build_ptp_codec(inst.p_w(), params)
        assert codebook.l_size == 1
        all_valid, fraction = encoder_validity(codebook, inst.p_joint_xw(), params)
        assert not all_valid
        assert fraction == 0.5


def test_validity_rate_reports_the_deterministic_failure():
    inst = synthesis_demo_instance()
    params = CodecParams(n=2, rt=1e-9, r=0.0, c=0.0, delta=0.5, eta=0.0, seed=4)
    (check,) = validity_rate(inst, [params], trials=10)
    assert check.empirical == 0.0
    assert check.empirical_pointwise == 0.5
    assert check.typical_count == 2 and check.k_size == 1
    assert check.bound < 0.0
    assert check.delta1 == pytest.approx(0.0, abs=1e-12)


def test_validity_rate_meets_a_positive_union_bound():
    """With lots of codebook headroom the bound is positive and holds."""
    inst = synthesis_demo_instance()
    params = CodecParams(n=2, rt=4.0, r=0.0, c=0.0, delta=0.5, eta=0.45, seed=3)
    (check,) = validity_rate(inst, [params], trials=50)
    manual = 1.0 - 2.0 * 1 * 2 * math.exp(
        -(0.45**2) * 2.0 ** (2 * (4.0 - 1.0)) / (4.0 * math.log(2.0))
    )
    assert check.bound == pytest.approx(manual, rel=1e-12)
    assert check.bound > 0.96
    sigma = math.sqrt(check.empirical * (1.0 - check.empirical) / check.trials)
    assert check.empirical >= check.bound - 3.0 * sigma


def test_validity_rate_on_the_reference_instance_is_all_valid():
    """No jointly typical pairs exist at these blocklengths, so weight-zero
    encoders are valid with certainty and the empirical rate sits at 1."""
    inst = reference_instance()
    rt = 1.6688
    grid = [
        CodecParams(n=n, rt=rt, r=0.0, c=0.0, delta=0.34, eta=0.1, seed=5)
        for n in (2, 3)
    ]
    checks = validity_rate(inst, grid, trials=20)
    assert [c.empirical for c in checks] == [1.0, 1.0]
    assert [c.empirical_pointwise for c in checks] == [1.0, 1.0]
    assert checks[0].typical_count == 2 and checks[1].typical_count == 6


def test_validity_rate_equals_records_from_full_codec_builds():
    """validity_rate draws codebooks alone; they are build_ptp_codec's, and
    its records are the per-index oracle's validity on them."""
    inst = synthesis_demo_instance()
    p_joint_xw = inst.p_joint_xw()
    grid = [CodecParams(n=n, rt=1.5, r=0.0, c=0.25, delta=0.5, eta=0.05, seed=2) for n in (1, 3, 5)]
    checks = validity_rate(inst, grid, trials=4)
    seen_invalid = False
    for params, check in zip(grid, checks):
        all_valid, pointwise = [], []
        for t in range(4):
            codebook, _ = build_ptp_codec(
                inst.p_w(), dataclasses.replace(params, seed=trial_seed(params.seed, t)), allow_degenerate=True
            )
            xs = typical_set(p_joint_xw.marginalize(("X",)), params.n, params.delta)
            if codebook.degenerate or xs.shape[0] == 0:
                all_valid.append(True)
                pointwise.append(1.0)
                continue
            flags = np.stack([_oracles.encoder_weight_batch(xs, block, p_joint_xw, codebook.epsilon, params)[2]
                              for block in codebook.entries])
            all_valid.append(bool(flags.all()))
            pointwise.append(float(flags.mean()))
        seen_invalid |= not all(all_valid)
        assert check.empirical == float(np.mean(all_valid))
        assert check.empirical_pointwise == float(np.array(pointwise).mean())
    assert seen_invalid


# --------------------------------------------------------------------------
# a deficit trial's validity flag
# --------------------------------------------------------------------------


def _small_integer_law(gen, shape):
    t = gen.integers(1, 4, size=shape).astype(float)
    return t / t.sum()


def _sparse_rows(gen, shape):
    """Conditional rows of small-integer weights on a random support, so
    that short words can be typical for them."""
    t = gen.integers(1, 4, size=shape) * (gen.random(shape) < 0.6)
    t[..., 0] += t.sum(axis=-1) == 0
    return t / t.sum(axis=-1, keepdims=True)


def _encoder_joint(p_source, axis, p_w_given_x):
    """The (X, W) joint an encoder stage forms, p(x) p(w|x), not renormalized."""
    return JointPmf(
        (p_source.names[axis], p_w_given_x.out_names[0]),
        (p_source.alphabets[axis], p_w_given_x.out_alphabets[0]),
        p_source.table.sum(axis=1 - axis)[:, None] * p_w_given_x.table,
    )


def _validity_flags(legs, params):
    """A row's ``valid`` from separate encoder-validity checks, one per leg.

    ``legs`` holds (codebook, the encoder's own joint, a renormalized joint
    such as ``JointPmf.from_table`` of an einsum) per leg.  Returns the flag on the
    encoder's joints, and the flag on the renormalized ones where these hold
    the same cells (else None): renormalizing can move a cell by an ulp, and
    that can flip a row whose weights sum to one exactly.
    """
    own = all(encoder_validity(book, joint, leg)[0] for (book, joint, _), leg in zip(legs, params))
    if not all(np.array_equal(joint.table, other.table) for _, joint, other in legs):
        return own, None
    return own, all(encoder_validity(book, other, leg)[0] for (book, _, other), leg in zip(legs, params))


def test_a_ptp_trial_reads_the_validity_of_a_separate_check():
    """Random instances and rates, a degenerate codebook, and a live codebook
    with no typical source word: every row's flag is encoder_validity's."""
    gen = np.random.default_rng(13)
    cases = [
        (reference_instance(), CodecParams(n=1, rt=0.5, r=0.0, c=0.0, delta=0.34, eta=0.0, seed=0)),
        (
            ptp_instance_from_tables([[0.75], [0.25]], [[1.0], [1.0]], [[[0.4, 0.6]]]),
            CodecParams(n=1, rt=0.5, r=0.0, c=0.0, delta=0.34, eta=0.0, seed=0),
        ),
    ]
    for _ in range(150):
        nx, nw = (int(v) for v in gen.integers(2, 4, size=2))
        nz, ny = (int(v) for v in gen.integers(1, 3, size=2))
        inst = ptp_instance_from_tables(
            _small_integer_law(gen, (nx, nz)), _sparse_rows(gen, (nx, nw)),
            _sparse_rows(gen, (nz, nw, ny)),
        )
        rt = float(gen.uniform(0.2, 2.0))
        params = CodecParams(
            n=int(gen.integers(1, 6 if nx == 2 else 5)), rt=rt, r=float(gen.uniform(0.0, rt)),
            c=float(gen.choice([0.0, 0.25, 0.5])), delta=float(gen.uniform(0.3, 0.95)),
            eta=float(gen.choice([0.0, 0.1, 0.5, 0.9])), seed=int(gen.integers(1000)),
        )
        cases.append((inst, params))
    seen, compared = set(), 0
    for inst, params in cases:
        (row,) = run_tv_experiment(ExperimentSpec("ptp", inst, params, trials=1, seed=params.seed)).rows
        trial = dataclasses.replace(params, seed=row.seed)
        codebook, _ = build_ptp_codec(inst.p_w(), trial, allow_degenerate=True)
        joint = _encoder_joint(inst.p_xz, 0, inst.p_w_given_x)
        renormalized_joint = JointPmf.from_table(
            ("X", "W"), np.einsum("xz,xw->xw", inst.p_xz.table, inst.p_w_given_x.table))
        own, renormalized = _validity_flags([(codebook, joint, renormalized_joint)], [trial])
        assert row.valid == own
        if renormalized is not None:
            compared += 1
            assert row.valid == renormalized
        typical = typical_set(inst.p_joint_xw().marginalize(("X",)), params.n, params.delta)
        seen.add("degenerate" if row.degenerate else "no typical x" if typical.shape[0] == 0 else row.valid)
    assert seen == {True, False, "degenerate", "no typical x"}
    assert compared >= len(cases) // 3


def test_validity_and_a_deficit_trial_decide_on_the_same_joint():
    """For the same codebook, ``validity``'s flag of a one-trial run equals the
    deficit trial's flag.  Random instances, every other one with all of W on
    one letter, and η = 0 at two rates in three: there a row's weights can
    sum to one exactly, and an (X, W) joint renormalized apart from the
    encoder's flipped 4 of these 300 flags."""
    gen = np.random.default_rng(1)
    flags = set()
    for i in range(300):
        nx = int(gen.integers(2, 4))
        nz, ny = (int(v) for v in gen.integers(1, 3, size=2))
        nw = int(gen.integers(1, 4))
        if i % 2 == 0:
            w_table = np.zeros((nx, nw))
            w_table[:, 0] = 1.0
        else:
            w_table = _sparse_rows(gen, (nx, nw))
        inst = ptp_instance_from_tables(_small_integer_law(gen, (nx, nz)), w_table, _sparse_rows(gen, (nz, nw, ny)))
        rt = float(gen.uniform(0.2, 2.0))
        params = CodecParams(
            n=int(gen.integers(1, 5)), rt=rt, r=float(gen.uniform(0.0, rt)),
            c=float(gen.choice([0.0, 0.25, 0.5])), delta=float(gen.uniform(0.3, 0.95)),
            eta=0.0 if i % 3 else float(gen.choice([0.1, 0.5])), seed=int(gen.integers(1000)),
        )
        (check,) = validity_rate(inst, [params], trials=1)
        (row,) = run_tv_experiment(ExperimentSpec("ptp", inst, params, trials=1, seed=params.seed)).rows
        assert (check.empirical == 1.0) == row.valid
        flags.add(row.valid)
    assert flags == {True, False}


def test_a_dist_trial_reads_the_validity_of_separate_checks():
    gen = np.random.default_rng(17)
    cases = [(dist_demo_instance(), DistCodecParams(
        n=1, rt1=0.5, rt2=0.5, r1=0.0, r2=0.0, c1=0.0, c2=0.0, delta=0.3, eta=0.0, seed=0
    ))]
    for _ in range(100):
        n1, n2, nw1, nw2 = (int(v) for v in gen.integers(2, 4, size=4))
        inst = dist_instance_from_tables(
            _small_integer_law(gen, (n1, n2)), _sparse_rows(gen, (n1, nw1)),
            _sparse_rows(gen, (n2, nw2)), _sparse_rows(gen, (nw1, nw2, 2)),
        )
        rt1, rt2 = (float(v) for v in gen.uniform(0.2, 1.6, size=2))
        params = DistCodecParams(
            n=int(gen.integers(1, 5 if max(n1, n2) == 2 else 4)), rt1=rt1, rt2=rt2,
            r1=float(gen.uniform(0.0, rt1)), r2=float(gen.uniform(0.0, rt2)),
            c1=float(gen.choice([0.0, 0.25])), c2=float(gen.choice([0.0, 0.25])),
            delta=float(gen.uniform(0.3, 0.95)), eta=float(gen.choice([0.0, 0.1, 0.5, 0.9])),
            seed=int(gen.integers(1000)),
        )
        cases.append((inst, params))
    seen, compared = set(), 0
    for inst, params in cases:
        (row,) = run_tv_experiment(ExperimentSpec("dist", inst, params, trials=1, seed=params.seed)).rows
        trial = dataclasses.replace(params, seed=row.seed)
        books, _ = build_dist_codec(inst.p_w1(), inst.p_w2(), trial, allow_degenerate=True)
        p = inst.p_x1x2.table
        legs = [
            (books.first, _encoder_joint(inst.p_x1x2, 0, inst.p_w1_given_x1), JointPmf.from_table(
                ("X1", "W1"), np.einsum("ab,aw->aw", p, inst.p_w1_given_x1.table))),
            (books.second, _encoder_joint(inst.p_x1x2, 1, inst.p_w2_given_x2), JointPmf.from_table(
                ("X2", "W2"), np.einsum("ab,bv->bv", p, inst.p_w2_given_x2.table))),
        ]
        own, renormalized = _validity_flags(legs, trial.legs)
        assert row.valid == own
        if renormalized is not None:
            compared += 1
            assert row.valid == renormalized
        seen.add("degenerate" if row.degenerate else row.valid)
    assert seen == {True, False, "degenerate"}
    assert compared >= len(cases) // 3


def test_deficit_trials_run_no_separate_validity_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a deficit trial called encoder_validity")

    monkeypatch.setattr(codec_ptp, "encoder_validity", refuse)
    monkeypatch.setattr(harness, "encoder_validity", refuse)
    ptp = CodecParams(n=3, rt=1.5, r=1.35, c=0.25, delta=0.5, eta=0.1, seed=0)
    dist = DistCodecParams(n=2, rt1=1.75, rt2=1.75, r1=1.6, r2=1.6, c1=0.25, c2=0.25,
                           delta=0.5, eta=0.45, seed=0)
    for spec in (
        ExperimentSpec("ptp", synthesis_demo_instance(), ptp, trials=2, seed=0),
        ExperimentSpec("dist", dist_demo_instance(), dist, trials=2, seed=0),
    ):
        rows = run_tv_experiment(spec, threads=2).rows
        assert not any(r.skipped for r in rows)


def test_a_trial_numbers_each_codebook_once(monkeypatch):
    """One whole-codebook numbering per codebook; a ptp trial numbers K + 1
    times in all, once per block for its binning and once for its encoder."""
    counts = {"_word_ids": 0, "_first_occurrence_dedup": 0}
    for name in counts:
        def counted(*args, _inner=getattr(codec_ptp, name), _name=name):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(codec_ptp, name, counted)
    ptp = CodecParams(n=4, rt=1.5, r=1.35, c=0.25, delta=0.5, eta=0.1, seed=0)
    run_tv_experiment(ExperimentSpec("ptp", synthesis_demo_instance(), ptp, trials=3, seed=0))
    assert counts == {"_word_ids": 3, "_first_occurrence_dedup": 3 * (ptp.k_size + 1)}
    counts.update(dict.fromkeys(counts, 0))
    dist = DistCodecParams(n=2, rt1=1.75, rt2=1.75, r1=1.6, r2=1.6, c1=0.25, c2=0.25,
                           delta=0.5, eta=0.45, seed=0)
    run_tv_experiment(ExperimentSpec("dist", dist_demo_instance(), dist, trials=3, seed=0))
    assert counts == {"_word_ids": 6, "_first_occurrence_dedup": 6}


def test_soft_covering_trials_draw_build_ptp_codec_codebooks():
    inst = synthesis_demo_instance()
    params = CodecParams(n=3, rt=1.5, r=0.0, c=0.25, delta=0.5, eta=0.1, seed=1)
    got = soft_covering_trials(inst, params, 3)
    for t in range(3):
        codebook, _ = build_ptp_codec(inst.p_w(), dataclasses.replace(params, seed=trial_seed(params.seed, t)))
        assert got[t] == soft_covering_deficit(inst.design_joint(), codebook, params)


def test_validity_union_bound_formula_and_monotonicity():
    params = CodecParams(n=3, rt=2.0, r=0.0, c=1 / 3, delta=0.4, eta=0.2, seed=0)
    assert params.k_size == 2
    manual = 1.0 - 2.0 * 2 * 7 * math.exp(
        -(0.2**2) * 2.0 ** (3 * (2.0 - 0.9 - 4 * 0.12)) / (4.0 * math.log(2.0))
    )
    assert validity_union_bound(params, 0.9, 7, 0.12) == pytest.approx(manual, rel=1e-12)
    rts = [1.0, 2.0, 3.0, 4.0]
    bounds = [
        validity_union_bound(dataclasses.replace(params, rt=rt), 0.9, 7, 0.12)
        for rt in rts
    ]
    assert bounds == sorted(bounds)
    assert all(b <= 1.0 for b in bounds)


def test_chernoff_check_validates_its_fields():
    kwargs = dict(
        n=2, rt=1.0, c=0.0, delta=0.3, eta=0.1, delta1=0.0, i_x_w=0.5,
        typical_count=2, k_size=1, trials=10, empirical=0.5,
        empirical_pointwise=0.5, bound=-3.0,
    )
    ChernoffCheck(**kwargs)
    with pytest.raises(ValueError, match="empirical"):
        ChernoffCheck(**{**kwargs, "empirical": 1.5})
    with pytest.raises(ValueError, match="bound"):
        ChernoffCheck(**{**kwargs, "bound": 1.5})
    with pytest.raises(ValueError, match="trials"):
        validity_rate(reference_instance(), [], trials=0)


# --------------------------------------------------------------------------
# sample-mean concentration check
# --------------------------------------------------------------------------


def test_chernoff_lemma_check_rejects_bad_domains():
    good = dict(n_samples=10, theta=0.3, eta=0.2)
    chernoff_lemma_check(**good, trials=5)
    for broken in (
        {**good, "theta": 0.0},
        {**good, "theta": 1.0},
        {**good, "eta": 0.0},
        {**good, "eta": 0.5},
        {**good, "theta": 0.9, "eta": 0.2},  # (1 + eta) * theta >= 1
        {**good, "n_samples": 0},
    ):
        with pytest.raises(ValueError):
            chernoff_lemma_check(**broken, trials=5)
    with pytest.raises(ValueError, match="trials"):
        chernoff_lemma_check(**good, trials=0)


def test_chernoff_lemma_check_binomial_reference_point():
    """1000 fair coins stay within 40% of their mean in every one of 10^4 runs."""
    result = chernoff_lemma_check(n_samples=1000, theta=0.5, eta=0.4, trials=10_000)
    assert result.empirical == 1.0
    assert result.sigma == 0.0
    manual = 1.0 - 2.0 * math.exp(-1000 * 0.4**2 * 0.5 / (4.0 * math.log(2.0)))
    assert result.bound == pytest.approx(manual, rel=1e-12)
    assert result.empirical >= result.bound


def test_chernoff_lemma_check_known_binomial_mass():
    """At n=4 only the exact-half outcome lands inside the window."""
    result = chernoff_lemma_check(n_samples=4, theta=0.5, eta=0.4, trials=10_000, seed=1)
    # P(Binomial(4, 1/2) = 2) = 6/16
    assert result.empirical == pytest.approx(0.375, abs=0.02)
    assert 0.0 < result.empirical < 1.0
    assert result.sigma == pytest.approx(
        math.sqrt(result.empirical * (1 - result.empirical) / 10_000), rel=1e-12
    )
    assert result.empirical >= result.bound - 3.0 * result.sigma


def test_chernoff_lemma_check_bound_grows_with_sample_count():
    bounds = [
        chernoff_lemma_check(n_samples=n, theta=0.3, eta=0.2, trials=5).bound
        for n in (100, 1000, 10_000)
    ]
    assert bounds == sorted(bounds)
    assert bounds[-1] > 0.99


def test_chernoff_lemma_check_is_seed_deterministic():
    a = chernoff_lemma_check(n_samples=30, theta=0.3, eta=0.3, trials=500, seed=9)
    b = chernoff_lemma_check(n_samples=30, theta=0.3, eta=0.3, trials=500, seed=9)
    assert a == b


def test_budget_error_reaches_the_caller_outside_trials():
    with pytest.raises(BudgetExceededError):
        soft_covering_trials(
            reference_instance(),
            CodecParams(n=4, rt=1.0, r=0.0, c=0.0, delta=0.34, eta=0.0, seed=0),
            trials=1,
            budget=1,
        )
