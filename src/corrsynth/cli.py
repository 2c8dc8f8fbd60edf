"""Command line front end.

Subcommands cover the two rate-region tools (frontier tracing and bound
evaluation), exact polyhedral projection, the Monte Carlo codec experiments,
and the two concentration checks.  Every run writes CSV rows (floats via
``repr`` so they parse back exactly) plus, where a spec is involved, a JSON
sidecar that makes each row replayable.  Outputs are byte-identical across
reruns with the same spec and seed.

Exit codes: 0 on success, 1 on validation or usage errors and on failed
numerical checks, 2 when an enumeration budget is exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .budget import BudgetExceededError
from .codec_ptp import CodecParams
from .harness import (
    chernoff_lemma_check,
    experiment_spec_from_dict,
    format_cell,
    instance_from_dict,
    instance_to_dict,
    named_instance,
    run_tv_experiment,
    soft_covering_trials,
    trial_seed,
    validity_rate,
    write_report,
)
from .polyhedra import fm_eliminate_all, read_system, write_system
from .probability import JointPmf
from .rate_region import SearchConfig, aux_dist_from_tables, dist_rates_for, ptp_frontier


class _UsageError(Exception):
    """Raised for bad arguments; the handler prints usage and exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default would sys.exit(2)
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="corrsynth",
        description="rate regions and finite-blocklength codecs for correlated-randomness synthesis",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, *, out_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", "--system", dest="spec", required=True,
                       help="JSON spec file")
        p.add_argument("--out", required=out_required, help="output file")
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--seed", type=int, default=None, help="override base seed")
        p.add_argument("--budget", type=int, default=None, help="override enumeration cap")
        p.add_argument("--threads", type=int, default=1, help="worker threads for trials")
        p.add_argument("--eliminate", default=None,
                       help="comma-separated variables to project out (fm)")
        p.add_argument("--sweep", default=None, help="grid 'param=a:b:step' (simulate)")
        return p

    add("region-ptp", "trace the point-to-point rate/randomness frontier")
    add("region-dist", "evaluate the two-encoder rate bounds for a given auxiliary")
    add("fm", "project an exact linear inequality system")
    add("simulate-ptp", "Monte Carlo end-to-end deficits for the single-encoder codec")
    add("simulate-dist", "Monte Carlo end-to-end deficits for the two-encoder codec")
    add("validity", "empirical encoder-validity probability vs its union bound")
    add("chernoff", "sample-mean concentration spot check")
    add("softcover", "codeword-mixture deficits over independent codebooks")
    return parser


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def _write_sidecar(out, payload: dict) -> None:
    Path(out).with_suffix(".json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _resolve_instance(entry):
    if isinstance(entry, str):
        return named_instance(entry)
    return instance_from_dict(entry)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_region_ptp(args) -> None:
    spec = _load_json(args.spec)
    p_xyz = JointPmf.from_table(("X", "Y", "Z"), np.asarray(spec["p_xyz"], dtype=float))
    knobs = {k: spec[k] for k in ("w_cap", "restarts", "lambda_grid", "iters", "tol") if k in spec}
    knobs["seed"] = args.seed if args.seed is not None else spec.get("seed", 0)
    result = ptp_frontier(p_xyz, SearchConfig(**knobs))
    frontier_lams = {pt.lam for pt in result.points}
    _write_csv(
        args.out,
        ("lambda", "rate", "cr", "value", "residual", "on_frontier"),
        [
            (pt.lam, pt.rate, pt.cr, pt.value, pt.residual, pt.lam in frontier_lams)
            for pt in result.raw
        ],
    )
    _write_sidecar(args.out, {
        "spec": {"p_xyz": np.asarray(spec["p_xyz"], dtype=float).tolist(), **knobs},
        "failures": list(result.failures),
    })
    print(f"wrote {len(result.raw)} frontier rows to {args.out}")


def _cmd_region_dist(args) -> None:
    spec = _load_json(args.spec)
    p = JointPmf.from_table(("X1", "X2", "Y"), np.asarray(spec["p_x1x2y"], dtype=float))
    aux_spec = {"p_q": [1.0], **spec["aux"]}
    tables = []
    for name, rank in (("p_q", 1), ("w1_given_qx1", 3), ("w2_given_qx2", 3), ("y_given_qw1w2", 4)):
        tables.append(np.asarray(aux_spec[name], dtype=float))
        if tables[-1].ndim != rank:
            raise ValueError(f"aux table {name} must have {rank} axes, got shape {tables[-1].shape}")
    p_q, w1, w2, y = tables
    aux = aux_dist_from_tables(
        tuple(str(i) for i in range(p_q.shape[0])),
        p_q,
        p.alphabet("X1"),
        p.alphabet("X2"),
        p.alphabet("Y"),
        tuple(str(i) for i in range(w1.shape[2])),
        tuple(str(i) for i in range(w2.shape[2])),
        w1,
        w2,
        y,
    )
    rates = dist_rates_for(p, aux, enforce_cardinality=spec.get("enforce_cardinality", True))
    i1, i2, i3, i4, i5 = rates.informations
    _write_csv(
        args.out,
        ("r1", "r2", "r1_plus_r2", "r1_plus_r2_plus_c",
         "i_x1_w1", "i_x2_w2", "i_x1x2w2y_w1", "i_x1x2y_w2", "i_w1_w2"),
        [(rates.r1, rates.r2, rates.r1_plus_r2, rates.r1_plus_r2_plus_c, i1, i2, i3, i4, i5)],
    )
    print(f"wrote rate bounds to {args.out}")


def _cmd_fm(args) -> None:
    if not args.eliminate:
        raise ValueError("fm requires --eliminate with at least one variable")
    system = read_system(args.spec)
    variables = [v.strip() for v in args.eliminate.split(",") if v.strip()]
    projection = fm_eliminate_all(system, variables)
    write_system(args.out, projection.system)
    print(
        f"eliminated {', '.join(variables)}: "
        f"{len(system.rows)} rows -> {len(projection.system.rows)} rows ({args.out})"
    )


def _cmd_simulate(args, kind: str) -> None:
    raw = _load_json(args.spec)
    raw["kind"] = kind
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.budget is not None:
        raw["budget"] = args.budget
    if args.sweep is not None:
        raw["sweep"] = args.sweep
    spec = experiment_spec_from_dict(raw)
    report = run_tv_experiment(spec, threads=max(1, args.threads))
    write_report(args.out, report)
    print(f"wrote {len(report.rows)} trial rows to {args.out}")


def _cmd_validity(args) -> None:
    raw = _load_json(args.spec)
    instance = _resolve_instance(raw["instance"])
    base = CodecParams(**raw["params"])
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    grid = [replace(base, n=int(k)) for k in raw.get("ns", [base.n])]
    trials = args.trials if args.trials is not None else raw.get("trials", 200)
    budget = args.budget if args.budget is not None else raw.get("budget")
    checks = validity_rate(instance, grid, trials=trials, budget=budget)
    header = ("n", "rt", "c", "delta", "eta", "delta1", "i_x_w", "typical_count",
              "k_size", "trials", "empirical", "empirical_pointwise", "bound")
    _write_csv(args.out, header, [tuple(getattr(c, f) for f in header) for c in checks])
    _write_sidecar(args.out, {
        "spec": {
            "instance": raw["instance"] if isinstance(raw["instance"], str)
            else instance_to_dict(instance),
            "params": asdict(base),
            "ns": [c.n for c in checks],
            "trials": trials,
            "budget": budget,
        }
    })
    print(f"wrote {len(checks)} validity rows to {args.out}")


def _cmd_chernoff(args) -> None:
    raw = _load_json(args.spec)
    result = chernoff_lemma_check(
        n_samples=raw["n_samples"],
        theta=raw["theta"],
        eta=raw["eta"],
        trials=args.trials if args.trials is not None else raw.get("trials", 10_000),
        seed=args.seed if args.seed is not None else raw.get("seed", 0),
    )
    header = ("n_samples", "theta", "eta", "trials", "empirical", "bound", "sigma")
    _write_csv(args.out, header, [tuple(getattr(result, f) for f in header)])
    print(f"wrote concentration check to {args.out}")


def _cmd_softcover(args) -> None:
    raw = _load_json(args.spec)
    instance = _resolve_instance(raw["instance"])
    params = CodecParams(**raw["params"])
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    trials = args.trials if args.trials is not None else raw.get("trials", 50)
    budget = args.budget if args.budget is not None else raw.get("budget")
    deficits = soft_covering_trials(instance, params, trials, budget)
    rows = [(t, trial_seed(params.seed, t), float(deficits[t])) for t in range(trials)]
    _write_csv(args.out, ("index", "seed", "deficit"), rows)
    _write_sidecar(args.out, {
        "spec": {
            "instance": raw["instance"] if isinstance(raw["instance"], str)
            else instance_to_dict(instance),
            "params": asdict(params),
            "trials": trials,
            "budget": budget,
        },
        "mean": float(deficits.mean()),
    })
    print(f"wrote {trials} soft-covering rows to {args.out}")


_HANDLERS = {
    "region-ptp": _cmd_region_ptp,
    "region-dist": _cmd_region_dist,
    "fm": _cmd_fm,
    "validity": _cmd_validity,
    "chernoff": _cmd_chernoff,
    "softcover": _cmd_softcover,
}


def cli_dispatch(argv=None) -> int:
    """Parse arguments, run one subcommand, and map failures to exit codes."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage())
        if args.command == "simulate-ptp":
            _cmd_simulate(args, "ptp")
        elif args.command == "simulate-dist":
            _cmd_simulate(args, "dist")
        else:
            _HANDLERS[args.command](args)
    except _UsageError as err:
        print(str(err), file=sys.stderr)
        return 1
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError, np.linalg.LinAlgError) as err:
        # A numerical check inside a subcommand failed, such as an induced law
        # that does not sum to one.  LinAlgError is a ValueError, so this
        # clause comes first.
        detail = " ".join(str(err).split())
        print(f"error: {args.command}: {type(err).__name__}: {detail}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return cli_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
