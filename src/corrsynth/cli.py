"""Command line front end.

Subcommands cover the two rate-region tools (frontier tracing and bound
evaluation), exact polyhedral projection, the Monte Carlo codec experiments,
and the two concentration checks; each takes only the flags it reads
(``_COMMANDS``).  Every run writes CSV rows (floats via ``repr`` so they parse
back exactly), most also a JSON sidecar that makes each row replayable and
that never overwrites ``--spec``.  Outputs are byte-identical across reruns
with the same spec and seed.

Exit codes: 0 on success, 1 on validation or usage errors and on failed
numerical checks, 2 when an enumeration budget is exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .budget import BudgetExceededError, enumeration_budget
from .codec_ptp import CodecParams
from .harness import (
    chernoff_lemma_check,
    experiment_spec_from_dict,
    instance_to_dict,
    resolve_instance,
    run_tv_experiment,
    soft_covering_trials,
    trial_seed,
    validity_rate,
    write_csv,
    write_report,
    write_sidecar,
)
from .polyhedra import fm_eliminate_all, read_system, write_system
from .probability import JointPmf
from .rate_region import SearchConfig, aux_dist_from_tables, dist_rates_for, ptp_frontier


class _UsageError(Exception):
    """Raised for bad arguments; the handler prints usage and exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default would sys.exit(2)
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage().rstrip()}")

    def parse_known_args(self, args=None, namespace=None):
        """Parse, refusing leftovers with this parser's own usage line.

        argparse would hand a subcommand's leftover flags up to the
        top-level parser, whose usage does not list the subcommand's flags.
        """
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


#: argparse settings of every optional flag; each subcommand adds the ones it reads
_FLAGS = {
    "trials": {"type": int, "help": "override the spec's trial count"},
    "seed": {"type": int, "help": "override the spec's seed"},
    "budget": {"type": int, "help": "override the spec's enumeration cap"},
    "threads": {"type": int, "default": 1, "help": "worker threads; never changes a row"},
    "sweep": {"help": "grid 'param=a:b:step' over one codec parameter"},
    "eliminate": {"required": True, "help": "comma-separated variables to project out"},
}
#: the flags that replace a spec key; --threads and --eliminate steer the run only
_OVERRIDES = ("trials", "seed", "budget", "sweep")


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="corrsynth",
        description="rate regions and finite-blocklength codecs for correlated-randomness synthesis",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--spec", required=True, help="JSON spec file")
        p.add_argument("--out", required=True, help="output file")
        for key in command.flags:
            flag = key.rpartition(".")[2]
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _load_spec(args) -> dict:
    """The ``--spec`` JSON object with the command's overrides applied.

    A flag replaces the spec key of its name, or the ``params`` key its
    dotted entry in :data:`_COMMANDS` names.  A budget, from the spec or
    ``--budget``, is checked here, before any work.
    """
    spec = json.loads(Path(args.spec).read_text())
    if not isinstance(spec, dict):
        raise ValueError(f"spec {args.spec} must hold a JSON object")
    flags = _COMMANDS[args.command].flags
    for key in flags:
        parent, _, flag = key.rpartition(".")
        if flag in _OVERRIDES and getattr(args, flag) is not None:
            (spec[parent] if parent else spec)[flag] = getattr(args, flag)
    if "budget" in flags and spec.get("budget") is not None:
        enumeration_budget(spec["budget"])
    return spec


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_region_ptp(args) -> None:
    spec = _load_spec(args)
    p_xyz = JointPmf.from_table(("X", "Y", "Z"), np.asarray(spec["p_xyz"], dtype=float))
    knobs = {k: spec[k] for k in ("w_cap", "restarts", "lambda_grid", "iters", "tol") if k in spec}
    knobs["seed"] = spec.get("seed", 0)
    result = ptp_frontier(p_xyz, SearchConfig(**knobs))
    frontier_lams = {pt.lam for pt in result.points}
    write_csv(args.out, ("lambda", "rate", "cr", "value", "residual", "on_frontier"), [
        (pt.lam, pt.rate, pt.cr, pt.value, pt.residual, pt.lam in frontier_lams)
        for pt in result.raw
    ])
    write_sidecar(args.out, {
        "spec": {"p_xyz": np.asarray(spec["p_xyz"], dtype=float).tolist(), **knobs},
        "failures": list(result.failures),
    })
    print(f"wrote {len(result.raw)} frontier rows to {args.out}")


def _cmd_region_dist(args) -> None:
    spec = _load_spec(args)
    p = JointPmf.from_table(("X1", "X2", "Y"), np.asarray(spec["p_x1x2y"], dtype=float))
    aux_spec = {"p_q": [1.0], **spec["aux"]}
    tables = []
    for name, rank in (("p_q", 1), ("w1_given_qx1", 3), ("w2_given_qx2", 3), ("y_given_qw1w2", 4)):
        tables.append(np.asarray(aux_spec[name], dtype=float))
        if tables[-1].ndim != rank:
            raise ValueError(f"aux table {name} must have {rank} axes, got shape {tables[-1].shape}")
    p_q, w1, w2, y = tables
    aux = aux_dist_from_tables(
        tuple(str(i) for i in range(p_q.shape[0])), p_q,
        p.alphabet("X1"), p.alphabet("X2"), p.alphabet("Y"),
        tuple(str(i) for i in range(w1.shape[2])), tuple(str(i) for i in range(w2.shape[2])),
        w1, w2, y,
    )
    rates = dist_rates_for(p, aux, enforce_cardinality=spec.get("enforce_cardinality", True))
    i1, i2, i3, i4, i5 = rates.informations
    write_csv(
        args.out,
        ("r1", "r2", "r1_plus_r2", "r1_plus_r2_plus_c",
         "i_x1_w1", "i_x2_w2", "i_x1x2w2y_w1", "i_x1x2y_w2", "i_w1_w2"),
        [(rates.r1, rates.r2, rates.r1_plus_r2, rates.r1_plus_r2_plus_c, i1, i2, i3, i4, i5)],
    )
    print(f"wrote rate bounds to {args.out}")


def _cmd_fm(args) -> None:
    system = read_system(args.spec)
    variables = [v.strip() for v in args.eliminate.split(",") if v.strip()]
    if not variables:
        raise ValueError("fm requires --eliminate with at least one variable")
    projection = fm_eliminate_all(system, variables)
    write_system(args.out, projection.system)
    print(f"eliminated {', '.join(variables)}: "
          f"{len(system.rows)} rows -> {len(projection.system.rows)} rows ({args.out})")


def _cmd_simulate(args) -> None:
    spec = _load_spec(args)
    spec["kind"] = args.command.removeprefix("simulate-")
    report = run_tv_experiment(experiment_spec_from_dict(spec), threads=args.threads)
    write_report(args.out, report)
    print(f"wrote {len(report.rows)} trial rows to {args.out}")


def _codec_run(spec: dict, default_trials: int):
    """Instance and codec parameters of a ``validity`` or ``softcover`` spec,
    and the sidecar's record of the run they resolve to."""
    instance, params = resolve_instance(spec["instance"]), CodecParams(**spec["params"])
    entry = spec["instance"] if isinstance(spec["instance"], str) else instance_to_dict(instance)
    trials = spec.get("trials", default_trials)
    record = {"instance": entry, "params": asdict(params), "trials": trials, "budget": spec.get("budget")}
    return instance, params, record


def _cmd_validity(args) -> None:
    spec = _load_spec(args)
    instance, base, record = _codec_run(spec, 200)
    grid = [replace(base, n=int(k)) for k in spec.get("ns", [base.n])]
    checks = validity_rate(instance, grid, record["trials"], record["budget"], args.threads)
    header = ("n", "rt", "c", "delta", "eta", "delta1", "i_x_w", "typical_count",
              "k_size", "trials", "empirical", "empirical_pointwise", "bound")
    write_csv(args.out, header, [tuple(getattr(c, f) for f in header) for c in checks])
    write_sidecar(args.out, {"spec": {**record, "ns": [c.n for c in checks]}})
    print(f"wrote {len(checks)} validity rows to {args.out}")


def _cmd_chernoff(args) -> None:
    spec = _load_spec(args)
    result = chernoff_lemma_check(spec["n_samples"], spec["theta"], spec["eta"],
                                  trials=spec.get("trials", 10_000), seed=spec.get("seed", 0))
    header = ("n_samples", "theta", "eta", "trials", "empirical", "bound", "sigma")
    write_csv(args.out, header, [tuple(getattr(result, f) for f in header)])
    print(f"wrote concentration check to {args.out}")


def _cmd_softcover(args) -> None:
    instance, params, record = _codec_run(_load_spec(args), 50)
    trials = record["trials"]
    deficits = soft_covering_trials(instance, params, trials, record["budget"])
    rows = [(t, trial_seed(params.seed, t), float(deficits[t])) for t in range(trials)]
    write_csv(args.out, ("index", "seed", "deficit"), rows)
    write_sidecar(args.out, {"spec": record, "mean": float(deficits.mean())})
    print(f"wrote {trials} soft-covering rows to {args.out}")


class _Command(NamedTuple):
    """A subcommand: its handler, its help, the flags it reads besides --spec
    and --out, and whether it writes a JSON sidecar at ``<out stem>.json``."""

    handler: Callable
    help: str
    flags: tuple[str, ...]
    sidecar: bool


_SIMULATE = ("trials", "seed", "budget", "threads", "sweep")
# validity and softcover draw from the codec's own seed, params.seed
_COMMANDS = {
    "region-ptp": _Command(_cmd_region_ptp, "trace the point-to-point rate/randomness frontier",
                           ("seed",), True),
    "region-dist": _Command(_cmd_region_dist, "evaluate the two-encoder rate bounds for a given "
                            "auxiliary", (), False),
    "fm": _Command(_cmd_fm, "project an exact linear inequality system", ("eliminate",), False),
    "simulate-ptp": _Command(_cmd_simulate, "Monte Carlo end-to-end deficits for the "
                             "single-encoder codec", _SIMULATE, True),
    "simulate-dist": _Command(_cmd_simulate, "Monte Carlo end-to-end deficits for the "
                              "two-encoder codec", _SIMULATE, True),
    "validity": _Command(_cmd_validity, "empirical encoder-validity probability vs its union "
                         "bound", ("trials", "params.seed", "budget", "threads"), True),
    "chernoff": _Command(_cmd_chernoff, "sample-mean concentration spot check",
                         ("trials", "seed"), False),
    "softcover": _Command(_cmd_softcover, "codeword-mixture deficits over independent "
                          "codebooks", ("trials", "params.seed", "budget"), True),
}


def cli_dispatch(argv=None) -> int:
    """Parse arguments, run one subcommand, and map failures to exit codes."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            # argparse would read the flag's value as the command
            parser.error(f"{argv[0].partition('=')[0]} must follow the command")
        args, _ = parser.parse_known_args(argv)  # every parser refuses its own leftovers
        if args.command is None:
            parser.error("a command is required")
        command, spec, out = _COMMANDS[args.command], Path(args.spec).resolve(), Path(args.out)
        if out.resolve() == spec:
            raise ValueError(f"--out {args.out} would overwrite --spec {args.spec}")
        if command.sidecar and out.with_suffix(".json").resolve() == spec:
            raise ValueError(f"--out {args.out} would write its sidecar over --spec {args.spec}")
        command.handler(args)
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


if __name__ == "__main__":
    sys.exit(cli_dispatch())
