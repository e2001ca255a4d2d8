"""Command-line entry points.

Every subcommand is driven by one master ``--seed``; there is no hidden
entropy, so rerunning a command rewrites byte-identical result files.  The
payload embeds the command name, the parameter set and the seed.  Runs are
serial: --threads is still accepted, so existing command lines keep working,
but it changes nothing and is left out of the embedded config.
"""

from __future__ import annotations

import argparse
import sys

from .errors import LbmError, _whole
from .evaluation import robustness_experiment
from .inference import DEFAULT_GIBBS_SWEEPS, DEFAULT_MAX_ITER, DEFAULT_TOL, fit
from .io import (
    export_reordered,
    fit_payload,
    load_matrix,
    reference_payload,
    robustness_payload,
    selection_payload,
    tuning_payload,
    write_json,
    write_matrix_csv,
)
from .model import PriorHyperparams, simulate_dataset, staircase_parameters
from .selection import (
    DEFAULT_GRID,
    DEFAULT_T_CAP,
    reference_model_study,
    select_model,
    tune_restarts,
)

__all__ = ["build_parser", "main"]


def _parse_pair(text):
    try:
        g, m = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'g,m', got {text!r}")
    return g, m


def _write_result(args, payload, path):
    """Write a result file: the command's config and seed, then its payload."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("handler", "threads", "out")}
    write_json({"config": config, "seed": args.seed, **payload}, path)


def _fit_options(args):
    return {"prior": PriorHyperparams(a=args.a, b=args.b), "gibbs_sweeps": args.gibbs_sweeps,
            "max_iter": args.max_iter, "tol": args.tol}


def _load_and_fit(args):
    data = load_matrix(args.data)
    return data, fit(data, args.g, args.m, restarts=args.restarts, seed=args.seed,
                     **_fit_options(args))


def _cmd_simulate(args):
    params = staircase_parameters(args.g, args.m, args.epsilon)
    data, part = simulate_dataset(params, args.n, args.q, args.seed)
    write_matrix_csv(data, args.out)
    print(f"wrote {args.n}x{args.q} matrix to {args.out}")
    if args.labels_out:
        _write_result(args, {"z": (part.z + 1).tolist(), "w": (part.w + 1).tolist()},
                      args.labels_out)
        print(f"wrote simulated labels to {args.labels_out}")


def _cmd_fit(args):
    _, result = _load_and_fit(args)
    _write_result(args, fit_payload(result), args.out)
    print(f"fit (g={args.g}, m={args.m}): free energy {result.free_energy:.6f}, "
          f"ICL {result.icl_value:.6f} -> {args.out}")


def _cmd_select(args):
    data = load_matrix(args.data)
    selection = select_model(data, args.g_max, args.m_max, restarts=args.restarts,
                             seed=args.seed, **_fit_options(args))
    _write_result(args, selection_payload(selection), args.out)
    print(f"selected (g, m) = {selection.best_pair} with "
          f"ICL {selection.best_fit.icl_value:.6f} -> {args.out}")


def _cmd_tune_t(args):
    records = tune_restarts(args.epsilon, args.datasets, args.target,
                            (args.g_max, args.m_max), t_cap=args.t_cap,
                            seed=args.seed, n=args.n, q=args.q, **_fit_options(args))
    _write_result(args, tuning_payload(records), args.out)
    for record in records:
        counts, censored = record.distribution()
        print(f"epsilon={record.epsilon}: T distribution {counts}, censored {censored}")
    print(f"wrote tuning records to {args.out}")


def _cmd_refmodel(args):
    data = load_matrix(args.data)
    study = reference_model_study(data, (args.g_max, args.m_max), runs=args.runs,
                                  seed=args.seed, **_fit_options(args))
    _write_result(args, reference_payload(study), args.out)
    print(f"reference pair {study.reference_pair} selected "
          f"{study.occurrences}/{study.runs} times -> {args.out}")


def _cmd_robustness(args):
    report = robustness_experiment(args.epsilon, args.datasets, args.sizes,
                                   args.samples_per_size, (args.g_max, args.m_max),
                                   seed=args.seed, target_pair=args.target,
                                   n=args.n, q=args.q, restarts=args.restarts, **_fit_options(args))
    _write_result(args, robustness_payload(report), args.out)
    print(f"wrote robustness report ({len(report.cells)} cells) to {args.out}")


def _cmd_reorder(args):
    data, result = _load_and_fit(args)
    matrix_path, summary_path = export_reordered(data, result, args.out)
    print(f"wrote {matrix_path} and {summary_path}")


def _flags(*flags):
    """A help-less parser holding one flag group, shared through ``parents=``;
    ``flags`` are (flag, keyword arguments of ``add_argument``) pairs."""
    parser = argparse.ArgumentParser(add_help=False)
    for flag, options in flags:
        parser.add_argument(flag, **options)
    return parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="binlbm",
        description="Binary latent block model co-clustering: simulation, V-Bayes "
                    "fitting, exact ICL model selection and experiment drivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    prior = PriorHyperparams()
    seed = _flags(("--seed", dict(type=int, default=0, help="master RNG seed")))
    chain = _flags(
        ("--a", dict(type=float, default=prior.a,
                     help="Dirichlet concentration for pi and rho (default %(default)s)")),
        ("--b", dict(type=float, default=prior.b,
                     help="Beta concentration for the block rates (default %(default)s)")),
        ("--tol", dict(type=float, default=DEFAULT_TOL,
                       help="relative free-energy convergence tolerance")),
        ("--max-iter", dict(type=int, default=DEFAULT_MAX_ITER,
                            help="V-Bayes iteration cap per chain")),
        ("--gibbs-sweeps", dict(type=int, default=DEFAULT_GIBBS_SWEEPS,
                                help="Gibbs initialization sweeps per chain")))
    threads = _flags(("--threads", dict(type=int, default=1, help=(
        "accepted for existing command lines; runs are serial whatever its value"))))
    data = _flags(("--data", dict(required=True)))
    pair = _flags(("--g", dict(type=int, required=True)), ("--m", dict(type=int, required=True)))
    restarts = _flags(("--restarts", dict(type=int, default=1)))
    grid = _flags(("--g-max", dict(type=int, default=DEFAULT_GRID[0])),
                  ("--m-max", dict(type=int, default=DEFAULT_GRID[1])))
    design = _flags(("--n", dict(type=int, default=137)), ("--q", dict(type=int, default=33)))
    study = _flags(("--epsilon", dict(type=float, nargs="+", required=True)),
                   ("--datasets", dict(type=int, required=True)),
                   ("--target", dict(type=_parse_pair, default=(3, 4),
                                     help="target pair, e.g. 3,4")))
    fitting = [seed, chain]
    with_threads = [seed, chain, threads]

    def command(name, handler, parents, summary, out_help=None):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.add_argument("--out", required=True, help=out_help)
        p.set_defaults(handler=handler)
        return p

    p = command("simulate", _cmd_simulate, [design, seed],
                "simulate a staircase-design data set", "output CSV path")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--labels-out", default=None, help="optional JSON path for the true labels")
    command("fit", _cmd_fit, [data, pair, restarts, *fitting], "fit a single (g, m) cell")
    command("select", _cmd_select, [data, grid, restarts, *with_threads],
            "ICL model selection over a grid")
    p = command("tune-t", _cmd_tune_t, [study, grid, design, *with_threads],
                "first restart count that selects the target pair")
    p.add_argument("--t-cap", type=int, default=DEFAULT_T_CAP)
    p = command("refmodel", _cmd_refmodel, [data, grid, *with_threads],
                "repeated single-restart selection study")
    p.add_argument("--runs", type=int, required=True)
    p = command("robustness", _cmd_robustness, [study, grid, design, restarts, *with_threads],
                "subsample robustness of grid selection")
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--samples-per-size", type=int, default=10)
    command("reorder", _cmd_reorder, [data, pair, restarts, *fitting],
            "export the block-reordered matrix and summary", "output path prefix")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _whole(getattr(args, "threads", 1), "threads")
        args.handler(args)
    except (LbmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
