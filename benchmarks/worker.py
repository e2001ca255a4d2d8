"""One workload in a fresh interpreter: set-up, timed rounds, checks.

Run by ``run.py`` with ``src`` on PYTHONPATH and one BLAS thread.  The
set-up time (``import binlbm`` plus ``load_matrix`` of the input) is taken
first, before anything else imports numpy.  With ``--probe`` the worker
stops there and prints only that time.

A round is one in-process call of ``binlbm.cli.main`` with the workload's
arguments.  Untraced rounds run under ``Capture`` (chain counts and the
values the checks need, no timing); with ``--trace 1`` untraced and traced
rounds alternate, and the traced ones give the per-layer figures.
"""

import argparse
import statistics
import sys
import time


def _arguments():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--data", default=None, help="input CSV, loaded during set-up")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args()


def main():
    args = _arguments()
    start = time.perf_counter()
    import binlbm
    if args.data:
        binlbm.load_matrix(args.data)
    setup_s = time.perf_counter() - start

    from pathlib import Path
    source = Path(__file__).resolve().parents[1] / "src"
    if not Path(binlbm.__file__).resolve().is_relative_to(source):
        print(f"binlbm was imported from {binlbm.__file__}, not from {source}", file=sys.stderr)
        return 2
    if args.probe:
        print(setup_s)
        return 0
    return _measure(args, setup_s)


def _sha256(path):
    import hashlib
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _round(workload, argv, out_dir, hook):
    import contextlib
    import io
    import traceback

    from binlbm import cli

    out_dir.mkdir(parents=True)
    with hook, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception:
            traceback.print_exc()
            status = -1
        wall = time.perf_counter() - start
    fingerprints = {}
    if status == 0:
        fingerprints = {path.name: _sha256(path) for path in workload.outputs(out_dir)}
    return wall, status, fingerprints


def _measure(args, setup_s):
    import json
    import os
    import resource
    import shutil
    from pathlib import Path

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.chdir(args.workdir)
    untraced, traced = [], []
    capture0 = None
    tracer = tracing.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        capture = tracing.Capture()
        out_dir = Path(f"round{k}")
        wall, status, prints = _round(workload, workload.argv(args.seed, out_dir), out_dir,
                                      tracing.Patch(capture.wrap))
        untraced.append((wall, status, prints, capture.chains, capture.failed))
        if k == 0:
            capture0 = capture
            # one command in a fresh process, as a user runs it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            shutil.rmtree(out_dir)
        if tracer:
            out_dir = Path(f"traced{k}")
            traced.append(_round(workload, workload.argv(args.seed, out_dir), out_dir,
                                 tracing.Patch(tracer.wrap)) + (tracer.take(),))
            shutil.rmtree(out_dir)
        k += 1

    expected = workload.expected_calls(Path("round0"))
    chains_per_round = expected["inference.chains"]
    problems = []
    attempted = failed = 0
    # every round ran the same command: the same status and the same bytes
    status0, prints0 = untraced[0][1], untraced[0][2]
    for wall, status, prints, chains, chain_failures in untraced:
        attempted += chains_per_round
        failed += chains_per_round if status != 0 else chain_failures
        if status == 0 and chains != chains_per_round:
            problems.append(f"counted {chains} chains at fit, configuration implies "
                            f"{chains_per_round}")
        if (status, prints) != (status0, prints0):
            problems.append("payloads differ between rounds of the same command")
    if status0 == 0:
        problems.extend(workload.check(args.seed, Path("round0"), capture0))
    else:
        problems.append(f"command exited with status {status0}")

    if tracer:
        metrics = _layer_metrics(tracer, untraced, traced, expected, problems)
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump({"names": tracer.names,
                           "fields": ["name", "start", "end", "parent", "info"],
                           "rounds": [t[3] for t in traced]}, handle)
    else:
        metrics = {
            "wall_s": statistics.median(r[0] for r in untraced),
            "chains_per_s": statistics.median(chains_per_round / r[0] for r in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "rounds": len(untraced),
        "round_walls": [r[0] for r in untraced],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprints": prints0,
        "setup_s": setup_s,
        "metrics": metrics,
    }))
    return 0


def _layer_metrics(tracer, untraced, traced, expected, problems):
    """Median per-layer figures over the traced rounds, after checking each
    round's counts against the configuration and its payloads against the
    untraced ones."""
    import tracing

    status0, prints0 = untraced[0][1], untraced[0][2]
    per_round = []
    for wall, status, prints, spans in traced:
        if (status, prints) != (status0, prints0):
            problems.append("traced payloads differ from the untraced ones")
        figures = tracing.round_figures(tracer.names, spans, wall)
        for key, value in expected.items():
            if figures.get(key, 0) != value:
                problems.append(f"traced {key} is {figures.get(key, 0)}, "
                                f"configuration implies {value}")
        if figures["model.icl.calls"] != figures["inference.fit.calls"]:
            problems.append("model.icl calls differ from inference.fit calls")
        per_round.append(figures)
    metrics = {name: statistics.median(f[name] for f in per_round)
               for name, _, _ in tracing.LAYER_METRICS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(t[0] for t in traced)
                                   - statistics.median(r[0] for r in untraced))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
