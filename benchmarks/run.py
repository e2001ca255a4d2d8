"""Benchmark of binlbm's reference, robustness and reorder workloads.

    python3 benchmarks/run.py --workload refmodel-137x33 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run from the repository root.  Each workload runs serially in fresh
interpreters with one BLAS thread: four set-up probes, then one worker that
repeats the workload's command for ``--seconds`` and checks its outputs.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` restart chains, and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
FINGERPRINTS = HERE / "fingerprints.json"
SETUP_PROBES = 4
# every run must end within 180 s; leave room for the checks and clean-up
RUN_BUDGET_S = 170.0
END_TO_END = {"wall_s": "s", "chains_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _machine(env):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "loadavg_1m": os.getloadavg()[0],
    }


def _environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(extra, env, deadline):
    command = [sys.executable, str(HERE / "worker.py"), *extra]
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}):\n{done.stderr}")
    if done.stderr.strip():
        print(done.stderr.rstrip(), file=sys.stderr)
    return done.stdout.strip().splitlines()[-1]


def run_workload(name, seed, seconds, trace, env, deadline):
    """One workload's result as the worker reports it, plus the set-up
    median over the probes and the worker."""
    from workloads import WORKLOADS, write_csv

    workload = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workload.inputs(seed)
        common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
        if inputs is not None:
            write_csv(inputs[0], workload.data_file(workdir))
            common += ["--data", str(workload.data_file(workdir))]
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(float(_worker([*common, "--probe"], env, deadline)))
        extra = [*common, "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            extra += ["--spans-out", str(out / f"spans-{name}-seed{seed}.json")]
        result = json.loads(_worker(extra, env, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups + [result["setup_s"]])
    return result


def _reference_prints():
    return json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}


def _report(result, reference, units):
    name, seed = result["workload"], result["seed"]
    verdict = "checks passed" if not result["problems"] else "CHECKS FAILED"
    print(f"{name} seed {seed}: {result['rounds']} rounds, {result['attempted']} chains "
          f"attempted, {result['failed']} failed, {verdict}")
    print("  round walls (s): " + " ".join(f"{w:.3f}" for w in result["round_walls"]))
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for metric, value in result["metrics"].items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    expected = reference.get(name, {}).get(str(seed))
    for file_name, digest in sorted(result["fingerprints"].items()):
        if expected is None:
            note = "no reference for this seed"
        elif expected.get(file_name) == digest:
            note = "matches the reference"
        else:
            note = "DIFFERS from the reference (reported, not a failure)"
        print(f"  sha256 {file_name} {digest} ({note})")


def main(argv=None):
    if not (ROOT / "src" / "binlbm" / "__init__.py").is_file():
        print(f"error: no binlbm sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print("error: tests/oracles.py is missing; the output checks need it", file=sys.stderr)
        return 2
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprints", action="store_true",
                        help="record this run's payload sha256 as the seed's reference")
    args = parser.parse_args(argv)

    env = _environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    print("machine: " + json.dumps(_machine(env), sort_keys=True))
    reference = _reference_prints()
    units = {**END_TO_END, **{name: unit for name, unit, _ in LAYER_METRICS}}
    results = [run_workload(name, args.seed, args.seconds, args.trace, env, deadline)
               for name in names]
    for result in results:
        _report(result, reference, units)

    if args.write_fingerprints:
        for result in results:
            if not result["problems"]:
                reference.setdefault(result["workload"], {})[str(args.seed)] = (
                    result["fingerprints"])
        FINGERPRINTS.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")

    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for metric, value in result["metrics"].items():
            key = f"{result['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
