"""Golden outcomes: small fixed-seed CLI runs and the files they write.

``run_cases(workdir)`` runs every case of ``CASES`` in order through
``binlbm.cli.main`` and returns what each one wrote, reduced to comparable
values:

- a ``.json`` result as its parsed payload, minus the input and output paths
  in its ``config``;
- a ``.csv`` matrix, whose cells are all 0/1, as the sha256 of its bytes;
- a ``.txt`` summary as its list of lines.

``tests/test_golden.py`` replays the cases and compares the outcomes with
``tests/golden.json``: discrete values exactly, floats at 1e-12 relative.
To rewrite the file, run from the repository root::

    PYTHONPATH=src python3 tests/make_golden.py

A rewrite is an output change: say in CHANGES.md which fields moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from binlbm.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

# (name, argv, files written); "{dir}" is the run's working directory.  Later
# cases read the matrices the simulate cases write.  At epsilon = 0.3 the
# 80x30 matrix is hard enough that the refmodel runs select different pairs,
# so the payload depends on every run's seed; at 0.25 the tune-t stops and
# the robustness subsamples' pairs and rates vary.  The reorder case runs on
# 600x300, above the size from which a Gibbs side with few moved items updates
# its counts from those items alone.
CASES = [
    ("simulate", ["simulate", "--epsilon", "0.3", "--g", "3", "--m", "4", "--n", "80",
                  "--q", "30", "--seed", "1", "--out", "{dir}/sim.csv",
                  "--labels-out", "{dir}/sim_labels.json"],
     ["sim.csv", "sim_labels.json"]),
    ("fit", ["fit", "--data", "{dir}/sim.csv", "--g", "3", "--m", "4", "--restarts", "3",
             "--seed", "2", "--out", "{dir}/fit.json"],
     ["fit.json"]),
    ("select", ["select", "--data", "{dir}/sim.csv", "--g-max", "4", "--m-max", "4",
                "--seed", "3", "--out", "{dir}/select.json"],
     ["select.json"]),
    ("select-b0.2", ["select", "--data", "{dir}/sim.csv", "--g-max", "4", "--m-max", "4",
                     "--b", "0.2", "--seed", "3", "--out", "{dir}/select_b.json"],
     ["select_b.json"]),
    ("refmodel", ["refmodel", "--data", "{dir}/sim.csv", "--runs", "3", "--g-max", "3",
                  "--m-max", "4", "--seed", "4", "--threads", "2", "--out", "{dir}/ref.json"],
     ["ref.json"]),
    ("tune-t", ["tune-t", "--epsilon", "0.05", "0.25", "0.05", "--datasets", "2",
                "--target", "2,3", "--g-max", "3", "--m-max", "3", "--t-cap", "3",
                "--n", "40", "--q", "16", "--seed", "5", "--out", "{dir}/tune.json"],
     ["tune.json"]),
    ("robustness", ["robustness", "--epsilon", "0.25", "0.25", "--datasets", "1",
                    "--sizes", "20", "30", "20", "--samples-per-size", "2",
                    "--target", "2,3", "--g-max", "3", "--m-max", "3", "--n", "40",
                    "--q", "16", "--seed", "6", "--threads", "2", "--out", "{dir}/rob.json"],
     ["rob.json"]),
    ("simulate-600x300", ["simulate", "--epsilon", "0.1", "--g", "3", "--m", "4",
                          "--n", "600", "--q", "300", "--seed", "7", "--out", "{dir}/big.csv"],
     ["big.csv"]),
    ("reorder-600x300", ["reorder", "--data", "{dir}/big.csv", "--g", "3", "--m", "4",
                         "--restarts", "2", "--seed", "8", "--out", "{dir}/re"],
     ["re_reordered.csv", "re_blocks.txt"]),
]

# config entries that hold paths, which differ from one run to the next
PATH_KEYS = ("data", "labels_out")


def outcome(path):
    """What a written file is compared by."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        for key in PATH_KEYS:
            payload["config"].pop(key, None)
        return payload
    if path.suffix == ".csv":
        return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    return path.read_text().splitlines()


def run_cases(workdir):
    """Run every case in ``workdir``: {name: {"argv": ..., "outputs": ...}}."""
    workdir = Path(workdir)
    outcomes = {}
    for name, argv, written in CASES:
        status = main([arg.replace("{dir}", str(workdir)) for arg in argv])
        if status != 0:
            raise RuntimeError(f"golden case {name!r} exited with status {status}")
        outcomes[name] = {"argv": argv,
                          "outputs": {file: outcome(workdir / file) for file in written}}
    return outcomes


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        outcomes = run_cases(workdir)
    GOLDEN.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outcomes)} cases to {GOLDEN}", file=sys.stderr)
