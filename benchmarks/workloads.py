"""The three benchmark workloads: seeded inputs, the command a round runs,
the counts the configuration implies, and the output checks.

Inputs are drawn here with numpy alone, from the staircase design written
out long-hand, so a change to ``binlbm.simulate_dataset`` cannot move them.
Every round of a run repeats the same command on the same inputs.  Commands
name their files relative to the run's work directory, which is the current
directory while they run: the data path is part of the payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# 7x7 is the paper's selection grid; the CLI default, named here so the
# configured call counts do not depend on it
GRID = (7, 7)
DATA_FILE = "data.csv"


def staircase(n, q, g, m, epsilon, rng):
    """Uniform labels, then every cell Bernoulli(eps) on and below the block
    diagonal (k >= l) and Bernoulli(1 - eps) above it."""
    z = rng.integers(0, g, size=n)
    w = rng.integers(0, m, size=q)
    rates = np.where(z[:, None] >= w[None, :], epsilon, 1.0 - epsilon)
    cells = (rng.random((n, q)) < rates).astype(np.int8)
    return cells, z, w


def write_csv(cells, path):
    """Comma-separated 0/1 rows, LF endings, no header."""
    n, q = cells.shape
    buf = np.full((n, 2 * q), ord(","), dtype=np.uint8)
    buf[:, 0::2] = cells + ord("0")
    buf[:, -1] = ord("\n")
    Path(path).write_bytes(buf.tobytes())


@dataclass(frozen=True)
class Refmodel:
    """``refmodel``: repeated single-restart grid selection on one matrix."""

    name: str = "refmodel-137x33"
    n: int = 137
    q: int = 33
    # selection is uncertain here: the selected pair varies between data sets
    # and on some between runs, and the V-Bayes work varies little by seed
    epsilon: float = 0.28
    runs: int = 3
    grid: tuple = GRID
    stream: int = 1
    payload_name = "refstudy.json"

    def inputs(self, seed):
        return staircase(self.n, self.q, 3, 4, self.epsilon,
                         np.random.default_rng([seed, self.stream]))

    def data_file(self, workdir):
        return Path(workdir) / DATA_FILE

    def argv(self, seed, out_dir):
        return ["refmodel", "--data", DATA_FILE,
                "--runs", str(self.runs), "--g-max", str(self.grid[0]),
                "--m-max", str(self.grid[1]), "--seed", str(seed), "--threads", "1",
                "--out", str(Path(out_dir) / self.payload_name)]

    def outputs(self, out_dir):
        return [Path(out_dir) / self.payload_name]

    def expected_calls(self, out_dir):
        cells = self.grid[0] * self.grid[1]
        return {
            "inference.chains": self.runs * cells,
            "inference.gibbs_init.calls": self.runs * cells,
            "inference.fit.calls": self.runs * cells,
            "model.icl.calls": self.runs * cells,
            "selection.select_model.calls": self.runs,
            "selection.reference_model_study.calls": 1,
            "io.load_matrix.calls": 1,
            "parallel.ordered_map.items": self.runs + self.runs * cells,
        }

    def check(self, seed, out_dir, capture):
        cells, _, _ = self.inputs(seed)
        payload = json.loads(self.outputs(out_dir)[0].read_text())
        return checks.check_refmodel(payload, self.runs, capture.selections, cells.tolist(),
                                     a=4.0, b=1.0)


@dataclass(frozen=True)
class Robustness:
    """``robustness``: stratified-subsample stability of the selection."""

    name: str = "robustness-subsample"
    epsilon: float = 0.15
    datasets: int = 1
    # well below n = 137: near n the allocation can exceed a group
    sizes: tuple = (20, 50, 80)
    samples: int = 1
    grid: tuple = GRID
    target: tuple = (3, 4)
    n: int = 137
    q: int = 33
    payload_name = "robustness.json"

    def inputs(self, seed):
        return None

    def argv(self, seed, out_dir):
        return ["robustness", "--epsilon", repr(self.epsilon),
                "--datasets", str(self.datasets),
                "--sizes", *(str(s) for s in self.sizes),
                "--samples-per-size", str(self.samples),
                "--target", f"{self.target[0]},{self.target[1]}",
                "--g-max", str(self.grid[0]), "--m-max", str(self.grid[1]),
                "--n", str(self.n), "--q", str(self.q), "--restarts", "1",
                "--seed", str(seed), "--threads", "1",
                "--out", str(Path(out_dir) / self.payload_name)]

    def outputs(self, out_dir):
        return [Path(out_dir) / self.payload_name]

    def _selections(self, out_dir):
        # full-data acceptance attempts, then one selection per subsample
        try:
            payload = json.loads(self.outputs(out_dir)[0].read_text())
            attempts = sum(ref["attempts"] for ref in payload["references"])
        except (OSError, ValueError, KeyError, TypeError):
            attempts = self.datasets
        return attempts, self.datasets * len(self.sizes) * self.samples

    def expected_calls(self, out_dir):
        attempts, subsamples = self._selections(out_dir)
        cells = self.grid[0] * self.grid[1]
        selections = attempts + subsamples
        return {
            "inference.chains": selections * cells,
            "inference.gibbs_init.calls": selections * cells,
            "inference.fit.calls": selections * cells,
            "model.icl.calls": selections * cells,
            "model.simulate_dataset.calls": attempts,
            "selection.select_model.calls": selections,
            "evaluation.robustness_experiment.calls": 1,
            "evaluation.stratified_subsample.calls": subsamples,
            "evaluation.best_match.calls": subsamples,
            "parallel.ordered_map.items": self.datasets + selections * cells,
        }

    def check(self, seed, out_dir, capture):
        payload = json.loads(self.outputs(out_dir)[0].read_text())
        return checks.check_robustness(payload, self.sizes, self.datasets, self.samples,
                                       capture.matches)


@dataclass(frozen=True)
class Reorder:
    """``reorder``: one (3, 4) cell with several restarts on a large CSV."""

    name: str = "reorder-5000x200"
    n: int = 5000
    q: int = 200
    epsilon: float = 0.15
    restarts: int = 3
    stream: int = 3
    # largest row misclassification rate the recovered partition may show
    max_rate: float = 0.01
    # largest distance of an estimated block rate from eps or 1 - eps
    alpha_tol: float = 0.02
    prefix = "blocks"

    def inputs(self, seed):
        return staircase(self.n, self.q, 3, 4, self.epsilon,
                         np.random.default_rng([seed, self.stream]))

    def data_file(self, workdir):
        return Path(workdir) / DATA_FILE

    def argv(self, seed, out_dir):
        return ["reorder", "--data", DATA_FILE, "--g", "3", "--m", "4",
                "--restarts", str(self.restarts), "--seed", str(seed),
                "--out", str(Path(out_dir) / self.prefix)]

    def outputs(self, out_dir):
        return [Path(out_dir) / f"{self.prefix}_reordered.csv",
                Path(out_dir) / f"{self.prefix}_blocks.txt"]

    def expected_calls(self, out_dir):
        return {
            "inference.chains": self.restarts,
            "inference.gibbs_init.calls": self.restarts,
            "inference.fit.calls": 1,
            "model.icl.calls": 1,
            "io.load_matrix.calls": 1,
            "io.export_reordered.calls": 1,
        }

    def check(self, seed, out_dir, capture):
        cells, z, _ = self.inputs(seed)
        matrix_path, blocks_path = self.outputs(out_dir)
        return checks.check_reorder(cells.tolist(), z.tolist(), matrix_path.read_text(),
                                    blocks_path.read_text(), self.epsilon, self.max_rate,
                                    self.alpha_tol)


WORKLOADS = {w.name: w for w in (Refmodel(), Robustness(), Reorder())}
