"""ICL model selection over a (g, m) grid, plus the two study drivers built
on top of it: restart-count tuning on simulated staircase data, and the
repeated-run reference-model study with its inter-arrival statistics.

A failing task re-raises its error with the same type, prefixed by its key:
the grid cell, the run, or the epsilon, data set and T.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import LbmError, ValidationError, _whole
from .inference import _check_chain_settings, fit
from .model import _staircase_designs, simulate_dataset
from .parallel import ordered_map
from .rng import derive_seed

__all__ = [
    "SelectionResult",
    "TuningRecord",
    "InterArrivalSummary",
    "ReferenceStudy",
    "select_model",
    "tune_restarts",
    "reference_model_study",
    "inter_arrivals",
    "summarize_inter_arrivals",
]

DEFAULT_GRID = (7, 7)
DEFAULT_T_CAP = 200


@dataclass(frozen=True)
class SelectionResult:
    """Per-cell fits over the grid, and the cell that ICL selection picks.

    ``grid`` lists (g, m, FitResult) for every cell in row-major order.
    ``best_pair`` and ``best_fit`` are the (g, m) and the fit of the cell
    with the largest ICL; ties go to the smaller g + m, then the smaller g.
    """

    grid: tuple

    def _best_cell(self):
        return max(self.grid, key=lambda c: (c[2].icl_value, -(c[0] + c[1]), -c[0]))

    @property
    def best_pair(self):
        return self._best_cell()[:2]

    @property
    def best_fit(self):
        return self._best_cell()[2]

    def cell(self, g, m):
        for gg, mm, fit_result in self.grid:
            if (gg, mm) == (g, m):
                return fit_result
        raise KeyError((g, m))


def _target_in_grid(target_pair, grid):
    """The target pair as ints, rejected when it lies outside the grid."""
    target_g, target_m = (_whole(count, "target pair") for count in target_pair)
    if target_g > grid[0] or target_m > grid[1]:
        raise ValidationError(f"target pair {target_pair} lies outside the grid {grid}")
    return target_g, target_m


@contextmanager
def _task(key):
    """Re-raise a package error as the same type, "<key> failed: <message>"."""
    try:
        yield
    except LbmError as exc:
        raise type(exc)(f"{key} failed: {exc}") from exc


def _grid_cells(g_max, m_max):
    """Every (g, m) of the grid in row-major order; the last is (g_max, m_max) as ints."""
    g_max, m_max = (_whole(bound, "g_max and m_max") for bound in (g_max, m_max))
    return [(g, m) for g in range(1, g_max + 1) for m in range(1, m_max + 1)]


def _fit_cell(data, seed, fit_options, pair):
    """Unit of :func:`select_model`: the fit of grid cell ``pair`` = (g, m)."""
    g, m = pair
    with _task(f"grid cell (g={g}, m={m})"):
        return fit(data, g, m, seed=derive_seed(seed, g, m), **fit_options)


def select_model(data, g_max, m_max, *, seed=0, **fit_options):
    """Fit every (g, m) in [1..g_max] x [1..m_max] and return the ICL argmax.

    Each cell uses an RNG stream derived from (seed, g, m), so its fit does
    not depend on the other cells.  A failing cell re-raises its error with
    the same type and the (g, m) pair in the message.  The other
    keywords (``prior``, ``restarts``, ``gibbs_sweeps``, ``max_iter``,
    ``tol``) go to :func:`fit`, checked before the first cell, with its defaults.
    """
    pairs = _grid_cells(g_max, m_max)
    _check_chain_settings(**fit_options)
    fits = ordered_map(partial(_fit_cell, data, seed, fit_options), pairs)
    return SelectionResult(tuple((g, m, fr) for (g, m), fr in zip(pairs, fits)))


@dataclass(frozen=True)
class TuningRecord:
    """Stopping restart counts for one difficulty level.

    ``stop_t[i]`` is the first T at which dataset i selected the target pair;
    where ``censored[i]`` is True the search hit the cap without success and
    ``stop_t[i]`` equals the cap.
    """

    epsilon: float
    stop_t: tuple
    censored: tuple

    def __post_init__(self):
        if len(self.stop_t) != len(self.censored):
            raise ValidationError("stop_t and censored must have equal lengths")
        for t in self.stop_t:
            _whole(t, "every recorded T")

    def distribution(self):
        """Counts of uncensored stopping values, plus the censored tally."""
        counts = Counter(t for t, flag in zip(self.stop_t, self.censored) if not flag)
        return dict(sorted(counts.items())), sum(1 for flag in self.censored if flag)


def _tune_dataset(designs, n, q, grid, target, t_cap, seed, fit_options, key):
    """Unit of :func:`tune_restarts`: (stopping T, censored) of data set (e, d)."""
    eps_index, dataset_index = key
    epsilon, params = designs[eps_index]
    dataset, _ = simulate_dataset(params, n, q, derive_seed(seed, eps_index, dataset_index, 0))
    for t_count in range(1, t_cap + 1):
        with _task(f"epsilon={epsilon}, dataset {dataset_index}, T={t_count}"):
            result = select_model(dataset, *grid, restarts=t_count,
                                  seed=derive_seed(seed, eps_index, dataset_index, t_count),
                                  **fit_options)
        if result.best_pair == target:
            return t_count, False
    return t_cap, True


def tune_restarts(epsilon_list, datasets_per_eps, target_pair, grid, *,
                  t_cap=DEFAULT_T_CAP, seed=0, n=137, q=33, **fit_options):
    """Smallest restart count at which grid selection finds the target pair.

    For each epsilon, simulates ``datasets_per_eps`` data sets of size (n, q)
    from the staircase design with the target pair's group counts, then for
    each data set raises T one step at a time, re-running the full grid
    selection with T restarts, until the target pair is selected or ``t_cap``
    is reached (recorded as censored; censoring is a normal outcome).  A
    fresh data set is drawn only in the outer loop, never while T grows.
    The counts, the epsilons (at least one), every keyword for :func:`fit`
    and every chain setting are checked before any data set is drawn.  The remaining
    keywords (``prior``, ``gibbs_sweeps``, ``max_iter``, ``tol``) go
    unchanged to :func:`fit`, with its defaults.
    """
    t_cap, datasets_per_eps = _whole(t_cap, "t_cap"), _whole(datasets_per_eps, "datasets_per_eps")
    n, q = _whole(n, "n"), _whole(q, "q")
    _check_chain_settings(restarts=1, **fit_options)
    grid = _grid_cells(*grid)[-1]
    target = _target_in_grid(target_pair, grid)
    designs = _staircase_designs(target, epsilon_list)
    keys = [(e, d) for e in range(len(designs)) for d in range(datasets_per_eps)]
    outcomes = ordered_map(partial(_tune_dataset, designs, n, q, grid, target, t_cap,
                                   seed, fit_options), keys)
    # one record per epsilon, of (stop_t, censored) over its run of data sets
    starts = range(0, len(keys), datasets_per_eps)
    return [TuningRecord(epsilon, *zip(*outcomes[start:start + datasets_per_eps]))
            for start, (epsilon, _) in zip(starts, designs)]


@dataclass(frozen=True)
class InterArrivalSummary:
    minimum: float
    first_quartile: float
    median: float
    mean: float
    third_quartile: float
    maximum: float


def inter_arrivals(occurrence_indices):
    """Waiting times between successive occurrences.

    Occurrence indices are 1-based run numbers and must be strictly
    increasing; the first waiting time is the first occurrence index itself.
    """
    if np.ndim(occurrence_indices) != 1 or np.size(occurrence_indices) < 1:
        raise ValidationError("occurrence indices must form a non-empty 1-d sequence")
    idx = np.array([_whole(i, "occurrence index") for i in occurrence_indices], dtype=np.int64)
    if np.any(np.diff(idx) <= 0):
        raise ValidationError("occurrence indices must be strictly increasing")
    return np.diff(idx, prepend=0)


def summarize_inter_arrivals(occurrence_indices):
    """Order statistics (linear-interpolation quartiles) of the waiting times."""
    gaps = inter_arrivals(occurrence_indices).astype(float)
    return InterArrivalSummary(
        minimum=float(gaps.min()),
        first_quartile=float(np.percentile(gaps, 25)),
        median=float(np.median(gaps)),
        mean=float(gaps.mean()),
        third_quartile=float(np.percentile(gaps, 75)),
        maximum=float(gaps.max()),
    )


@dataclass(frozen=True)
class ReferenceStudy:
    """Outcome of repeating single-restart grid selection ``runs`` times.

    The reference pair is the selection of the run with the highest ICL over
    all runs; it can be rare, so the occurrence count is surfaced explicitly
    rather than hidden inside the summary.
    """

    runs: int
    selected_pairs: tuple
    reference_pair: tuple
    reference_icl: float
    occurrence_indices: tuple
    inter_arrival_summary: InterArrivalSummary

    @property
    def occurrences(self):
        return len(self.occurrence_indices)


def _reference_run(data, grid, seed, fit_options, run_index):
    """Unit of :func:`reference_model_study`: the pair selected in a run, and its ICL."""
    with _task(f"reference run {run_index}"):
        result = select_model(data, *grid, restarts=1, seed=derive_seed(seed, run_index),
                              **fit_options)
    return result.best_pair, result.best_fit.icl_value


def reference_model_study(data, grid, *, runs=1, seed=0, **fit_options):
    """Repeat single-restart grid selection and study when the best-ICL
    selection reappears.

    Run k derives its stream from (seed, k); the reference pair is the pair
    selected by the run attaining the maximal ICL (earliest run on exact
    ties), and the inter-arrival summary describes the 1-based gaps between
    the runs that selected it.  The remaining keywords (``prior``,
    ``gibbs_sweeps``, ``max_iter``, ``tol``) go unchanged to :func:`fit`,
    with its defaults, and are checked before the first run, as is the grid.
    """
    runs = _whole(runs, "runs")
    _check_chain_settings(restarts=1, **fit_options)
    grid = _grid_cells(*grid)[-1]  # refuses an empty grid before the first run
    outcomes = ordered_map(partial(_reference_run, data, grid, seed, fit_options), range(runs))
    # max keeps the earliest of equal ICLs
    reference_pair, reference_icl = max(outcomes, key=lambda outcome: outcome[1])
    occurrence_indices = tuple(k + 1 for k, (pair, _) in enumerate(outcomes)
                               if pair == reference_pair)
    return ReferenceStudy(
        runs=runs,
        selected_pairs=tuple(pair for pair, _ in outcomes),
        reference_pair=reference_pair,
        reference_icl=reference_icl,
        occurrence_indices=occurrence_indices,
        inter_arrival_summary=summarize_inter_arrivals(occurrence_indices),
    )
