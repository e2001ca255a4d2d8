"""Partition comparison and the subsample robustness experiment.

Comparing an estimated row partition to a reference one has to look past
label switching: with equal group counts the misclassification count is
minimized over all label permutations, and with unequal counts the side with
more groups is merged onto the other through every surjective group union
before permuting.  An exact search over ordered anchor choices, at most 8
groups per side, finds that minimum (see :func:`_best_surjection`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ExperimentError, ValidationError, _whole
from .inference import _check_chain_settings
from .model import (BinaryDataMatrix, _check_labels, _one_hot, simulate_dataset,
                    staircase_parameters)
from .parallel import ordered_map
from .rng import derive_rng, derive_seed
from .selection import _grid_cells, _target_in_grid, _task, select_model

__all__ = [
    "MatchResult",
    "DatasetReference",
    "RobustnessCell",
    "RobustnessReport",
    "contingency",
    "best_match",
    "stratified_subsample",
    "robustness_experiment",
    "MAX_MATCH_GROUPS",
]

MAX_MATCH_GROUPS = 8
# simulated data sets tried per robustness data set before giving up
MAX_ATTEMPTS = 200


def contingency(ref_z, est_z, g_ref, g_est):
    """Co-occurrence counts between reference and estimated row groups."""
    g_ref, g_est = _whole(g_ref, "g_ref"), _whole(g_est, "g_est")
    ref = _check_labels(ref_z, g_ref, "ref_z")
    est = _check_labels(est_z, g_est, "est_z")
    if ref.size != est.size:
        raise ValidationError(f"label vectors differ in length: {ref.size} vs {est.size}")
    # the one-hot product's sums are exact integers far below 2**53
    return (_one_hot(ref, g_ref).T @ _one_hot(est, g_est)).astype(np.int64)


@dataclass(frozen=True)
class MatchResult:
    """Minimal misclassification between two partitions.

    ``mapping`` sends each group of the merged side onto a group of the other
    side: estimated labels onto reference labels when g_est >= g_ref, and
    reference labels onto estimated labels otherwise (``merged_side`` says
    which).  Ties are broken toward the lexicographically smallest mapping.
    """

    misclassified: int
    rate: float
    mapping: tuple
    merged_side: str


def _best_surjection(score):
    """Maximize sum_j score[f(j), j] over surjections f from the columns of
    ``score`` onto its rows (no more rows than columns).

    Each row needs one column, its anchor; every other column may as well go
    to its best row, the smallest on ties.  So trying each ordered choice of
    distinct anchors reaches the lexicographically smallest optimal map, in
    which a column that shares its row sits at its smallest best row, or
    moving it there would raise the total or give a smaller map.
    """
    n_to, n_from = score.shape
    columns = score.T.tolist()
    best_rows = score.argmax(axis=0).tolist()
    best_total = -1
    best_map = None
    for anchors in itertools.permutations(range(n_from), n_to):
        mapping = best_rows.copy()
        for target, source in enumerate(anchors):
            mapping[source] = target
        mapping = tuple(mapping)
        total = sum(column[target] for column, target in zip(columns, mapping))
        if total > best_total or (total == best_total and mapping < best_map):
            best_total = total
            best_map = mapping
    return best_total, best_map


def best_match(ref_z, est_z, g_ref, g_est):
    """Minimal misclassified count between two row partitions.

    With g_est == g_ref the minimum runs over all label permutations; with
    g_est > g_ref over all surjective unions of estimated groups onto the
    reference groups (and permutations); with g_est < g_ref the reference
    groups are merged symmetrically.
    """
    counts = contingency(ref_z, est_z, g_ref, g_est)
    g_ref, g_est = counts.shape
    if g_ref > MAX_MATCH_GROUPS or g_est > MAX_MATCH_GROUPS:
        raise ValidationError(
            f"best_match enumerates exhaustively and supports at most {MAX_MATCH_GROUPS} groups per side")
    total = int(counts.sum())
    if g_est >= g_ref:
        matched, mapping = _best_surjection(counts)
        merged_side = "estimated"
    else:
        matched, mapping = _best_surjection(counts.T)
        merged_side = "reference"
    misclassified = total - matched
    return MatchResult(misclassified=misclassified, rate=misclassified / total,
                       mapping=mapping, merged_side=merged_side)


def _largest_remainder(proportions, total, capacity):
    """Largest-remainder rounding of ``total * proportions`` (ties go to the
    smaller index), capped at ``capacity``: the rows a group cannot hold go
    one at a time, in the same remainder order, to the groups with room.
    ``capacity`` must sum to at least ``total``."""
    quota = proportions * total
    base = np.floor(quota).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover < 0:
        raise ValidationError("proportions sum above 1; allocation is infeasible")
    order = np.lexsort((np.arange(proportions.size), -(quota - base)))
    allocation = base.copy()
    allocation[order[:leftover]] += 1
    surplus = int(np.maximum(allocation - capacity, 0).sum())
    allocation = np.minimum(allocation, capacity)
    while surplus:
        room = order[allocation[order] < capacity[order]][:surplus]
        allocation[room] += 1
        surplus -= room.size
    return allocation


def stratified_subsample(data, ref_z, proportions, n_sub, seed):
    """Sample ``n_sub`` rows without replacement, allocating per reference
    group by largest-remainder rounding of ``n_sub * proportions`` (ties go
    to the smaller group index).  A group asked for more rows than it holds
    gives all of them, and the rest go row by row, in the same remainder
    order, to groups with rows to spare; at ``n_sub = n`` every row is taken.

    Selected rows keep their original relative order; returns the submatrix,
    the reference labels of the selected rows, and the original row indices.
    """
    prop = np.asarray(proportions, dtype=float)
    if prop.ndim != 1 or prop.size < 1:
        raise ValidationError("proportions must be a non-empty 1-d vector")
    if not np.all(np.isfinite(prop)) or np.any(prop < 0.0):
        raise ValidationError("proportions must be non-negative and finite")
    if abs(float(prop.sum()) - 1.0) > 1e-8:
        raise ValidationError(f"proportions must sum to 1, got {float(prop.sum())!r}")
    ref = _check_labels(ref_z, prop.size, "ref_z")
    if ref.size != data.n:
        raise ValidationError("ref_z length must equal the number of data rows")
    n_sub = _whole(n_sub, "n_sub")
    if n_sub > data.n:
        raise ValidationError(f"n_sub must lie in [1, {data.n}], got {n_sub}")
    allocation = _largest_remainder(prop, n_sub, np.bincount(ref, minlength=prop.size))
    rng = derive_rng(seed)
    chosen = []
    for k in range(prop.size):
        if allocation[k] == 0:
            continue
        members = np.flatnonzero(ref == k)
        chosen.append(rng.choice(members, size=allocation[k], replace=False))
    rows = np.sort(np.concatenate(chosen))
    return BinaryDataMatrix(data.values[rows]), ref[rows].copy(), rows


@dataclass(frozen=True)
class DatasetReference:
    """Accepted full-data fit backing one robustness data set."""

    epsilon: float
    dataset_index: int
    attempts: int
    proportions: np.ndarray


@dataclass(frozen=True)
class RobustnessCell:
    """Aggregated outcomes for one (epsilon, sample size) cell.

    ``pair_counts`` maps selected (g, m) pairs to how many subsamples chose
    them; ``rates_by_g`` collects the misclassification rates of every
    subsample whose selected row-group count was g (boxplot raw data).
    """

    epsilon: float
    sample_size: int
    pair_counts: dict
    rates_by_g: dict


@dataclass(frozen=True)
class RobustnessReport:
    cells: tuple
    references: tuple
    datasets_per_eps: int
    samples_per_size: int

    def cell(self, epsilon, sample_size):
        for entry in self.cells:
            if entry.epsilon == epsilon and entry.sample_size == sample_size:
                return entry
        raise KeyError((epsilon, sample_size))


def _robustness_dataset(designs, n, q, grid, target, sample_sizes, samples_per_size, seed,
                        fit_options, key):
    """Unit of :func:`robustness_experiment`: accept data set (e, d), then its subsamples."""
    eps_index, dataset_index = key
    epsilon, params = designs[eps_index]
    for attempt in range(MAX_ATTEMPTS):
        with _task(f"epsilon={epsilon}, dataset {dataset_index}, attempt {attempt}"):
            dataset, _ = simulate_dataset(
                params, n, q, seed=derive_seed(seed, eps_index, dataset_index, attempt, 0))
            selection = select_model(
                dataset, *grid,
                seed=derive_seed(seed, eps_index, dataset_index, attempt, 1), **fit_options)
        if selection.best_pair == target:
            break
    else:
        raise ExperimentError(
            f"epsilon={epsilon}, dataset {dataset_index}: no accepted data set "
            f"within {MAX_ATTEMPTS} attempts")
    proportions = selection.best_fit.params.pi
    outcomes = []
    for n_sub in sample_sizes:
        for sample_index in range(samples_per_size):
            with _task(f"epsilon={epsilon}, dataset {dataset_index}, n={n_sub}, "
                       f"sample {sample_index}"):
                sub, sub_ref, _rows = stratified_subsample(
                    dataset, selection.best_fit.map_part.z, proportions, n_sub,
                    seed=derive_seed(seed, eps_index, dataset_index, n_sub, sample_index, 2))
                sub_selection = select_model(
                    sub, *grid,
                    seed=derive_seed(seed, eps_index, dataset_index, n_sub, sample_index, 3),
                    **fit_options)
                match = best_match(sub_ref, sub_selection.best_fit.map_part.z,
                                   target[0], sub_selection.best_pair[0])
            outcomes.append((n_sub, sub_selection.best_pair, match.rate))
    return DatasetReference(epsilon, dataset_index, attempt + 1, proportions), outcomes


def robustness_experiment(epsilon_list, datasets_per_eps, sample_sizes, samples_per_size,
                          grid, *, seed=0, target_pair=(3, 4), n=137, q=33, **fit_options):
    """Stability of grid selection under stratified subsampling of the rows.

    Per epsilon and data set: simulate from the staircase design until the
    full-data selection returns ``target_pair`` (each failed attempt draws a
    fresh data set, up to ``MAX_ATTEMPTS``), keep that fit's MAP row
    partition and estimated row proportions as the reference; then for every
    sample size draw stratified subsamples, re-run the selection on each,
    tabulate the selected pair, and score the subsample's row partition
    against the reference labels of the sampled rows with
    :func:`best_match`.  A count that is not a whole number >= 1,
    no epsilon or sample size, a grid of more than
    ``MAX_MATCH_GROUPS`` row groups, an invalid epsilon, a keyword that
    :func:`fit` does not take, or a chain setting that it would refuse, is
    rejected before any simulation.  The remaining keywords (``prior``,
    ``restarts``, ``gibbs_sweeps``, ``max_iter``, ``tol``) go unchanged to
    :func:`fit`, with its defaults.  A failing task keeps its error type,
    prefixed by its epsilon, data set, and attempt or subsample size and
    index; :class:`ExperimentError` means that no data set was accepted.
    """
    datasets_per_eps = _whole(datasets_per_eps, "datasets_per_eps")
    samples_per_size = _whole(samples_per_size, "samples_per_size")
    n, q = _whole(n, "n"), _whole(q, "q")
    sample_sizes = [_whole(s, "sample size") for s in sample_sizes]
    if not sample_sizes:
        raise ValidationError("sample_sizes must hold at least one size")
    if max(sample_sizes) > n:
        raise ValidationError(f"sample sizes must lie in [1, {n}]")
    _check_chain_settings(**fit_options)
    grid = _grid_cells(*grid)[-1]
    if grid[0] > MAX_MATCH_GROUPS:
        raise ValidationError(
            f"g_max={grid[0]} exceeds the {MAX_MATCH_GROUPS} row groups best_match supports")
    target = _target_in_grid(target_pair, grid)
    designs = [(float(e), staircase_parameters(*target, e)) for e in epsilon_list]
    if not designs:
        raise ValidationError("epsilon_list must hold at least one epsilon")
    keys = [(e, d) for e in range(len(designs)) for d in range(datasets_per_eps)]
    results = ordered_map(partial(_robustness_dataset, designs, n, q, grid, target,
                                  sample_sizes, samples_per_size, seed, fit_options), keys)

    tallies = {}
    for reference, outcomes in results:
        for size, pair, rate in outcomes:
            pair_counts, rates_by_g = tallies.setdefault((reference.epsilon, size), (Counter(), {}))
            pair_counts[pair] += 1
            rates_by_g.setdefault(pair[0], []).append(rate)
    cells = []
    for epsilon, _ in designs:
        for n_sub in sample_sizes:
            pair_counts, rates_by_g = tallies[(epsilon, n_sub)]
            cells.append(RobustnessCell(
                epsilon=epsilon,
                sample_size=n_sub,
                pair_counts=dict(sorted(pair_counts.items())),
                rates_by_g={g: tuple(rates) for g, rates in sorted(rates_by_g.items())},
            ))
    return RobustnessReport(
        cells=tuple(cells),
        references=tuple(reference for reference, _ in results),
        datasets_per_eps=datasets_per_eps,
        samples_per_size=samples_per_size,
    )
