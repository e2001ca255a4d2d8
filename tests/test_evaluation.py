import itertools

import numpy as np
import pytest

from binlbm import (
    BinaryDataMatrix,
    PriorHyperparams,
    ValidationError,
    best_match,
    contingency,
    robustness_experiment,
    select_model,
    simulate_dataset,
    staircase_parameters,
    stratified_subsample,
)
from binlbm import evaluation
from binlbm.evaluation import MAX_MATCH_GROUPS, MatchResult, _best_surjection, _largest_remainder
from binlbm.rng import derive_seed
from oracles import TABLE5_COUNTS, TABLE5_EST, TABLE5_REF, best_match_bruteforce

PRIOR = PriorHyperparams()


def random_labels(rng, n, g):
    return rng.integers(0, g, size=n)


class TestContingency:
    def test_identical_labels_are_diagonal(self):
        labels = np.array([0, 1, 2, 0, 1, 2, 2])
        counts = contingency(labels, labels, 3, 3)
        assert np.array_equal(counts, np.diag([2, 2, 3]))

    def test_published_switching_example(self):
        counts = contingency(TABLE5_REF, TABLE5_EST, 3, 3)
        assert counts.tolist() == TABLE5_COUNTS
        assert int(counts.sum()) == 20

    def test_single_estimated_group(self):
        ref = np.array([0, 1, 2, 1])
        est = np.zeros(4, dtype=int)
        counts = contingency(ref, est, 3, 1)
        assert counts.tolist() == [[1], [2], [1]]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            contingency([0, 1], [0], 2, 2)


class TestBestMatch:
    def test_published_switching_example(self):
        result = best_match(TABLE5_REF, TABLE5_EST, 3, 3)
        assert result.misclassified == 3
        assert result.rate == pytest.approx(3 / 20)
        # the winning switch swaps the last two estimated groups
        assert result.mapping == (0, 2, 1)
        assert result.merged_side == "estimated"

    def test_relabeled_copy_matches_perfectly(self):
        rng = np.random.default_rng(3)
        ref = random_labels(rng, 40, 4)
        perm = rng.permutation(4)
        assert best_match(ref, perm[ref], 4, 4).misclassified == 0

    def test_self_match_is_zero(self):
        rng = np.random.default_rng(5)
        for g in (1, 2, 5):
            labels = random_labels(rng, 25, g)
            assert best_match(labels, labels, g, g).misclassified == 0

    def test_merge_case_against_bruteforce(self):
        ref = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
        est = np.array([0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 1])
        result = best_match(ref, est, 3, 2)
        assert result.merged_side == "reference"
        assert result.misclassified == best_match_bruteforce(
            ref.tolist(), est.tolist(), 3, 2)

    def test_random_pairs_against_bruteforce(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            g_ref = int(rng.integers(1, 5))
            g_est = int(rng.integers(1, 5))
            n = int(rng.integers(4, 30))
            ref = random_labels(rng, n, g_ref)
            est = random_labels(rng, n, g_est)
            result = best_match(ref, est, g_ref, g_est)
            assert result.misclassified == best_match_bruteforce(
                ref.tolist(), est.tolist(), g_ref, g_est)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            ref = random_labels(rng, 30, 3)
            est = random_labels(rng, 30, 4)
            base = best_match(ref, est, 3, 4).misclassified
            ref_perm = rng.permutation(3)
            est_perm = rng.permutation(4)
            assert best_match(ref_perm[ref], est_perm[est], 3, 4).misclassified == base

    def test_symmetry_at_equal_group_counts(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_labels(rng, 30, 3)
            b = random_labels(rng, 30, 3)
            assert (best_match(a, b, 3, 3).misclassified
                    == best_match(b, a, 3, 3).misclassified)

    def test_equal_counts_rate_bound(self):
        rng = np.random.default_rng(29)
        for g in (2, 3, 4):
            for _ in range(10):
                ref = random_labels(rng, 36, g)
                est = random_labels(rng, 36, g)
                assert best_match(ref, est, g, g).rate <= (g - 1) / g + 1e-12

    def test_enumeration_bound(self):
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ValidationError):
            best_match(labels, labels, 9, 9)

    def test_tie_prefers_lexicographic_mapping(self):
        # two estimated groups explain the single reference group equally well
        ref = np.zeros(4, dtype=int)
        est = np.array([0, 0, 1, 1])
        result = best_match(ref, est, 1, 2)
        assert result.misclassified == 0
        assert result.mapping == (0, 0)


# verbatim copies of the former exhaustive search, kept as the oracle for the
# anchor search: every set partition of the source groups into n_to blocks,
# then every assignment of the blocks to distinct targets
def _partitions_into(items, k):
    """All ways to split ``items`` into exactly ``k`` non-empty blocks."""
    if k == 0:
        if not items:
            yield []
        return
    if len(items) < k:
        return
    head, tail = items[0], items[1:]
    for rest in _partitions_into(tail, k - 1):
        yield [[head], *rest]
    for rest in _partitions_into(tail, k):
        for i in range(len(rest)):
            yield [*rest[:i], [head, *rest[i]], *rest[i + 1:]]


def every_surjection_search(score, n_from, n_to):
    """Maximize sum_j score[f(j), j] over surjections f: [n_from] -> [n_to].

    Every surjection is a set partition of the source labels into n_to
    blocks followed by a choice of distinct targets for the blocks, which
    enumerates each candidate exactly once.
    """
    best_total = -1
    best_map = None
    for blocks in _partitions_into(list(range(n_from)), n_to):
        block_scores = [score[:, block].sum(axis=1) for block in blocks]
        for perm in itertools.permutations(range(n_to)):
            total = 0
            mapping = [0] * n_from
            for block, target, sums in zip(blocks, perm, block_scores):
                total += int(sums[target])
                for j in block:
                    mapping[j] = target
            mapping = tuple(mapping)
            if total > best_total or (total == best_total and mapping < best_map):
                best_total = total
                best_map = mapping
    return best_total, best_map


def tie_heavy_scores(seed, n_to, n_from, draws):
    """An all-zero score, then ``draws`` scores each with entries in 0..top
    for top in 1, 2, 3 and 10; the small ranges make many ties."""
    rng = np.random.default_rng(seed)
    scores = [np.zeros((n_to, n_from), dtype=np.int64)]
    for top in (1, 2, 3, 10):
        scores += [rng.integers(0, top + 1, size=(n_to, n_from)) for _ in range(draws)]
    return scores


def match_result_bruteforce(ref, est, g_ref, g_est):
    """best_match's result by trying every map onto the side with fewer
    groups in lexicographic order, keeping the first with the fewest
    misclassified rows."""
    if g_est >= g_ref:
        source, target, large, small, side = est, ref, g_est, g_ref, "estimated"
    else:
        source, target, large, small, side = ref, est, g_ref, g_est, "reference"
    best = None
    for mapping in itertools.product(range(small), repeat=large):
        if len(set(mapping)) != small:
            continue
        mis = sum(1 for s, t in zip(source, target) if mapping[s] != t)
        if best is None or mis < best[0]:
            best = (mis, mapping)
    return MatchResult(misclassified=best[0], rate=best[0] / len(ref), mapping=best[1],
                       merged_side=side)


class TestBestSurjection:
    @pytest.mark.parametrize("n_to,n_from", [(n_to, n_from) for n_from in range(1, 8)
                                             for n_to in range(1, n_from + 1)])
    def test_matches_every_surjection_search(self, n_to, n_from):
        for score in tie_heavy_scores(10 * n_from + n_to, n_to, n_from, draws=3):
            assert _best_surjection(score) == every_surjection_search(score, n_from, n_to)

    @pytest.mark.parametrize("n_to", [1, 3, 5, 8])
    def test_matches_every_surjection_search_from_eight(self, n_to):
        for score in tie_heavy_scores(80 + n_to, n_to, 8, draws=1):
            assert _best_surjection(score) == every_surjection_search(score, 8, n_to)

    def test_full_result_against_lexicographic_bruteforce(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            g_ref = int(rng.integers(1, 5))
            g_est = int(rng.integers(1, 5))
            n = int(rng.integers(1, 13))
            ref = random_labels(rng, n, g_ref)
            est = random_labels(rng, n, g_est)
            assert best_match(ref, est, g_ref, g_est) == match_result_bruteforce(
                ref.tolist(), est.tolist(), g_ref, g_est)


class TestStratifiedSubsample:
    def test_full_sample_returns_all_rows(self):
        params = staircase_parameters(3, 4, 0.1)
        data, truth = simulate_dataset(params, 30, 10, seed=1)
        freqs = np.bincount(truth.z, minlength=3) / 30.0
        sub, labels, rows = stratified_subsample(data, truth.z, freqs, 30, seed=2)
        assert np.array_equal(rows, np.arange(30))
        assert np.array_equal(sub.values, data.values)
        assert np.array_equal(labels, truth.z)

    def test_fractional_size_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew rows for a size that is not a whole number")

        data = BinaryDataMatrix(np.random.default_rng(3).integers(0, 2, size=(40, 6)))
        monkeypatch.setattr(evaluation, "derive_rng", no_draw)
        for size in (20.9, float("nan"), float("inf"), None):
            with pytest.raises(ValidationError, match=f"n_sub must be a whole number, got {size}"):
                stratified_subsample(data, np.arange(40) % 2, [0.5, 0.5], size, seed=3)

    def test_largest_remainder_allocation(self):
        # 20 rows over three equal proportions: quotas 6.67 each, two +1 of
        # the remainder go to the first two groups
        allocation = _largest_remainder(np.full(3, 1 / 3), 20, np.full(3, 20))
        assert allocation.tolist() == [7, 7, 6]

    def test_allocations_sum_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = int(rng.integers(1, 6))
            props = rng.dirichlet(np.ones(g))
            n_sub = int(rng.integers(1, 50))
            assert int(_largest_remainder(props, n_sub, np.full(g, n_sub)).sum()) == n_sub

    def test_capped_surplus_goes_round_in_remainder_order(self):
        # quotas 5, 3, 2 with no remainder, so the order is by index; group 0
        # holds 2, and its 3 surplus rows go to groups 1, 2, 1
        allocation = _largest_remainder(np.array([0.5, 0.3, 0.2]), 10, np.array([2, 9, 9]))
        assert allocation.tolist() == [2, 5, 3]

    def test_cap_keeps_feasible_allocations(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            g = int(rng.integers(1, 6))
            props = rng.dirichlet(np.ones(g))
            sizes = rng.integers(1, 30, size=g)
            n_sub = int(rng.integers(1, sizes.sum() + 1))
            free = _largest_remainder(props, n_sub, np.full(g, n_sub))
            capped = _largest_remainder(props, n_sub, sizes)
            assert int(capped.sum()) == n_sub and np.all(capped <= sizes)
            if np.all(free <= sizes):
                assert np.array_equal(capped, free)

    def test_determinism(self):
        params = staircase_parameters(3, 4, 0.1)
        data, truth = simulate_dataset(params, 40, 12, seed=3)
        first = stratified_subsample(data, truth.z, np.full(3, 1 / 3), 15, seed=9)
        second = stratified_subsample(data, truth.z, np.full(3, 1 / 3), 15, seed=9)
        assert np.array_equal(first[2], second[2])
        assert np.array_equal(first[0].values, second[0].values)

    def test_allocation_capped_at_group_sizes(self):
        # quotas 9 and 1, but group 0 holds 2 rows: it gives both, and
        # group 1 gives the other 8
        data = BinaryDataMatrix(np.zeros((20, 4), dtype=int))
        ref = np.array([0] * 2 + [1] * 18)
        _, labels, rows = stratified_subsample(data, ref, np.array([0.9, 0.1]), 10, seed=0)
        assert np.bincount(labels).tolist() == [2, 8]
        assert rows[:2].tolist() == [0, 1]

    def test_labels_follow_selected_rows(self):
        params = staircase_parameters(2, 2, 0.2)
        data, truth = simulate_dataset(params, 25, 8, seed=5)
        freqs = np.bincount(truth.z, minlength=2) / 25.0
        sub, labels, rows = stratified_subsample(data, truth.z, freqs, 12, seed=6)
        assert np.array_equal(labels, truth.z[rows])
        assert np.array_equal(sub.values, data.values[rows])
        assert np.all(np.diff(rows) > 0)


@pytest.fixture(scope="module")
def small_report():
    return robustness_experiment(
        [0.15], datasets_per_eps=2, sample_sizes=[20, 60], samples_per_size=2,
        grid=(4, 5), prior=PRIOR, seed=99, n=80, q=30)


class TestRobustnessExperiment:
    def test_cell_counts_sum(self, small_report):
        for cell in small_report.cells:
            assert sum(cell.pair_counts.values()) == 2 * 2

    def test_rates_are_valid(self, small_report):
        for cell in small_report.cells:
            for g, rates in cell.rates_by_g.items():
                assert all(0.0 <= rate <= 1.0 for rate in rates)
                if g == 3:
                    assert all(rate <= 2 / 3 + 1e-12 for rate in rates)

    def test_rate_lists_align_with_pair_counts(self, small_report):
        for cell in small_report.cells:
            per_g = {}
            for (g, _), count in cell.pair_counts.items():
                per_g[g] = per_g.get(g, 0) + count
            assert {g: len(r) for g, r in cell.rates_by_g.items()} == per_g

    def test_references_recorded(self, small_report):
        assert len(small_report.references) == 2
        for ref in small_report.references:
            assert ref.attempts >= 1
            assert ref.proportions.shape == (3,)
            assert ref.proportions.sum() == pytest.approx(1.0, abs=1e-9)

    def test_every_task_replays_from_its_keys(self, small_report):
        # the seed contract at the unit level: each acceptance attempt and each
        # subsample runs from seeds derived from its own key, so replaying
        # them one by one rebuilds every cell of the report
        seed, target, grid = 99, (3, 4), (4, 5)
        params = staircase_parameters(*target, 0.15)
        tallies = {}
        for d, reference in enumerate(small_report.references):
            for attempt in range(reference.attempts):
                dataset, _ = simulate_dataset(params, 80, 30,
                                              seed=derive_seed(seed, 0, d, attempt, 0))
                selection = select_model(dataset, *grid, prior=PRIOR,
                                         seed=derive_seed(seed, 0, d, attempt, 1))
                assert (selection.best_pair == target) == (attempt == reference.attempts - 1)
            assert np.array_equal(selection.best_fit.params.pi, reference.proportions)
            for n_sub in (20, 60):
                for sample in range(2):
                    sub, sub_ref, _ = stratified_subsample(
                        dataset, selection.best_fit.map_part.z, reference.proportions, n_sub,
                        seed=derive_seed(seed, 0, d, n_sub, sample, 2))
                    sub_selection = select_model(sub, *grid, prior=PRIOR,
                                                 seed=derive_seed(seed, 0, d, n_sub, sample, 3))
                    pair = sub_selection.best_pair
                    rate = best_match(sub_ref, sub_selection.best_fit.map_part.z,
                                      target[0], pair[0]).rate
                    pair_counts, rates_by_g = tallies.setdefault(n_sub, ({}, {}))
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
                    rates_by_g.setdefault(pair[0], []).append(rate)
        for n_sub, (pair_counts, rates_by_g) in tallies.items():
            cell = small_report.cell(0.15, n_sub)
            assert cell.pair_counts == pair_counts
            assert cell.rates_by_g == {g: tuple(rates) for g, rates in rates_by_g.items()}

    def test_cell_lookup(self, small_report):
        cell = small_report.cell(0.15, 20)
        assert cell.sample_size == 20
        with pytest.raises(KeyError):
            small_report.cell(0.15, 999)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValidationError):
            robustness_experiment([0.1], 1, [500], 1, grid=(3, 4), n=80, q=30)

    def test_oversized_grid_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a data set for an unsupported grid")

        monkeypatch.setattr(evaluation, "simulate_dataset", no_simulation)
        with pytest.raises(ValidationError, match="best_match"):
            robustness_experiment([0.1], 1, [20], 1, grid=(MAX_MATCH_GROUPS + 1, 4),
                                  n=60, q=24)

    def test_invalid_epsilon_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a data set before checking every epsilon")

        monkeypatch.setattr(evaluation, "simulate_dataset", no_simulation)
        with pytest.raises(ValidationError, match="epsilon"):
            robustness_experiment([0.1, 1.5], 1, [5], 1, grid=(1, 1), target_pair=(1, 1),
                                  n=10, q=5)

    def test_empty_sample_sizes_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a data set with no sample size to draw")

        monkeypatch.setattr(evaluation, "simulate_dataset", no_simulation)
        with pytest.raises(ValidationError, match="sample_sizes"):
            robustness_experiment([0.1], 1, [], 1, grid=(2, 2), target_pair=(2, 2), n=20, q=8)

    def test_empty_epsilon_list_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a data set with no epsilon to study")

        monkeypatch.setattr(evaluation, "simulate_dataset", no_simulation)
        with pytest.raises(ValidationError, match="epsilon_list must hold at least one epsilon"):
            robustness_experiment([], 1, [10], 1, (2, 2), target_pair=(2, 2), n=20, q=8)

    def test_fractional_size_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a data set for a size that is not a whole number")

        monkeypatch.setattr(evaluation, "simulate_dataset", no_simulation)
        for size in (20.9, float("nan"), float("inf"), None):
            with pytest.raises(ValidationError,
                               match=f"sample size must be a whole number, got {size}"):
                robustness_experiment([0.1], 1, [size], 1, (2, 3), target_pair=(2, 3), n=40,
                                      q=18, seed=9)

    def test_repeated_epsilons_and_sizes_keep_their_cells(self):
        report = robustness_experiment([0.1, 0.1], 1, [12, 16, 12], 1, grid=(2, 2),
                                       target_pair=(2, 2), seed=4, n=30, q=10)
        assert [(c.epsilon, c.sample_size) for c in report.cells] == [(0.1, 12), (0.1, 16),
                                                                      (0.1, 12)] * 2
        # a cell pools every outcome whose epsilon and size equal its own
        totals = [sum(c.pair_counts.values()) for c in report.cells]
        assert totals == [4, 2, 4] * 2
        assert report.cells[0] == report.cells[2] == report.cells[3] == report.cells[5]
